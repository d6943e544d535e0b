"""Seeded workload inputs: materialise once, cache, verify on every load.

The program under test only ever sees files.  ``materialise`` builds a
workload's inputs from :mod:`repro.simulation` under
``.cache/<workload>-s<seed>-x<scale>/`` together with ``truth.json`` — the
generator's ground truth (frames offered, Zoom frames, SSRCs, meetings) and
a sha-256 of every input file.  ``load`` re-hashes the files on every
set-up, and for the pinned default seed compares them with ``pins.json``:
a generator that drifted must come back as a benchmark PR, not as a silent
change of what every later speed-up is measured on.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import struct
from pathlib import Path

from common import CACHE_DIR, PINS_JSON, dump_json, load_json, scale_tag


class TraceMismatch(RuntimeError):
    """A materialised input no longer matches its recorded sha-256."""


# The issue's sizes at scale 1.0.  Durations are seconds of simulated
# meeting time; packet counts follow from the emulator's per-participant
# rates (~250 packets/s per participant).
BORDER_MEETING_SECONDS = 24.0  # 2-party meeting, ~6k packets at the border
BORDER_BACKGROUND_PER_ZOOM = 49  # 98% background
MEETING_MEDIA_SECONDS = 30.0  # 3-party SFU meeting, ~22k packets
CAMPUS_MEETINGS_PER_HOUR = 5.0  # x3 hours x diurnal profile ~ 12 short meetings
CAMPUS_HOURS = 3
STORE_RECORDS = 12_000

#: Draws what is *in* the campus and store workloads (see the builders);
#: ``--seed`` then varies the noise within that fixed structure.
STRUCTURE_SEED = 20220816

#: Frames (or records) in the opcode-traced prefix of each workload; sized
#: so the traced pass stays within a few seconds at ~4M traced opcodes/s.
PREFIX_ITEMS = {
    "border98": 40_000,
    "meeting_media": 2_000,
    "campus_live": 2_500,
    "store_rw": 1_500,
}

_BACKGROUND_POOL = 4096
_CAMPUS_FILES = 3


def cache_dir(workload: str, seed: int, scale: float) -> Path:
    return CACHE_DIR / f"{workload}-s{seed}-x{scale_tag(scale)}"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load(workload: str, seed: int, scale: float) -> dict:
    """Verify the cached inputs of one workload and return its truth record.

    Raises :class:`TraceMismatch` when a file differs from the sha-256
    recorded at materialisation, or — for a pinned (seed, scale) — from the
    committed pin.
    """
    directory = cache_dir(workload, seed, scale)
    truth = load_json(directory / "truth.json")
    hashes = {name: sha256_file(directory / name) for name in truth["sha256"]}
    if hashes != truth["sha256"]:
        changed = sorted(n for n in hashes if hashes[n] != truth["sha256"][n])
        raise TraceMismatch(
            f"{workload}: cached input {', '.join(changed)} differs from the "
            f"sha-256 recorded when it was materialised; delete {directory} "
            "to rebuild it"
        )
    pin = load_json(PINS_JSON)["traces"].get(f"{workload}@{scale_tag(scale)}")
    if pin is not None and pin["seed"] == seed:
        if pin["items"] != truth["items"] or pin["sha256"] != hashes:
            raise TraceMismatch(
                f"{workload}: the materialised input for the pinned seed {seed} "
                f"(scale {scale_tag(scale)}) differs from pins.json — the "
                "workload changed and needs a benchmark PR"
            )
    truth["dir"] = str(directory)
    return truth


def materialise(workload: str, seed: int, scale: float) -> dict:
    """Build one workload's inputs unless a complete cache entry exists."""
    directory = cache_dir(workload, seed, scale)
    if (directory / "truth.json").exists():
        return load_json(directory / "truth.json")
    building = directory.with_name(directory.name + ".building")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    truth = _BUILDERS[workload](building, seed, scale)
    truth.update(workload=workload, seed=seed, scale=scale)
    truth["sha256"] = {
        path.name: sha256_file(path) for path in sorted(building.iterdir())
    }
    dump_json(building / "truth.json", truth)
    shutil.rmtree(directory, ignore_errors=True)
    building.replace(directory)
    return truth


# ------------------------------------------------------------ packet inputs


def _write_pcap(path: Path, packets: list) -> None:
    from repro.net.pcap import write_pcap

    write_pcap(path, packets)


def _zoom_truth(result, frames: int) -> dict:
    return {
        "items": frames,
        "zoom_frames": frames,
        "ssrcs": sorted({truth.ssrc for truth in result.stream_truths}),
    }


def _sfu_stream_count(participants) -> int:
    """Streams a border monitor sees of one SFU meeting: every on-campus
    participant's own uplink streams plus, per on-campus receiver, every
    other participant's streams forwarded down to it."""
    media = [len(p.media) for p in participants]
    campus = [i for i, p in enumerate(participants) if p.on_campus]
    uplink = sum(media[i] for i in campus)
    downlink = sum(sum(media) - media[i] for i in campus)
    return uplink + downlink


def _meeting(seed: int, parties: int, duration: float, **overrides):
    from repro.simulation import MeetingConfig, MeetingSimulator, ParticipantConfig

    participants = tuple(
        ParticipantConfig(name=f"p{i}", on_campus=(i % 2 == 0), join_time=0.4 * i)
        for i in range(parties)
    )
    config = MeetingConfig(
        meeting_id="bench-meeting",
        participants=participants,
        duration=duration,
        seed=seed,
        **{"allow_p2p": False, **overrides},
    )
    return participants, MeetingSimulator(config).run()


def _build_meeting_media(directory: Path, seed: int, scale: float) -> dict:
    participants, result = _meeting(seed, 3, MEETING_MEDIA_SECONDS * scale)
    packets = result.captures
    _write_pcap(directory / "input.pcap", packets)
    prefix = min(PREFIX_ITEMS["meeting_media"], len(packets))
    _write_pcap(directory / "prefix.pcap", packets[:prefix])
    truth = _zoom_truth(result, len(packets))
    truth.update(
        prefix_items=prefix,
        streams=_sfu_stream_count(participants),
        meetings=1,
    )
    return truth


def _build_border98(directory: Path, seed: int, scale: float) -> dict:
    from repro.net.packet import CapturedPacket

    participants, result = _meeting(seed, 2, BORDER_MEETING_SECONDS * scale)
    zoom = result.captures
    rng = random.Random(seed ^ 0xB0DE4)
    pool = _background_pool(rng)
    count = len(zoom) * BORDER_BACKGROUND_PER_ZOOM
    first, last = zoom[0].timestamp, zoom[-1].timestamp
    stamps = sorted(rng.uniform(first, last) for _ in range(count))
    background = [
        CapturedPacket(stamp, frame)
        for stamp, frame in zip(stamps, rng.choices(pool, k=count))
    ]
    packets = sorted(zoom + background, key=lambda packet: packet.timestamp)
    _write_pcap(directory / "input.pcap", packets)
    prefix = min(PREFIX_ITEMS["border98"], len(packets))
    _write_pcap(directory / "prefix.pcap", packets[:prefix])
    truth = _zoom_truth(result, len(packets))
    truth.update(
        zoom_frames=len(zoom),
        prefix_items=prefix,
        streams=_sfu_stream_count(participants),
        meetings=1,
    )
    return truth


def _build_campus_live(directory: Path, seed: int, scale: float) -> dict:
    import dataclasses

    from repro.simulation import MeetingSimulator
    from repro.simulation.campus import CampusTraceConfig, generate_campus_trace
    from repro.simulation.webrtc import WebRTCCallConfig, simulate_webrtc_call

    # The mix is the workload; the seed is the noise.  Which meetings exist
    # (how many, who, how long, when) is drawn once from STRUCTURE_SEED, so
    # every seed offers a comparable load; each meeting is then simulated
    # with a seed of its own, which moves jitter, loss, talk spurts and
    # payload bytes.
    structure = generate_campus_trace(
        CampusTraceConfig(
            hours=CAMPUS_HOURS,
            meetings_per_hour_peak=CAMPUS_MEETINGS_PER_HOUR * scale,
            meeting_duration=(1.5, 3.5),
            screen_share_fraction=0.35,
            background_pps=0.03 * scale,
            seed=STRUCTURE_SEED,
        )
    )
    rng = random.Random(seed ^ 0xCA3905)
    meetings = [
        MeetingSimulator(dataclasses.replace(config, seed=rng.randrange(1 << 30))).run()
        for config in structure.meeting_configs
    ]
    # The generator's meetings are too short to outlive the P2P switch
    # delay, so the one guaranteed STUN-then-P2P meeting is added by hand.
    _, p2p = _meeting(
        rng.randrange(1 << 30), 2, 4.0 + 8.0 * scale,
        start_time=3000.0, allow_p2p=True, p2p_switch_delay=2.0, address_octet=240,
    )
    meetings.append(p2p)
    calls = [
        simulate_webrtc_call(
            WebRTCCallConfig(
                duration=4.0,
                start_time=start,
                seed=rng.randrange(1 << 30),
                caller_ip=f"10.8.250.{10 + index}",
                callee_ip=f"198.18.7.{7 + index}",
            )
        )
        for index, start in enumerate((1200.0, 6300.0))
    ]
    packets = list(structure.background)
    for result in (*meetings, *calls):
        packets.extend(result.captures)
    packets.sort(key=lambda packet: packet.timestamp)
    _split_pcaps(directory, "input", packets)
    prefix = min(PREFIX_ITEMS["campus_live"], len(packets))
    _split_pcaps(directory, "prefix", packets[:prefix])
    return {
        "items": len(packets),
        "prefix_items": prefix,
        "zoom_frames": len(packets) - len(structure.background),
        "ssrcs": sorted({t.ssrc for meeting in meetings for t in meeting.stream_truths}),
        "streams": None,
        "meetings": len(meetings) + len(calls),
        "p2p_flows": len(p2p.p2p_flows),
    }


def _split_pcaps(directory: Path, stem: str, packets: list) -> None:
    """Rotated capture files the directory tailer reads in name order."""
    share = -(-len(packets) // _CAMPUS_FILES)
    for index in range(_CAMPUS_FILES):
        _write_pcap(
            directory / f"{stem}-{index:02d}.pcap",
            packets[index * share : (index + 1) * share],
        )


# -------------------------------------------------------- border background

_MAC_A = b"\x02\x00\x00\x00\x00\x01"
_MAC_B = b"\x02\x00\x00\x00\x00\x02"


def _frame_length(rng: random.Random) -> int:
    """Border mixes are bimodal: bare ACKs and full-MTU data, little between."""
    roll = rng.random()
    if roll < 0.55:
        return rng.randrange(60, 130)
    if roll < 0.80:
        return rng.randrange(130, 1200)
    return rng.randrange(1200, 1515)


def _background_pool(rng: random.Random) -> list[bytes]:
    """Distinct non-Zoom frames of every kind a border tap carries.

    None touches a Zoom server range or an endpoint of the meeting (campus
    hosts here live in 10.9/16 upwards, the meeting's in 10.8/16), so the
    generator's Zoom-frame count stays the exact ground truth.
    """
    from repro.net.packet import build_tcp_frame, build_udp_frame
    from repro.rtp.stun import StunMessage

    def campus() -> str:
        return f"10.{rng.randrange(9, 200)}.{rng.randrange(256)}.{rng.randrange(2, 255)}"

    def external() -> str:
        return (
            f"{rng.choice((93, 142, 151))}.{rng.randrange(1, 250)}"
            f".{rng.randrange(256)}.{rng.randrange(2, 255)}"
        )

    def pair() -> tuple[str, str, bool]:
        outbound = rng.random() < 0.5
        a, b = campus(), external()
        return (a, b, True) if outbound else (b, a, False)

    def udp(server_port: int, length: int) -> bytes:
        src, dst, outbound = pair()
        client_port = rng.randrange(1024, 65000)
        sport, dport = (client_port, server_port) if outbound else (server_port, client_port)
        return build_udp_frame(src, sport, dst, dport, rng.randbytes(max(length - 42, 1)))

    def tcp(length: int) -> bytes:
        src, dst, outbound = pair()
        client_port, server_port = rng.randrange(1024, 65000), rng.choice((443, 443, 80))
        sport, dport = (client_port, server_port) if outbound else (server_port, client_port)
        return build_tcp_frame(
            src, sport, dst, dport,
            seq=rng.randrange(1 << 32), ack=rng.randrange(1 << 32),
            payload=rng.randbytes(max(length - 54, 0)),
        )

    def ipv6(length: int) -> bytes:
        payload = rng.randbytes(max(length - 62, 1))
        transport = struct.pack(
            "!HHHH", rng.randrange(1024, 65000), 443, 8 + len(payload), 0
        ) + payload
        header = struct.pack("!IHBB", 0x60000000, len(transport), 17, 64)
        return (
            _MAC_B + _MAC_A + b"\x86\xdd" + header
            + b"\x20\x01\x0d\xb8" + rng.randbytes(12)
            + b"\x26\x06\x47\x00" + rng.randbytes(12)
            + transport
        )

    def arp() -> bytes:
        body = struct.pack("!HHBBH", 1, 0x0800, 6, 4, rng.choice((1, 2)))
        body += _MAC_A + rng.randbytes(4) + b"\x00" * 6 + rng.randbytes(4)
        return b"\xff" * 6 + _MAC_A + b"\x08\x06" + body + b"\x00" * 18

    def vlan(frame: bytes) -> bytes:
        tag = struct.pack("!HH", 0x8100, rng.randrange(2, 4000))
        return frame[:12] + tag + frame[12:]

    def stun() -> bytes:
        message = StunMessage(message_type=0x0001, transaction_id=rng.randbytes(12))
        src, dst, outbound = pair()
        client_port = rng.randrange(1024, 65000)
        sport, dport = (client_port, 3478) if outbound else (3478, client_port)
        return build_udp_frame(src, sport, dst, dport, message.serialize())

    kinds = (
        (0.47, lambda: tcp(_frame_length(rng))),
        (0.215, lambda: udp(443, _frame_length(rng))),
        (0.08, lambda: udp(53, rng.randrange(70, 300))),
        # IPv6 passes the IPv4-only prefilter and is parsed in full: kept
        # rare so the workload isolates the filter, not the scalar parser.
        (0.005, lambda: ipv6(_frame_length(rng))),
        (0.02, arp),
        (0.08, lambda: vlan(tcp(_frame_length(rng)) if rng.random() < 0.6
                            else udp(443, _frame_length(rng)))),
        (0.07, lambda: udp(8801, _frame_length(rng))),
        (0.03, stun),
        (0.03, lambda: udp(rng.choice((123, 4500)), rng.randrange(70, 500))),
    )
    weights = [weight for weight, _ in kinds]
    builders = [build for _, build in kinds]
    return [rng.choices(builders, weights)[0]() for _ in range(_BACKGROUND_POOL)]


# ------------------------------------------------------------ store records


def _window_record(index: int, rng: random.Random) -> dict:
    """One 10 s window in the JSONL window-log shape (the record
    ``benchmarks/test_store_query.py`` appends, with seeded values)."""
    media = [
        {
            "media": name,
            "packets": rng.randrange(200, 700),
            "bytes": rng.randrange(200_000, 700_000),
            "bitrate_bps": round(rng.uniform(1e5, 6e5), 1),
            "streams": rng.randrange(1, 5),
            "streams_opened": rng.randrange(0, 2),
            "p2p_packets": 0,
            "mean_fps": round(rng.uniform(12.0, 30.0), 2),
            "mean_jitter_ms": round(rng.uniform(0.5, 9.0), 3),
            "lost": rng.randrange(0, 6),
            "duplicates": 0,
        }
        for name in ("audio", "video", "screen")
        if name != "screen" or rng.random() < 0.2
    ]
    packets = sum(entry["packets"] for entry in media)
    return {
        "kind": "window",
        "window": index,
        "start": index * 10.0,
        "end": (index + 1) * 10.0,
        "packets_total": packets + rng.randrange(0, 80),
        "bytes_total": sum(entry["bytes"] for entry in media),
        "zoom_packets": packets,
        "meetings_formed": int(rng.random() < 0.15),
        "meetings_active": rng.randrange(1, 4),
        "streams_evicted": 0,
        "forced": False,
        "media": media,
    }


def _build_store_rw(directory: Path, seed: int, scale: float) -> dict:
    # As on campus_live: when the meetings ran is fixed (their late records
    # decide how often partitions are sealed, which is most of the append
    # cost); the seed varies the values the records carry.
    shape = random.Random(STRUCTURE_SEED ^ 0x570E)
    rng = random.Random(seed ^ 0x570E)
    count = max(int(STORE_RECORDS * scale), 400)
    windows = [_window_record(index, rng) for index in range(count)]
    horizon = count * 10.0
    meetings = []
    for meeting_id in range(1, max(count // 100, 4) + 1):
        start = shape.uniform(0.0, horizon * 0.95)
        meetings.append(
            {
                "kind": "meeting",
                "start": round(start, 3),
                "end": round(start + shape.uniform(120.0, 600.0), 3),
                "meeting_id": meeting_id,
                "streams": rng.randrange(2, 12),
                "participants": rng.randrange(2, 6),
            }
        )
    prefix = min(PREFIX_ITEMS["store_rw"], count)
    _write_jsonl(directory / "windows.jsonl", windows)
    _write_jsonl(directory / "prefix.jsonl", windows[:prefix])
    _write_jsonl(directory / "meetings.jsonl", meetings)
    return {
        "items": count + len(meetings),
        "prefix_items": prefix,
        "windows": count,
        "meetings": len(meetings),
        "packets_total": sum(w["packets_total"] for w in windows),
    }


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


_BUILDERS = {
    "border98": _build_border98,
    "meeting_media": _build_meeting_media,
    "campus_live": _build_campus_live,
    "store_rw": _build_store_rw,
}
