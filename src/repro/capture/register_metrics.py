"""Switch-feasible streaming metric computation (§8).

The paper argues its performance metrics "can be implemented in a streaming
fashion and are amenable to data-plane implementation", with "approximate
data structures limiting overall accuracy" under switch constraints.  This
module implements that sketch faithfully to what a Tofino-class pipeline can
actually do per packet:

* **integer-only arithmetic** — no floats; time in microseconds, media time
  converted through a fixed-point reciprocal multiply (no division);
* **shift-based EWMA** — RFC 3550's ``J += (|D| − J)/16`` becomes
  ``J += (|D| − J) >> 4``;
* **hash-indexed register buckets** — per-stream state lives in fixed
  arrays indexed by a hash of (5-tuple, SSRC); collisions silently share
  state, exactly as on hardware;
* **O(1) per packet** — one read-modify-write per register array.

The accompanying ablation benchmark quantifies the accuracy these
constraints cost against the exact estimators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.streams import RTPPacketRecord
from repro.net.ip import ip_to_str
from repro.zoom.constants import VIDEO_SAMPLING_RATE, RTPPayloadType

FIXED_POINT_BITS = 16
"""Q notation: values carry 16 fractional bits."""

MICROSECOND = 1
SECOND_US = 1_000_000


def reciprocal_fixed(rate: int) -> int:
    """Fixed-point microseconds-per-tick for a sampling rate.

    ``ticks * reciprocal >> FIXED_POINT_BITS`` ≈ microseconds of media time.
    For 90 kHz: 1e6/90000 ≈ 11.1 µs/tick → 728178 in Q16.
    """
    return (SECOND_US << FIXED_POINT_BITS) // rate


def _bucket(key: bytes, size: int) -> int:
    digest = hashlib.blake2s(key, digest_size=4).digest()
    return int.from_bytes(digest, "big") % size


def stream_key_bytes(record: RTPPacketRecord) -> bytes:
    src_ip, src_port, dst_ip, dst_port, _proto = record.five_tuple
    return (
        f"{ip_to_str(src_ip)}:{src_port}>{ip_to_str(dst_ip)}:{dst_port}".encode()
        + record.ssrc.to_bytes(4, "big")
    )


@dataclass
class _JitterSlot:
    last_arrival_us: int = 0
    last_rtp_timestamp: int = 0
    jitter_us_fixed: int = 0  # Q16 microseconds
    initialized: bool = False


class DataplaneJitterEstimator:
    """Frame-level RFC 3550 jitter in integer registers.

    Per bucket: last first-of-frame arrival (µs), last frame RTP timestamp,
    and the Q16 jitter accumulator.  FEC packets and repeats of the current
    frame timestamp are excluded with one comparison each — both checks are
    single-register operations a switch can do.
    """

    def __init__(self, buckets: int = 4096, sampling_rate: int = VIDEO_SAMPLING_RATE) -> None:
        if buckets <= 0:
            raise ValueError("bucket count must be positive")
        self._slots = [_JitterSlot() for _ in range(buckets)]
        self._buckets = buckets
        self._reciprocal = reciprocal_fixed(sampling_rate)
        self.updates = 0

    def observe(self, record: RTPPacketRecord) -> None:
        if record.payload_type == RTPPayloadType.FEC:
            return
        slot = self._slots[_bucket(stream_key_bytes(record), self._buckets)]
        arrival_us = int(record.timestamp * SECOND_US)
        timestamp = record.rtp_timestamp
        if not slot.initialized:
            slot.initialized = True
            slot.last_arrival_us = arrival_us
            slot.last_rtp_timestamp = timestamp
            return
        if timestamp == slot.last_rtp_timestamp:
            return  # later packet of the same frame
        ticks = (timestamp - slot.last_rtp_timestamp) & 0xFFFFFFFF
        if ticks >= 1 << 31:
            return  # out-of-order frame
        media_gap_us = (ticks * self._reciprocal) >> FIXED_POINT_BITS
        arrival_gap_us = arrival_us - slot.last_arrival_us
        difference_us = arrival_gap_us - media_gap_us
        if difference_us < 0:
            difference_us = -difference_us
        # J += (|D| - J) >> 4, all in Q16 microseconds.
        difference_fixed = difference_us << FIXED_POINT_BITS
        slot.jitter_us_fixed += (difference_fixed - slot.jitter_us_fixed) >> 4
        slot.last_arrival_us = arrival_us
        slot.last_rtp_timestamp = timestamp
        self.updates += 1

    def jitter_seconds(self, record_or_key) -> float:
        """Read one bucket's jitter (control-plane read), in seconds."""
        key = (
            stream_key_bytes(record_or_key)
            if isinstance(record_or_key, RTPPacketRecord)
            else record_or_key
        )
        slot = self._slots[_bucket(key, self._buckets)]
        return (slot.jitter_us_fixed >> FIXED_POINT_BITS) / SECOND_US


@dataclass
class _RateSlot:
    window_start_us: int = 0
    frame_count: int = 0
    last_rtp_timestamp: int = 0
    last_window_rate: int = 0
    initialized: bool = False


class DataplaneFrameRateCounter:
    """Frames per second from two registers and a comparison.

    Counts first-of-frame packets (timestamp changed) within tumbling
    one-second windows; the previous window's count is the reported rate.
    Interleaved frames are under-counted — a documented accuracy limit of
    the single last-timestamp register.
    """

    def __init__(self, buckets: int = 4096) -> None:
        self._slots = [_RateSlot() for _ in range(buckets)]
        self._buckets = buckets

    def observe(self, record: RTPPacketRecord) -> None:
        if record.payload_type == RTPPayloadType.FEC:
            return
        slot = self._slots[_bucket(stream_key_bytes(record), self._buckets)]
        now_us = int(record.timestamp * SECOND_US)
        if not slot.initialized:
            slot.initialized = True
            slot.window_start_us = now_us
            slot.last_rtp_timestamp = record.rtp_timestamp ^ 0xFFFFFFFF
        if now_us - slot.window_start_us >= SECOND_US:
            slot.last_window_rate = slot.frame_count
            slot.frame_count = 0
            slot.window_start_us = now_us
        if record.rtp_timestamp != slot.last_rtp_timestamp:
            slot.frame_count += 1
            slot.last_rtp_timestamp = record.rtp_timestamp

    def rate(self, record_or_key) -> int:
        """The last completed window's frame count (control-plane read)."""
        key = (
            stream_key_bytes(record_or_key)
            if isinstance(record_or_key, RTPPacketRecord)
            else record_or_key
        )
        return self._slots[_bucket(key, self._buckets)].last_window_rate


@dataclass
class _ByteSlot:
    window_start_us: int = 0
    byte_count: int = 0
    last_window_bytes: int = 0


class DataplaneBitrateCounter:
    """Per-stream byte counters over tumbling one-second windows."""

    def __init__(self, buckets: int = 4096) -> None:
        self._slots = [_ByteSlot() for _ in range(buckets)]
        self._buckets = buckets

    def observe(self, record: RTPPacketRecord) -> None:
        slot = self._slots[_bucket(stream_key_bytes(record), self._buckets)]
        now_us = int(record.timestamp * SECOND_US)
        if slot.window_start_us == 0:
            slot.window_start_us = now_us
        if now_us - slot.window_start_us >= SECOND_US:
            slot.last_window_bytes = slot.byte_count
            slot.byte_count = 0
            slot.window_start_us = now_us
        slot.byte_count += record.payload_len

    def bits_per_second(self, record_or_key) -> int:
        key = (
            stream_key_bytes(record_or_key)
            if isinstance(record_or_key, RTPPacketRecord)
            else record_or_key
        )
        return 8 * self._slots[_bucket(key, self._buckets)].last_window_bytes


@dataclass
class DataplaneMetrics:
    """The three switch-side estimators behind one observe() call."""

    buckets: int = 4096
    sampling_rate: int = VIDEO_SAMPLING_RATE
    jitter: DataplaneJitterEstimator = field(init=False)
    framerate: DataplaneFrameRateCounter = field(init=False)
    bitrate: DataplaneBitrateCounter = field(init=False)

    def __post_init__(self) -> None:
        self.jitter = DataplaneJitterEstimator(self.buckets, self.sampling_rate)
        self.framerate = DataplaneFrameRateCounter(self.buckets)
        self.bitrate = DataplaneBitrateCounter(self.buckets)

    def observe(self, record: RTPPacketRecord) -> None:
        self.jitter.observe(record)
        self.framerate.observe(record)
        self.bitrate.observe(record)

    def resource_estimate(self) -> dict[str, float]:
        """Rough SRAM cost of the three register arrays, in Tofino blocks.

        Jitter: 2x32-bit + 1x32-bit Q16 per bucket; frame rate: 4x32-bit;
        bit rate: 3x32-bit — ~10 words per bucket.
        """
        words = 10 * self.buckets
        blocks = words * 32 / (128 * 1024)
        from repro.capture.resources import TOFINO_BUDGET

        return {
            "sram_blocks": blocks,
            "sram_percent": 100.0 * blocks / TOFINO_BUDGET["sram_blocks"],
        }
