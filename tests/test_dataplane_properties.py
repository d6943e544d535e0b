"""Hypothesis equivalence properties across the three dataplane tiers.

The software dataplane's core claim is *decision equivalence*: for any
frame, the compiled cBPF program (run through the reference interpreter),
the raw-bytes :class:`RawFrameFilter`, and the columnar
:class:`BatchPrefilter` must agree on accept vs drop — and in campus
mode, the cBPF program must agree with the stateful
:class:`P4CaptureModel` decision tree it was snapshotted from.

cBPF is stateless while the Python tiers learn STUN endpoints mid-stream,
so the properties recompile the program from the current rule state
*before every frame* — exactly what :class:`DataplaneFilter` does at poll
boundaries — which also exercises the fold-in path under arbitrary
interleavings of learning and matching frames.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.p4_model import P4CaptureModel
from repro.dataplane.compiler import CaptureRules, compile_cbpf
from repro.dataplane.cbpf import run_cbpf
from repro.dataplane.rawfilter import RawFrameFilter
from repro.net.batch import BatchPrefilter, FrameBatchBuilder, decode_columns
from repro.net.packet import CapturedPacket, build_tcp_frame, build_udp_frame
from repro.rtp.stun import StunMessage

ZOOM_NET = "170.114.0.0/16"
CAMPUS_NET = "10.8.0.0/16"

STUN_PAYLOAD = StunMessage.binding_request(b"abcdefghijkl").serialize()

# Address pools spanning every rule bucket: Zoom range, campus range,
# learnable peers, plain background.
ZOOM_IPS = ["170.114.1.1", "170.114.200.9"]
CAMPUS_IPS = ["10.8.1.20", "10.8.2.30"]
PEER_IPS = ["198.18.2.30", "198.18.2.31"]
BACKGROUND_IPS = ["93.184.216.34", "8.8.8.8"]
ALL_IPS = ZOOM_IPS + CAMPUS_IPS + PEER_IPS + BACKGROUND_IPS

PORTS = [3478, 8801, 443, 50001, 50002]


ip_strategy = st.sampled_from(ALL_IPS)
port_strategy = st.sampled_from(PORTS)


@st.composite
def frame_spec(draw):
    """One synthesized frame: (bytes, descriptive tag)."""
    src = draw(ip_strategy)
    dst = draw(ip_strategy)
    sport = draw(port_strategy)
    dport = draw(port_strategy)
    kind = draw(st.sampled_from(["udp", "udp_stun", "tcp"]))
    if kind == "tcp":
        frame = build_tcp_frame(src, sport, dst, dport, seq=1, payload=b"x" * 20)
    elif kind == "udp_stun":
        frame = build_udp_frame(src, sport, dst, dport, STUN_PAYLOAD)
    else:
        frame = build_udp_frame(src, sport, dst, dport, b"\x05\x10" + bytes(40))
    if draw(st.booleans()):
        # One 802.1Q tag: the compiler's second parameterized block.
        tci = draw(st.integers(min_value=0, max_value=0xFFFF))
        frame = frame[:12] + b"\x81\x00" + tci.to_bytes(2, "big") + frame[12:]
    mangle = draw(st.sampled_from(["none", "none", "none", "truncate", "garbage"]))
    if mangle == "truncate":
        cut = draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame = frame[:cut]
    elif mangle == "garbage":
        frame = bytes(draw(st.binary(min_size=0, max_size=40)))
    return frame


@st.composite
def rules_config(draw):
    sniff_all = draw(st.booleans())
    seed_endpoints = draw(
        st.lists(
            st.tuples(st.sampled_from(PEER_IPS + CAMPUS_IPS), port_strategy),
            max_size=3,
        )
    )
    return sniff_all, seed_endpoints


def _seed(prefilter, endpoints):
    from repro.net.ip import ipv4_str_to_u32

    for ip, port in endpoints:
        prefilter.note_endpoint(ipv4_str_to_u32(ip), port)


def _single_frame_batch(frame):
    builder = FrameBatchBuilder()
    builder.append(frame, 1.0)
    return builder.build()


class TestPrefilterEquivalence:
    @given(rules_config(), st.lists(frame_spec(), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_cbpf_and_raw_match_columnar_decision(self, config, frames):
        """cBPF ≡ RawFrameFilter ≡ BatchPrefilter, frame by frame.

        Two independent prefilters start in identical state; the columnar
        one decides via decode+apply, the raw one via `match`, and a cBPF
        program recompiled from the pre-frame state decides in the
        "kernel".  All three verdicts must agree for every frame, and the
        two stateful tiers must learn identical endpoint sets.
        """
        sniff_all, seed_endpoints = config
        columnar = BatchPrefilter([ZOOM_NET], sniff_all_stun=sniff_all)
        shadow = BatchPrefilter([ZOOM_NET], sniff_all_stun=sniff_all)
        _seed(columnar, seed_endpoints)
        _seed(shadow, seed_endpoints)
        raw = RawFrameFilter(shadow)
        for frame in frames:
            program = compile_cbpf(CaptureRules.from_prefilter(columnar))
            kernel_pass = run_cbpf(program, frame) != 0
            batch = _single_frame_batch(frame)
            verdict = columnar.apply(batch, decode_columns(batch))
            columnar_pass = bool(verdict.survivors)
            raw_pass = raw.match(frame)
            assert raw_pass == columnar_pass, frame.hex()
            assert kernel_pass == columnar_pass, (frame.hex(), program.dump())
            assert shadow.endpoint_keys == columnar.endpoint_keys

    @given(rules_config(), st.lists(frame_spec(), min_size=1, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_filter_batch_matches_columnar_survivors(self, config, frames):
        """Batch-level raw filtering keeps exactly the columnar survivors."""
        sniff_all, seed_endpoints = config
        columnar = BatchPrefilter([ZOOM_NET], sniff_all_stun=sniff_all)
        shadow = BatchPrefilter([ZOOM_NET], sniff_all_stun=sniff_all)
        _seed(columnar, seed_endpoints)
        _seed(shadow, seed_endpoints)
        builder = FrameBatchBuilder()
        for i, frame in enumerate(frames):
            builder.append(frame, float(i))
        batch = builder.build()
        verdict = columnar.apply(batch, decode_columns(batch))
        survivors, stats = RawFrameFilter(shadow).filter_batch(batch)
        expected = [
            (batch.caplens[i], batch.timestamps[i]) for i in verdict.survivors
        ]
        got = list(zip(survivors.caplens, survivors.timestamps))
        assert got == expected
        assert stats.passed == len(verdict.survivors)
        assert stats.dropped == verdict.dropped
        assert stats.dropped_bytes == verdict.dropped_bytes
        assert stats.parse_failures == verdict.parse_failures
        assert shadow.endpoint_keys == columnar.endpoint_keys


@st.composite
def campus_frame_spec(draw):
    """Well-formed frames only: the P4 model re-parses from bytes, and a
    frame truncated mid-header is a capture artifact the scalar parser
    and the wire-offset program legitimately read differently."""
    src = draw(ip_strategy)
    dst = draw(ip_strategy)
    sport = draw(port_strategy)
    dport = draw(port_strategy)
    kind = draw(st.sampled_from(["udp", "udp_stun", "tcp"]))
    if kind == "tcp":
        frame = build_tcp_frame(src, sport, dst, dport, seq=1, payload=b"x" * 20)
    elif kind == "udp_stun":
        frame = build_udp_frame(src, sport, dst, dport, STUN_PAYLOAD)
    else:
        frame = build_udp_frame(src, sport, dst, dport, b"\x05\x10" + bytes(40))
    if draw(st.booleans()):
        tci = draw(st.integers(min_value=0, max_value=0xFFFF))
        frame = frame[:12] + b"\x81\x00" + tci.to_bytes(2, "big") + frame[12:]
    return frame


class TestCampusModeEquivalence:
    @given(st.lists(campus_frame_spec(), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_cbpf_matches_p4_model_decision(self, frames):
        """Campus-mode cBPF ≡ the stateful P4 decision tree, per frame.

        The program is recompiled from a `from_model` snapshot before
        each frame (endpoints filtered through the live registers at the
        frame's timestamp), so register expiry and eviction are folded
        into the stateless program at the same instant the stateful
        lookup would consult them.
        """
        model = P4CaptureModel([ZOOM_NET], [CAMPUS_NET], stun_timeout=120.0)
        for i, frame in enumerate(frames):
            ts = float(i)  # monotonic: expiry decisions are well-ordered
            rules = CaptureRules.from_model(model, now=ts)
            program = compile_cbpf(rules)
            kernel_pass = run_cbpf(program, frame) != 0
            model_pass = model.process_one(CapturedPacket(ts, frame)) is not None
            assert kernel_pass == model_pass, (frame.hex(), program.dump())

    def test_from_model_drops_expired_endpoints(self):
        model = P4CaptureModel([ZOOM_NET], [CAMPUS_NET], stun_timeout=10.0)
        stun = build_udp_frame("10.8.1.20", 50001, "170.114.200.9", 3478, STUN_PAYLOAD)
        assert model.process_one(CapturedPacket(0.0, stun)) is not None
        assert CaptureRules.from_model(model, now=5.0).endpoints
        assert not CaptureRules.from_model(model, now=30.0).endpoints


class TestSaturation:
    def test_saturated_program_widens_conservatively(self):
        """Past the endpoint budget the kernel tier passes all readable
        UDP (never dropping a frame the userspace tiers would keep)."""
        endpoints = [(f"198.18.{i // 200}.{i % 200}", 50000 + i) for i in range(40)]
        rules = CaptureRules.from_networks([ZOOM_NET], endpoints=endpoints)
        program = compile_cbpf(rules, max_endpoints=10)
        assert program.meta["saturated"]
        assert program.meta["compiled_endpoints"] == 0
        # A UDP frame matching no rule still passes the saturated program…
        udp = build_udp_frame("4.4.4.4", 1234, "5.5.5.5", 5678, bytes(20))
        assert run_cbpf(program, udp) != 0
        # …but non-UDP background still drops.
        tcp = build_tcp_frame("4.4.4.4", 1234, "5.5.5.5", 5678, seq=1, payload=b"x")
        assert run_cbpf(program, tcp) == 0

    def test_unsaturated_program_is_exact(self):
        rules = CaptureRules.from_networks(
            [ZOOM_NET], endpoints=[("198.18.2.30", 50001)]
        )
        program = compile_cbpf(rules)
        assert not program.meta["saturated"]
        hit = build_udp_frame("198.18.2.30", 50001, "5.5.5.5", 5678, bytes(20))
        miss = build_udp_frame("198.18.2.30", 50002, "5.5.5.5", 5678, bytes(20))
        assert run_cbpf(program, hit) != 0
        assert run_cbpf(program, miss) == 0
