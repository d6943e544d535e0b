"""Properties of ``ShardedAnalyzer.partition_frames``.

The partitioner reads the flow key off the batch's header columns (the one
header walk, ``decode_columns``); what remains to pin is what sharding
needs of it:

* both directions of a flow land on the same shard, for any shard count;
* a frame is counted unhashable exactly when it carries no IP + TCP/UDP
  flow key, and cutting a frame short never moves it to another shard;
* every packet the full STUN parser accepts on the Zoom STUN port is
  replicated to every other shard (a miss would silently break cross-shard
  P2P detection).

Frames are generated across IPv4/IPv6, with and without an 802.1Q VLAN tag,
TCP and UDP, random and genuine-STUN payloads.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum
from repro.net.packet import parse_frame
from repro.rtp.stun import STUN_PORT, is_stun
from tests.conftest import partition_homes

STUN_MAGIC = b"\x21\x12\xa4\x42"


def _stun_payload(txid: bytes, body_len: int) -> bytes:
    """A well-formed STUN binding request with a zeroed attribute body."""
    return struct.pack("!HH", 0x0001, body_len) + STUN_MAGIC + txid + b"\x00" * body_len


def _build_frame(
    v6: bool,
    vlan: int | None,
    proto: int,
    src: bytes,
    sport: int,
    dst: bytes,
    dport: int,
    payload: bytes,
) -> bytes:
    if proto == 17:
        l4 = struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload
    else:
        l4 = (
            struct.pack("!HHIIBBHHH", sport, dport, 0, 0, 5 << 4, 0x10, 65535, 0, 0)
            + payload
        )
    if v6:
        ip = struct.pack("!IHBB", 6 << 28, len(l4), proto, 64) + src + dst
        ethertype = 0x86DD
    else:
        head = struct.pack("!BBHHHBBH", 0x45, 0, 20 + len(l4), 0, 0, 64, proto, 0)
        checksum = internet_checksum(head + src + dst)
        head = head[:10] + checksum.to_bytes(2, "big")
        ip = head + src + dst
        ethertype = 0x0800
    ether = b"\x02" * 6 + b"\x04" * 6
    if vlan is not None:
        ether += struct.pack("!HHH", 0x8100, vlan, ethertype)
    else:
        ether += struct.pack("!H", ethertype)
    return ether + ip + l4


ports = st.one_of(st.integers(min_value=1, max_value=65535), st.just(STUN_PORT))
payloads = st.one_of(
    st.binary(min_size=0, max_size=48),
    st.builds(
        _stun_payload,
        st.binary(min_size=12, max_size=12),
        st.integers(min_value=0, max_value=16),
    ),
)


@st.composite
def flow_frames(draw) -> tuple[bytes, bytes]:
    """One generated flow as (forward frame, reverse frame)."""
    v6 = draw(st.booleans())
    addr_len = 16 if v6 else 4
    vlan = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFF)))
    proto = draw(st.sampled_from([6, 17]))
    src = draw(st.binary(min_size=addr_len, max_size=addr_len))
    dst = draw(st.binary(min_size=addr_len, max_size=addr_len))
    sport = draw(ports)
    dport = draw(ports)
    payload = draw(payloads)
    forward = _build_frame(v6, vlan, proto, src, sport, dst, dport, payload)
    reverse = _build_frame(v6, vlan, proto, dst, dport, src, sport, payload)
    return forward, reverse


class TestFlowShardInfoProperties:
    @given(flow_frames())
    @settings(max_examples=100, deadline=None)
    def test_both_directions_land_on_the_same_shard(self, pair):
        for shards in (2, 3, 4, 8, 16):
            (forward, reverse), stats = partition_homes(pair, shards)
            assert forward == reverse
            assert stats.hints_replicated in (0, 2 * (shards - 1))  # both or neither

    @given(flow_frames())
    @settings(max_examples=100, deadline=None)
    def test_hashable_agrees_with_full_decode(self, pair):
        forward, _ = pair
        parsed = parse_frame(forward)
        has_flow_key = (parsed.ipv4 is not None or parsed.ipv6 is not None) and (
            parsed.udp is not None or parsed.tcp is not None
        )
        assert has_flow_key, "generated frames must fully decode"
        arp = b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28)
        _, stats = partition_homes([forward, arp, forward[:20]], 4)
        assert stats.unhashable_frames == 2
        assert sum(stats.shard_packets) == 3

    @given(flow_frames(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncation_never_moves_a_flow(self, pair, data):
        """Cutting a frame short may make it unhashable, but must never
        silently hash it onto a different shard than the full frame."""
        forward, _ = pair
        cut = data.draw(st.integers(min_value=0, max_value=len(forward)))
        (full, short), stats = partition_homes([forward, forward[:cut]], 16)
        assert stats.unhashable_frames or short == full

    @given(flow_frames())
    @settings(max_examples=200, deadline=None)
    def test_stun_flag_agrees_with_full_parser(self, pair):
        forward, _ = pair
        _, stats = partition_homes([forward], 4)
        replicated = stats.hints_replicated == 3
        assert replicated or stats.hints_replicated == 0
        parsed = parse_frame(forward)
        genuine = (
            parsed.udp is not None
            and STUN_PORT in (parsed.udp.src_port, parsed.udp.dst_port)
            and is_stun(parsed.payload)
        )
        if genuine:
            assert replicated, "the partitioner must never miss a genuine STUN packet"
        if replicated:
            # The cookie test is deliberately more permissive than the full
            # parser (magic cookie at the right offset on the STUN port);
            # verify everything it claims about the frame actually holds.
            assert parsed.udp is not None
            assert STUN_PORT in (parsed.udp.src_port, parsed.udp.dst_port)
            assert parsed.payload[4:8] == STUN_MAGIC
