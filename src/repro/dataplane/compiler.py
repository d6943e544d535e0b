"""Compile the capture model's match-action rules into cBPF bytecode.

One rule set, three executors: the columnar
:class:`~repro.net.batch.BatchPrefilter` (the one userspace decision,
post-decode), the cBPF program emitted here (in-kernel), and — in campus
mode — the :class:`~repro.capture.p4_model.P4CaptureModel` it mirrors.
The compiler's contract is *decision equivalence* with the prefilter it
was snapshotted from: for any frame, the program's accept/drop verdict
equals ``BatchPrefilter.apply``'s pass/drop verdict given the same
networks and endpoint set — the Hypothesis suite in
``tests/test_dataplane_properties`` enforces this frame-by-frame,
including mid-stream STUN fold-ins (cBPF is stateless, so a fold-in is a
recompile; see ``DataplaneFilter``).

Two compile modes share the emitter:

* **prefilter mode** (``campus_v4 is None``) mirrors the analyzer-side
  prefilter: IPv6 passes (no v6 rules are compiled), Zoom-range IPv4
  passes both directions, learned UDP endpoints pass, and in sniff-all
  mode any readable STUN magic cookie passes (the stateless stand-in for
  the prefilter's note-then-pass behaviour).
* **campus mode** (``campus_v4`` set) mirrors the
  :class:`~repro.capture.p4_model.P4CaptureModel` decision tree of
  Figure 13: frames with no campus endpoint drop, IPv6 drops (campus
  prefixes are IPv4), Zoom matches pass, and learned P2P endpoints pass
  only on their *campus* side — the side flags live in scratch memory
  ``M[0]``/``M[1]``.

cBPF structural notes embodied here (they are why the emitted shape looks
the way it does):

* Jumps are forward-only and conditional offsets are 8-bit, so every far
  transfer is a short conditional skip over a 32-bit ``ja`` — rule lists
  of hundreds of endpoints stay encodable.
* The two link-layer shapes (untagged, one 802.1Q tag) cannot share code
  without backward jumps, so the program is two parameterized copies of
  the same block behind an ethertype dispatch.
* An out-of-bounds load drops the frame, which matches the columnar
  decoder's sentinel semantics *except* where a partial header could
  still satisfy an early rule — those spots get explicit ``len`` guards
  (e.g. a frame truncated mid-IP-header must drop even if its intact src
  field sits in a Zoom range, because the decoder never reads src without
  the full 20 header bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.dataplane.cbpf import (
    BPF_ABS,
    BPF_AND,
    BPF_ALU,
    BPF_B,
    BPF_H,
    BPF_IMM,
    BPF_IND,
    BPF_JEQ,
    BPF_JGE,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_LEN,
    BPF_MEM,
    BPF_MISC,
    BPF_MSH,
    BPF_OR,
    BPF_ST,
    BPF_SUB,
    BPF_TXA,
    BPF_W,
    BPF_X,
    Assembler,
    CBPFProgram,
)
from repro.net.ip import PrefixTable, ipv4_str_to_u32

__all__ = [
    "CaptureRules",
    "compile_cbpf",
    "ACCEPT_ALL",
    "STUN_MAGIC_COOKIE",
    "DEFAULT_MAX_ENDPOINTS",
]

#: RFC 5389 magic cookie, the prefilter's STUN sniff signature.
STUN_MAGIC_COOKIE = 0x2112A442

#: ``ret k`` accept value: deliver the whole frame.
ACCEPT_ALL = 0xFFFFFFFF

#: Endpoint-rule budget before the compiler saturates to pass-all-UDP.
#: ~10 instructions per endpoint per link shape keeps 180 endpoints well
#: under the kernel's 4096-instruction ceiling with headroom for the
#: fixed scaffolding.
DEFAULT_MAX_ENDPOINTS = 180

_ETHERTYPE_VLAN = 0x8100
_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_PROTO_UDP = 17


@dataclass(frozen=True, slots=True)
class CaptureRules:
    """One immutable snapshot of the match-action rule state.

    ``endpoints`` are packed ``(ip_u32 << 16) | port`` keys — the same
    packing :class:`~repro.net.batch.BatchPrefilter` uses internally, so
    a snapshot is a set copy, not a re-encode.
    """

    networks_v4: tuple[tuple[int, int], ...] = ()
    endpoints: tuple[int, ...] = ()
    sniff_all_stun: bool = False
    campus_v4: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def from_networks(
        cls,
        networks: Iterable[str],
        *,
        endpoints: Iterable[tuple[str, int]] = (),
        sniff_all_stun: bool = False,
        campus: Iterable[str] | None = None,
    ) -> "CaptureRules":
        """Build rules from prefix strings and ``(ip, port)`` endpoints."""
        return cls(
            networks_v4=PrefixTable(networks).v4,
            endpoints=_pack_endpoints(endpoints),
            sniff_all_stun=sniff_all_stun,
            campus_v4=PrefixTable(campus).v4 if campus is not None else None,
        )

    @classmethod
    def from_prefilter(cls, prefilter) -> "CaptureRules":
        """Snapshot a :class:`~repro.net.batch.BatchPrefilter`'s rule state."""
        return cls(
            networks_v4=tuple(prefilter.networks_v4),
            endpoints=tuple(sorted(prefilter.endpoint_keys)),
            sniff_all_stun=prefilter.sniff_all_stun,
        )

    @classmethod
    def from_model(cls, model, now: float | None = None) -> "CaptureRules":
        """Snapshot a :class:`~repro.capture.p4_model.P4CaptureModel`.

        Campus-gated compile mode.  Only endpoints still *live* in the
        model's P2P registers are included (``now`` defaults to the last
        learn time), so register expiry and hash-slot eviction are folded
        in at snapshot time — the stateless program then agrees with the
        stateful registers at the instant of the snapshot.
        """
        from repro.capture.registers import endpoint_key

        endpoints = []
        newest = max(model.learned_endpoints.values(), default=0.0)
        when = now if now is not None else newest
        for (ip, port), _ts in model.learned_endpoints.items():
            key = endpoint_key(ip, port)
            if model.p2p_sources.contains(key, when) or model.p2p_destinations.contains(
                key, when
            ):
                endpoints.append((ip, port))
        return cls(
            networks_v4=model.zoom_matcher.v4,
            endpoints=_pack_endpoints(endpoints),
            campus_v4=model.campus_matcher.v4,
        )


def _pack_endpoints(endpoints: Iterable[tuple[str, int]]) -> tuple[int, ...]:
    """Sorted, de-duplicated ``(ip_u32 << 16) | port`` keys of the IPv4 members."""
    packed = set()
    for ip, port in endpoints:
        u32 = ipv4_str_to_u32(ip)
        if u32 is not None:
            packed.add((u32 << 16) | port)
    return tuple(sorted(packed))


@dataclass(slots=True)
class _Emit:
    """Per-link-shape emitter state: one assembler, one l3 offset."""

    asm: Assembler
    l3: int
    tag: str
    serial: int = field(default=0)

    def local(self, name: str) -> str:
        self.serial += 1
        return f"{self.tag}.{name}.{self.serial}"


def compile_cbpf(
    rules: CaptureRules,
    *,
    max_endpoints: int = DEFAULT_MAX_ENDPOINTS,
) -> CBPFProgram:
    """Emit the cBPF program for one rule snapshot.

    When the endpoint set exceeds ``max_endpoints`` the program
    *saturates*: endpoint rules are replaced by a conservative
    pass-all-readable-UDP rule (prefilter mode) or pass-all-campus-UDP
    rule (campus mode).  Saturation only ever widens the kernel filter —
    the exact userspace tiers still apply — and is flagged in
    ``program.meta["saturated"]`` plus the ``dataplane.saturated``
    counter at attach time.
    """
    endpoints = rules.endpoints
    saturated = len(endpoints) > max_endpoints
    if saturated:
        endpoints = ()

    asm = Assembler()
    # Dispatch: outer ethertype selects the link shape.
    asm.emit(BPF_LD | BPF_H | BPF_ABS, k=12)
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=_ETHERTYPE_VLAN, jt=0, jf=1)
    asm.ja("vlan")
    _emit_block(_Emit(asm, l3=14, tag="plain"), rules, endpoints, saturated,
                reload_ethertype=None)
    asm.label("vlan")
    _emit_block(_Emit(asm, l3=18, tag="vlan"), rules, endpoints, saturated,
                reload_ethertype=16)
    asm.label("accept")
    asm.ret_k(ACCEPT_ALL)
    asm.label("drop")
    asm.ret_k(0)
    return asm.assemble(
        meta={
            "mode": "campus" if rules.campus_v4 is not None else "prefilter",
            "networks": len(rules.networks_v4),
            "endpoints": len(rules.endpoints),
            "compiled_endpoints": len(endpoints),
            "saturated": saturated,
            "sniff_all_stun": rules.sniff_all_stun,
        }
    )


def _emit_net_match(e: _Emit, nets: Sequence[tuple[int, int]], offset: int,
                    target: str) -> None:
    """``ja target`` when the IPv4 address at ``l3+offset`` hits any net."""
    for net, mask in nets:
        e.asm.emit(BPF_LD | BPF_W | BPF_ABS, k=e.l3 + offset)
        if mask != 0xFFFFFFFF:
            e.asm.emit(BPF_ALU | BPF_AND | BPF_K, k=mask)
        e.asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=net & mask, jt=0, jf=1)
        e.asm.ja(target)


def _emit_ports_readable(e: _Emit) -> None:
    """Require ``ihl >= 20`` and 4 readable transport bytes, else drop.

    Leaves ``X = ihl`` so subsequent indirect loads at ``X + l3 + off``
    address the transport header.  Mirrors the columnar decoder exactly:
    ports exist iff the full IP header *and* both ports fit the capture.
    """
    asm = e.asm
    asm.emit(BPF_LDX | BPF_B | BPF_MSH, k=e.l3)  # X = 4 * (pkt[l3] & 0xf)
    asm.emit(BPF_MISC | BPF_TXA)
    asm.emit(BPF_JMP | BPF_JGE | BPF_K, k=20, jt=1, jf=0)
    asm.ja("drop")
    asm.emit(BPF_LD | BPF_W | BPF_LEN)
    asm.emit(BPF_ALU | BPF_SUB | BPF_K, k=e.l3 + 4)
    asm.emit(BPF_JMP | BPF_JGE | BPF_X, jt=1, jf=0)  # len - (l3+4) >= ihl
    asm.ja("drop")


def _emit_endpoint_rule(e: _Emit, key: int, *, addr_off: int, port_off: int,
                        gate_mem: int | None) -> None:
    """Accept when ``(addr, port)`` at the given offsets equals ``key``.

    ``gate_mem`` (campus mode) skips the rule unless scratch slot ``M[n]``
    holds 1 — the "this side is campus" flag.
    """
    asm = e.asm
    skip = e.local("ep")
    if gate_mem is not None:
        asm.emit(BPF_LD | BPF_W | BPF_MEM, k=gate_mem)
        asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=1, jt=0, jf=skip)
    asm.emit(BPF_LD | BPF_W | BPF_ABS, k=e.l3 + addr_off)
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=(key >> 16) & 0xFFFFFFFF, jt=0, jf=skip)
    asm.emit(BPF_LD | BPF_H | BPF_IND, k=e.l3 + port_off)
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=key & 0xFFFF, jt=0, jf=skip)
    asm.ja("accept")
    asm.label(skip)


def _emit_block(
    e: _Emit,
    rules: CaptureRules,
    endpoints: Sequence[int],
    saturated: bool,
    *,
    reload_ethertype: int | None,
) -> None:
    asm = e.asm
    campus_mode = rules.campus_v4 is not None
    if reload_ethertype is not None:
        # VLAN shape: the inner ethertype sits past the tag.  The load
        # itself faults (drops) on a frame truncated inside the tag —
        # the decoder's ``caplen < 18 → ethertype = -1`` drop.
        asm.emit(BPF_LD | BPF_H | BPF_ABS, k=reload_ethertype)
    # IPv6: no v6 rules are compiled — the prefilter passes (ambiguity is
    # the analyzer's problem), the campus model drops (campus prefixes
    # are IPv4, so no packet has a campus endpoint).
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=_ETHERTYPE_IPV6, jt=0, jf=1)
    asm.ja("drop" if campus_mode else "accept")
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=_ETHERTYPE_IPV4, jt=1, jf=0)
    asm.ja("drop")
    # Full IPv4 header or nothing: the columnar decoder reads no address
    # from a frame shorter than l3+20, so neither may the program — an
    # intact src field inside a truncated header must not match.
    asm.emit(BPF_LD | BPF_W | BPF_LEN)
    asm.emit(BPF_JMP | BPF_JGE | BPF_K, k=e.l3 + 20, jt=1, jf=0)
    asm.ja("drop")

    if campus_mode:
        _emit_campus_tail(e, rules, endpoints, saturated)
    else:
        _emit_prefilter_tail(e, rules, endpoints, saturated)


def _emit_campus_tail(
    e: _Emit,
    rules: CaptureRules,
    endpoints: Sequence[int],
    saturated: bool,
) -> None:
    asm = e.asm
    # Direction flags in scratch memory: M[0] = src is campus,
    # M[1] = dst is campus (Figure 13's campus-IP match stage).
    asm.emit(BPF_LD | BPF_IMM, k=0)
    asm.emit(BPF_ST, k=0)
    asm.emit(BPF_ST, k=1)
    for slot, offset in ((0, 12), (1, 16)):
        for net, mask in rules.campus_v4:
            skip = e.local("campus")
            asm.emit(BPF_LD | BPF_W | BPF_ABS, k=e.l3 + offset)
            if mask != 0xFFFFFFFF:
                asm.emit(BPF_ALU | BPF_AND | BPF_K, k=mask)
            asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=net & mask, jt=0, jf=skip)
            asm.emit(BPF_LD | BPF_IMM, k=1)
            asm.emit(BPF_ST, k=slot)
            asm.label(skip)
    # No campus endpoint → not border traffic.
    asm.emit(BPF_LD | BPF_W | BPF_MEM, k=0)
    asm.emit(BPF_LDX | BPF_W | BPF_MEM, k=1)
    asm.emit(BPF_ALU | BPF_OR | BPF_X)
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=0, jt=0, jf=1)
    asm.ja("drop")
    # Zoom-range match, either direction (server traffic, any transport).
    _emit_net_match(e, rules.networks_v4, 12, "accept")
    _emit_net_match(e, rules.networks_v4, 16, "accept")
    # P2P lookup applies to UDP with readable ports only — the model's
    # parser yields no port (hence no register hit) otherwise.
    asm.emit(BPF_LD | BPF_B | BPF_ABS, k=e.l3 + 9)
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=_PROTO_UDP, jt=1, jf=0)
    asm.ja("drop")
    _emit_ports_readable(e)
    if saturated:
        asm.ja("accept")
        return
    for key in endpoints:
        _emit_endpoint_rule(e, key, addr_off=12, port_off=0, gate_mem=0)
        _emit_endpoint_rule(e, key, addr_off=16, port_off=2, gate_mem=1)
    asm.ja("drop")


def _emit_prefilter_tail(
    e: _Emit,
    rules: CaptureRules,
    endpoints: Sequence[int],
    saturated: bool,
) -> None:
    asm = e.asm
    # Zoom-range match, either direction — passes whatever the transport.
    _emit_net_match(e, rules.networks_v4, 12, "accept")
    _emit_net_match(e, rules.networks_v4, 16, "accept")
    # Beyond the ranges, only readable UDP can pass.
    asm.emit(BPF_LD | BPF_B | BPF_ABS, k=e.l3 + 9)
    asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=_PROTO_UDP, jt=1, jf=0)
    asm.ja("drop")
    _emit_ports_readable(e)
    if saturated:
        # Endpoint budget blown: the kernel tier passes all readable UDP
        # and the exact userspace tiers take over.
        asm.ja("accept")
        return
    for key in endpoints:
        _emit_endpoint_rule(e, key, addr_off=12, port_off=0, gate_mem=None)
        _emit_endpoint_rule(e, key, addr_off=16, port_off=2, gate_mem=None)
    if rules.sniff_all_stun:
        # Sniff-all mode: the prefilter notes both endpoints of any frame
        # carrying the STUN magic cookie *before* deciding, so the cookie
        # frame itself always passes.  Statelessly: accept on the cookie.
        asm.emit(BPF_LD | BPF_W | BPF_LEN)
        asm.emit(BPF_ALU | BPF_SUB | BPF_K, k=e.l3 + 16)
        asm.emit(BPF_JMP | BPF_JGE | BPF_X, jt=1, jf=0)  # cookie bytes readable?
        asm.ja("drop")
        asm.emit(BPF_LD | BPF_W | BPF_IND, k=e.l3 + 12)
        asm.emit(BPF_JMP | BPF_JEQ | BPF_K, k=STUN_MAGIC_COOKIE, jt=0, jf=1)
        asm.ja("accept")
    asm.ja("drop")
