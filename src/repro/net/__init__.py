"""Packet substrate: pcap I/O and L2-L4 header parsing built from scratch.

This subpackage is a self-contained replacement for scapy/dpkt.  It provides
binary parsers and serializers for Ethernet II (with 802.1Q), IPv4, IPv6, UDP
and TCP, an internet-checksum helper, a ``ParsedPacket`` record that decodes a
full frame in one call, and a libpcap-format reader/writer with microsecond
and nanosecond timestamp resolution.

Everything round-trips: ``parse(serialize(x)) == x`` for every header type,
which the property-based test suite checks exhaustively.
"""

from repro.net.batch import (
    BatchPrefilter,
    FrameBatch,
    FrameBatchBuilder,
    HeaderColumns,
    PrefilterVerdict,
    decode_columns,
)
from repro.net.checksum import internet_checksum
from repro.net.ethernet import EtherType, EthernetHeader
from repro.net.ip import IPProtocol, IPv4Header, IPv6Header
from repro.net.packet import CapturedPacket, ParsedPacket, parse_frame
from repro.net.pcap import PcapReader, PcapWriter, write_pcap
from repro.net.source import (
    CaptureDirectorySource,
    IterableSource,
    PacketSource,
    PcapFileSource,
    PcapNgFileSource,
    SimulationSource,
    open_capture_source,
    sniff_capture_format,
)
from repro.net.tcp import TCPFlags, TCPHeader
from repro.net.udp import UDPHeader

__all__ = [
    "BatchPrefilter",
    "CaptureDirectorySource",
    "CapturedPacket",
    "EtherType",
    "EthernetHeader",
    "FrameBatch",
    "FrameBatchBuilder",
    "HeaderColumns",
    "IPProtocol",
    "IPv4Header",
    "IPv6Header",
    "IterableSource",
    "PacketSource",
    "ParsedPacket",
    "PcapFileSource",
    "PcapNgFileSource",
    "PcapReader",
    "PcapWriter",
    "PrefilterVerdict",
    "SimulationSource",
    "TCPFlags",
    "TCPHeader",
    "UDPHeader",
    "decode_columns",
    "internet_checksum",
    "open_capture_source",
    "parse_frame",
    "sniff_capture_format",
    "write_pcap",
]
