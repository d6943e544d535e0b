"""Protocol plugin registry: Zoom is one dissector among many (DESIGN §4.3)."""

from repro.protocols.base import (
    ProtocolClass,
    ProtocolPlugin,
    protocol_counter_seeds,
)
from repro.protocols.registry import PLUGIN_FACTORIES, build_registry
from repro.protocols.rtp import RtpClass, RtpPlugin, looks_like_rtcp
from repro.protocols.zoom import ZoomPlugin

__all__ = [
    "PLUGIN_FACTORIES",
    "ProtocolClass",
    "ProtocolPlugin",
    "RtpClass",
    "RtpPlugin",
    "ZoomPlugin",
    "build_registry",
    "looks_like_rtcp",
    "protocol_counter_seeds",
]
