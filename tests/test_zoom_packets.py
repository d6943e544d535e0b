"""Tests for complete Zoom UDP payload composition and parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtp.rtcp import RTCPReceiverReport, RTCPSdes, RTCPSenderReport
from repro.rtp.rtp import RTPHeader, looks_like_rtp
from repro.zoom.constants import (
    MEDIA_ENCAP_LEN,
    RTP_OFFSET_P2P,
    RTP_OFFSET_SERVER,
    ZoomMediaType,
)
from repro.zoom.media_encap import MediaEncap
from repro.zoom.packets import (
    ZoomPacket,
    build_control_payload,
    build_media_payload,
    build_rtcp_payload,
    parse_zoom_payload,
)
from repro.zoom.sfu_encap import Direction, SfuEncap


def _rtp(**overrides) -> RTPHeader:
    defaults = dict(payload_type=98, sequence=42, timestamp=90000, ssrc=0x210)
    defaults.update(overrides)
    return RTPHeader(**defaults)


def _video_media(**overrides) -> MediaEncap:
    defaults = dict(media_type=16, sequence=7, timestamp=90000, frame_sequence=3, packets_in_frame=2)
    defaults.update(overrides)
    return MediaEncap(**defaults)


def _sr() -> RTCPSenderReport:
    return RTCPSenderReport(
        ssrc=0x210, ntp_seconds=1, ntp_fraction=2, rtp_timestamp=3,
        packet_count=4, octet_count=5,
    )


class TestServerPackets:
    def test_video_rtp_offset_matches_table2(self):
        payload = build_media_payload(
            media=_video_media(), rtp=_rtp(), rtp_payload=b"x" * 50, sfu=SfuEncap()
        )
        assert payload.index(_rtp().serialize()) == RTP_OFFSET_SERVER[ZoomMediaType.VIDEO]

    def test_audio_rtp_offset(self):
        media = MediaEncap(media_type=15, sequence=1, timestamp=2)
        rtp = _rtp(payload_type=112, ssrc=0x20F)
        payload = build_media_payload(media=media, rtp=rtp, rtp_payload=b"a" * 40, sfu=SfuEncap())
        assert payload.index(rtp.serialize()) == RTP_OFFSET_SERVER[ZoomMediaType.AUDIO]

    def test_screen_share_rtp_offset(self):
        media = MediaEncap(media_type=13, sequence=1, timestamp=2, frame_sequence=1, packets_in_frame=1)
        rtp = _rtp(payload_type=99, ssrc=0x20D)
        payload = build_media_payload(media=media, rtp=rtp, rtp_payload=b"s" * 40, sfu=SfuEncap())
        assert payload.index(rtp.serialize()) == RTP_OFFSET_SERVER[ZoomMediaType.SCREEN_SHARE]

    def test_rtcp_offset(self):
        payload = build_rtcp_payload(
            media=MediaEncap(media_type=33), reports=[_sr()], sfu=SfuEncap()
        )
        assert payload.index(_sr().serialize()) == RTP_OFFSET_SERVER[ZoomMediaType.RTCP_SR]

    def test_parse_video(self):
        payload = build_media_payload(
            media=_video_media(), rtp=_rtp(marker=True), rtp_payload=b"z" * 99, sfu=SfuEncap()
        )
        packet = parse_zoom_payload(payload, from_server=True)
        assert packet.is_media and not packet.is_p2p
        assert packet.rtp.marker
        assert packet.media.packets_in_frame == 2
        assert len(packet.rtp_payload) == 99

    def test_direction_preserved(self):
        payload = build_media_payload(
            media=_video_media(), rtp=_rtp(), rtp_payload=b"x",
            sfu=SfuEncap(direction=Direction.FROM_SFU),
        )
        packet = parse_zoom_payload(payload, from_server=True)
        assert packet.sfu.direction == Direction.FROM_SFU


class TestP2PPackets:
    def test_p2p_has_no_sfu_layer(self):
        payload = build_media_payload(media=_video_media(), rtp=_rtp(), rtp_payload=b"x" * 10)
        assert payload[0] == 16
        packet = parse_zoom_payload(payload, from_server=False)
        assert packet.is_p2p and packet.sfu is None and packet.is_media

    def test_p2p_rtp_offset(self):
        payload = build_media_payload(media=_video_media(), rtp=_rtp(), rtp_payload=b"x" * 10)
        assert payload.index(_rtp().serialize()) == RTP_OFFSET_P2P[ZoomMediaType.VIDEO]


class TestAutoDetection:
    def test_auto_detects_server(self):
        payload = build_media_payload(
            media=_video_media(), rtp=_rtp(), rtp_payload=b"x" * 10, sfu=SfuEncap()
        )
        packet = parse_zoom_payload(payload)
        assert not packet.is_p2p and packet.is_media

    def test_auto_detects_p2p(self):
        payload = build_media_payload(media=_video_media(), rtp=_rtp(), rtp_payload=b"x" * 10)
        packet = parse_zoom_payload(payload)
        assert packet.is_p2p and packet.is_media


class TestRTCP:
    def test_sr_with_empty_sdes(self):
        payload = build_rtcp_payload(
            media=MediaEncap(media_type=34),
            reports=[_sr(), RTCPSdes(ssrc=0x210)],
            sfu=SfuEncap(),
        )
        packet = parse_zoom_payload(payload, from_server=True)
        assert packet.is_rtcp and len(packet.rtcp) == 2
        assert packet.rtcp[1].is_empty

    def test_rtcp_media_type_required(self):
        with pytest.raises(ValueError):
            build_rtcp_payload(media=_video_media(), reports=[_sr()])


class TestControlPackets:
    def test_control_payload_structure(self):
        payload = build_control_payload(control_type=7, sequence=0x0102, body=b"body")
        assert payload[0] == 7
        assert payload[1:3] == b"\x01\x02"

    def test_control_rejects_media_types(self):
        with pytest.raises(ValueError):
            build_control_payload(control_type=16)

    def test_control_parse_yields_no_media(self):
        payload = build_control_payload(control_type=20, body=b"\x00" * 30, sfu=SfuEncap())
        packet = parse_zoom_payload(payload, from_server=True)
        assert not packet.is_media and not packet.is_rtcp

    def test_sfu_non_media_type(self):
        payload = SfuEncap(sfu_type=2).serialize() + b"\x00" * 10
        packet = parse_zoom_payload(payload, from_server=True)
        assert packet.sfu is not None and packet.media is None


class TestRobustness:
    def test_empty_payload(self):
        packet = parse_zoom_payload(b"", from_server=True)
        assert packet.media is None and packet.rtp is None

    def test_truncated_media_header(self):
        packet = parse_zoom_payload(SfuEncap().serialize() + bytes([16]) + b"\x00" * 5, from_server=True)
        assert packet.media is None

    def test_corrupt_rtp_under_media(self):
        media = _video_media()
        payload = SfuEncap().serialize() + media.serialize() + b"\x00" * 20
        packet = parse_zoom_payload(payload, from_server=True)
        assert packet.media is not None
        assert packet.rtp is None  # version bits wrong

    def test_describe_strings(self):
        media_payload = build_media_payload(
            media=_video_media(), rtp=_rtp(), rtp_payload=b"x", sfu=SfuEncap()
        )
        description = parse_zoom_payload(media_payload).describe()
        assert "VIDEO" in description and "SFU" in description
        p2p_payload = build_media_payload(media=_video_media(), rtp=_rtp(), rtp_payload=b"x")
        assert "P2P" in parse_zoom_payload(p2p_payload).describe()


# ------------------------------------------ property: the view ≡ its bytes

_U8, _U16, _U32 = st.integers(0, 0xFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
_SFU = st.none() | st.builds(
    SfuEncap, st.sampled_from([5, 5, 5, 0, 6]), _U16, _U8, st.binary(min_size=4, max_size=4)
)
_ENCAP = st.builds(
    MediaEncap, st.sampled_from([*ZoomMediaType, 7]), _U16, _U32, _U16, _U8, st.binary(max_size=26)
)
_RTP = st.tuples(
    st.sampled_from([98, 99, 110, 112, 0, 127, 71, 72, 74, 76, 77]), _U16, _U32, _U32,
    st.booleans(), st.booleans(), st.lists(_U32, max_size=15).map(tuple),
    st.just(()) | st.tuples(_U16, st.sampled_from([b"", b"\xbe\xde\x00\x01", bytes(range(12))])),
).map(lambda fields: RTPHeader(*fields[:7], *fields[7]))
_REPORTS = st.lists(st.sampled_from([_sr(), RTCPSdes(7), RTCPReceiverReport(9)]), max_size=3)


@st.composite
def _built(draw):
    """``(payload, sfu), expected``: a payload the ``build_*`` serialisers made
    from drawn headers (a control body may be short of 8 bytes) and its view."""
    sfu, encap = draw(_SFU), draw(_ENCAP)
    media, rtp, rtp_payload, reports = encap.serialize(), None, b"", ()
    if encap.is_rtcp:
        reports = tuple(draw(_REPORTS))
        payload = build_rtcp_payload(media=encap, reports=reports, sfu=sfu)
    elif encap.is_rtp:
        rtp, rtp_payload = draw(_RTP), draw(st.binary(max_size=32))
        payload = build_media_payload(media=encap, rtp=rtp, rtp_payload=rtp_payload, sfu=sfu)
        if 72 <= rtp.payload_type <= 76:  # RTCP packet types 200-204
            rtp, rtp_payload = None, b""
    else:
        body = draw(st.binary(max_size=9))
        payload = build_control_payload(control_type=7, sequence=encap.sequence, body=body, sfu=sfu)
        media = payload[-len(body) - 3 :][:8] if len(body) >= 5 else None
    frames = (encap.frame_sequence, encap.packets_in_frame) if encap.has_frame_fields else (0, 0)
    if sfu is not None and not sfu.carries_media:
        media, rtp, rtp_payload, reports, frames = None, None, b"", (), (0, 0)
    return (payload, sfu), (sfu, sfu and sfu.direction, media, rtp, rtp_payload, reports, frames)


@given(_built())
@settings(max_examples=500, deadline=None)
def test_view_returns_the_headers_it_was_built_from(case):
    """The view returns the headers it was built from (media by ``serialize()``,
    which normalises ``opaque``), the payload bytes, ``direction`` and ``frame_fields``."""
    (payload, sfu), expected = case
    view = ZoomPacket(payload, sfu is not None)
    media = None if view.media is None else view.media.serialize()
    observed = (view.sfu, view.direction, media, view.rtp, view.rtp_payload, view.rtcp)
    assert observed + (view.frame_fields,) == expected


@st.composite
def _payloads(draw):
    """``(payload, from_server)``: a media payload of any RTP shape with at
    most one deviation (SFU type, media type, encapsulation length ±1, RTP
    version, payload type 72-76, extension overrun, a cut), or any bytes."""
    from_server = draw(st.booleans())
    deviation = draw(st.sampled_from([
        "none", "none", "bytes", "sfu_type", "media_type", "encap_len", "version",
        "rtcp_range", "extension_overrun", "cut", "wrong_side",
    ]))
    if deviation == "bytes":
        return draw(st.binary(max_size=96)), from_server
    media_type = draw(st.sampled_from([13, 15, 16]))
    if deviation == "media_type":
        media_type = draw(st.sampled_from([33, 34, 7, 0, 255]))
    encap_len = MEDIA_ENCAP_LEN.get(media_type, 8)
    if deviation == "encap_len":
        encap_len += draw(st.sampled_from([-1, 1]))
    encap = bytes([media_type]) + draw(st.binary(min_size=encap_len - 1, max_size=encap_len - 1))
    csrcs = draw(st.sampled_from([0, 0, 1, 15]))
    extension = draw(st.sampled_from([None, None, 0, 1, 3]))
    if deviation == "extension_overrun":
        extension = draw(st.sampled_from([4, 0xFFFF]))
    first = (
        (1 if deviation == "version" else 2) << 6
        | draw(st.sampled_from([0, 0x20]))
        | (0 if extension is None else 0x10)
        | csrcs
    )
    payload_type = draw(st.sampled_from([72, 74, 76] if deviation == "rtcp_range" else [98, 110, 71, 77]))
    rtp = bytes([first, draw(st.sampled_from([0, 0x80])) | payload_type])
    rtp += draw(st.binary(min_size=10, max_size=10)) + bytes(4 * csrcs)
    if extension is not None:
        rtp += b"\xbe\xde" + extension.to_bytes(2, "big") + bytes(4 * min(extension, 3))
    rtp += draw(st.binary(max_size=24))
    sfu_type = draw(st.sampled_from([0, 1, 6])) if deviation == "sfu_type" else 5
    sfu = bytes([sfu_type]) + draw(st.binary(min_size=7, max_size=7))
    payload = (sfu if from_server != (deviation == "wrong_side") else b"") + encap + rtp
    if deviation == "cut":
        payload = payload[: draw(st.integers(0, len(payload)))]
    return payload, from_server


@given(_payloads())
@settings(max_examples=400, deadline=None)
def test_view_of_deviant_payloads(case):
    """The view never raises; ``is_media`` holds exactly for an RTP media type
    whose header walks outside 72-76, whose headers re-serialize to the bytes."""
    payload, from_server = case
    view = ZoomPacket(payload, from_server)
    view.describe(), view.direction, view.frame_fields, view.rtcp
    media, sfu = view.media, b"" if view.sfu is None else view.sfu.serialize()
    walks = media is not None and media.is_rtp and looks_like_rtp(payload[view.inner :])
    assert view.is_media == walks == (view.rtp is not None)
    if walks:
        assert sfu + media.serialize() + view.rtp.serialize() + view.rtp_payload == payload
