"""Tests for complete Zoom UDP payload composition and parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtp.rtcp import RTCPSdes, RTCPSenderReport
from repro.rtp.rtp import RTPHeader
from repro.zoom.constants import (
    MEDIA_ENCAP_LEN,
    RTP_OFFSET_P2P,
    RTP_OFFSET_SERVER,
    ZoomMediaType,
)
from repro.zoom.media_encap import MediaEncap
from repro.zoom.packets import (
    build_control_payload,
    build_media_payload,
    build_rtcp_payload,
    decode_media,
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


# ------------------------------------- property: flat decoder ≡ object tree


@st.composite
def _payloads(draw):
    """``(payload, from_server)``: a well-formed media payload of any RTP
    shape (CSRCs, padding and marker bits, a header extension of 0-3 words,
    payload types either side of the RTCP range) with at most one deviation —
    wrong SFU type, a non-RTP media type, the media encapsulation one byte
    short or long, RTP version 1, a payload type in 72-76, an extension word
    count that overruns, a cut anywhere — or arbitrary bytes."""
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
@settings(max_examples=600, deadline=None)
def test_flat_decoder_equals_the_object_tree(case):
    """``decode_media`` (the packet path) returns exactly the fields read off
    ``parse_zoom_payload``'s tree, and ``None`` exactly when the tree says
    the payload is not RTP media."""
    payload, from_server = case
    zoom = parse_zoom_payload(payload, from_server=from_server)
    flat = decode_media(payload, from_server)
    if not zoom.is_media:
        assert flat is None
        return
    assert flat == (
        zoom.media.media_type,
        None if zoom.sfu is None else zoom.sfu.direction,
        zoom.media.frame_sequence,
        zoom.media.packets_in_frame,
        zoom.rtp.payload_type,
        zoom.rtp.marker,
        zoom.rtp.sequence,
        zoom.rtp.timestamp,
        zoom.rtp.ssrc,
        len(zoom.rtp_payload),
    )
    assert (zoom.sfu is not None) == from_server
