"""Tests for the Wireshark-plugin-equivalent dissector (Appendix C)."""

from repro.rtp.rtcp import RTCPSdes, RTCPSenderReport
from repro.rtp.rtp import RTPHeader
from repro.zoom.media_encap import MediaEncap
from repro.zoom.packets import build_media_payload
from repro.core.dissector import dissect, dissect_text
from repro.zoom.sfu_encap import Direction, SfuEncap


def _video_payload(*, sfu=True):
    media = MediaEncap(media_type=16, sequence=9, timestamp=90000, frame_sequence=4, packets_in_frame=3)
    rtp = RTPHeader(payload_type=98, sequence=500, timestamp=90000, ssrc=0x210,
                    marker=True, extension_profile=0xBEDE, extension_data=b"\x00" * 4)
    return build_media_payload(
        media=media, rtp=rtp,
        rtp_payload=b"\x7c\xc0" + b"\xaa" * 60,
        sfu=SfuEncap(sequence=12, direction=Direction.FROM_SFU) if sfu else None,
    )


def test_video_tree_structure():
    tree = dissect(_video_payload(), from_server=True)
    assert tree.find("zoom.sfu") is not None
    assert tree.find("zoom.media") is not None
    assert tree.find("rtp") is not None
    assert tree.find("zoom.payload") is not None


def test_field_values():
    tree = dissect(_video_payload(), from_server=True)
    assert tree.find("zoom.sfu.seq").value == 12
    assert tree.find("zoom.media.type").value == 16
    assert tree.find("zoom.media.pkts_in_frame").value == 3
    assert tree.find("rtp.seq").value == 500
    assert tree.find("rtp.ssrc").value == 0x210


def test_field_offsets_match_table1():
    tree = dissect(_video_payload(), from_server=True)
    assert tree.find("zoom.sfu.type").offset == 0
    assert tree.find("zoom.sfu.direction").offset == 7
    assert tree.find("zoom.media.type").offset == 8
    assert tree.find("zoom.media.seq").offset == 17       # 8 + 9
    assert tree.find("zoom.media.timestamp").offset == 19  # 8 + 11
    assert tree.find("zoom.media.frame_seq").offset == 29  # 8 + 21
    assert tree.find("rtp").offset == 32                   # Table 2


def test_h264_fu_header_for_video():
    tree = dissect(_video_payload(), from_server=True)
    fu = tree.find("h264.fu")
    assert fu is not None
    assert tree.find("h264.fu.start").value is True
    assert tree.find("h264.fu.end").value is True


def test_p2p_packet_has_no_sfu_node():
    tree = dissect(_video_payload(sfu=False), from_server=False)
    assert tree.find("zoom.sfu") is None
    assert tree.find("rtp").offset == 24


def test_rtcp_dissection():
    sr = RTCPSenderReport(ssrc=0x210, ntp_seconds=100, ntp_fraction=0,
                          rtp_timestamp=5, packet_count=6, octet_count=7).serialize()
    sdes = RTCPSdes(ssrc=0x210).serialize()
    cname = RTCPSdes(ssrc=0x210, items=((1, b"alice@10.8.1.1"),)).serialize()
    bye = bytes([0x81, 203, 0, 1]) + (0x210).to_bytes(4, "big")
    # Node ranges follow the compound's length words, whatever precedes a
    # report; SFU + media encapsulation take the first 16 bytes.
    head = SfuEncap().serialize() + MediaEncap(media_type=34).serialize()
    for compound, expected in (
        (sr + sdes, [("rtcp.sr", 16, 28), ("rtcp.sdes", 44, 12)]),
        (cname + sr, [("rtcp.sdes", 16, 28), ("rtcp.sr", 44, 28)]),
        (bye + sr, [("rtcp.sr", 24, 28)]),  # BYE: stepped over, not dissected
    ):
        tree = dissect(head + compound, from_server=True)
        assert [(n.name, n.offset, n.length) for n in tree.children[2:]] == expected
        assert tree.find("rtcp.ssrc").value == 0x210
        assert tree.find("rtcp.ssrc").offset == tree.find("rtcp.sr").offset + 4
    assert "empty" in dissect(head + sr + sdes, from_server=True).find("rtcp.sdes").display


def test_text_rendering():
    text = dissect_text(_video_payload(), from_server=True)
    assert "Zoom SFU Encapsulation" in text
    assert "Zoom Media Encapsulation (VIDEO)" in text
    assert "Real-Time Transport Protocol" in text
    assert "encrypted media payload" in text
    assert "from SFU (0x04)" in text


def test_audio_payload_type_names():
    media = MediaEncap(media_type=15, sequence=1, timestamp=2)
    for payload_type, expected in ((112, "speaking"), (99, "silent"), (113, "unknown")):
        rtp = RTPHeader(payload_type=payload_type, sequence=1, timestamp=2, ssrc=0x20F)
        payload = build_media_payload(media=media, rtp=rtp, rtp_payload=b"a" * 40, sfu=SfuEncap())
        text = dissect_text(payload, from_server=True)
        assert expected in text


def test_screen_share_pt99_name():
    media = MediaEncap(media_type=13, sequence=1, timestamp=2, frame_sequence=1, packets_in_frame=1)
    rtp = RTPHeader(payload_type=99, sequence=1, timestamp=2, ssrc=0x20D)
    payload = build_media_payload(media=media, rtp=rtp, rtp_payload=b"\x7c\x00" + b"s" * 20, sfu=SfuEncap())
    assert "screen share" in dissect_text(payload, from_server=True)


def test_unknown_control_packet():
    from repro.zoom.packets import build_control_payload

    payload = build_control_payload(control_type=20, body=b"\x00" * 30, sfu=SfuEncap())
    tree = dissect(payload, from_server=True)
    assert "UNKNOWN/CONTROL" in tree.find("zoom.media.type").display


def test_render_indentation():
    text = dissect(_video_payload(), from_server=True).render()
    lines = text.splitlines()
    assert lines[0].startswith("zoom:")
    assert any(line.startswith("    zoom.sfu:") for line in lines)
    assert any(line.startswith("        zoom.sfu.type:") for line in lines)
