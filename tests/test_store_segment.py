"""Segment-layer tests: frame codec, active recovery, sealing, footers."""

import gzip
import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.segment import (
    SEGMENT_MAGIC,
    ActiveSegment,
    SegmentMeta,
    encode_frame,
    iter_frames,
    read_sealed_segment,
    recover_active,
    seal_segment,
    write_sealed_segment,
)


def _window(index: int, *, media: str = "video") -> dict:
    return {
        "kind": "window",
        "window": index,
        "start": index * 10.0,
        "end": (index + 1) * 10.0,
        "packets_total": 100 + index,
        "media": [{"media": media, "packets": 90, "bytes": 9000}],
    }


# Any JSON value: unicode (and the footer key as a plain string), nested
# lists and dicts, extreme floats, big integers, None.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
    | st.just("__footer__"),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# Keys SegmentMeta.observe reads are given the types records carry.
_INDEXED = {"kind", "start", "end", "media", "meeting_id", "__footer__"}
_records = st.builds(
    lambda index, extra: {**extra, **index},
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["window", "stream", "meeting", "other"]),
            "start": st.floats(-1e12, 1e12),
            "end": st.floats(-1e12, 1e12),
        },
        optional={"meeting_id": st.integers(0, 2**40)},
    ),
    st.dictionaries(st.text(max_size=8).filter(lambda k: k not in _INDEXED), _json_values, max_size=5),
)


class TestFrameCodec:
    def test_round_trip(self):
        records = [_window(i) for i in range(5)]
        blob = b"".join(encode_frame(r) for r in records)
        assert list(iter_frames(io.BytesIO(blob))) == records

    def test_stops_at_torn_header(self):
        blob = encode_frame(_window(0)) + b"\x00\x00"
        assert len(list(iter_frames(io.BytesIO(blob)))) == 1

    def test_stops_at_corrupt_crc(self):
        good = encode_frame(_window(0))
        bad = bytearray(encode_frame(_window(1)))
        bad[-1] ^= 0xFF  # flip one payload byte; CRC no longer matches
        frames = list(iter_frames(io.BytesIO(good + bytes(bad))))
        assert frames == [_window(0)]

    def test_stops_at_absurd_length(self):
        huge = struct.pack(">II", 1 << 30, 0)
        assert list(iter_frames(io.BytesIO(huge))) == []

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_frame({"kind": "stream", "mean_fps": float("nan")})


class TestSegmentMeta:
    def test_observe_accumulates_index_fields(self):
        meta = SegmentMeta(partition=3)
        meta.observe(_window(1))
        meta.observe(_window(2, media="audio"))
        meta.observe(
            {"kind": "meeting", "start": 5.0, "end": 25.0, "meeting_id": 42}
        )
        meta.observe(
            {"kind": "stream", "start": 6.0, "end": 20.0, "media": "video"}
        )
        assert meta.records == 4
        assert meta.kinds == {"window": 2, "meeting": 1, "stream": 1}
        assert meta.meetings == {42}
        assert meta.media == {"video", "audio"}
        assert meta.start == 5.0 and meta.end == 30.0

    def test_footer_round_trip(self):
        meta = SegmentMeta(partition=1)
        for i in range(3):
            meta.observe(_window(i))
        rebuilt = SegmentMeta.from_footer(meta.footer_record())
        assert rebuilt.records == meta.records
        assert rebuilt.kinds == meta.kinds
        assert (rebuilt.start, rebuilt.end) == (meta.start, meta.end)


class TestActiveSegment:
    def test_append_and_read_back(self, tmp_path):
        active = ActiveSegment(tmp_path / "active-p0.seg", 0)
        for i in range(4):
            active.append(_window(i))
        assert active.records_on_disk() == [_window(i) for i in range(4)]
        assert active.meta.records == 4
        active.close()

    def test_reopen_resumes_appending(self, tmp_path):
        path = tmp_path / "active-p0.seg"
        first = ActiveSegment(path, 0)
        first.append(_window(0))
        first.close()
        second = ActiveSegment(path, 0)
        assert second.meta.records == 1
        assert not second.recovered_truncated
        second.append(_window(1))
        assert second.records_on_disk() == [_window(0), _window(1)]
        second.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "active-p0.seg"
        active = ActiveSegment(path, 0)
        for i in range(3):
            active.append(_window(i))
        active.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:  # simulate a kill mid-append
            handle.write(encode_frame(_window(3))[:11])
        recovered = ActiveSegment(path, 0)
        assert recovered.recovered_truncated
        assert recovered.meta.records == 3
        assert path.stat().st_size == intact
        recovered.close()

    def test_garbage_file_reset(self, tmp_path):
        path = tmp_path / "active-p0.seg"
        path.write_bytes(b"not a segment at all")
        recovered = recover_active(path, 0)
        assert recovered.truncated
        assert recovered.meta.records == 0
        assert path.read_bytes() == SEGMENT_MAGIC


class TestSealing:
    def test_seal_is_atomic_and_removes_active(self, tmp_path):
        active = ActiveSegment(tmp_path / "active-p0.seg", 0)
        records = [_window(i) for i in range(3)]
        for record in records:
            active.append(record)
        sealed_path = tmp_path / "seg-p0-0000.segz"
        meta = seal_segment(active, sealed_path)
        assert meta.records == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [sealed_path.name]
        read, footer = read_sealed_segment(sealed_path)
        assert read == records
        assert footer is not None and footer.records == 3

    def test_sealing_is_deterministic(self, tmp_path):
        """Same records → byte-identical segments (gzip mtime pinned)."""
        records = [_window(i) for i in range(4)]
        write_sealed_segment(tmp_path / "a.segz", records, SegmentMeta(0))
        write_sealed_segment(tmp_path / "b.segz", records, SegmentMeta(0))
        assert (tmp_path / "a.segz").read_bytes() == (
            tmp_path / "b.segz"
        ).read_bytes()

    def test_footer_readable_without_trusting_manifest(self, tmp_path):
        records = [_window(i) for i in range(2)]
        write_sealed_segment(tmp_path / "seg.segz", records, SegmentMeta(7))
        _, footer = read_sealed_segment(tmp_path / "seg.segz")
        assert footer is not None
        assert footer.partition == 7
        assert footer.records == 2

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(_records, min_size=1, max_size=6))
    def test_verbatim_seal_equals_reencoding_writer(self, records, tmp_path_factory):
        """Sealing copies the active frames as they lie on disk; the bytes
        must be what encoding every record afresh writes."""
        tmp_path = tmp_path_factory.mktemp("verbatim")
        active = ActiveSegment(tmp_path / "active-p0.seg", 0)
        for record in records:
            active.append(record)
        self._assert_seals_like(active, records, tmp_path)

    def test_seal_skips_copied_footer_mid_file(self, tmp_path):
        footer = SegmentMeta(partition=0)
        footer.observe(_window(9))
        path = tmp_path / "active-p0.seg"
        path.write_bytes(
            SEGMENT_MAGIC
            + encode_frame(_window(0))
            + encode_frame(footer.footer_record())
            + encode_frame(_window(1))
        )
        self._assert_seals_like(ActiveSegment(path, 0), [_window(0), _window(1)], tmp_path)

    def test_seal_stops_at_corrupt_frame(self, tmp_path):
        active = ActiveSegment(tmp_path / "active-p0.seg", 0)
        for i in range(2):
            active.append(_window(i))
        corrupt = bytearray(encode_frame(_window(2)))
        corrupt[-2] ^= 0xFF  # a payload byte flipped after the CRC was taken
        with open(active.path, "ab") as handle:
            handle.write(bytes(corrupt) + encode_frame(_window(3)))
        self._assert_seals_like(active, [_window(0), _window(1)], tmp_path)

    @staticmethod
    def _assert_seals_like(active, records, tmp_path):
        sealed = tmp_path / "seg-p0-0000.segz"
        seal_segment(active, sealed)
        write_sealed_segment(tmp_path / "reference.segz", records, SegmentMeta(0))
        assert sealed.read_bytes() == (tmp_path / "reference.segz").read_bytes()

    def test_non_segment_gzip_rejected(self, tmp_path):
        path = tmp_path / "bogus.segz"
        path.write_bytes(gzip.compress(json.dumps({"x": 1}).encode()))
        with pytest.raises(ValueError, match="not a store segment"):
            read_sealed_segment(path)
