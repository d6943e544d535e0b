"""Grouping streams into meetings (§4.3, Figures 8-9).

Zoom packets carry no meeting identifier, so meetings must be inferred from
flow properties.  The heuristic has two steps:

**Step 1 — duplicate-stream detection.**  When a new stream (5-tuple + SSRC)
appears, it is matched against existing streams with the same SSRC whose
most recent RTP timestamp lies within a small range of the new stream's
first RTP timestamp (and which were recently active).  Matches receive the
same *unique stream id*: this collapses SFU replicas of one media stream
(egress copy + per-receiver ingress copies) and survives SFU↔P2P transitions,
because Zoom changes ports but never rewrites RTP state.  Time and timestamp
windows keep re-used SSRCs from unrelated meetings apart.

**Step 2 — meeting assignment.**  Streams are assigned to meetings via three
mappings — unique stream id, client IP, and client (IP, port) — looked up in
that order of strength.  Any match joins the existing meeting; matches in
several meetings merge them; no match starts a new meeting.

Known limitations reproduced here deliberately (Figure 9): passive
participants emit no streams and are invisible; NAT inside the campus can
merge co-located meetings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.streams import MediaStream, StreamKey, StreamTable
from repro.zoom.constants import AUDIO_SAMPLING_RATE, VIDEO_SAMPLING_RATE, ZoomMediaType

RTP_TIMESTAMP_MODULUS = 1 << 32


def _sampling_rate_for(media_type: int) -> int:
    if media_type == ZoomMediaType.AUDIO:
        return AUDIO_SAMPLING_RATE
    return VIDEO_SAMPLING_RATE


def _rtp_distance(a: int, b: int) -> int:
    """Minimal circular distance between two 32-bit RTP timestamps."""
    forward = (a - b) % RTP_TIMESTAMP_MODULUS
    return min(forward, RTP_TIMESTAMP_MODULUS - forward)


@dataclass
class Meeting:
    """One inferred meeting.

    Attributes:
        meeting_id: Analyzer-assigned identity (stable within a run).
        stream_keys: All (5-tuple, SSRC) streams assigned to this meeting.
        stream_uids: Unique stream ids from step 1 (one per media stream,
            however many network copies it had).
        client_ips / client_endpoints: Client-side addresses observed, in
            the flow key's wire form (render with
            :func:`repro.net.ip.ip_to_str`).
        first_time / last_time: Activity bounds.
    """

    meeting_id: int
    stream_keys: set[StreamKey] = field(default_factory=set)
    stream_uids: set[int] = field(default_factory=set)
    client_ips: set[int] = field(default_factory=set)
    client_endpoints: set[tuple[int, int]] = field(default_factory=set)
    first_time: float = float("inf")
    last_time: float = float("-inf")
    uid_media_types: dict[int, int] = field(default_factory=dict)
    uid_has_egress: dict[int, bool] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.first_time > self.last_time:
            return 0.0
        return self.last_time - self.first_time

    @property
    def inbound_only_uids(self) -> set[int]:
        """Streams only ever seen coming *from* the SFU: their senders are
        off campus (or behind an unmonitored subnet)."""
        return {uid for uid, egress in self.uid_has_egress.items() if not egress}

    def participant_estimate(self) -> int:
        """Lower-bound participant count (§4.3.1's caveats apply).

        Campus participants are counted by distinct client IP.  Off-campus
        senders are bounded below by the largest per-media-type count of
        inbound-only streams (each participant sends at most one stream of
        each type).  Passive participants are invisible by construction.
        """
        inbound_by_type: dict[int, int] = {}
        for uid in self.inbound_only_uids:
            media_type = self.uid_media_types.get(uid, 0)
            inbound_by_type[media_type] = inbound_by_type.get(media_type, 0) + 1
        off_campus = max(inbound_by_type.values(), default=0)
        return len(self.client_ips) + off_campus

    def absorb(self, other: "Meeting") -> None:
        """Merge another meeting's state into this one."""
        self.stream_keys |= other.stream_keys
        self.stream_uids |= other.stream_uids
        self.client_ips |= other.client_ips
        self.client_endpoints |= other.client_endpoints
        self.first_time = min(self.first_time, other.first_time)
        self.last_time = max(self.last_time, other.last_time)
        self.uid_media_types.update(other.uid_media_types)
        for uid, egress in other.uid_has_egress.items():
            self.uid_has_egress[uid] = self.uid_has_egress.get(uid, False) or egress


class MeetingGrouper:
    """Online implementation of the two-step grouping heuristic.

    Call :meth:`observe_new_stream` exactly once per new stream, at the
    moment the stream first appears (the pipeline does this), and
    :meth:`observe_stream_update` afterwards to keep activity bounds fresh.

    Args:
        time_window: Maximum age (s) of an existing stream for step 1's
            duplicate match.
        rtp_window_seconds: Maximum RTP-timestamp distance for the match,
            expressed in seconds of media time.
    """

    def __init__(
        self, *, time_window: float = 30.0, rtp_window_seconds: float = 15.0
    ) -> None:
        self.time_window = time_window
        self.rtp_window_seconds = rtp_window_seconds
        self._uid_by_stream: dict[StreamKey, int] = {}
        self._next_uid = 0
        #: Meetings opened so far, merged ones included; ids are handed out
        #: densely from 0, so this is also the next meeting's id.
        self.meetings_formed = 0
        self._meetings: dict[int, Meeting] = {}
        self._meeting_alias: dict[int, int] = {}
        self._by_uid: dict[int, int] = {}
        self._by_client_ip: dict[int, int] = {}
        self._by_client_endpoint: dict[tuple[int, int], int] = {}
        self.merges = 0

    # --------------------------------------------------------------- step 1

    def _assign_uid(self, stream: MediaStream, table: StreamTable) -> int:
        window_units = int(
            self.rtp_window_seconds * _sampling_rate_for(stream.media_type)
        )
        for candidate in table.with_ssrc(stream.ssrc):
            if candidate.key == stream.key:
                continue
            known_uid = self._uid_by_stream.get(candidate.key)
            if known_uid is None:
                continue
            if stream.first_time - candidate.last_time > self.time_window:
                continue
            # Proximity to either end of the candidate's timestamp range:
            # online, ``last`` is the most recently seen timestamp (the
            # paper's formulation); in batch re-analysis ``last`` is final,
            # so a replica that started alongside the candidate is near its
            # ``first`` instead.
            near = min(
                _rtp_distance(stream.first_rtp_timestamp, candidate.last_rtp_timestamp),
                _rtp_distance(stream.first_rtp_timestamp, candidate.first_rtp_timestamp),
            )
            if near <= window_units:
                self._uid_by_stream[stream.key] = known_uid
                return known_uid
        uid = self._next_uid
        self._next_uid += 1
        self._uid_by_stream[stream.key] = uid
        return uid

    # --------------------------------------------------------------- step 2

    def observe_new_stream(self, stream: MediaStream, table: StreamTable) -> int:
        """Process a newly created stream; returns its meeting id."""
        uid = self._assign_uid(stream, table)
        client_endpoints = self._client_endpoints(stream)
        matches: list[int] = []
        if uid in self._by_uid:
            matches.append(self._resolve(self._by_uid[uid]))
        for ip, port in client_endpoints:
            if (ip, port) in self._by_client_endpoint:
                matches.append(self._resolve(self._by_client_endpoint[(ip, port)]))
            if ip in self._by_client_ip:
                matches.append(self._resolve(self._by_client_ip[ip]))
        unique_matches = sorted(set(matches))
        if unique_matches:
            target = unique_matches[0]
            for other in unique_matches[1:]:
                self._merge(target, other)
            meeting = self._meetings[self._resolve(target)]
        else:
            meeting = self._new_meeting()
        meeting.stream_keys.add(stream.key)
        meeting.stream_uids.add(uid)
        meeting.uid_media_types[uid] = stream.media_type
        has_egress = stream.to_server is True or stream.is_p2p
        meeting.uid_has_egress[uid] = (
            meeting.uid_has_egress.get(uid, False) or has_egress
        )
        meeting.first_time = min(meeting.first_time, stream.first_time)
        meeting.last_time = max(meeting.last_time, stream.last_time)
        resolved_id = meeting.meeting_id
        self._by_uid[uid] = resolved_id
        for ip, port in client_endpoints:
            meeting.client_ips.add(ip)
            meeting.client_endpoints.add((ip, port))
            self._by_client_ip[ip] = resolved_id
            self._by_client_endpoint[(ip, port)] = resolved_id
        return resolved_id

    def observe_stream_update(self, stream: MediaStream) -> None:
        """Refresh the activity bounds of the stream's meeting."""
        uid = self._uid_by_stream.get(stream.key)
        if uid is None:
            return
        meeting_id = self._by_uid.get(uid)
        if meeting_id is None:
            return
        meeting = self._meetings.get(self._resolve(meeting_id))
        if meeting is not None:
            meeting.last_time = max(meeting.last_time, stream.last_time)

    # ------------------------------------------------------------- accessors

    def meetings(self) -> list[Meeting]:
        """All live (non-absorbed) meetings, ordered by first activity."""
        alive = [
            meeting
            for meeting_id, meeting in self._meetings.items()
            if self._resolve(meeting_id) == meeting_id
        ]
        alive.sort(key=lambda m: m.first_time)
        return alive

    def uid_of(self, key: StreamKey) -> int | None:
        return self._uid_by_stream.get(key)

    def meeting_of(self, key: StreamKey) -> Meeting | None:
        uid = self._uid_by_stream.get(key)
        if uid is None or uid not in self._by_uid:
            return None
        return self._meetings.get(self._resolve(self._by_uid[uid]))

    def unique_stream_count(self) -> int:
        return self._next_uid

    # -------------------------------------------------------------- internal

    def _client_endpoints(self, stream: MediaStream) -> list[tuple[int, int]]:
        src_ip, src_port, dst_ip, dst_port, _proto = stream.five_tuple
        if stream.to_server is True:
            return [(src_ip, src_port)]
        if stream.to_server is False:
            return [(dst_ip, dst_port)]
        # P2P: both endpoints are clients.
        return [(src_ip, src_port), (dst_ip, dst_port)]

    def _new_meeting(self) -> Meeting:
        meeting = Meeting(meeting_id=self.meetings_formed)
        self._meetings[meeting.meeting_id] = meeting
        self.meetings_formed += 1
        return meeting

    def _resolve(self, meeting_id: int) -> int:
        seen = []
        while meeting_id in self._meeting_alias:
            seen.append(meeting_id)
            meeting_id = self._meeting_alias[meeting_id]
        for alias in seen:  # path compression
            self._meeting_alias[alias] = meeting_id
        return meeting_id

    def _merge(self, target_id: int, other_id: int) -> None:
        target_id = self._resolve(target_id)
        other_id = self._resolve(other_id)
        if target_id == other_id:
            return
        target = self._meetings[target_id]
        other = self._meetings.pop(other_id)
        target.absorb(other)
        self._meeting_alias[other_id] = target_id
        self.merges += 1


def group_streams(
    streams: Iterable[MediaStream], table: StreamTable
) -> tuple[MeetingGrouper, list[Meeting]]:
    """Batch convenience: group already-assembled streams into meetings.

    Streams are processed in order of first appearance, as the online
    pipeline would have seen them.
    """
    grouper = MeetingGrouper()
    for stream in sorted(streams, key=lambda s: s.first_time):
        grouper.observe_new_stream(stream, table)
    return grouper, grouper.meetings()
