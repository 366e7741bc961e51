"""The row-based parsers, kept as oracles for the library's parsers.

``parse_ground_observations`` once parsed and checked every row as it
read it and built all streams at the end. The library now indexes the
rows by stream and builds each stream on request
(:class:`ethokit.ingest.ObservationIndex`); this copy of the old parser
checks that the two give the same streams, and the same error on a
file with one fault.

``parse_tracks`` once built a frozen box object per row and grouped the
rows into tracks; the library now splits a plain file into columns and
checks each column whole, and reads any other file row by row. The old
parser, kept below, checks that both give the same tracks and the same
error on a file with one fault.

``parse_labels`` once read every row through the csv module and built
its intervals as it went; the library now checks a plain file's columns
whole and reads any other file row by row. The old parser, kept below,
checks that both give the same streams and the same error on a file with
one fault.

``dump_ground_observations``, ``dump_tracks`` and ``dump_labels`` once
built and formatted every row in Python, one ``isoformat`` or ``repr``
per value; the library now formats each distinct instant once and lets
the csv module write columns zipped in C. The old writers, kept below,
check that both give the same text.
"""

from __future__ import annotations

from datetime import datetime, timezone

from ethokit.core import (
    GROUND_SCAN,
    LABELS,
    METHODS,
    BoundingBox,
    ObservationStream,
    ObsInterval,
    Track,
    csv_text,
)
from ethokit.ingest import (
    END_CODE,
    LABEL_HEADER,
    OBS_HEADER,
    TRACK_HEADER,
    ParseError,
    _Rows,
)
from conftest import track_from_boxes


def _where(rows: _Rows, column: str) -> str:
    return f"{rows.name} row {rows.row_no} column {column!r}"


def _parse_iso(text: str, where: str) -> float:
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ParseError(f"{where}: bad timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def parse_ground_observations(text: str, name: str = "observations") -> list[ObservationStream]:
    rows = _Rows(text, OBS_HEADER, name)
    events: dict[tuple[str, str, str], list[tuple[float, str, int]]] = {}
    for row in rows:
        observer = rows.get(row, "observer_id")
        subject = rows.get(row, "subject_id")
        method = rows.get(row, "method")
        if method not in METHODS:
            raise rows.fail("method", f"unknown method {method!r}")
        t = _parse_iso(rows.get(row, "timestamp_iso8601"), _where(rows, "timestamp_iso8601"))
        code = rows.get(row, "code")
        if not code:
            raise rows.fail("code", "empty behavior code")
        key = (observer, subject, method)
        group = events.setdefault(key, [])
        if group and t < group[-1][0]:
            raise rows.fail("timestamp_iso8601", "timestamps decrease within a stream")
        group.append((t, code, rows.row_no))

    streams = []
    for key in sorted(events):
        observer, subject, method = key
        streams.append(_events_to_stream(events[key], subject, method, observer, name))
    return streams


def _events_to_stream(
    group: list[tuple[float, str, int]],
    subject: str,
    method: str,
    observer: str,
    name: str,
) -> ObservationStream:
    has_end = any(code == END_CODE for _, code, _ in group)
    if method == GROUND_SCAN and not has_end:
        intervals = [ObsInterval(t, t, code) for t, code, _ in group]
        return ObservationStream(subject, method, tuple(intervals), observer)
    intervals = []
    open_event: tuple[float, str] | None = None
    for t, code, row_no in group:
        if code == END_CODE:
            if open_event is None:
                raise ParseError(f"{name} row {row_no}: END with no open interval")
            if t <= open_event[0]:
                raise ParseError(f"{name} row {row_no}: zero-length interval")
            intervals.append(ObsInterval(open_event[0], t, open_event[1]))
            open_event = None
        else:
            if open_event is not None:
                if t <= open_event[0]:
                    raise ParseError(f"{name} row {row_no}: zero-length interval")
                intervals.append(ObsInterval(open_event[0], t, open_event[1]))
            open_event = (t, code)
    if open_event is not None:
        raise ParseError(
            f"{name}: stream ({observer!r}, {subject!r}, {method!r}) "
            "not terminated (missing END row)"
        )
    return ObservationStream(subject, method, tuple(intervals), observer)


def parse_tracks(text: str, name: str = "tracks") -> list[Track]:
    rows = _Rows(text, TRACK_HEADER, name)
    session: str | None = None
    groups: list[tuple[str, str, bool, list[BoundingBox]]] = []
    prev_key: tuple[str, int] | None = None
    for row in rows:
        sid = rows.get(row, "session_id")
        if session is None:
            session = sid
        elif sid != session:
            raise rows.fail("session_id", f"mixed sessions ({session!r} and {sid!r})")
        track_id = rows.get(row, "track_id")
        species = rows.get(row, "species")
        frame = rows.to_int(row, "frame")
        box = BoundingBox(
            frame,
            rows.to_float(row, "x"),
            rows.to_float(row, "y"),
            rows.to_float(row, "w"),
            rows.to_float(row, "h"),
        )
        excluded = rows.to_bool(row, "excluded")
        key = (track_id, frame)
        if prev_key is not None and key <= prev_key:
            if key == prev_key:
                raise rows.fail("frame", f"duplicate frame {frame} in track {track_id!r}")
            raise rows.fail("frame", "rows not sorted by (track_id, frame)")
        prev_key = key
        if groups and groups[-1][0] == track_id:
            if groups[-1][1] != species:
                raise rows.fail("species", f"species changes within track {track_id!r}")
            if groups[-1][2] != excluded:
                raise rows.fail("excluded", f"excluded flag changes within track {track_id!r}")
            groups[-1][3].append(box)
        else:
            groups.append((track_id, species, excluded, [box]))
    return [
        track_from_boxes(track_id, species, boxes, excluded)
        for track_id, species, excluded, boxes in groups
    ]


def parse_labels(text: str, fps: float, name: str = "labels") -> list[ObservationStream]:
    rows = _Rows(text, LABEL_HEADER, name)
    session: str | None = None
    groups: list[tuple[str, list[ObsInterval]]] = []
    for row in rows:
        sid = rows.get(row, "session_id")
        if session is None:
            session = sid
        elif sid != session:
            raise rows.fail("session_id", f"mixed sessions ({session!r} and {sid!r})")
        track_id = rows.get(row, "track_id")
        start = rows.to_int(row, "start_frame")
        end = rows.to_int(row, "end_frame")
        code = rows.get(row, "code")
        if start < 0:
            raise rows.fail("start_frame", f"negative frame {start}")
        if end < start:
            raise rows.fail("end_frame", f"end_frame {end} before start_frame {start}")
        if not code:
            raise rows.fail("code", "empty behavior code")
        if not groups or track_id != groups[-1][0]:
            if groups and track_id < groups[-1][0]:
                raise rows.fail("track_id", "rows not sorted by track_id")
            groups.append((track_id, []))
        current = groups[-1][1]
        if current and start < current[-1].end:
            raise rows.fail("start_frame", f"segments overlap in track {track_id!r}")
        current.append(ObsInterval(start, end + 1, code))
    return [
        ObservationStream(track_id, LABELS, tuple(intervals), fps=fps)
        for track_id, intervals in groups
    ]


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float."""
    return repr(float(value))


def _iso(epoch_s: float) -> str:
    return datetime.fromtimestamp(epoch_s, timezone.utc).isoformat()


def dump_tracks(tracks: list[Track], session_id: str) -> str:
    def rows():
        for t in sorted(tracks, key=lambda t: t.track_id):
            excluded = "1" if t.excluded else "0"
            for frame, x, y, w, h in zip(t.frames, t.x, t.y, t.w, t.h):
                yield [session_id, t.track_id, t.species, frame,
                       _fmt(x), _fmt(y), _fmt(w), _fmt(h), excluded]

    return csv_text(TRACK_HEADER, rows())


def dump_labels(streams: list[ObservationStream], session_id: str) -> str:
    return csv_text(
        LABEL_HEADER,
        (
            [session_id, stream.subject_id, start, end - 1, code]
            for stream in sorted(streams, key=lambda s: s.subject_id)
            for start, end, code in stream.intervals
        ),
    )


def dump_ground_observations(streams: list[ObservationStream], observer_id: str = "field") -> str:
    keyed = sorted(streams, key=lambda s: (s.observer_id or observer_id, s.subject_id, s.method))

    def rows():
        for stream in keyed:
            key = [stream.observer_id or observer_id, stream.subject_id, stream.method]
            events = stream.method == GROUND_SCAN and stream.is_instantaneous()
            for i, iv in enumerate(stream.intervals):
                yield [*key, _iso(iv.start), iv.code]
                nxt = stream.intervals[i + 1] if i + 1 < len(stream.intervals) else None
                if not events and (nxt is None or nxt.start != iv.end):
                    yield [*key, _iso(iv.end), END_CODE]

    return csv_text(OBS_HEADER, rows())
