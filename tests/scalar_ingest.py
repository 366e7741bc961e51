"""The single-pass observations.csv parser, kept as the oracle.

``parse_ground_observations`` once parsed and checked every row as it
read it and built all streams at the end. The library now indexes the
rows by stream and builds each stream on request
(:class:`ethokit.ingest.ObservationIndex`); this copy of the old parser
checks that the two give the same streams, and the same error on a
file with one fault.
"""

from __future__ import annotations

from datetime import datetime, timezone

from ethokit.core import GROUND_SCAN, METHODS, ObservationStream, ObsInterval
from ethokit.ingest import END_CODE, OBS_HEADER, ParseError, _Rows


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
