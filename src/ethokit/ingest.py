"""Readers and writers for every external file format.

All downstream modules consume only core types; this module owns the
byte-level schemas. Canonical CSVs are UTF-8 with LF line endings,
decimal points and no thousands separators:

* tracks:       ``session_id,track_id,species,frame,x,y,w,h,excluded``
                (one row per box, sorted by track_id then frame)
* labels:       ``session_id,track_id,start_frame,end_frame,code``
                (inclusive frame ranges, contiguous per stream)
* observations: ``observer_id,subject_id,method,timestamp_iso8601,code``

Ground observation rows are events. Scan rows are instantaneous
snapshots of each visible individual. Focal rows are behavior-change
events: each row opens an interval that the next row closes, and a
reserved ``END`` row closes the final interval (or an interior run,
when the record has gaps). The AnimalBehaviourPro export schema is not
public, so this event layout is a documented stand-in.

observations.csv is read in two steps. :class:`ObservationIndex` makes
one pass that checks the header and every row's field count and groups
the raw rows by stream; each stream is then parsed and checked when it
is built. A caller that builds only some streams (``compare`` builds one
subject's) fails only on faults inside those, while a bad header or
field count fails every caller.

Writing then reading is the identity on stream values; reading then
writing is the identity on canonical files. Timestamps are serialized
as ISO 8601 UTC at microsecond precision.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from pathlib import Path

from .core import (
    GIRAFFE,
    GREVYS_ZEBRA,
    GROUND_SCAN,
    KNOWN_SPECIES,
    METHODS,
    PLAINS_ZEBRA,
    ZEBRA_UNSPECIFIED,
    BoundingBox,
    LabelStream,
    ObservationStream,
    ObsInterval,
    Segment,
    Track,
    VideoMeta,
    coalesce,
)
from .ethogram import Ethogram, default_ethogram, read_ethogram, write_ethogram

__all__ = [
    "ParseError",
    "CvatImportWarning",
    "import_cvat_video_xml",
    "read_tracks",
    "write_tracks",
    "read_labels",
    "write_labels",
    "ObservationIndex",
    "read_ground_observations",
    "read_observation_index",
    "write_ground_observations",
    "read_video_meta",
    "write_video_meta",
    "read_ethogram",
    "write_ethogram",
    "END_CODE",
]

TRACK_HEADER = ["session_id", "track_id", "species", "frame", "x", "y", "w", "h", "excluded"]
LABEL_HEADER = ["session_id", "track_id", "start_frame", "end_frame", "code"]
OBS_HEADER = ["observer_id", "subject_id", "method", "timestamp_iso8601", "code"]

# Reserved code closing a focal interval run; never a behavior.
END_CODE = "END"


class ParseError(ValueError):
    """A file violated its schema; message names file position."""


class CvatImportWarning(UserWarning):
    """Raised once per kind of skipped or suspicious CVAT element."""


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float."""
    return repr(float(value))


def _iso(epoch_s: float) -> str:
    return datetime.fromtimestamp(epoch_s, timezone.utc).isoformat()


def _parse_iso(text: str) -> float:
    """Epoch seconds of an ISO 8601 timestamp, naive ones read as UTC; ValueError if malformed."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _at(name: str, row_no: int, column: str) -> str:
    return f"{name} row {row_no} column {column!r}"


class _Rows:
    """CSV row iterator that enforces a header and reports positions."""

    def __init__(self, text: str, header: list[str], name: str):
        self.name = name
        self.header = header
        self._pos = {col: i for i, col in enumerate(header)}
        self._reader = csv.reader(io.StringIO(text))
        got = next(self._reader, None)
        if got != header:
            raise ParseError(f"{name}: unexpected header {got!r}")
        self.row_no = 1  # header row

    def __iter__(self):
        for row in self._reader:
            self.row_no += 1
            if not row:
                continue
            if len(row) != len(self.header):
                raise ParseError(
                    f"{self.name} row {self.row_no}: expected "
                    f"{len(self.header)} fields, got {len(row)}"
                )
            yield row

    def fail(self, column: str, message: str) -> ParseError:
        return ParseError(f"{_at(self.name, self.row_no, column)}: {message}")

    def to_int(self, row: list[str], col: str) -> int:
        raw = row[self._pos[col]]
        try:
            return int(raw)
        except ValueError:
            raise self.fail(col, f"not an integer: {raw!r}") from None

    def to_float(self, row: list[str], col: str) -> float:
        raw = row[self._pos[col]]
        try:
            value = float(raw)
        except ValueError:
            raise self.fail(col, f"not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise self.fail(col, f"not a finite number: {raw!r}")
        return value

    def get(self, row: list[str], col: str) -> str:
        return row[self._pos[col]]


def _to_bool(rows: _Rows, row: list[str], col: str) -> bool:
    raw = rows.get(row, col)
    if raw in ("0", "false"):
        return False
    if raw in ("1", "true"):
        return True
    raise rows.fail(col, f"not a boolean (0/1): {raw!r}")


# ---------------------------------------------------------------------------
# tracks


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
        excluded = _to_bool(rows, row, "excluded")
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
        Track(track_id, species, tuple(boxes), excluded)
        for track_id, species, excluded, boxes in groups
    ]


def dump_tracks(tracks: list[Track], session_id: str) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACK_HEADER)
    for track in sorted(tracks, key=lambda t: t.track_id):
        excluded = "1" if track.excluded else "0"
        for box in sorted(track.boxes, key=lambda b: b.frame):
            writer.writerow(
                [
                    session_id,
                    track.track_id,
                    track.species,
                    box.frame,
                    _fmt(box.x),
                    _fmt(box.y),
                    _fmt(box.w),
                    _fmt(box.h),
                    excluded,
                ]
            )
    return out.getvalue()


def read_tracks(path: str | Path) -> list[Track]:
    p = Path(path)
    return parse_tracks(p.read_text(encoding="utf-8"), name=p.name)


def write_tracks(tracks: list[Track], path: str | Path, session_id: str) -> None:
    Path(path).write_text(dump_tracks(tracks, session_id), encoding="utf-8")


# ---------------------------------------------------------------------------
# labels


def parse_labels(text: str, name: str = "labels") -> list[LabelStream]:
    rows = _Rows(text, LABEL_HEADER, name)
    session: str | None = None
    streams: list[LabelStream] = []
    current_id: str | None = None
    current: list[Segment] = []

    def flush() -> None:
        if current_id is not None and current:
            streams.append(LabelStream(current_id, tuple(current)))

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
        if end < start:
            raise rows.fail("end_frame", f"end_frame {end} before start_frame {start}")
        if track_id != current_id:
            if current_id is not None and track_id < current_id:
                raise rows.fail("track_id", "rows not sorted by track_id")
            flush()
            current_id, current = track_id, []
        if current:
            prev = current[-1]
            if start <= prev.end_frame:
                raise rows.fail("start_frame", f"segments overlap in track {track_id!r}")
            if start != prev.end_frame + 1:
                # gap: a new stream for the same track starts here
                flush()
                current = []
        current.append(Segment(start, end, code))
    flush()
    return streams


def dump_labels(streams: list[LabelStream], session_id: str) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LABEL_HEADER)
    for stream in sorted(streams, key=lambda s: (s.track_id, s.start_frame)):
        for seg in stream.segments:
            writer.writerow([session_id, stream.track_id, seg.start_frame, seg.end_frame, seg.code])
    return out.getvalue()


def read_labels(path: str | Path) -> list[LabelStream]:
    p = Path(path)
    return parse_labels(p.read_text(encoding="utf-8"), name=p.name)


def write_labels(streams: list[LabelStream], path: str | Path, session_id: str) -> None:
    Path(path).write_text(dump_labels(streams, session_id), encoding="utf-8")


# ---------------------------------------------------------------------------
# ground observations


class ObservationIndex:
    """observations.csv rows grouped by stream, each stream built on request.

    Construction makes one pass over the file and checks its structure
    only: the header and every row's field count. Everything else (the
    method, timestamps, empty codes, END pairing) is checked when a
    stream is built, so a fault inside one stream fails only a caller
    that builds that stream. Streams are keyed by
    ``(observer_id, subject_id, method)``.
    """

    def __init__(self, text: str, name: str = "observations"):
        self.name = name
        rows = _Rows(text, OBS_HEADER, name)
        groups: dict[tuple[str, str, str], list[tuple[int, str, str]]] = {}
        for observer, subject, method, stamp, code in rows:
            key = (observer, subject, method)
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
            group.append((rows.row_no, stamp, code))
        self._groups = groups

    def keys(self) -> list[tuple[str, str, str]]:
        """Every stream's (observer_id, subject_id, method), sorted."""
        return sorted(self._groups)

    def streams(
        self, subject: str | None = None, method: str | None = None
    ) -> list[ObservationStream]:
        """Build the streams of one subject and method (default: all), in key order."""
        return [
            self.build(key)
            for key in self.keys()
            if (subject is None or key[1] == subject) and (method is None or key[2] == method)
        ]

    def build(self, key: tuple[str, str, str]) -> ObservationStream:
        observer, subject, method = key
        group = self._groups[key]
        if method not in METHODS:
            raise self._fail(group[0][0], "method", f"unknown method {method!r}")
        events: list[tuple[float, str, int]] = []
        prev = -math.inf
        for row_no, stamp, code in group:
            try:
                t = _parse_iso(stamp)
            except ValueError as exc:
                raise self._fail(row_no, "timestamp_iso8601", f"bad timestamp {stamp!r}") from exc
            if not code:
                raise self._fail(row_no, "code", "empty behavior code")
            if t < prev:
                message = "timestamps decrease within a stream"
                raise self._fail(row_no, "timestamp_iso8601", message)
            prev = t
            events.append((t, code, row_no))
        return _events_to_stream(events, subject, method, observer, self.name)

    def _fail(self, row_no: int, column: str, message: str) -> ParseError:
        return ParseError(f"{_at(self.name, row_no, column)}: {message}")


def parse_ground_observations(text: str, name: str = "observations") -> list[ObservationStream]:
    return ObservationIndex(text, name).streams()


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


def dump_ground_observations(streams: list[ObservationStream], observer_id: str = "field") -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(OBS_HEADER)
    keyed = sorted(streams, key=lambda s: (s.observer_id or observer_id, s.subject_id, s.method))
    for stream in keyed:
        observer = stream.observer_id or observer_id
        if stream.method == GROUND_SCAN and stream.is_instantaneous():
            for iv in stream.intervals:
                writer.writerow([observer, stream.subject_id, stream.method, _iso(iv.start), iv.code])
            continue
        for i, iv in enumerate(stream.intervals):
            writer.writerow([observer, stream.subject_id, stream.method, _iso(iv.start), iv.code])
            nxt = stream.intervals[i + 1] if i + 1 < len(stream.intervals) else None
            if nxt is None or nxt.start != iv.end:
                writer.writerow([observer, stream.subject_id, stream.method, _iso(iv.end), END_CODE])
    return out.getvalue()


def read_ground_observations(path: str | Path) -> list[ObservationStream]:
    p = Path(path)
    return parse_ground_observations(p.read_text(encoding="utf-8"), name=p.name)


def read_observation_index(path: str | Path) -> ObservationIndex:
    p = Path(path)
    return ObservationIndex(p.read_text(encoding="utf-8"), name=p.name)


def write_ground_observations(
    streams: list[ObservationStream], path: str | Path, observer_id: str = "field"
) -> None:
    Path(path).write_text(dump_ground_observations(streams, observer_id), encoding="utf-8")


# ---------------------------------------------------------------------------
# session metadata


_META_KEYS = ("session_id", "width_px", "height_px", "start_time", "fps")


def parse_video_meta(text: str, name: str = "meta") -> VideoMeta:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object")
    unknown = set(obj) - set(_META_KEYS)
    if unknown:
        raise ParseError(f"{name}: unknown keys {sorted(unknown)}")
    missing = set(_META_KEYS) - set(obj)
    if missing:
        raise ParseError(f"{name}: missing keys {sorted(missing)}")
    try:
        start = datetime.fromisoformat(str(obj["start_time"]).replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"{name}: start_time is not ISO 8601: {obj['start_time']!r}") from None
    if start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    fields = {}
    for key, kind in (("width_px", int), ("height_px", int), ("fps", float)):
        try:
            fields[key] = kind(obj[key])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{name}: {key} is not a number: {obj[key]!r}") from None
    meta = VideoMeta(session_id=str(obj["session_id"]), start_time=start, **fields)
    if not (math.isfinite(meta.fps) and meta.fps > 0):
        raise ParseError(f"{name}: fps must be positive and finite, got {meta.fps!r}")
    if meta.width_px <= 0 or meta.height_px <= 0:
        raise ParseError(f"{name}: frame size must be positive")
    return meta


def dump_video_meta(meta: VideoMeta) -> str:
    obj = {
        "session_id": meta.session_id,
        "width_px": meta.width_px,
        "height_px": meta.height_px,
        "start_time": meta.start_time.isoformat(),
        "fps": meta.fps,
    }
    return json.dumps(obj, indent=2) + "\n"


def read_video_meta(path: str | Path) -> VideoMeta:
    p = Path(path)
    return parse_video_meta(p.read_text(encoding="utf-8"), name=p.name)


def write_video_meta(meta: VideoMeta, path: str | Path) -> None:
    Path(path).write_text(dump_video_meta(meta), encoding="utf-8")


# ---------------------------------------------------------------------------
# CVAT video-annotation XML


_SPECIES_LABELS = {
    "grevyszebra": GREVYS_ZEBRA,
    "zebragrevys": GREVYS_ZEBRA,
    "grevy": GREVYS_ZEBRA,
    "plainszebra": PLAINS_ZEBRA,
    "zebraplains": PLAINS_ZEBRA,
    "zebra": ZEBRA_UNSPECIFIED,
    "giraffe": GIRAFFE,
    "reticulatedgiraffe": GIRAFFE,
}


def _species_from_label(label: str) -> str:
    norm = "".join(ch for ch in label.lower() if ch.isalnum())
    if norm in _SPECIES_LABELS:
        return _SPECIES_LABELS[norm]
    if label in KNOWN_SPECIES:
        return label
    return norm or "other"


def _warn(seen: set[str], key: str, message: str) -> None:
    if key not in seen:
        seen.add(key)
        warnings.warn(message, CvatImportWarning, stacklevel=3)


def import_cvat_video_xml(
    document: str, meta: VideoMeta, ethogram: Ethogram | None = None
) -> tuple[list[Track], list[LabelStream]]:
    """Import the CVAT "video annotation" XML subset.

    Supported content is ``<track id= label=>`` elements holding
    ``<box frame= xtl= ytl= xbr= ybr= outside=>`` boxes with one
    ``<attribute name="behavior">`` each. A box with ``outside="1"``
    ends the visible run; behavior attributes become label segments
    (one stream per contiguous labeled run). Anything else is skipped
    with a :class:`CvatImportWarning`.
    """
    if ethogram is None:
        ethogram = default_ethogram()
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(f"malformed XML at line {line}, column {column}") from exc

    warned: set[str] = set()
    tracks: list[Track] = []
    streams: list[LabelStream] = []
    for elem in root:
        if elem.tag in ("version", "meta"):
            continue
        if elem.tag != "track":
            _warn(warned, f"elem:{elem.tag}", f"skipping unsupported element <{elem.tag}>")
            continue
        track_id = elem.get("id")
        label = elem.get("label")
        if track_id is None or label is None:
            raise ParseError("<track> element missing id or label attribute")
        boxes: list[BoundingBox] = []
        labels: list[tuple[int, str]] = []  # (frame, code) for labeled visible boxes
        out_of_bounds = 0
        for child in elem:
            if child.tag != "box":
                _warn(
                    warned,
                    f"child:{child.tag}",
                    f"skipping unsupported element <{child.tag}> inside track {track_id}",
                )
                continue
            try:
                frame = int(child.attrib["frame"])
                xtl = float(child.attrib["xtl"])
                ytl = float(child.attrib["ytl"])
                xbr = float(child.attrib["xbr"])
                ybr = float(child.attrib["ybr"])
                outside = child.attrib["outside"] == "1"
            except KeyError as exc:
                raise ParseError(
                    f"box in track {track_id} missing attribute {exc.args[0]!r}"
                ) from None
            except ValueError as exc:
                raise ParseError(f"box in track {track_id}, frame attr unreadable: {exc}") from None
            if outside:
                continue
            if xbr <= xtl or ybr <= ytl:
                raise ParseError(
                    f"degenerate box in track {track_id} at frame {frame} "
                    f"({xtl},{ytl})-({xbr},{ybr})"
                )
            if xtl < 0 or ytl < 0 or xbr > meta.width_px or ybr > meta.height_px:
                out_of_bounds += 1
            boxes.append(BoundingBox(frame, xtl, ytl, xbr - xtl, ybr - ytl))
            behavior = None
            for attr in child:
                if attr.tag != "attribute":
                    _warn(
                        warned,
                        f"boxchild:{attr.tag}",
                        f"skipping unsupported element <{attr.tag}> inside box",
                    )
                    continue
                attr_name = attr.get("name")
                if attr_name == "behavior":
                    behavior = (attr.text or "").strip()
                else:
                    _warn(
                        warned,
                        f"attr:{attr_name}",
                        f"ignoring unsupported box attribute {attr_name!r}",
                    )
            if behavior:
                code = ethogram.resolve(behavior)
                if code is None:
                    _warn(
                        warned,
                        f"behavior:{behavior}",
                        f"behavior {behavior!r} not in ethogram; kept verbatim",
                    )
                    code = behavior
                labels.append((frame, code))
        if out_of_bounds:
            _warn(
                warned,
                f"oob:{track_id}",
                f"track {track_id}: {out_of_bounds} box(es) extend outside frame bounds",
            )
        boxes.sort(key=lambda b: b.frame)
        labels.sort(key=lambda fc: fc[0])
        tracks.append(Track(str(track_id), _species_from_label(label), tuple(boxes)))
        streams.extend(_label_runs(str(track_id), labels))
    return tracks, streams


def _label_runs(track_id: str, labels: list[tuple[int, str]]) -> list[LabelStream]:
    """Group (frame, code) pairs into contiguous-run label streams."""
    streams: list[list[Segment]] = []
    for start, end, code in coalesce((f, f + 1, c) for f, c in labels):
        if not streams or start != streams[-1][-1].end_frame + 1:
            streams.append([])  # a gap starts a new stream
        streams[-1].append(Segment(start, end - 1, code))
    return [LabelStream(track_id, tuple(segments)) for segments in streams]
