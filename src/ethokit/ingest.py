"""Readers and writers for every external file format.

All downstream modules consume only core types; this module owns the
byte-level schemas. Canonical CSVs are UTF-8 with LF line endings,
decimal points and no thousands separators:

* tracks:       ``session_id,track_id,species,frame,x,y,w,h,excluded``
                (one row per box, sorted by track_id then frame; read
                into one :class:`Track` per track_id, each box column
                filled in as the rows go by)
* labels:       ``session_id,track_id,start_frame,end_frame,code``
                (inclusive, non-negative frame ranges; read as half-open
                frame intervals, one stream per track, a gap between
                rows being unlabeled time inside it)
* observations: ``observer_id,subject_id,method,timestamp_iso8601,code``

Ground observation rows are events. Scan rows are instantaneous
snapshots of each visible individual. Focal rows are behavior-change
events: each row opens an interval that the next row closes, and a
reserved ``END`` row closes the final interval (or an interior run,
when the record has gaps). The AnimalBehaviourPro export schema is not
public, so this event layout is a documented stand-in.

Each file is read with :mod:`ethokit.core`'s one reader of its format:
:class:`~ethokit.core.Rows` for CSV, :func:`~ethokit.core.json_object`
for meta.json. Each ``write_*`` function writes its file through
:func:`~ethokit.core.write_text`, so the file appears whole or not at all.

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

import functools
import json
import math
import warnings
from datetime import datetime, timezone
from itertools import chain, repeat
from operator import itemgetter, sub
from pathlib import Path
from typing import TYPE_CHECKING

from .core import (
    BOOL_CELLS,
    GIRAFFE,
    GREVYS_ZEBRA,
    GROUND_SCAN,
    KNOWN_SPECIES,
    LABELS,
    METHODS,
    PLAINS_ZEBRA,
    ZEBRA_UNSPECIFIED,
    ObservationStream,
    ObsInterval,
    ParseError,
    Rows as _Rows,
    Track,
    VideoMeta,
    coalesce,
    csv_text,
    json_number,
    json_object,
    read_text,
    row_error,
    run_edges,
    write_text,
)

if TYPE_CHECKING:  # only import_cvat_video_xml reads an ethogram, and imports it then
    from .ethogram import Ethogram

__all__ = [
    "CvatImportWarning",
    "import_cvat_video_xml",
    "parse_tracks",
    "dump_tracks",
    "read_tracks",
    "write_tracks",
    "parse_labels",
    "dump_labels",
    "read_labels",
    "write_labels",
    "ObservationIndex",
    "parse_ground_observations",
    "dump_ground_observations",
    "read_ground_observations",
    "read_observation_index",
    "write_ground_observations",
    "parse_video_meta",
    "dump_video_meta",
    "read_video_meta",
    "write_video_meta",
    "END_CODE",
]

TRACK_HEADER = ["session_id", "track_id", "species", "frame", "x", "y", "w", "h", "excluded"]
LABEL_HEADER = ["session_id", "track_id", "start_frame", "end_frame", "code"]
OBS_HEADER = ["observer_id", "subject_id", "method", "timestamp_iso8601", "code"]

# Reserved code closing a focal interval run; never a behavior.
END_CODE = "END"


class CvatImportWarning(UserWarning):
    """Raised once per kind of skipped or suspicious CVAT element."""


def _iso(epoch_s: float) -> str:
    return datetime.fromtimestamp(epoch_s, timezone.utc).isoformat()


def _parse_iso(text: str) -> float:
    """Epoch seconds of an ISO 8601 timestamp, naive ones read as UTC; ValueError if malformed."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _session_of(rows: _Rows, row: list[str], session: str | None) -> str:
    """The row's session_id, which must equal ``session`` once that is known."""
    sid = rows.get(row, "session_id")
    if session is not None and sid != session:
        raise rows.fail("session_id", f"mixed sessions ({session!r} and {sid!r})")
    return sid


# ---------------------------------------------------------------------------
# tracks


def parse_tracks(text: str, name: str = "tracks") -> list[Track]:
    """One track per run of rows with one track_id, its boxes read into columns.

    A text that ``Rows.columns`` splits is checked a column at a time; any
    other, and one failing a check, is read row by row to name the fault.
    """
    blocks = _Rows.columns(text, TRACK_HEADER)
    if blocks is not None:
        try:
            return _tracks_from_blocks(blocks)
        except ValueError:  # a failed check: the row loop says where
            pass
    return _tracks_from_blocks(_checked_track_rows(text, name))


def _tracks_from_blocks(blocks) -> list[Track]:
    """Tracks from blocks of tracks.csv columns; ValueError on any fault (Track checks frames)."""
    session: str | None = None
    groups: list[tuple] = []  # ((track_id, species, excluded), frames, x, y, w, h)
    for sids, ids, species, frames, x, y, w, h, excluded in blocks:
        session = sids[0] if session is None else session
        flags = list(map(BOOL_CELLS.get, excluded))
        numbers = [list(map(int, frames)), *(list(map(float, c)) for c in (x, y, w, h))]
        finite = all(map(math.isfinite, chain.from_iterable(numbers[1:])))
        if sids.count(session) != len(sids) or None in flags or not finite:
            raise ValueError("a cell fails its check")
        edges = run_edges(ids)
        for a, b in zip(edges, edges[1:]):
            key = (ids[a], species[a], flags[a])
            if species[a:b].count(key[1]) != b - a or flags[a:b].count(key[2]) != b - a:
                raise ValueError("species or excluded flag changes within a track")
            if not groups or groups[-1][0] != key:
                if groups and not groups[-1][0][0] < key[0]:
                    raise ValueError("track ids not increasing")
                groups.append((key, [], [], [], [], []))
            for column, values in zip(groups[-1][1:], numbers):
                column += values[a:b]
    return [Track(track_id, sp, *columns, ex) for (track_id, sp, ex), *columns in groups]


def _checked_track_rows(text: str, name: str) -> list[list[tuple[str, ...]]]:
    """The rows checked one at a time, as a block of columns; ParseError at the first fault."""
    rows = _Rows(text, TRACK_HEADER, name)
    session: str | None = None
    prev: tuple | None = None  # (track_id, frame, species, excluded) of the row before
    checked = []
    for row in rows:
        session = _session_of(rows, row, session)
        track_id = rows.get(row, "track_id")
        species = rows.get(row, "species")
        frame = rows.to_int(row, "frame")
        for column in ("x", "y", "w", "h"):
            rows.to_float(row, column)
        excluded = rows.to_bool(row, "excluded")
        if prev is not None and (track_id, frame) <= prev[:2]:
            if (track_id, frame) == prev[:2]:
                raise rows.fail("frame", f"duplicate frame {frame} in track {track_id!r}")
            raise rows.fail("frame", "rows not sorted by (track_id, frame)")
        if prev is not None and prev[0] == track_id:
            if prev[2] != species:
                raise rows.fail("species", f"species changes within track {track_id!r}")
            if prev[3] != excluded:
                raise rows.fail("excluded", f"excluded flag changes within track {track_id!r}")
        prev = (track_id, frame, species, excluded)
        checked.append(row)
    return [list(zip(*checked))] if checked else []


def dump_tracks(tracks: list[Track], session_id: str) -> str:
    # csv writes a float as its repr; map(float, ...) makes an integer
    # or NumPy coordinate print as a Python float would.
    rows = (
        zip(
            repeat(session_id), repeat(t.track_id), repeat(t.species), t.frames,
            map(float, t.x), map(float, t.y), map(float, t.w), map(float, t.h),
            repeat("1" if t.excluded else "0"),
        )
        for t in sorted(tracks, key=lambda t: t.track_id)
    )
    return csv_text(TRACK_HEADER, chain.from_iterable(rows))


def read_tracks(path: str | Path) -> list[Track]:
    p = Path(path)
    return parse_tracks(read_text(p), name=p.name)


def write_tracks(tracks: list[Track], path: str | Path, session_id: str) -> None:
    write_text(path, dump_tracks(tracks, session_id))


# ---------------------------------------------------------------------------
# labels


def parse_labels(text: str, fps: float, name: str = "labels") -> list[ObservationStream]:
    """One frame stream at ``fps`` per track; frames between rows are unlabeled."""
    rows = _Rows(text, LABEL_HEADER, name)
    session: str | None = None
    groups: list[tuple[str, list[ObsInterval]]] = []
    for row in rows:
        session = _session_of(rows, row, session)
        track_id = rows.get(row, "track_id")
        start = rows.to_int(row, "start_frame")
        end = rows.to_int(row, "end_frame")
        code = rows.get(row, "code")
        if start < 0:
            raise rows.fail("start_frame", f"negative frame {start}")
        if end < start:
            raise rows.fail("end_frame", f"end_frame {end} before start_frame {start}")
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


def dump_labels(streams: list[ObservationStream], session_id: str) -> str:
    rows = (
        zip(
            repeat(session_id), repeat(stream.subject_id),
            map(itemgetter(0), stream.intervals),
            map(sub, map(itemgetter(1), stream.intervals), repeat(1)),  # inclusive end
            map(itemgetter(2), stream.intervals),
        )
        for stream in sorted(streams, key=lambda s: s.subject_id)
    )
    return csv_text(LABEL_HEADER, chain.from_iterable(rows))


def read_labels(path: str | Path, fps: float) -> list[ObservationStream]:
    p = Path(path)
    return parse_labels(read_text(p), fps, name=p.name)


def write_labels(streams: list[ObservationStream], path: str | Path, session_id: str) -> None:
    write_text(path, dump_labels(streams, session_id))


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
        # Streams of one session share most instants, so each timestamp
        # text is parsed once. A bad one raises and is not cached: it
        # fails again, at its own row, in every stream that holds it.
        self._parse_iso = functools.cache(_parse_iso)

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
            raise row_error(self.name, group[0][0], "method", f"unknown method {method!r}")
        parse_iso = self._parse_iso
        events: list[tuple[float, str, int]] = []
        prev = -math.inf
        for row_no, stamp, code in group:
            try:
                t = parse_iso(stamp)
            except ValueError as exc:
                bad = f"bad timestamp {stamp!r}"
                raise row_error(self.name, row_no, "timestamp_iso8601", bad) from exc
            if not code:
                raise row_error(self.name, row_no, "code", "empty behavior code")
            if t < prev:
                message = "timestamps decrease within a stream"
                raise row_error(self.name, row_no, "timestamp_iso8601", message)
            prev = t
            events.append((t, code, row_no))
        return _events_to_stream(events, subject, method, observer, self.name)


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
    keyed = sorted(streams, key=lambda s: (s.observer_id or observer_id, s.subject_id, s.method))
    iso = functools.cache(_iso)  # streams of one session share most instants

    def rows():
        for stream in keyed:
            key = (stream.observer_id or observer_id, stream.subject_id, stream.method)
            intervals = stream.intervals
            if stream.method == GROUND_SCAN and stream.is_instantaneous():
                for start, _, code in intervals:
                    yield (*key, iso(start), code)
                continue
            next_starts = [iv.start for iv in intervals[1:]]
            next_starts.append(None)
            for (start, end, code), next_start in zip(intervals, next_starts):
                yield (*key, iso(start), code)
                if next_start != end:
                    yield (*key, iso(end), END_CODE)

    return csv_text(OBS_HEADER, rows())


def read_ground_observations(path: str | Path) -> list[ObservationStream]:
    p = Path(path)
    return parse_ground_observations(read_text(p), name=p.name)


def read_observation_index(path: str | Path) -> ObservationIndex:
    p = Path(path)
    return ObservationIndex(read_text(p), name=p.name)


def write_ground_observations(
    streams: list[ObservationStream], path: str | Path, observer_id: str = "field"
) -> None:
    write_text(path, dump_ground_observations(streams, observer_id))


# ---------------------------------------------------------------------------
# session metadata


_META_KEYS = ("session_id", "width_px", "height_px", "start_time", "fps")


def parse_video_meta(text: str, name: str = "meta") -> VideoMeta:
    obj = json_object(text, name, _META_KEYS)
    missing = set(_META_KEYS) - set(obj)
    if missing:
        raise ParseError(f"{name}: missing keys {sorted(missing)}")
    for key in ("session_id", "start_time"):
        if not isinstance(obj[key], str):
            raise ParseError(f"{name}: {key} must be a string, got {obj[key]!r}")
    try:
        start = datetime.fromisoformat(obj["start_time"].replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"{name}: start_time is not ISO 8601: {obj['start_time']!r}") from None
    return VideoMeta(
        session_id=obj["session_id"],
        width_px=json_number(f"{name}: width_px", obj["width_px"], integer=True, positive=True),
        height_px=json_number(f"{name}: height_px", obj["height_px"], integer=True, positive=True),
        start_time=start,
        fps=float(json_number(f"{name}: fps", obj["fps"], positive=True)),
    )


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
    return parse_video_meta(read_text(p), name=p.name)


def write_video_meta(meta: VideoMeta, path: str | Path) -> None:
    write_text(path, dump_video_meta(meta))


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
) -> tuple[list[Track], list[ObservationStream]]:
    """Import the CVAT "video annotation" XML subset.

    Supported content is ``<track id= label=>`` elements holding
    ``<box frame= xtl= ytl= xbr= ybr= outside=>`` boxes with one
    ``<attribute name="behavior">`` each. A box with ``outside="1"``
    ends the visible run; behavior attributes become one frame label
    stream per labeled track at ``meta.fps``, frames without a label
    being unlabeled time inside it. A repeated track id, a negative or
    repeated frame and a non-finite coordinate are each a
    :class:`ParseError`; a track with no visible box, and anything else
    unsupported, is skipped with a :class:`CvatImportWarning`.
    """
    import xml.etree.ElementTree as ET  # only this importer reads XML

    if ethogram is None:
        from .ethogram import default_ethogram

        ethogram = default_ethogram()
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(f"malformed XML at line {line}, column {column}") from exc

    warned: set[str] = set()
    tracks: list[Track] = []
    track_ids: set[str] = set()
    streams: list[ObservationStream] = []
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
        if track_id in track_ids:
            raise ParseError(f"track {track_id} appears twice")
        track_ids.add(track_id)
        boxes: list[tuple[int, float, float, float, float]] = []  # (frame, x, y, w, h)
        labels: list[tuple[int, str]] = []  # (frame, code) for labeled visible boxes
        frames: set[int] = set()
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
                xtl, ytl, xbr, ybr = (float(child.attrib[k]) for k in ("xtl", "ytl", "xbr", "ybr"))
                outside = child.attrib["outside"] == "1"
            except KeyError as exc:
                raise ParseError(
                    f"box in track {track_id} missing attribute {exc.args[0]!r}"
                ) from None
            except ValueError as exc:
                raise ParseError(f"box in track {track_id}, frame attr unreadable: {exc}") from None
            if frame < 0:
                raise ParseError(f"box in track {track_id} has negative frame {frame}")
            if frame in frames:
                raise ParseError(f"box in track {track_id} repeats frame {frame}")
            frames.add(frame)
            if not all(map(math.isfinite, (xtl, ytl, xbr, ybr))):
                raise ParseError(
                    f"box in track {track_id} at frame {frame} has a non-finite coordinate"
                )
            if outside:
                continue
            if xbr <= xtl or ybr <= ytl:
                raise ParseError(
                    f"degenerate box in track {track_id} at frame {frame} "
                    f"({xtl},{ytl})-({xbr},{ybr})"
                )
            if xtl < 0 or ytl < 0 or xbr > meta.width_px or ybr > meta.height_px:
                out_of_bounds += 1
            boxes.append((frame, xtl, ytl, xbr - xtl, ybr - ytl))
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
        if not boxes:  # tracks.csv has no row for it, so it would not round-trip
            _warn(warned, f"empty:{track_id}", f"skipping track {track_id}: no visible box")
            continue
        boxes.sort()  # frames are distinct, so this is frame order
        labels.sort(key=lambda fc: fc[0])
        tracks.append(Track(str(track_id), _species_from_label(label), *zip(*boxes)))
        if labels:
            intervals = tuple(coalesce(ObsInterval(f, f + 1, c) for f, c in labels))
            streams.append(ObservationStream(str(track_id), LABELS, intervals, fps=meta.fps))
    return tracks, streams
