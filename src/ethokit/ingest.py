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

All three session CSVs are cut the same way. ``Rows.lines`` accepts a
plain text (no quote, carriage return or blank line, a final line feed,
one field count) and ``Rows.runs`` cuts its lines into keyed runs,
maximal runs of lines that share their first fields: session and track
id in tracks.csv and labels.csv, observer, subject and method in
observations.csv. Each track or stream is built from its own runs,
whose lines ``Rows.blocks`` splits into columns a block of lines at a
time, and each check runs over a whole column. One session and
increasing track ids are checked once, over the run keys. A text that
``Rows.lines`` refuses, and one that fails any check, is read by a row
loop, the only code that names a fault; its checked rows are grouped
into the same runs, so each file has one builder and an error reads the
same whichever way the text came. A numeric cell must be ASCII with no
whitespace and no ``_``, so it reads as written. A stream is built from
its start, end and code columns, a few objects however long it is, so
a read leaves the cyclic collector next to nothing to walk.

A reader splits only the runs it needs. labels.csv read for one track
(``compare`` reads its subject's) skips the other tracks' runs, whose
keys alone are read. :class:`ObservationIndex` keeps observations.csv
as its lines and each stream's runs, checking only the header and field
counts at once; each stream's runs are split, parsed and checked when it
is built, so a caller that builds only some streams pays for and fails
only on those, while a bad header or field count fails every caller.

Writing then reading is the identity on stream values: each writer
refuses, before anything is written, the values its docstring names
that its reader would refuse or read as another. Reading then writing
is the identity on canonical files. Timestamps are serialized as ISO
8601 UTC at microsecond precision, so an observation time reads back as
written only when it lies on that grid.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from datetime import datetime, timezone
from itertools import chain, compress, islice, repeat
from operator import eq, itemgetter, le, lt, ne, or_, sub
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

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
    ParseError,
    Rows as _Rows,
    Track,
    VideoMeta,
    csv_text,
    finite_bound,
    json_number,
    json_object,
    plain_numbers,
    read_text,
    row_error,
    run_edges,
    touching_runs,
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

    A text that ``Rows.lines`` accepts is checked a run and a column at a
    time; any other, and one failing a check, is read row by row to name
    the fault.
    """
    runs = _track_runs(text, TRACK_HEADER)
    if runs is not None:
        try:
            return _tracks_from_runs(runs)
        except ValueError:  # a failed check: the row loop says where
            pass
    return _tracks_from_runs(_runs_of_rows(_checked_track_rows(text, name)))


def _track_runs(text: str, header: list[str], track_id: str | None = None) -> list | None:
    """(track_id, its blocks of columns) for each run of lines that share a
    session and a track id, or for ``track_id``'s run alone; None if
    ``Rows.lines`` refuses the text, or if its runs hold two sessions or
    track ids that do not increase. Of the other runs only the keys are read."""
    lines = _Rows.lines(text, header)
    if lines is None:
        return None
    edges, keys = _Rows.runs(lines, 2)
    tracks = [tid for _, tid in keys]
    if len({sid for sid, _ in keys}) > 1 or not all(map(lt, tracks, tracks[1:])):
        return None
    return [
        (tid, _Rows.blocks(lines, a, b, len(header)))
        for tid, a, b in zip(tracks, edges, edges[1:])
        if track_id is None or tid == track_id
    ]


def _runs_of_rows(rows: list[list[str]]) -> list:
    """Rows the row loop checked, in :func:`_track_runs`' shape: one block
    of columns per run of rows with one track id."""
    columns = list(zip(*rows))
    edges = run_edges(columns[1]) if rows else []
    return [(columns[1][a], [[c[a:b] for c in columns]]) for a, b in zip(edges, edges[1:])]


def _tracks_from_runs(runs) -> list[Track]:
    """A track from each (track_id, blocks of tracks.csv columns); ValueError
    on any fault (Track checks frames)."""
    tracks = []
    for track_id, blocks in runs:
        kind = None  # (species, excluded flag) of the track's first row
        columns: list[list] = [[], [], [], [], []]  # frames, x, y, w, h
        for _, _, species, frames, x, y, w, h, excluded in blocks:
            if not all(plain_numbers("".join(c)) for c in (frames, x, y, w, h)):
                raise ValueError("a number cell holds more than its number")
            flags = list(map(BOOL_CELLS.get, excluded))
            if kind is None:
                kind = (species[0], flags[0])
            numbers = [list(map(int, frames)), *(list(map(float, c)) for c in (x, y, w, h))]
            finite = all(map(math.isfinite, chain.from_iterable(numbers[1:])))
            if None in flags or not finite:
                raise ValueError("a cell fails its check")
            if species.count(kind[0]) != len(species) or flags.count(kind[1]) != len(flags):
                raise ValueError("species or excluded flag changes within a track")
            for column, values in zip(columns, numbers):
                column += values
        tracks.append(Track(track_id, kind[0], *columns, kind[1]))
    return tracks


def _checked_track_rows(text: str, name: str) -> list[list[str]]:
    """The rows, checked one at a time; ParseError at the first fault."""
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
    return checked


def _refuse_non_integers(track_id: str, frames) -> None:
    """ValueError naming the track and the first frame that csv would not
    write as an integer: one of a type without ``__index__``, or a bool."""
    bad = {tp for tp in set(map(type, frames)) if tp is bool or not hasattr(tp, "__index__")}
    if bad:
        frame = next(f for f in frames if type(f) in bad)
        raise ValueError(f"track {track_id!r}: frame {frame!r} is not an integer")


def dump_tracks(tracks: list[Track], session_id: str) -> str:
    """tracks.csv text; ValueError naming the track and the value, before
    anything is written, for a frame that is not an integer or a
    coordinate that is not finite, which parse_tracks would refuse."""
    for t in tracks:
        _refuse_non_integers(t.track_id, t.frames)
        for column in ("x", "y", "w", "h"):
            values = getattr(t, column)
            if not all(map(math.isfinite, values)):
                bad = next(v for v in values if not math.isfinite(v))
                raise ValueError(f"track {t.track_id!r}: {column} {bad!r} is not finite")
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


def parse_labels(
    text: str, fps: float, name: str = "labels", track_id: str | None = None
) -> list[ObservationStream]:
    """One frame stream at ``fps`` per track; frames between rows are unlabeled.

    With ``track_id``, only that track's stream (none if it has no rows):
    the header, field counts, session and track order are checked over the
    whole text, frame values, codes and overlaps only in that track's rows,
    and only those rows are split into fields. A text that ``Rows.lines``
    accepts is checked a run and a column at a time; any other, and one
    failing a check, is read row by row to name the fault.
    """
    runs = _track_runs(text, LABEL_HEADER, track_id)
    if runs is not None:
        try:
            return _labels_from_runs(runs, fps)
        except ValueError:  # a failed check: the row loop says where
            pass
    return _labels_from_runs(_runs_of_rows(_checked_label_rows(text, name, track_id)), fps)


def _labels_from_runs(runs, fps: float) -> list[ObservationStream]:
    """A stream from each (track_id, blocks of labels.csv columns); ValueError on any fault."""
    streams = []
    for tid, blocks in runs:
        starts, ends, codes = [], [], []
        for _, _, first, last, code in blocks:
            if not (plain_numbers("".join(first)) and plain_numbers("".join(last))):
                raise ValueError("a frame cell holds more than its number")
            if "" in code:
                raise ValueError("an empty behavior code")
            starts += map(int, first)
            ends += map((1).__add__, map(int, last))  # exclusive
            codes += code
        if min(starts) < 0:
            raise ValueError("a negative frame")
        # the stream refuses an end before its start, and an overlap, with a ValueError
        streams.append(ObservationStream(tid, LABELS, starts, ends, codes, fps=fps))
    return streams


def _checked_label_rows(text: str, name: str, track_id: str | None) -> list[list[str]]:
    """The rows, checked one at a time; ParseError at the first fault, or,
    when no row has one, at the first end frame past float range. With
    ``track_id``, only that track's rows are kept, and only theirs have
    their frames and codes checked."""
    rows = _Rows(text, LABEL_HEADER, name)
    session: str | None = None
    prev: str | None = None  # the track id of the row before
    prev_end = -1  # the last end frame kept in that track
    past_range = 0  # the first row kept whose exclusive end a stream cannot hold
    checked = []
    for row in rows:
        session = _session_of(rows, row, session)
        tid = rows.get(row, "track_id")
        wanted = track_id is None or tid == track_id
        if wanted:
            start = rows.to_int(row, "start_frame")
            end = rows.to_int(row, "end_frame")
            if start < 0:
                raise rows.fail("start_frame", f"negative frame {start}")
            if end < start:
                raise rows.fail("end_frame", f"end_frame {end} before start_frame {start}")
            if not rows.get(row, "code"):
                raise rows.fail("code", "empty behavior code")
        if tid != prev:
            if prev is not None and tid < prev:
                raise rows.fail("track_id", "rows not sorted by track_id")
            prev, prev_end = tid, -1
        if wanted:
            if start <= prev_end:
                raise rows.fail("start_frame", f"segments overlap in track {tid!r}")
            prev_end = end
            checked.append(row)
            if not (past_range or finite_bound(end + 1)):
                past_range = rows.row_no
    if past_range:
        raise row_error(name, past_range, "end_frame", "frame past the float range")
    return checked


def dump_labels(streams: list[ObservationStream], session_id: str) -> str:
    """labels.csv text; ValueError naming the track and the value, before
    anything is written, for a bound that is not an integer, a negative
    start frame or an empty code, which parse_labels would refuse."""
    for stream in streams:
        bounds = [*stream.starts, *stream.ends]
        _refuse_non_integers(stream.subject_id, bounds)
        if bounds and bounds[0] < 0:  # the first start is the stream's least bound
            raise ValueError(f"track {stream.subject_id!r}: frame {bounds[0]!r} is negative")
        if "" in stream.codes:
            raise ValueError(f"track {stream.subject_id!r}: empty behavior code")
    rows = (
        zip(
            repeat(session_id), repeat(stream.subject_id), stream.starts,
            map(sub, stream.ends, repeat(1)),  # inclusive end
            stream.codes,
        )
        for stream in sorted(streams, key=lambda s: s.subject_id)
    )
    return csv_text(LABEL_HEADER, chain.from_iterable(rows))


def read_labels(
    path: str | Path, fps: float, track_id: str | None = None
) -> list[ObservationStream]:
    p = Path(path)
    return parse_labels(read_text(p), fps, name=p.name, track_id=track_id)


def write_labels(streams: list[ObservationStream], path: str | Path, session_id: str) -> None:
    write_text(path, dump_labels(streams, session_id))


# ---------------------------------------------------------------------------
# ground observations


class ObservationIndex:
    """observations.csv rows grouped by stream, each stream built on request.

    Construction checks the file's structure only: the header and every
    row's field count. It keeps, for each stream, the ``[a, b)`` ranges
    of its rows, so a stream's rows need not be contiguous in the file.
    A text that ``Rows.lines`` accepts is kept as its lines, cut into
    runs that share their first three fields (``Rows.runs``), and a
    stream's stamps and codes are split from its own lines only when it
    is built; any other text is read by the row loop and kept as its
    stamp and code columns. Everything else (the method,
    timestamps, empty codes, END pairing) is checked when a stream is
    built, so a fault inside one stream fails only a caller that builds
    that stream. Streams are keyed by ``(observer_id, subject_id, method)``.
    """

    def __init__(self, text: str, name: str = "observations"):
        self.name = name
        self._lines = _Rows.lines(text, OBS_HEADER)
        if self._lines is not None:
            # a blank line is refused, so line i is the file's row i + 2
            self._row_nos = range(2, len(self._lines) + 2)
            edges, keys = _Rows.runs(self._lines, 3)
        else:
            rows = _Rows(text, OBS_HEADER, name)
            checked, self._row_nos = [], []
            for row in rows:
                checked.append(row)
                self._row_nos.append(rows.row_no)
            columns = [list(column) for column in zip(*checked)] or [[] for _ in OBS_HEADER]
            *key_columns, self._stamps, self._codes = columns
            row_keys = list(zip(*key_columns))  # (observer, subject, method) per row
            edges = run_edges(row_keys)
            keys = [row_keys[a] for a in edges[:-1]]
        self._ranges: dict[tuple[str, str, str], list[tuple[int, int]]] = {}
        for key, a, b in zip(keys, edges, edges[1:]):
            self._ranges.setdefault(key, []).append((a, b))
        # Streams of one session share most instants, so each timestamp
        # text is parsed once. A bad one raises and is not cached: it
        # fails again, at its own row, in every stream that holds it.
        self._parse_iso = functools.cache(_parse_iso)

    def keys(self) -> list[tuple[str, str, str]]:
        """Every stream's (observer_id, subject_id, method), sorted."""
        return sorted(self._ranges)

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
        """The stream's rows checked as whole columns; any that fail are read
        row by row, to name the first fault."""
        observer, subject, method = key
        ranges = self._ranges[key]
        if method not in METHODS:
            row_no = self._row_nos[ranges[0][0]]
            raise row_error(self.name, row_no, "method", f"unknown method {method!r}")
        if self._lines is None:
            stamps, codes = (
                list(chain.from_iterable(column[a:b] for a, b in ranges))
                for column in (self._stamps, self._codes)
            )
        else:
            stamps, codes = [], []
            blocks = (_Rows.blocks(self._lines, a, b, len(OBS_HEADER)) for a, b in ranges)
            for *_, block_stamps, block_codes in chain.from_iterable(blocks):
                stamps += block_stamps
                codes += block_codes
        try:
            columns = self._intervals(method, stamps, codes)
        except ValueError:
            row_nos = chain.from_iterable(self._row_nos[a:b] for a, b in ranges)
            self._raise_fault(key, zip(row_nos, stamps, codes))
        return ObservationStream(subject, method, *columns, observer)

    def _intervals(self, method: str, stamps: list[str], codes: list[str]) -> tuple[list, ...]:
        """One stream's start, end and code columns; ValueError on any fault."""
        times = list(map(self._parse_iso, stamps))
        if "" in codes or not all(map(le, times, islice(times, 1, None))):
            raise ValueError("an empty code, or a time that decreases")
        if method == GROUND_SCAN and END_CODE not in codes:
            return times, times, codes
        # every row but an END opens an interval, which the next row closes
        opens = list(map(ne, codes, repeat(END_CODE)))
        starts = list(compress(times, opens))
        ends = list(compress(islice(times, 1, None), opens))
        if (
            opens[-1]
            or not opens[0]
            or not all(map(or_, opens, islice(opens, 1, None)))  # an END after an END
            or not all(map(lt, starts, ends))
        ):
            raise ValueError("an END that closes nothing, or a zero-length interval")
        return starts, ends, list(compress(codes, opens))

    def _raise_fault(self, key: tuple[str, str, str], rows) -> NoReturn:
        """ParseError at the first fault of a stream that failed its column
        checks, from its (row number, stamp, code) rows: each row's stamp and
        code first, then the pairing of rows into intervals."""
        parse_iso = self._parse_iso
        prev = -math.inf
        events = []
        for row_no, stamp, code in rows:
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
        # every row but an END opens an interval, which the next row closes
        open_at = None
        for t, code, row_no in events:
            if open_at is None and code == END_CODE:
                raise ParseError(f"{self.name} row {row_no}: END with no open interval")
            if open_at is not None and t <= open_at:
                raise ParseError(f"{self.name} row {row_no}: zero-length interval")
            open_at = None if code == END_CODE else t
        raise ParseError(f"{self.name}: stream {key!r} not terminated (missing END row)")


def parse_ground_observations(text: str, name: str = "observations") -> list[ObservationStream]:
    return ObservationIndex(text, name).streams()


def dump_ground_observations(streams: list[ObservationStream], observer_id: str = "field") -> str:
    """observations.csv text, a stream without ``observer_id`` written under
    ``observer_id`` and an empty stream as no row; ValueError naming the
    stream's key and the value, before anything is written, for what
    parse_ground_observations would refuse or read back as another stream:
    a second stream with one key, a method outside METHODS, an empty code
    or the reserved END, a zero-length interval outside a scan stream of
    instants, or a time past the range of a timestamp."""
    keyed = sorted(
        (((s.observer_id or observer_id, s.subject_id, s.method), s) for s in streams),
        key=itemgetter(0),
    )
    iso = functools.cache(_iso)  # streams of one session share most instants
    for (key, _), (next_key, _) in zip(keyed, keyed[1:]):
        if key == next_key:
            raise ValueError(f"stream {key!r}: more than one stream")
    for key, stream in keyed:
        _refuse_unreadable(key, stream, iso)

    def rows():
        for key, stream in keyed:
            starts, ends, codes = stream.starts, stream.ends, stream.codes
            if stream.method == GROUND_SCAN and stream.is_instantaneous():
                for start, code in zip(starts, codes):
                    yield (*key, iso(start), code)
                continue
            for start, end, code, next_start in zip(starts, ends, codes, [*starts[1:], None]):
                yield (*key, iso(start), code)
                if next_start != end:
                    yield (*key, iso(end), END_CODE)

    return csv_text(OBS_HEADER, rows())


def _refuse_unreadable(key: tuple[str, str, str], stream: ObservationStream, iso) -> None:
    """ValueError naming ``key`` and the value, for a method, a code, a
    zero-length interval or a bound that would not read back as written."""
    if stream.method not in METHODS:
        raise ValueError(f"stream {key!r}: unknown method {stream.method!r}")
    if "" in stream.codes:
        raise ValueError(f"stream {key!r}: empty behavior code")
    if END_CODE in stream.codes:
        raise ValueError(f"stream {key!r}: behavior code {END_CODE!r} is reserved")
    if not (stream.method == GROUND_SCAN and stream.is_instantaneous()):
        instant = next(compress(stream.starts, map(eq, stream.starts, stream.ends)), None)
        if instant is not None:  # only a scan stream of instants alone is written as instants
            raise ValueError(f"stream {key!r}: zero-length interval at {instant!r}")
    for bound in stream.starts[:1] + stream.ends[-1:]:  # the least and the greatest bound
        try:
            iso(bound)
        except (ValueError, OverflowError, OSError):  # past datetime's range, or the platform's
            message = f"stream {key!r}: time {bound!r} is past the range of a timestamp"
            raise ValueError(message) from None


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
                if not finite_bound(frame + 1):  # its interval's end could not be a time
                    digits = str(frame)
                    raise ParseError(
                        f"box in track {track_id} has frame {digits[:12]}... ({len(digits)}"
                        " digits), past the float range"
                    )
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
            frames, codes = zip(*labels)
            columns = touching_runs(frames, [f + 1 for f in frames], codes)
            streams.append(ObservationStream(str(track_id), LABELS, *columns, fps=meta.fps))
    return tracks, streams
