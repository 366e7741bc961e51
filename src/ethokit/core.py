"""Core domain types shared by every analysis stage.

Frames are the canonical time axis for drone-derived data, wall-clock
seconds for ground observations. One stream type holds both: an
:class:`ObservationStream` keeps its bounds in its own unit and carries
the frame rate that turns them into seconds. All types are immutable
after construction and safe to share across concurrent workers.

Every input file is read through this module: :func:`read_text`, then
:class:`Rows`, the one CSV row reader, or :func:`json_object`, the one
JSON-object reader, whose numbers :func:`json_number` checks. Every file
the package writes goes through :func:`write_text`, which replaces the
file whole or leaves it as it was.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, le, lt, ne, not_, or_
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

__all__ = [
    "GREVYS_ZEBRA",
    "PLAINS_ZEBRA",
    "GIRAFFE",
    "ZEBRA_UNSPECIFIED",
    "KNOWN_SPECIES",
    "GROUND_FOCAL",
    "GROUND_SCAN",
    "DRONE_FOCAL",
    "ML_AUTO",
    "METHODS",
    "LABELS",
    "OCCLUDED",
    "OUT_OF_FOCUS",
    "OUT_OF_FRAME",
    "OUT_OF_SIGHT",
    "TECHNICAL_CODES",
    "ParseError",
    "VideoMeta",
    "Track",
    "ObsInterval",
    "ObservationStream",
    "AnalysisParams",
    "ValidationIssue",
    "ValidationReport",
    "validate_session",
]

# Canonical species identifiers. Any other non-empty string is accepted
# and treated as an "other" species.
GREVYS_ZEBRA = "grevys_zebra"
PLAINS_ZEBRA = "plains_zebra"
GIRAFFE = "giraffe"
ZEBRA_UNSPECIFIED = "zebra_unspecified"
KNOWN_SPECIES = frozenset({GREVYS_ZEBRA, PLAINS_ZEBRA, GIRAFFE, ZEBRA_UNSPECIFIED})

GROUND_FOCAL = "ground_focal"
GROUND_SCAN = "ground_scan"
DRONE_FOCAL = "drone_focal"
ML_AUTO = "ml_auto"
METHODS = (GROUND_FOCAL, GROUND_SCAN, DRONE_FOCAL, ML_AUTO)
# method of a frame label stream read from labels.csv, which does not say
# whether a person or a model labeled it
LABELS = "labels"

# Technical (visibility) codes: time an animal was out of sight. They are
# these four for every ethogram, so every analysis drops the same time.
OCCLUDED = "OCL"
OUT_OF_FOCUS = "OOC"
OUT_OF_FRAME = "OOF"
OUT_OF_SIGHT = "OOS"
TECHNICAL_CODES = frozenset({OCCLUDED, OUT_OF_FOCUS, OUT_OF_FRAME, OUT_OF_SIGHT})

# Mini-scene crop size, the default of --config's crop section. It is a
# free choice; 400x300 comfortably frames one zebra at typical drone
# altitudes while staying well under HD frame bounds.
DEFAULT_OUT_W = 400
DEFAULT_OUT_H = 300


class ParseError(ValueError):
    """A file violated its schema; message names file position."""


def read_text(path: Path) -> str:
    """A file's UTF-8 text; ParseError naming the path of a missing file,
    or the file and the byte offset of the first byte that is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"missing file: {path}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name}: not UTF-8 at byte {exc.start}") from None


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` as UTF-8 to ``path``, making its directory, and return
    the path. The text goes to ``<name>.<pid>.tmp`` first, which then
    replaces the file, so the path never holds a partial file and two
    processes writing one path never share a temporary file. If the write
    or the replace fails, the temporary file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise
    return path


# The most sample points or bins one resampling of a stream may make: a
# tiny sampling interval is refused before anything is allocated.
MAX_SAMPLES = 10_000_000


def sample_count(span_s: float, delta_s: float) -> int:
    """floor(span_s / delta_s), the number of delta_s steps in span_s;
    ValueError naming the count when it exceeds MAX_SAMPLES."""
    steps = span_s / delta_s
    if steps > MAX_SAMPLES:
        count = f"{steps:.0f}" if steps < 1e15 else f"{steps:.3g}"
        raise ValueError(
            f"interval {delta_s} s cuts {span_s} s into {count} samples,"
            f" more than the {MAX_SAMPLES} allowed"
        )
    return math.floor(steps)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with LF line endings: the header row, then rows.

    Fields holding a comma, a quote or a line break are quoted; a float
    is written as its repr and None as an empty field.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def row_error(name: str, row_no: int, column: str, message: str) -> ParseError:
    return ParseError(f"{name} row {row_no} column {column!r}: {message}")


# What int() and float() skip in a cell: ASCII whitespace, and _ between digits.
_SKIPPED = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f_"


def plain_numbers(cells: str) -> bool:
    """Whether a numeric cell, or a column of them joined, is written as the
    number it reads as: ASCII (so no other script's digits), with nothing that
    int() or float() would skip."""
    return cells.isascii() and not any(map(cells.__contains__, _SKIPPED))


@contextmanager
def gc_paused() -> Iterator[None]:
    """Hold cyclic garbage collection off inside the block, then restore its state.

    A parse that builds many tuples the collector tracks (ObsInterval is a
    NamedTuple, which CPython never untracks) would otherwise have each full
    collection walk every tuple built so far.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


BOOL_CELLS = {"0": False, "false": False, "1": True, "true": True}  # what Rows.to_bool reads
# Lines Rows.columns splits at once: the work is C-level, a block's fields a few MB.
_BLOCK_LINES = 4096


class Rows:
    """The data rows of CSV text, blank lines skipped, under its first row,
    which must equal ``header`` or, with ``header`` None, is the header. A
    malformed row is a ParseError naming the file (``name``) and the row.
    """

    def __init__(self, text: str, header: list[str] | None, name: str):
        self.name = name
        self.row_no = 0  # rows read so far, the header and blank lines included
        # newline="" lets csv end a row at a lone \r too, as reading a file does
        self._rows = self._read(csv.reader(io.StringIO(text, newline="")), header)
        self.header: list[str] = next(self._rows)  # checks the header row
        # a repeated column name reads its first column
        self._pos = {col: self.header.index(col) for col in self.header}

    def __iter__(self) -> Iterator[list[str]]:
        return self._rows

    @staticmethod
    def lines(text: str, header: list[str]) -> list[str] | None:
        """The data lines of ``text``; None if the text has a quote, a carriage
        return or a blank line, ends without a line feed, or has a first line
        other than ``header``, a line with another field count or one over the
        csv field-size limit. So each line left splits at its commas into its
        fields. Rows reads such a text, and names its first fault."""
        if not text.endswith("\n") or '"' in text or "\r" in text or "\n\n" in text:
            return None
        lines = text.split("\n")
        del lines[-1]  # the empty text after the last line feed
        if (
            lines[0] != ",".join(header)
            or max(map(len, lines)) > csv.field_size_limit()
            or list(map(str.count, lines, repeat(","))).count(len(header) - 1) != len(lines)
        ):
            return None
        del lines[0]
        return lines

    @staticmethod
    def runs(lines: list[str], fields: int) -> tuple[list[int], list[tuple[str, ...]]]:
        """Where each maximal run of ``lines`` with the same first ``fields``
        fields starts, then len(lines); and each run's first fields. The
        lines are :meth:`lines`' (no quote, one field count), so a line is
        in a run when it starts with the run's fields and a comma: each run
        is found by ``str.startswith`` at C speed, with one Python step a run.
        """
        edges, keys = [0], []
        later = iter(lines)
        next(later, None)
        while edges[-1] < len(lines):
            keys.append(tuple(lines[edges[-1]].split(",", fields)[:fields]))
            outside = map(not_, map(str.startswith, later, repeat(",".join(keys[-1]) + ",")))
            edges.append(next(compress(count(edges[-1] + 1), outside), len(lines)))
        return (edges if keys else []), keys

    @staticmethod
    def split(lines: Iterable[str], width: int) -> list[list[str]]:
        """The ``width`` columns of lines that :meth:`lines` gave."""
        fields = ",".join(lines).split(",")
        return [fields[k::width] for k in range(width)]

    @staticmethod
    def columns(text: str, header: list[str]) -> Iterator[list[list[str]]] | None:
        """The data rows of ``text`` as columns, a block of lines at a time;
        None where :meth:`lines` refuses the text."""
        lines = Rows.lines(text, header)
        if lines is None:
            return None
        return (
            Rows.split(lines[start : start + _BLOCK_LINES], len(header))
            for start in range(0, len(lines), _BLOCK_LINES)
        )

    def _read(self, reader, header: list[str] | None) -> Iterator[list[str]]:
        """The header, then each data row."""
        try:
            got = next(reader, None)
            if header is None:
                if got is None:
                    raise ParseError(f"{self.name}: empty file")
                header = got
            elif got != header:
                raise ParseError(f"{self.name}: unexpected header {got!r}")
            self.row_no = 1
            yield header
            width = len(header)
            for row in reader:
                self.row_no += 1
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(
                        f"{self.name} row {self.row_no}: expected {width} fields, got {len(row)}"
                    )
                yield row
        except csv.Error as exc:  # a field over the csv module's size limit
            raise ParseError(f"{self.name} row {self.row_no + 1}: {exc}") from None

    def fail(self, column: str, message: str) -> ParseError:
        return row_error(self.name, self.row_no, column, message)

    def to_int(self, row: list[str], col: str) -> int:
        raw = row[self._pos[col]]
        if plain_numbers(raw):
            with suppress(ValueError):
                return int(raw)
        raise self.fail(col, f"not an integer: {raw!r}")

    def to_float(self, row: list[str], col: str) -> float:
        raw = row[self._pos[col]]
        value = None
        if plain_numbers(raw):
            with suppress(ValueError):
                value = float(raw)
        if value is None:
            raise self.fail(col, f"not a number: {raw!r}")
        if not math.isfinite(value):
            raise self.fail(col, f"not a finite number: {raw!r}")
        return value

    def to_bool(self, row: list[str], col: str) -> bool:
        raw = row[self._pos[col]]
        try:
            return BOOL_CELLS[raw]
        except KeyError:
            raise self.fail(col, f"not a boolean (0/1): {raw!r}") from None

    def get(self, row: list[str], col: str) -> str:
        return row[self._pos[col]]


def json_object(text: str, name: str, keys: Iterable[str]) -> dict:
    """The JSON object in ``text``; ParseError naming ``name`` if the text is
    not JSON, holds no object, or holds a key outside ``keys``."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
        raise ParseError(f"{name}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{name}: expected a JSON object")
    check_keys(name, obj, keys)
    return obj


def check_keys(where: str, obj: dict, keys: Iterable[str]) -> None:
    """ParseError naming ``where`` and every key of obj outside ``keys``."""
    unknown = set(obj) - set(keys)
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")


def json_number(where: str, value, integer: bool = False, positive: bool = False):
    """A finite JSON number, not a bool: with ``integer`` a whole one, returned
    as an int, and with ``positive`` one above 0; ParseError naming ``where``
    otherwise."""
    try:
        valid = not isinstance(value, bool) and math.isfinite(value)
        valid = valid and (value == int(value) or not integer) and (value > 0 or not positive)
    except (TypeError, OverflowError):  # not a number, or an integer past float range
        valid = False
    if not valid:
        kinds = ("a finite number", "an integer", "positive and finite", "a positive integer")
        raise ParseError(f"{where} must be {kinds[integer + 2 * positive]}, got {value!r}")
    return int(value) if integer else value


@dataclass(frozen=True)
class VideoMeta:
    """Recording session metadata and the frame/seconds/wall-clock bridge."""

    session_id: str
    width_px: int
    height_px: int
    start_time: datetime  # UTC, fractional seconds preserved
    fps: float = 30.0

    def __post_init__(self) -> None:
        if self.start_time.tzinfo is None:
            object.__setattr__(
                self, "start_time", self.start_time.replace(tzinfo=timezone.utc)
            )
        if not 0 < self.fps < math.inf:  # NaN fails every comparison
            raise ValueError(f"fps must be positive and finite, got {self.fps!r}")
        if not (self.width_px > 0 and self.height_px > 0):
            raise ValueError(f"frame size must be positive, got {self.width_px}x{self.height_px}")

    def frame_to_epoch(self, frame: float) -> float:
        """Wall-clock time (epoch seconds) at which a frame starts."""
        return self.start_time.timestamp() + frame / self.fps


class BoundingBox(NamedTuple):
    """One box of :attr:`Track.boxes`: frame index plus pixel rectangle (top-left origin)."""

    frame: int
    x: float
    y: float
    w: float
    h: float


@dataclass(frozen=True)
class Track:
    """An individual animal's bounding-box trajectory over video frames.

    Boxes are held as columns, one entry per detection: ``frames``
    strictly increases and ``x``, ``y``, ``w``, ``h`` give each box's
    pixel rectangle (top-left origin). Coordinates may exceed frame
    bounds; :func:`validate_session` reports out-of-bounds and
    degenerate boxes. Construction rejects columns of unequal length and
    frames that do not strictly increase. ``excluded`` marks tracks with
    evident identity switches; excluded tracks are dropped from all
    analytics.
    """

    track_id: str
    species: str
    frames: tuple[int, ...]
    x: tuple[float, ...]
    y: tuple[float, ...]
    w: tuple[float, ...]
    h: tuple[float, ...]
    excluded: bool = False

    def __post_init__(self) -> None:
        columns = ("frames", "x", "y", "w", "h")
        for name in columns:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len({len(getattr(self, name)) for name in columns}) > 1:
            raise ValueError(f"track {self.track_id!r}: box columns differ in length")
        if not all(map(lt, self.frames, islice(self.frames, 1, None))):
            for prev, frame in zip(self.frames, self.frames[1:]):
                if frame <= prev:
                    raise ValueError(
                        f"track {self.track_id!r}: frames not strictly increasing"
                        f" ({prev} then {frame})"
                    )

    @property
    def boxes(self) -> tuple[BoundingBox, ...]:
        """The boxes as rows, in frame order."""
        return tuple(map(BoundingBox, self.frames, self.x, self.y, self.w, self.h))


class ObsInterval(NamedTuple):
    """Behavior interval, half-open [start, end), in its stream's unit."""

    start: float
    end: float
    code: str


def finite_bound(bound: float) -> bool:
    """math.isfinite, with an int past float range read as not finite."""
    try:
        return math.isfinite(bound)
    except OverflowError:
        return False


def obs_intervals(rows: Iterable[tuple[float, float, str]]) -> tuple[ObsInterval, ...]:
    """``tuple(ObsInterval(*row) for row in rows)``, with no Python call per row."""
    return tuple(map(tuple.__new__, repeat(ObsInterval), rows))


T = TypeVar("T")


def coalesce(intervals: Iterable[tuple]) -> list[tuple]:
    """Merge runs of touching equal-code half-open (start, end, code) items.

    Items come in time order. One is merged into the previous when it
    starts where that one ends and carries the same code, giving an
    ObsInterval; an item that is not merged is kept as given.
    """
    out: list[tuple] = []
    prev = None  # out[-1]
    for item in intervals:
        if prev is not None and prev[1] == item[0] and prev[2] == item[2]:
            prev = out[-1] = ObsInterval(prev[0], item[1], prev[2])
        else:
            out.append(item)
            prev = item
    return out


def touching_runs(starts: Sequence, ends: Sequence, codes: Sequence | None = None) -> Sequence:
    """What :func:`coalesce` merges, from columns: each maximal run of items
    in which every item starts where the one before ends (and, with
    ``codes``, carries its code): a list of (first start, last end) pairs,
    or with ``codes`` a tuple of ObsIntervals."""
    cuts = map(ne, ends, islice(starts, 1, None))
    if codes is not None:
        cuts = map(or_, cuts, map(ne, codes, islice(codes, 1, None)))
    cuts = list(cuts)
    firsts = compress(starts, chain((True,), cuts))
    lasts = compress(ends, chain(cuts, (True,)))
    if codes is None:
        return list(zip(firsts, lasts))
    return obs_intervals(zip(firsts, lasts, compress(codes, chain((True,), cuts))))


def run_edges(values: Sequence) -> list[int]:
    """Where each maximal run of equal consecutive values starts, then len(values).

    Run i is ``values[edges[i]:edges[i + 1]]``; no values give no edges.
    """
    starts = compress(range(1, len(values)), map(ne, values, islice(values, 1, None)))
    return [0, *starts, len(values)] if values else []


def runs(values: Sequence[T]) -> list[tuple[int, int, T]]:
    """Maximal runs of equal consecutive values as (a, b, value), [a, b) indices."""
    edges = run_edges(values)
    return [(a, b, values[a]) for a, b in zip(edges, edges[1:])]


@dataclass(frozen=True)
class ObservationStream:
    """Behavior record for one subject from one method.

    Bounds are in the stream's own unit: wall-clock seconds when ``fps``
    is None, video frames at ``fps`` frames per second otherwise. A label
    run over frames s..e (inclusive) is the interval ``(s, e + 1)``, so a
    frame stream's length in frames is an exact integer difference, and
    :meth:`to_seconds` divides by the frame rate once, where a metric
    needs seconds.

    Intervals are non-overlapping and sorted with ``end > start``; scan
    streams may instead hold instantaneous events (``start == end``)
    prior to propagation. Construction rejects a non-finite bound, an
    end before its start, an empty frame interval, and an interval that
    starts before the previous one ends.
    """

    subject_id: str
    method: str
    intervals: tuple[ObsInterval, ...]
    observer_id: str = ""
    fps: float | None = None

    def __post_init__(self) -> None:
        intervals = tuple(self.intervals)
        if not all(map(isinstance, intervals, repeat(ObsInterval))):
            intervals = tuple(
                iv if isinstance(iv, ObsInterval) else ObsInterval(*iv) for iv in intervals
            )
        object.__setattr__(self, "intervals", intervals)
        # Check whole columns at C speed; only a stream that fails walks
        # its intervals one by one, to name the first fault.
        starts = list(map(itemgetter(0), intervals))
        # kept for code_at's bisect; not a field, so == and repr ignore it
        object.__setattr__(self, "_starts", starts)
        ends = list(map(itemgetter(1), intervals))
        try:
            valid = (
                all(map(math.isfinite, starts))
                and all(map(math.isfinite, ends))
                and all(map(le, starts, ends))
                and (self.fps is None or all(map(lt, starts, ends)))
                and all(map(le, ends, islice(starts, 1, None)))
            )
        except (TypeError, OverflowError):  # not a number, or an int past float range
            valid = False
        if not valid:
            self._reject(intervals)

    def _reject(self, intervals: tuple[ObsInterval, ...]) -> None:
        """Raise on the first interval that breaks the stream's invariants."""
        prev_end = -math.inf
        for iv in intervals:
            if not (finite_bound(iv.start) and finite_bound(iv.end)):
                raise ValueError(f"interval bounds must be finite: {tuple(iv)}")
            if iv.end < iv.start:
                raise ValueError(f"interval ends before it starts: {tuple(iv)}")
            if iv.end == iv.start and self.fps is not None:
                raise ValueError(f"frame interval holds no frame: {tuple(iv)}")
            if iv.start < prev_end:
                raise ValueError(
                    f"interval {tuple(iv)} starts before the previous one ends at {prev_end!r}"
                )
            prev_end = iv.end

    @property
    def span(self) -> tuple[float, float]:
        """(first start, last end) over all intervals."""
        return (self.intervals[0].start, self.intervals[-1].end)

    def covered_duration(self) -> float:
        return sum(iv.end - iv.start for iv in self.intervals)

    def covered_intervals(self) -> list[tuple[float, float]]:
        """Covered time as merged (start, end) pairs, gaps preserved."""
        return touching_runs(self._starts, list(map(itemgetter(1), self.intervals)))

    def code_at(self, t: float) -> str | None:
        """Code at t in the stream's unit (a frame index for a frame stream)."""
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and t < self.intervals[i].end:
            return self.intervals[i].code
        return None

    def to_seconds(self, t: float) -> float:
        """A time or length in the stream's unit, in seconds."""
        return t if self.fps is None else t / self.fps

    def code_at_seconds(self, t: float) -> str | None:
        """Code at t seconds; a frame stream reads the frame that holds t."""
        return self.code_at(t if self.fps is None else math.floor(t * self.fps))

    def is_instantaneous(self) -> bool:
        return bool(self.intervals) and all(iv.start == iv.end for iv in self.intervals)

    def clip(self, start: float, end: float) -> ObservationStream:
        """The intervals cut to [start, end), in the stream's unit."""
        return self.replace_intervals(
            ObsInterval(max(s, start), min(e, end), code)
            for s, e, code in self.intervals
            if s < end and e > start
        )

    def replace_intervals(self, intervals) -> ObservationStream:
        return ObservationStream(
            self.subject_id, self.method, tuple(intervals), self.observer_id, self.fps
        )


def streams_by_track(streams: Iterable[ObservationStream]) -> dict[str, ObservationStream]:
    """Each track's one label stream; ValueError naming a track given two."""
    by_track: dict[str, ObservationStream] = {}
    for stream in streams:
        if by_track.setdefault(stream.subject_id, stream) is not stream:
            raise ValueError(f"track {stream.subject_id!r} has more than one label stream")
    return by_track


@dataclass(frozen=True)
class AnalysisParams:
    """Tunable thresholds for the analysis pipeline.

    ``min_overlap_frames`` = 4 implements the "more than 3 frames" rule;
    ``overlap_ratio_threshold`` is strict (ratio must exceed it).
    """

    downsample_interval_s: float = 10.0
    scan_propagation_s: float = 120.0
    min_miniscene_frames: int = 90
    overlap_ratio_threshold: float = 0.5
    min_overlap_frames: int = 4
    max_track_gap_frames: int = 30
    overlap_metric: str = "min_area"  # min_area | iou

    def __post_init__(self) -> None:
        # NaN fails every comparison, so test for the valid range
        if not 0 < self.downsample_interval_s < math.inf:
            raise ValueError("downsample_interval_s must be positive and finite")
        if not 0 < self.scan_propagation_s < math.inf:
            raise ValueError("scan_propagation_s must be positive and finite")
        if not 0 < self.min_miniscene_frames < math.inf:
            raise ValueError("min_miniscene_frames must be positive and finite")
        if not 0.0 < self.overlap_ratio_threshold < 1.0:
            raise ValueError("overlap_ratio_threshold must lie in (0, 1)")
        if not 0 < self.min_overlap_frames < math.inf:
            raise ValueError("min_overlap_frames must be positive and finite")
        if not 0 < self.max_track_gap_frames < math.inf:
            raise ValueError("max_track_gap_frames must be positive and finite")
        if self.overlap_metric not in ("min_area", "iou"):
            raise ValueError(f"unknown overlap_metric {self.overlap_metric!r}")


class ValidationIssue(NamedTuple):
    location: str
    message: str


@dataclass
class ValidationReport:
    """Every invariant violation found in a session; empty means usable."""

    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, location: str, message: str) -> None:
        self.issues.append(ValidationIssue(location, message))

    def __iter__(self) -> Iterator[ValidationIssue]:
        return iter(self.issues)

    def __len__(self) -> int:
        return len(self.issues)

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(f"{loc}: {msg}" for loc, msg in self.issues)


def validate_session(tracks, streams, meta, ethogram) -> ValidationReport:
    """Check every session invariant; problems become report entries.

    Nothing raises here: callers decide which violations are fatal.
    ``streams`` may mix frame label streams and seconds streams.
    """
    report = ValidationReport()

    seen_ids: set[str] = set()
    for track in tracks:
        loc = f"track[{track.track_id}]"
        if track.track_id in seen_ids:
            report.add(loc, "duplicate track_id")
        seen_ids.add(track.track_id)
        if not track.species:
            report.add(loc, "empty species")
        if not track.frames:
            report.add(loc, "track has no boxes")
        boxes = zip(track.frames, track.x, track.y, track.w, track.h)
        # a box's location string is built only for a fault found in it
        for i, (frame, x, y, w, h) in enumerate(boxes):
            if frame < 0:
                report.add(f"{loc}.boxes[{i}]", f"negative frame index {frame}")
            if w <= 0 or h <= 0:
                report.add(f"{loc}.boxes[{i}]", f"degenerate box {w}x{h}")
            cx, cy = x + w / 2.0, y + h / 2.0
            if not (0 <= cx <= meta.width_px and 0 <= cy <= meta.height_px):
                report.add(
                    f"{loc}.boxes[{i}]", f"box center ({cx:g}, {cy:g}) outside frame bounds"
                )

    known_codes = set(ethogram.codes())
    for stream in streams:
        if stream.fps is None:
            _validate_observation_stream(stream, known_codes, report)
        else:
            _validate_label_stream(stream, known_codes, seen_ids, report)

    return report


def _validate_label_stream(stream, known_codes, track_ids, report) -> None:
    loc = f"labels[{stream.subject_id}]"
    if track_ids and stream.subject_id not in track_ids:
        report.add(loc, "label stream refers to unknown track")
    if not stream.intervals:
        report.add(loc, "label stream has no segments")
    # order and overlap are enforced by ObservationStream itself
    for i, iv in enumerate(stream.intervals):
        if iv.code not in known_codes:
            report.add(f"{loc}.segments[{i}]", f"unknown behavior code {iv.code!r}")


def _validate_observation_stream(stream, known_codes, report) -> None:
    loc = f"obs[{stream.subject_id}@{stream.method}]"
    if stream.method not in METHODS:
        report.add(loc, f"unknown method {stream.method!r}")
    # order, overlap and finite bounds are enforced by ObservationStream itself
    scan = stream.method == GROUND_SCAN
    for i, (start, end, code) in enumerate(stream.intervals):
        if end == start and not scan:
            report.add(f"{loc}.intervals[{i}]", "instantaneous event outside a scan stream")
        if code not in known_codes:
            report.add(f"{loc}.intervals[{i}]", f"unknown behavior code {code!r}")
