"""Core domain types shared by every analysis stage.

Frames are the canonical time axis for drone-derived data, wall-clock
seconds for ground observations; :class:`VideoMeta` carries the
conversion. All types are immutable after construction and safe to share
across concurrent workers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

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

    def frame_to_seconds(self, frame: float) -> float:
        """Offset of a frame from the start of the video, in seconds."""
        return frame / self.fps

    def frame_to_epoch(self, frame: float) -> float:
        """Wall-clock time (epoch seconds) at which a frame starts."""
        return self.start_time.timestamp() + frame / self.fps

    def seconds_to_frame(self, seconds: float) -> int:
        return int(seconds * self.fps)


class Rect(NamedTuple):
    """Axis-aligned pixel rectangle, top-left origin."""

    x: float
    y: float
    w: float
    h: float


@dataclass(frozen=True)
class BoundingBox:
    """One detection: frame index plus pixel rectangle (top-left origin).

    Coordinates may exceed frame bounds; importers flag out-of-bounds
    boxes and :func:`validate_session` reports degenerate ones.
    """

    frame: int
    x: float
    y: float
    w: float
    h: float

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Track:
    """An individual animal's bounding-box trajectory over video frames.

    ``excluded`` marks tracks with evident identity switches; excluded
    tracks are dropped from all analytics.
    """

    track_id: str
    species: str
    boxes: tuple[BoundingBox, ...]
    excluded: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))

    @property
    def start_frame(self) -> int:
        return self.boxes[0].frame

    @property
    def end_frame(self) -> int:
        return self.boxes[-1].frame

    def box_at(self, frame: int) -> BoundingBox | None:
        i = bisect_left(self.boxes, frame, key=attrgetter("frame"))
        if i < len(self.boxes) and self.boxes[i].frame == frame:
            return self.boxes[i]
        return None


class Segment(NamedTuple):
    """Run-length encoded behavior run over an inclusive frame range."""

    start_frame: int
    end_frame: int
    code: str


@dataclass(frozen=True)
class LabelStream:
    """Per-frame behavior codes for one track, run-length encoded.

    Segments are contiguous, non-overlapping and sorted; every frame in
    [start_frame, end_frame] carries exactly one code. Construction
    rejects a segment that ends before it starts and one that does not
    start on the frame after the previous one ends.
    """

    track_id: str
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segments = tuple(Segment(*s) for s in self.segments)
        prev_end = None
        for seg in segments:
            if seg.end_frame < seg.start_frame:
                raise ValueError(f"segment ends before it starts: {tuple(seg)}")
            if prev_end is not None and seg.start_frame != prev_end + 1:
                raise ValueError(
                    f"segment {tuple(seg)} does not start on the frame after {prev_end}"
                )
            prev_end = seg.end_frame
        object.__setattr__(self, "segments", segments)

    @property
    def start_frame(self) -> int:
        return self.segments[0].start_frame

    @property
    def end_frame(self) -> int:
        return self.segments[-1].end_frame

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame + 1

    def codes(self) -> set[str]:
        return {s.code for s in self.segments}

    def code_at(self, frame: int) -> str | None:
        i = bisect_right(self.segments, frame, key=attrgetter("start_frame")) - 1
        if i >= 0 and frame <= self.segments[i].end_frame:
            return self.segments[i].code
        return None

    def expand(self) -> list[str]:
        """Per-frame code list over [start_frame, end_frame]."""
        out: list[str] = []
        for seg in self.segments:
            out.extend([seg.code] * (seg.end_frame - seg.start_frame + 1))
        return out

    def clip(self, start_frame: int, end_frame: int) -> LabelStream:
        """Restrict to the inclusive frame range [start_frame, end_frame]."""
        kept = []
        for seg in self.segments:
            s = max(seg.start_frame, start_frame)
            e = min(seg.end_frame, end_frame)
            if s <= e:
                kept.append(Segment(s, e, seg.code))
        return LabelStream(self.track_id, tuple(kept))

    @classmethod
    def from_frames(
        cls, track_id: str, start_frame: int, codes: list[str] | tuple[str, ...]
    ) -> LabelStream:
        """Run-length encode an explicit per-frame code sequence."""
        return cls(
            track_id,
            tuple(Segment(start_frame + a, start_frame + b - 1, c) for a, b, c in runs(codes)),
        )


class ObsInterval(NamedTuple):
    """Behavior interval in seconds, half-open [start, end)."""

    start: float
    end: float
    code: str


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


def runs(values: Sequence[T]) -> list[tuple[int, int, T]]:
    """Maximal runs of equal consecutive values as (a, b, value), [a, b) indices."""
    edges = [k for k in range(1, len(values)) if values[k] != values[k - 1]]
    edges = [0, *edges, len(values)] if values else []
    return [(a, b, values[a]) for a, b in zip(edges, edges[1:])]


@dataclass(frozen=True)
class ObservationStream:
    """Wall-clock behavior record for one subject from one method.

    Intervals are non-overlapping and sorted with ``end > start``; scan
    streams may instead hold instantaneous events (``start == end``)
    prior to propagation. Construction rejects a non-finite bound, an
    end before its start, and an interval that starts before the
    previous one ends.
    """

    subject_id: str
    method: str
    intervals: tuple[ObsInterval, ...]
    observer_id: str = ""

    def __post_init__(self) -> None:
        intervals = tuple(ObsInterval(*iv) for iv in self.intervals)
        prev_end = -math.inf
        for iv in intervals:
            if not (math.isfinite(iv.start) and math.isfinite(iv.end)):
                raise ValueError(f"interval bounds must be finite: {tuple(iv)}")
            if iv.end < iv.start:
                raise ValueError(f"interval ends before it starts: {tuple(iv)}")
            if iv.start < prev_end:
                raise ValueError(
                    f"interval {tuple(iv)} starts before the previous one ends at {prev_end!r}"
                )
            prev_end = iv.end
        object.__setattr__(self, "intervals", intervals)

    @property
    def span(self) -> tuple[float, float]:
        """(first start, last end) over all intervals."""
        return (self.intervals[0].start, self.intervals[-1].end)

    def covered_duration(self) -> float:
        return sum(iv.end - iv.start for iv in self.intervals)

    def covered_intervals(self) -> list[tuple[float, float]]:
        """Covered time as merged (start, end) pairs, gaps preserved."""
        spans = coalesce((s, e, None) for s, e, _ in self.intervals)
        return [(s, e) for s, e, _ in spans]

    def code_at(self, t: float) -> str | None:
        i = bisect_right(self.intervals, t, key=attrgetter("start")) - 1
        if i >= 0 and t < self.intervals[i].end:
            return self.intervals[i].code
        return None

    def is_instantaneous(self) -> bool:
        return bool(self.intervals) and all(iv.start == iv.end for iv in self.intervals)

    def replace_intervals(self, intervals) -> ObservationStream:
        return ObservationStream(
            self.subject_id, self.method, tuple(intervals), self.observer_id
        )


@dataclass(frozen=True)
class TelemetryRecord:
    """One drone telemetry sample."""

    timestamp: float  # epoch seconds
    lat: float
    lon: float
    altitude_m: float
    heading_deg: float  # [0, 360)
    speed_mps: float


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
    ``streams`` may mix :class:`LabelStream` and :class:`ObservationStream`.
    """
    report = ValidationReport()

    if meta.fps <= 0:
        report.add("meta", f"fps must be positive, got {meta.fps}")
    if meta.width_px <= 0 or meta.height_px <= 0:
        report.add(
            "meta", f"frame size must be positive, got {meta.width_px}x{meta.height_px}"
        )

    seen_ids: set[str] = set()
    for track in tracks:
        loc = f"track[{track.track_id}]"
        if track.track_id in seen_ids:
            report.add(loc, "duplicate track_id")
        seen_ids.add(track.track_id)
        if not track.species:
            report.add(loc, "empty species")
        if not track.boxes:
            report.add(loc, "track has no boxes")
        prev_frame = None
        for i, box in enumerate(track.boxes):
            bloc = f"{loc}.boxes[{i}]"
            if box.frame < 0:
                report.add(bloc, f"negative frame index {box.frame}")
            if box.w <= 0 or box.h <= 0:
                report.add(bloc, f"degenerate box {box.w}x{box.h}")
            if prev_frame is not None and box.frame <= prev_frame:
                report.add(bloc, f"non-monotonic frames ({prev_frame} then {box.frame})")
            prev_frame = box.frame
            cx, cy = box.center
            if not (0 <= cx <= meta.width_px and 0 <= cy <= meta.height_px):
                report.add(bloc, f"box center ({cx:g}, {cy:g}) outside frame bounds")

    known_codes = set(ethogram.codes())
    for stream in streams:
        if isinstance(stream, LabelStream):
            _validate_label_stream(stream, known_codes, seen_ids, report)
        else:
            _validate_observation_stream(stream, known_codes, report)

    return report


def _validate_label_stream(stream, known_codes, track_ids, report) -> None:
    loc = f"labels[{stream.track_id}]"
    if track_ids and stream.track_id not in track_ids:
        report.add(loc, "label stream refers to unknown track")
    if not stream.segments:
        report.add(loc, "label stream has no segments")
    # order and contiguity are enforced by LabelStream itself
    for i, seg in enumerate(stream.segments):
        if seg.code not in known_codes:
            report.add(f"{loc}.segments[{i}]", f"unknown behavior code {seg.code!r}")


def _validate_observation_stream(stream, known_codes, report) -> None:
    loc = f"obs[{stream.subject_id}@{stream.method}]"
    if stream.method not in METHODS:
        report.add(loc, f"unknown method {stream.method!r}")
    # order, overlap and finite bounds are enforced by ObservationStream itself
    for i, iv in enumerate(stream.intervals):
        iloc = f"{loc}.intervals[{i}]"
        if iv.end == iv.start and stream.method != GROUND_SCAN:
            report.add(iloc, "instantaneous event outside a scan stream")
        if iv.code not in known_codes:
            report.add(iloc, f"unknown behavior code {iv.code!r}")
