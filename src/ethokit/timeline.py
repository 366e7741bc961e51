"""Harmonizing observation streams recorded by different methods.

Scan snapshots are propagated into intervals, technical (visibility)
time is excised jointly, codes are mapped onto a shared vocabulary, and
the two streams are resampled onto a common grid for agreement
analysis. All times are epoch seconds; drone-side frame label streams
enter through :func:`label_stream_to_observation`, which anchors frames
to the session start timestamp (plus any per-session clock offset).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, gt, itemgetter, lt, ne, truediv

from .core import (
    DRONE_FOCAL,
    GROUND_SCAN,
    TECHNICAL_CODES,
    ObsInterval,
    ObservationStream,
    VideoMeta,
    csv_text,
    sample_count,
    touching_runs,
)

__all__ = [
    "PairedSeries",
    "propagate_scan",
    "visibility_filter",
    "map_labels",
    "align_pair",
    "label_stream_to_observation",
    "dump_paired_series",
]

Span = tuple[float, float]


@dataclass(frozen=True)
class PairedSeries:
    """Two methods' codes sampled on a shared uniform grid.

    Sample k covers the k-th step of width delta_s along the jointly
    covered timeline (gaps excised); times hold each step's wall-clock
    start.
    """

    subject_id: str
    method_a: str
    method_b: str
    delta_s: float
    times: tuple[float, ...]
    codes_a: tuple[str, ...]
    codes_b: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "codes_a", tuple(self.codes_a))
        object.__setattr__(self, "codes_b", tuple(self.codes_b))
        if not (len(self.times) == len(self.codes_a) == len(self.codes_b)):
            raise ValueError("times, codes_a, codes_b must have equal length")

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.codes_a, self.codes_b))


def propagate_scan(events: ObservationStream, horizon_s: float = 120.0) -> ObservationStream:
    """Extend each scan snapshot until the next one, capped at horizon_s.

    A snapshot's state is assumed to hold for the following two minutes
    (default), or less when another snapshot of the same subject lands
    earlier.
    """
    if events.method != GROUND_SCAN:
        raise ValueError(f"scan propagation applies to ground_scan streams, got {events.method!r}")
    if not events.is_instantaneous():
        raise ValueError("scan stream already carries intervals; expected instantaneous events")
    if not 0 < horizon_s < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon_s}")
    intervals = []
    points = events.intervals
    for i, ev in enumerate(points):
        end = ev.start + horizon_s
        if i + 1 < len(points):
            end = min(end, points[i + 1].start)
        if end > ev.start:
            intervals.append(ObsInterval(ev.start, end, ev.code))
    return events.replace_intervals(intervals)


def _intersect(a: list[Span], b: list[Span]) -> list[Span]:
    out: list[Span] = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            out.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _visible_spans(stream: ObservationStream) -> list[Span]:
    starts, ends, codes = _columns(stream.intervals)
    technical = map(TECHNICAL_CODES.__contains__, codes)
    visible = list(map(gt, map(ne, starts, ends), technical))  # not an instant, not technical
    return touching_runs(list(compress(starts, visible)), list(compress(ends, visible)))


def _columns(intervals) -> list[list]:
    """The start, end and code columns of intervals."""
    return [list(map(itemgetter(k), intervals)) for k in range(3)]


def _restrict(stream: ObservationStream, spans: list[Span]) -> ObservationStream:
    """Clip each interval to the spans it overlaps; output in start order.

    spans are sorted, disjoint and non-empty, as :func:`_intersect`
    returns them. An instant overlaps no span, so instants are dropped
    first, and the intervals left have increasing starts and ends. A
    span's intervals are then a slice of them, found by bisecting both
    columns: from the first to end after the span starts, up to the
    first to start at or after it ends. Only the slice's first and last
    interval can reach outside the span; those between are kept as they
    are, as clipping would keep them (max and min return their first
    argument on ties, so a bound keeps its type and the sign of a zero).
    """
    intervals = stream.intervals
    starts, ends, _ = _columns(intervals)
    if not all(map(lt, starts, ends)):
        intervals = list(compress(intervals, map(lt, starts, ends)))
        starts, ends, _ = _columns(intervals)
    clipped = []
    for s, e in spans:
        i, j = bisect_right(ends, s), bisect_left(starts, e)
        if i == j:
            continue
        first, last = intervals[i], intervals[j - 1]
        clipped.append(ObsInterval(max(first.start, s), min(first.end, e), first.code))
        if j - i > 1:
            clipped += intervals[i + 1 : j - 1]
            clipped.append(ObsInterval(max(last.start, s), min(last.end, e), last.code))
    return stream.replace_intervals(clipped)


def visibility_filter(
    a: ObservationStream, b: ObservationStream
) -> tuple[ObservationStream, ObservationStream]:
    """Drop every instant where either stream is technically coded.

    The outputs cover exactly the same time: the intersection of the
    two streams' visible (non-technical) spans.
    """
    covered = _intersect(a.covered_intervals(), b.covered_intervals())
    if not covered:
        raise ValueError(
            f"no temporal overlap between streams for {a.subject_id!r} and {b.subject_id!r}"
        )
    common = _intersect(_visible_spans(a), _visible_spans(b))
    return _restrict(a, common), _restrict(b, common)


def map_labels(stream: ObservationStream, mapping: dict[str, str]) -> ObservationStream:
    """Rename codes through a total mapping, merging what becomes equal.

    The mapping must cover every code present.
    """
    missing = sorted({iv.code for iv in stream.intervals} - mapping.keys())
    if missing:
        raise ValueError(f"mapping missing codes: {', '.join(missing)}")
    starts, ends, codes = _columns(stream.intervals)
    codes = list(map(mapping.__getitem__, codes))
    return stream.replace_intervals(touching_runs(starts, ends, codes))


def _atoms(
    a: ObservationStream, b: ObservationStream, pieces: list[Span]
) -> list[tuple[float, float, str | None, str | None]]:
    """Constant-code slices of the common timeline, in time order.

    Each piece is cut at every interval start or end of either stream
    lying strictly inside it.
    """
    # every start and end, in order, so that of equal bounds (0 and -0.0, 1 and
    # 1.0) the set keeps the first one seen, as a set comprehension over them did
    bounds = chain.from_iterable(map(itemgetter(0, 1), chain(a.intervals, b.intervals)))
    bounds = sorted(set(bounds))
    starts, ends = [], []
    for s, e in pieces:
        cuts = bounds[bisect_right(bounds, s) : bisect_left(bounds, e)]
        starts += (s, *cuts)
        ends += (*cuts, e)
    return list(zip(starts, ends, map(a.code_at, starts), map(b.code_at, starts)))


def align_pair(a: ObservationStream, b: ObservationStream, delta_s: float) -> PairedSeries:
    """Resample both streams at delta_s over their common covered time.

    The common time is treated as one concatenated timeline (holes from
    visibility filtering removed), cut into floor(total / delta_s) bins.
    Each stream contributes the code occupying the majority of the bin;
    ties go to the code active at bin start.
    """
    if not 0 < delta_s < math.inf:
        raise ValueError(f"sampling interval must be positive and finite, got {delta_s}")
    pieces = _intersect(a.covered_intervals(), b.covered_intervals())
    total = sum(e - s for s, e in pieces)
    if total == 0:
        raise ValueError("streams share no covered time")
    n = sample_count(total, delta_s)
    if n == 0:
        raise ValueError(f"interval {delta_s} s exceeds common span {total} s")

    times = [0.0] * n
    tallies_a: list[dict[str, float]] = [{} for _ in range(n)]
    tallies_b: list[dict[str, float]] = [{} for _ in range(n)]
    starts_a: list[str | None] = [None] * n  # each stream's code at each bin's start
    starts_b: list[str | None] = [None] * n

    elapsed = 0.0  # virtual time consumed before the current atom
    for t0, t1, ca, cb in _atoms(a, b, pieces):
        length = t1 - t0
        pos = 0.0  # consumed within this atom
        while pos < length:
            at = elapsed + pos  # virtual time
            k = int(at / delta_s)
            if (k + 1) * delta_s <= at:  # the quotient rounded down short of a bin edge at reached
                k += 1
            if k >= n:
                break
            rest, room = length - pos, (k + 1) * delta_s - at
            take = rest if rest <= room else room  # min(rest, room), without a call
            if at <= k * delta_s:
                times[k] = t0 + pos
                starts_a[k], starts_b[k] = ca, cb
            if ca is not None:
                tally = tallies_a[k]
                tally[ca] = tally.get(ca, 0.0) + take
            if cb is not None:
                tally = tallies_b[k]
                tally[cb] = tally.get(cb, 0.0) + take
            pos += take
        elapsed += length

    codes_a = list(map(_majority, tallies_a, starts_a))
    codes_b = list(map(_majority, tallies_b, starts_b))
    subject = a.subject_id if a.subject_id == b.subject_id else f"{a.subject_id}/{b.subject_id}"
    return PairedSeries(
        subject, a.method, b.method, delta_s, tuple(times), tuple(codes_a), tuple(codes_b)
    )


def _majority(tally: dict[str, float], start_code: str | None) -> str:
    if not tally:
        raise ValueError("empty bin; streams do not cover their common span")
    best = max(tally, key=tally.__getitem__)  # the first seen in the bin of those tied
    return start_code if tally.get(start_code) == tally[best] else best


def label_stream_to_observation(
    stream: ObservationStream,
    meta: VideoMeta,
    method: str = DRONE_FOCAL,
    subject_id: str | None = None,
    clock_offset_s: float = 0.0,
) -> ObservationStream:
    """Anchor a frame label stream on the wall clock.

    Frame f covers [f, f+1) / fps after the session start; offset
    corrects a known ground-vs-drone clock skew (default 0).
    """
    t0, fps = meta.start_time.timestamp(), meta.fps
    starts, ends, codes = _columns(stream.intervals)
    # meta.frame_to_epoch(f) + clock_offset_s, which is (t0 + f / fps) + offset
    starts, ends = (
        list(map(add, map(add, repeat(t0), map(truediv, col, repeat(fps))), repeat(clock_offset_s)))
        for col in (starts, ends)
    )
    intervals = touching_runs(starts, ends, codes)
    return ObservationStream(subject_id or stream.subject_id, method, intervals)


def dump_paired_series(pairs: PairedSeries) -> str:
    return csv_text(["t", "code_a", "code_b"], pairs)
