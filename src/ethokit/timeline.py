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

from .core import (
    DRONE_FOCAL,
    GROUND_SCAN,
    ObsInterval,
    ObservationStream,
    VideoMeta,
    coalesce,
    csv_text,
    sample_count,
)
from .ethogram import TECHNICAL_CODES

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


def _visible_spans(stream: ObservationStream, technical: frozenset[str]) -> list[Span]:
    visible = ((s, e, None) for s, e, code in stream.intervals if s != e and code not in technical)
    return [(s, e) for s, e, _ in coalesce(visible)]


def _restrict(stream: ObservationStream, spans: list[Span]) -> ObservationStream:
    """Clip each interval to the spans it overlaps; output in start order.

    spans are sorted, disjoint and non-empty, as :func:`_intersect`
    returns them, so their ends increase too. An interval's first
    overlapping span is the first to end after it starts, and the walk
    stops at the first span starting at or after its end. The stream's
    intervals are sorted and disjoint, so the pieces come out sorted.
    """
    ends = [e for _, e in spans]
    clipped = []
    for iv in stream.intervals:
        start, end, code = iv
        if not start < end:
            continue  # an instant overlaps no span
        i = bisect_right(ends, start)
        while i < len(spans) and spans[i][0] < end:
            s, e = spans[i]
            clipped.append(ObsInterval(max(start, s), min(end, e), code))
            i += 1
    return stream.replace_intervals(clipped)


def visibility_filter(
    a: ObservationStream, b: ObservationStream, technical: frozenset[str] = TECHNICAL_CODES
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
    common = _intersect(_visible_spans(a, technical), _visible_spans(b, technical))
    return _restrict(a, common), _restrict(b, common)


def map_labels(stream: ObservationStream, mapping: dict[str, str]) -> ObservationStream:
    """Rename codes through a total mapping, merging what becomes equal.

    The mapping must cover every code present.
    """
    missing = sorted({iv.code for iv in stream.intervals} - mapping.keys())
    if missing:
        raise ValueError(f"mapping missing codes: {', '.join(missing)}")
    return stream.replace_intervals(
        coalesce((s, e, mapping[code]) for s, e, code in stream.intervals)
    )


def _atoms(
    a: ObservationStream, b: ObservationStream, pieces: list[Span]
) -> list[tuple[float, float, str | None, str | None]]:
    """Constant-code slices of the common timeline, in time order.

    Each piece is cut at every interval start or end of either stream
    lying strictly inside it.
    """
    bounds = sorted({t for stream in (a, b) for iv in stream.intervals for t in (iv.start, iv.end)})
    out = []
    for s, e in pieces:
        edges = [s, *bounds[bisect_right(bounds, s) : bisect_left(bounds, e)], e]
        for t0, t1 in zip(edges, edges[1:]):
            out.append((t0, t1, a.code_at(t0), b.code_at(t0)))
    return out


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
    tallies_a: list[dict[str, float]] = [dict() for _ in range(n)]
    tallies_b: list[dict[str, float]] = [dict() for _ in range(n)]
    start_codes: list[tuple[str | None, str | None]] = [(None, None)] * n

    elapsed = 0.0  # virtual time consumed before the current atom
    for t0, t1, ca, cb in _atoms(a, b, pieces):
        length = t1 - t0
        pos = 0.0  # consumed within this atom
        while pos < length:
            k = int((elapsed + pos) / delta_s)
            if k >= n:
                break
            bin_end_virtual = (k + 1) * delta_s
            take = min(length - pos, bin_end_virtual - (elapsed + pos))
            if elapsed + pos <= k * delta_s:
                times[k] = t0 + pos
                start_codes[k] = (ca, cb)
            if ca is not None:
                tallies_a[k][ca] = tallies_a[k].get(ca, 0.0) + take
            if cb is not None:
                tallies_b[k][cb] = tallies_b[k].get(cb, 0.0) + take
            pos += take
        elapsed += length

    codes_a = [_majority(tallies_a[k], start_codes[k][0]) for k in range(n)]
    codes_b = [_majority(tallies_b[k], start_codes[k][1]) for k in range(n)]
    subject = a.subject_id if a.subject_id == b.subject_id else f"{a.subject_id}/{b.subject_id}"
    return PairedSeries(
        subject, a.method, b.method, delta_s, tuple(times), tuple(codes_a), tuple(codes_b)
    )


def _majority(tally: dict[str, float], start_code: str | None) -> str:
    if not tally:
        raise ValueError("empty bin; streams do not cover their common span")
    best = max(tally.values())
    winners = [code for code, d in tally.items() if d == best]
    if start_code in winners:
        return start_code
    return winners[0]  # insertion order = first seen in the bin


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
    epoch = meta.frame_to_epoch
    intervals = coalesce(
        (epoch(s) + clock_offset_s, epoch(e) + clock_offset_s, code)
        for s, e, code in stream.intervals
    )
    return ObservationStream(subject_id or stream.subject_id, method, tuple(intervals))


def dump_paired_series(pairs: PairedSeries) -> str:
    return csv_text(["t", "code_a", "code_b"], pairs)
