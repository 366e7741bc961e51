"""Reference oracles for the interval helpers of ``ethokit.timeline``.

``timeline._restrict`` and ``timeline._atoms`` find the spans and cut
points that touch each interval or piece by bisecting columns.
``restrict_scalar`` and ``atoms_scalar`` test every interval against
every span, and every piece against every interval of both streams; the
versions below them are the helpers as written before they worked on
columns. The differential tests require identical results, down to the
type of each bound and the sign of a zero.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter

from ethokit import ObservationStream, ObsInterval, PairedSeries, VideoMeta
from ethokit.core import TECHNICAL_CODES, coalesce, sample_count
from ethokit.timeline import _intersect

Span = tuple[float, float]


def restrict_scalar(stream: ObservationStream, spans: list[Span]) -> ObservationStream:
    clipped = []
    for iv in stream.intervals:
        for s, e in spans:
            lo, hi = max(iv.start, s), min(iv.end, e)
            if hi > lo:
                clipped.append(ObsInterval(lo, hi, iv.code))
    clipped.sort(key=lambda iv: iv.start)
    return stream.replace_intervals(clipped)


def atoms_scalar(
    a: ObservationStream, b: ObservationStream, pieces: list[Span]
) -> list[tuple[float, float, str | None, str | None]]:
    out = []
    for s, e in pieces:
        cuts = {s, e}
        for stream in (a, b):
            for iv in stream.intervals:
                if s < iv.start < e:
                    cuts.add(iv.start)
                if s < iv.end < e:
                    cuts.add(iv.end)
        edges = sorted(cuts)
        for t0, t1 in zip(edges, edges[1:]):
            out.append((t0, t1, a.code_at(t0), b.code_at(t0)))
    return out


# The run-edge helpers' predecessors: coalesce over one tuple per interval,
# a bisect-and-walk per interval, and a bisect keyed on each interval's start.


def covered_intervals_coalesce(stream: ObservationStream) -> list[Span]:
    spans = coalesce((s, e, None) for s, e, _ in stream.intervals)
    return [(s, e) for s, e, _ in spans]


def visible_spans_coalesce(stream: ObservationStream) -> list[Span]:
    visible = (
        (s, e, None) for s, e, code in stream.intervals if s != e and code not in TECHNICAL_CODES
    )
    return [(s, e) for s, e, _ in coalesce(visible)]


def restrict_walk(stream: ObservationStream, spans: list[Span]) -> ObservationStream:
    ends = [e for _, e in spans]
    clipped = []
    for start, end, code in stream.intervals:
        if not start < end:
            continue
        i = bisect_right(ends, start)
        while i < len(spans) and spans[i][0] < end:
            s, e = spans[i]
            clipped.append(ObsInterval(max(start, s), min(end, e), code))
            i += 1
    return stream.replace_intervals(clipped)


def code_at_keyed(stream: ObservationStream, t: float) -> str | None:
    i = bisect_right(stream.intervals, t, key=attrgetter("start")) - 1
    if i >= 0 and t < stream.intervals[i].end:
        return stream.intervals[i].code
    return None


def code_at_scan(stream: ObservationStream, t: float) -> str | None:
    return next((code for s, e, code in stream.intervals if s <= t < e), None)


def label_stream_to_observation_coalesce(
    stream: ObservationStream, meta: VideoMeta, method: str, subject_id: str, offset: float
) -> ObservationStream:
    epoch = meta.frame_to_epoch
    intervals = coalesce(
        (epoch(s) + offset, epoch(e) + offset, code) for s, e, code in stream.intervals
    )
    return ObservationStream(subject_id, method, tuple(intervals))


def atoms_set(
    a: ObservationStream, b: ObservationStream, pieces: list[Span]
) -> list[tuple[float, float, str | None, str | None]]:
    bounds = sorted({t for stream in (a, b) for iv in stream.intervals for t in (iv.start, iv.end)})
    out = []
    for s, e in pieces:
        edges = [s, *bounds[bisect_right(bounds, s) : bisect_left(bounds, e)], e]
        for t0, t1 in zip(edges, edges[1:]):
            out.append((t0, t1, a.code_at(t0), b.code_at(t0)))
    return out


def align_pair_tallies(a: ObservationStream, b: ObservationStream, delta_s: float) -> PairedSeries:
    """align_pair as written before its loop was tightened: at a virtual time
    that sits on a bin edge its quotient rounds below, it never ends."""
    pieces = _intersect(a.covered_intervals(), b.covered_intervals())
    total = sum(e - s for s, e in pieces)
    n = sample_count(total, delta_s)
    times = [0.0] * n
    tallies_a: list[dict[str, float]] = [dict() for _ in range(n)]
    tallies_b: list[dict[str, float]] = [dict() for _ in range(n)]
    start_codes: list[tuple[str | None, str | None]] = [(None, None)] * n
    elapsed = 0.0
    for t0, t1, ca, cb in atoms_set(a, b, pieces):
        length = t1 - t0
        pos = 0.0
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

    def majority(tally: dict[str, float], start_code: str | None) -> str:
        best = max(tally.values())
        winners = [code for code, d in tally.items() if d == best]
        return start_code if start_code in winners else winners[0]

    codes_a = [majority(tallies_a[k], start_codes[k][0]) for k in range(n)]
    codes_b = [majority(tallies_b[k], start_codes[k][1]) for k in range(n)]
    subject = a.subject_id if a.subject_id == b.subject_id else f"{a.subject_id}/{b.subject_id}"
    return PairedSeries(subject, a.method, b.method, delta_s, times, codes_a, codes_b)
