"""Reference oracle: the quadratic interval helpers of ``ethokit.timeline``.

``timeline._restrict`` and ``timeline._atoms`` find the spans and cut
points that touch each interval or piece with a bisect and a forward
walk. These versions test every interval against every span, and every
piece against every interval of both streams; the differential tests
require both to give identical results.
"""

from __future__ import annotations

from ethokit import ObservationStream, ObsInterval

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
