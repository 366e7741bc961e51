"""Reference oracle: the per-frame scalar interaction detector.

``ethokit.social.detect_interactions`` computes the same events, comparing
frame by frame only the pairs whose boxes a windowed sweep finds close.
This loop walks every shared frame of every pair, calling
:func:`overlap_ratio` once per frame on the tracks' box rows; the
differential tests require both to give identical events.
"""

from __future__ import annotations

import math
from typing import Sequence

from ethokit import AnalysisParams, InteractionEvent, Track
from ethokit.core import BoundingBox


def overlap_ratio(a: BoundingBox, b: BoundingBox, metric: str = "min_area") -> float:
    """Fraction of box overlap on one frame.

    min_area (default) divides the intersection by the smaller box, so
    0.5 reads as "half of the smaller animal is covered" even when a
    giraffe box dwarfs a zebra box; iou divides by the union.
    """
    if a.frame != b.frame:
        raise ValueError(f"boxes are from different frames ({a.frame} vs {b.frame})")
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    inter = ix * iy
    # a NaN or infinite coordinate overlaps nothing (min/max may drop a
    # NaN, and min(1.0, nan) is 1.0), nor does an area no float can hold
    if not (ix > 0 and iy > 0 and 0 < inter < math.inf and _finite(a) and _finite(b)):
        return 0.0
    # rounding in the extent math can push inter one ulp past the denominator,
    # and past a denominator that underflows to 0: the ratio is then capped at 1
    if metric == "min_area":
        denom = min(a.w * a.h, b.w * b.h)
    elif metric == "iou":
        denom = a.w * a.h + b.w * b.h - inter
    else:
        raise ValueError(f"unknown overlap metric {metric!r}")
    return min(1.0, inter / denom) if denom else 1.0


def _finite(box: BoundingBox) -> bool:
    return all(map(math.isfinite, (box.x, box.y, box.w, box.h)))


def detect_interactions_scalar(
    tracks: Sequence[Track], params: AnalysisParams | None = None
) -> list[InteractionEvent]:
    """Find runs of >threshold overlap lasting >= min_overlap_frames.

    Both cutoffs come from params; the ratio threshold is strict, so a
    frame at exactly the threshold breaks a run.
    """
    if params is None:
        params = AnalysisParams()
    events: list[InteractionEvent] = []
    active = sorted((t for t in tracks if not t.excluded and t.boxes), key=lambda t: t.track_id)
    for i, ta in enumerate(active):
        frames_a = {box.frame: box for box in ta.boxes}
        for tb in active[i + 1 :]:
            if tb.track_id == ta.track_id:
                raise ValueError(f"duplicate track id {ta.track_id!r}")
            frames_b = {box.frame: box for box in tb.boxes}
            shared = sorted(frames_a.keys() & frames_b.keys())
            run: list[tuple[int, float]] = []
            for frame in shared:
                ratio = overlap_ratio(frames_a[frame], frames_b[frame], params.overlap_metric)
                contiguous = run and frame == run[-1][0] + 1
                if ratio > params.overlap_ratio_threshold and (contiguous or not run):
                    run.append((frame, ratio))
                    continue
                _close_run(run, ta, tb, params, events)
                run = [(frame, ratio)] if ratio > params.overlap_ratio_threshold else []
            _close_run(run, ta, tb, params, events)
    events.sort(key=lambda e: (e.track_a, e.track_b, e.start_frame))
    return events


def _close_run(run, ta: Track, tb: Track, params: AnalysisParams, events: list) -> None:
    if len(run) >= params.min_overlap_frames:
        frames = [f for f, _ in run]
        mean = sum(r for _, r in run) / len(run)
        events.append(
            InteractionEvent(
                ta.track_id, tb.track_id, ta.species, tb.species, frames[0], frames[-1], mean
            )
        )
