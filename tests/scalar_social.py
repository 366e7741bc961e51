"""Reference oracle: the per-frame scalar interaction detector.

``ethokit.social.detect_interactions`` computes the same events with a
few NumPy operations per track pair. This loop walks every shared frame
of every pair in Python, calling :func:`overlap_ratio` once per frame;
the differential tests require both to give identical events.
"""

from __future__ import annotations

from typing import Sequence

from ethokit import AnalysisParams, InteractionEvent, Track, overlap_ratio


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
            shared = sorted(frames_a.keys() & {box.frame for box in tb.boxes})
            run: list[tuple[int, float]] = []
            for frame in shared:
                ratio = overlap_ratio(frames_a[frame], tb.box_at(frame), params.overlap_metric)
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
