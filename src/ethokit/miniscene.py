"""Crop-window geometry for per-animal video segments.

A mini-scene is a fixed-size window that follows one tracked animal
through a contiguous stretch of video. This module computes the window
geometry and applies the duration filter; it never touches pixels.

Windows are computed a segment at a time, over whole columns of box
coordinates, with the same float operations in the same order as
:func:`crop_window` applies to one box; only a segment with a centre out
of bounds is walked box by box, to name its first bad frame. The
manifest is likewise cut into rows at the run edges of each scene's
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import add, gt, le, sub, truediv
from typing import Iterable, NamedTuple

from .core import (
    DEFAULT_OUT_H,
    DEFAULT_OUT_W,
    AnalysisParams,
    ObservationStream,
    Track,
    VideoMeta,
    csv_text,
    gc_paused,
    run_edges,
    streams_by_track,
)

__all__ = [
    "Window",
    "MiniScene",
    "crop_window",
    "extract_miniscenes",
    "dump_miniscene_manifest",
]

class Window(NamedTuple):
    """Crop-window center for one frame, in source pixels."""

    frame: int
    cx: float
    cy: float


@dataclass(frozen=True)
class MiniScene:
    """One retained track segment with its crop windows and labels.

    Windows exist for every frame the track has a box; short detection
    gaps inside the segment carry no window. All windows share one
    output size and lie fully inside the source frame.
    """

    track_id: str
    start_frame: int
    end_frame: int  # inclusive
    out_w: int
    out_h: int
    windows: tuple[Window, ...]
    labels: ObservationStream  # frame stream covering every frame of the scene

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame + 1


def crop_window(
    cx: float, cy: float, out_w: int, out_h: int, meta: VideoMeta
) -> tuple[float, float]:
    """Centre of the fixed-size window on (cx, cy), translated to fit the frame.

    The window is never shrunk or rescaled; near frame edges it slides
    inward just enough to stay inside [0, width) x [0, height).
    """
    if out_w > meta.width_px or out_h > meta.height_px:
        raise ValueError(
            f"crop size {out_w}x{out_h} exceeds frame {meta.width_px}x{meta.height_px}"
        )
    if out_w <= 0 or out_h <= 0:
        raise ValueError(f"crop size must be positive, got {out_w}x{out_h}")
    if not (0 <= cx <= meta.width_px and 0 <= cy <= meta.height_px):
        raise ValueError(
            f"center out of bounds: ({cx}, {cy}) outside {meta.width_px}x{meta.height_px}"
        )
    x = min(max(cx - out_w / 2, 0.0), meta.width_px - out_w)
    y = min(max(cy - out_h / 2, 0.0), meta.height_px - out_h)
    return x + out_w / 2, y + out_h / 2


def _split_segments(frames: tuple[int, ...], max_gap: int) -> list[tuple[int, int]]:
    """[a, b) index ranges of frames, split wherever more than max_gap frames are missing."""
    missing = map(sub, map(sub, islice(frames, 1, None), frames), repeat(1))
    edges = [0, *compress(range(1, len(frames)), map(gt, missing, repeat(max_gap))), len(frames)]
    return list(zip(edges, edges[1:]))


def _box_centres(x: tuple[float, ...], w: tuple[float, ...]) -> list[float]:
    return list(map(add, x, map(truediv, w, repeat(2.0))))


def _window_centres(c: list[float], out: int, size: int) -> list[float] | None:
    """Window centres along one axis for box centres c, as :func:`crop_window`
    computes each; None if a centre lies outside [0, size], NaN included.

    For finite v and top >= 0 the clamp below equals min(max(v, 0.0), top);
    crop_window has checked the crop size, so top >= 0. A float top gives
    the same sums as the int, and compares faster.
    """
    if not (all(map(le, repeat(0.0), c)) and max(c) <= size):  # NaN fails 0.0 <= v
        return None
    half, top = out / 2, float(size - out)
    lows = map(sub, c, repeat(half))
    return list(map(add, [0.0 if v < 0.0 else top if top < v else v for v in lows], repeat(half)))


def _windows(
    frames: tuple[int, ...], x, y, w, h, out_w: int, out_h: int, meta: VideoMeta
) -> tuple[Window, ...]:
    """The crop windows of one segment's boxes; ValueError at the first box
    whose centre is out of bounds, as :func:`crop_window` raises it."""
    cx, cy = _box_centres(x, w), _box_centres(y, h)
    across = _window_centres(cx, out_w, meta.width_px)
    down = _window_centres(cy, out_h, meta.height_px)
    if across is None or down is None:  # crop_window raises at the first bad box
        for args in zip(cx, cy):
            crop_window(*args, out_w, out_h, meta)
    return tuple(map(tuple.__new__, repeat(Window), zip(frames, across, down)))


def _labels_for(
    track_id: str, start: int, end: int, stream: ObservationStream | None
) -> ObservationStream:
    """The track's labels over frames start..end, which must hold no gap."""
    clipped = stream.clip(start, end + 1) if stream is not None else None
    if clipped is None or clipped.covered_duration() != end + 1 - start:
        raise ValueError(
            f"missing label coverage for track {track_id!r} frames {start}..{end}"
        )
    return clipped


def extract_miniscenes(
    tracks: list[Track],
    labels: list[ObservationStream],
    params: AnalysisParams,
    meta: VideoMeta,
    out_w: int = DEFAULT_OUT_W,
    out_h: int = DEFAULT_OUT_H,
) -> list[MiniScene]:
    """Segment tracks, apply the minimum-length filter, attach labels.

    Tracks are split at detection gaps longer than
    params.max_track_gap_frames; each remaining segment is kept only if
    it spans at least params.min_miniscene_frames frames. The length
    filter runs after gap-splitting, so a long track interrupted by a
    large gap can lose its short remainder. labels hold at most one
    frame stream per track (ValueError otherwise).
    """
    by_track = streams_by_track(labels)
    scenes: list[MiniScene] = []
    with gc_paused():
        for track in tracks:
            if track.excluded or not track.frames:
                continue
            frames, x, y, w, h = track.frames, track.x, track.y, track.w, track.h
            for a, b in _split_segments(frames, params.max_track_gap_frames):
                start, end = frames[a], frames[b - 1]
                if end - start + 1 < params.min_miniscene_frames:
                    continue
                stream = _labels_for(track.track_id, start, end, by_track.get(track.track_id))
                # the scalar check on the first box raises the crop-size errors
                crop_window(x[a] + w[a] / 2.0, y[a] + h[a] / 2.0, out_w, out_h, meta)
                windows = _windows(
                    frames[a:b], x[a:b], y[a:b], w[a:b], h[a:b], out_w, out_h, meta
                )
                scenes.append(
                    MiniScene(track.track_id, start, end, out_w, out_h, windows, stream)
                )
    return scenes


def dump_miniscene_manifest(scenes: list[MiniScene]) -> str:
    """Manifest CSV, one row per maximal run of constant window center.

    Per-frame geometry is recovered exactly by expanding each row over
    its inclusive frame range; a stationary window costs one row.
    """
    with gc_paused():
        rows = chain.from_iterable(map(_manifest_rows, scenes))
        return csv_text(
            ["track_id", "start_frame", "end_frame", "cx", "cy", "out_w", "out_h"], rows
        )


def _manifest_rows(scene: MiniScene) -> Iterable[tuple]:
    """One scene's manifest rows: a row ends where the window centre moves or
    a frame is missing (frame - index changes)."""
    if not scene.windows:
        return ()
    frames, cx, cy = zip(*scene.windows)
    offsets = tuple(map(sub, frames, range(len(frames))))
    edges = sorted({*run_edges(cx), *run_edges(cy), *run_edges(offsets)})
    starts, stops = edges[:-1], edges[1:]
    return zip(
        repeat(scene.track_id),
        map(frames.__getitem__, starts),
        map(frames.__getitem__, map(sub, stops, repeat(1))),
        map(cx.__getitem__, starts),
        map(cy.__getitem__, starts),
        repeat(scene.out_w),
        repeat(scene.out_h),
    )
