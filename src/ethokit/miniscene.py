"""Crop-window geometry for per-animal video segments.

A mini-scene is a fixed-size window that follows one tracked animal
through a contiguous stretch of video. This module computes the window
geometry and applies the duration filter; it never touches pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DEFAULT_OUT_H,
    DEFAULT_OUT_W,
    AnalysisParams,
    ObservationStream,
    Track,
    VideoMeta,
    coalesce,
    csv_text,
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
    edges = [k for k in range(1, len(frames)) if frames[k] - frames[k - 1] - 1 > max_gap]
    edges = [0, *edges, len(frames)]
    return list(zip(edges, edges[1:]))


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
    for track in tracks:
        if track.excluded or not track.frames:
            continue
        frames, x, y, w, h = track.frames, track.x, track.y, track.w, track.h
        for a, b in _split_segments(frames, params.max_track_gap_frames):
            start, end = frames[a], frames[b - 1]
            if end - start + 1 < params.min_miniscene_frames:
                continue
            stream = _labels_for(track.track_id, start, end, by_track.get(track.track_id))
            windows = []
            for k in range(a, b):
                cx, cy = crop_window(x[k] + w[k] / 2.0, y[k] + h[k] / 2.0, out_w, out_h, meta)
                windows.append(Window(frames[k], cx, cy))
            scenes.append(
                MiniScene(track.track_id, start, end, out_w, out_h, tuple(windows), stream)
            )
    return scenes


def dump_miniscene_manifest(scenes: list[MiniScene]) -> str:
    """Manifest CSV, one row per maximal run of constant window center.

    Per-frame geometry is recovered exactly by expanding each row over
    its inclusive frame range; a stationary window costs one row.
    """
    rows = []
    for scene in scenes:
        cells = ((w.frame, w.frame + 1, (w.cx, w.cy)) for w in scene.windows)
        for start, end, (cx, cy) in coalesce(cells):
            rows.append([scene.track_id, start, end - 1, cx, cy, scene.out_w, scene.out_h])
    return csv_text(["track_id", "start_frame", "end_frame", "cx", "cy", "out_w", "out_h"], rows)
