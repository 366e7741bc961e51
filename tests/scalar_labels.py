"""Reference oracle: frame labels as their own stream type.

Before frame labels became :class:`ObservationStream`\\ s with a frame
rate, they were a ``LabelStream`` of inclusive, contiguous ``Segment``\\ s,
and every consumer branched on the type. This module keeps that type
and those branches, as ethokit had them, so the differential tests can
require the one-stream code to agree with them bit for bit.
``to_frames`` turns an oracle stream into the library's frame stream,
and ``joined`` the contiguous oracle streams of each track into that
track's one frame stream, with the gaps between them left unlabeled.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from ethokit import (
    CountMatrix,
    InteractionEvent,
    MiniScene,
    ObservationStream,
    TimeBudget,
    VideoMeta,
    Window,
    crop_window,
)
from ethokit.core import LABELS, TECHNICAL_CODES
from conftest import stream_from_intervals


class Segment(NamedTuple):
    """Run-length encoded behavior run over an inclusive frame range."""

    start_frame: int
    end_frame: int
    code: str


@dataclass(frozen=True)
class LabelStream:
    """Per-frame behavior codes for one track, contiguous and sorted."""

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
    def from_frames(cls, track_id: str, start_frame: int, codes) -> LabelStream:
        """Run-length encode an explicit per-frame code sequence."""
        from scalar_runs import runs  # scalar_runs imports this module

        return cls(
            track_id,
            tuple(Segment(start_frame + a, start_frame + b - 1, c) for a, b, c in runs(codes)),
        )


def to_frames(stream: LabelStream, fps: float) -> ObservationStream:
    """The library's frame stream holding the same frames."""
    intervals = tuple((s, e + 1, code) for s, e, code in stream.segments)
    return stream_from_intervals(stream.track_id, LABELS, intervals, fps=fps)


def joined(streams: list[LabelStream], fps: float) -> list[ObservationStream]:
    """One frame stream per track, holding the frames of its streams in order."""
    by_track: dict[str, list] = {}
    for stream in streams:
        by_track.setdefault(stream.track_id, []).extend(to_frames(stream, fps).intervals)
    return [stream_from_intervals(t, LABELS, tuple(ivs), fps=fps) for t, ivs in by_track.items()]


def _durations(stream: LabelStream, meta: VideoMeta) -> list[tuple[str, float]]:
    return [(seg.code, (seg.end_frame - seg.start_frame + 1) / meta.fps) for seg in stream.segments]


def time_budget_scalar(stream: LabelStream, meta: VideoMeta) -> TimeBudget:
    seconds: dict[str, float] = {}
    for code, dur in _durations(stream, meta):
        if code in TECHNICAL_CODES:
            continue
        seconds[code] = seconds.get(code, 0.0) + dur
    t_visible = sum(seconds.values())
    if t_visible <= 0:
        raise ValueError("no visible time in stream")
    return TimeBudget(seconds, t_visible)


def out_of_sight_fraction_scalar(stream: LabelStream, meta: VideoMeta) -> float:
    pairs = _durations(stream, meta)
    total = sum(dur for _, dur in pairs)
    if total <= 0:
        raise ValueError("empty stream")
    return sum(dur for code, dur in pairs if code in TECHNICAL_CODES) / total


def sample_codes_scalar(stream: LabelStream, delta_s: float, meta: VideoMeta):
    span_end = (stream.end_frame + 1) / meta.fps
    t0 = None
    for seg in stream.segments:
        if seg.code not in TECHNICAL_CODES:
            t0 = seg.start_frame / meta.fps
            break
    if t0 is None:
        return []
    samples = []
    k = 0
    while True:
        t = t0 + k * delta_s
        if t >= span_end:
            break
        code = stream.code_at(int(t * meta.fps))
        samples.append(None if code is None or code in TECHNICAL_CODES else code)
        k += 1
    return samples


def transition_matrix_scalar(
    streams: list[LabelStream], delta_s: float, codes, meta: VideoMeta
) -> CountMatrix:
    codes = tuple(codes)
    index = {code: i for i, code in enumerate(codes)}
    counts = [[0] * len(codes) for _ in codes]
    pairs = 0
    for stream in streams:
        samples = sample_codes_scalar(stream, delta_s, meta)
        for prev, cur in zip(samples, samples[1:]):
            if prev in index and cur in index:
                counts[index[prev]][index[cur]] += 1
                pairs += 1
    if pairs == 0:
        raise ValueError("no countable transition pairs")
    return CountMatrix(codes, tuple(tuple(row) for row in counts))


def gantt_lane_scalar(stream: LabelStream) -> list[tuple[float, float, str]]:
    """A label lane as the Gantt chart drew it: merged runs as float frame edges."""
    from scalar_runs import runs  # scalar_runs imports this module

    segs = stream.segments
    merged = [
        segs[a] if b - a == 1 else Segment(segs[a].start_frame, segs[b - 1].end_frame, code)
        for a, b, code in runs([seg.code for seg in segs])
    ]
    return [(float(s.start_frame), float(s.end_frame + 1), s.code) for s in merged]


def tag_interactions_scalar(events, labels: list[LabelStream]) -> list[InteractionEvent]:
    by_track: dict[str, list[LabelStream]] = {}
    for stream in labels:
        by_track.setdefault(stream.track_id, []).append(stream)

    def code_at(track_id: str, frame: int) -> str | None:
        for stream in by_track.get(track_id, []):
            code = stream.code_at(frame)
            if code is not None:
                return code
        return None

    tagged = []
    for event in events:
        tally: dict[tuple[str, str], int] = {}
        for frame in range(event.start_frame, event.end_frame + 1):
            ca = code_at(event.track_a, frame)
            cb = code_at(event.track_b, frame)
            if ca is None or cb is None:
                continue
            tally[(ca, cb)] = tally.get((ca, cb), 0) + 1
        tag = ""
        if tally:
            best = max(tally.values())
            pair = sorted(p for p, n in tally.items() if n == best)[0]
            tag = f"{pair[0]}|{pair[1]}"
        tagged.append(dataclasses.replace(event, tag=tag))
    return tagged


def labels_for_scalar(track_id: str, start: int, end: int, streams: list[LabelStream]):
    for stream in streams:
        if stream.track_id != track_id:
            continue
        if stream.start_frame <= start and stream.end_frame >= end:
            return stream.clip(start, end)
    raise ValueError(f"missing label coverage for track {track_id!r} frames {start}..{end}")


def _split_segments(track, max_gap: int) -> list[tuple]:
    """Split a track's box rows wherever more than max_gap frames are missing."""
    segments: list[list] = []
    for box in track.boxes:
        if segments and box.frame - segments[-1][-1].frame - 1 <= max_gap:
            segments[-1].append(box)
        else:
            segments.append([box])
    return [tuple(seg) for seg in segments]


def extract_miniscenes_scalar(tracks, labels: list[LabelStream], params, meta, out_w, out_h):
    """Scenes as before, with the label stream of each as an oracle LabelStream."""
    scenes = []
    for track in tracks:
        if track.excluded or not track.boxes:
            continue
        for segment in _split_segments(track, params.max_track_gap_frames):
            start, end = segment[0].frame, segment[-1].frame
            if end - start + 1 < params.min_miniscene_frames:
                continue
            stream = labels_for_scalar(track.track_id, start, end, labels)
            windows = []
            for box in segment:
                cx, cy = box.x + box.w / 2.0, box.y + box.h / 2.0
                windows.append(Window(box.frame, *crop_window(cx, cy, out_w, out_h, meta)))
            scenes.append(MiniScene(track.track_id, start, end, out_w, out_h, tuple(windows), stream))
    return scenes
