"""Reference oracle: the hand-written run loops that ``coalesce`` and ``runs`` replace.

Each function is one loop as ethokit wrote it before the run-length
primitives in ``ethokit.core``; the differential tests in
``test_runs.py`` require the library and these loops to agree exactly.
``union`` also serves the timeline tests as a span helper: unlike the
library, it sorts its input and merges overlapping spans.
"""

from __future__ import annotations

import csv
import io

from ethokit import ObservationStream, ObsInterval, VideoMeta
from ethokit.ethogram import TECHNICAL_CODES
from scalar_labels import LabelStream, Segment

Span = tuple[float, float]


def union(spans: list[Span]) -> list[Span]:
    merged: list[Span] = []
    for s, e in sorted(spans):
        if e <= s:
            continue
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def visible_spans_scalar(
    stream: ObservationStream, technical: frozenset[str] = TECHNICAL_CODES
) -> list[Span]:
    return union([(iv.start, iv.end) for iv in stream.intervals if iv.code not in technical])


def covered_intervals_scalar(stream: ObservationStream) -> list[Span]:
    merged: list[Span] = []
    for iv in stream.intervals:
        if merged and iv.start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], iv.end))
        else:
            merged.append((iv.start, iv.end))
    return merged


def map_labels_scalar(stream, mapping: dict[str, str]):
    if isinstance(stream, LabelStream):
        segments: list[Segment] = []
        for seg in stream.segments:
            code = mapping[seg.code]
            if (
                segments
                and segments[-1].code == code
                and seg.start_frame == segments[-1].end_frame + 1
            ):
                segments[-1] = Segment(segments[-1].start_frame, seg.end_frame, code)
            else:
                segments.append(Segment(seg.start_frame, seg.end_frame, code))
        return LabelStream(stream.track_id, tuple(segments))
    intervals: list[ObsInterval] = []
    for iv in stream.intervals:
        code = mapping[iv.code]
        if intervals and intervals[-1].code == code and intervals[-1].end == iv.start:
            intervals[-1] = ObsInterval(intervals[-1].start, iv.end, code)
        else:
            intervals.append(ObsInterval(iv.start, iv.end, code))
    return stream.replace_intervals(intervals)


def label_stream_to_observation_scalar(
    stream: LabelStream, meta: VideoMeta, method: str, clock_offset_s: float
) -> ObservationStream:
    intervals: list[ObsInterval] = []
    for seg in stream.segments:
        start = meta.frame_to_epoch(seg.start_frame) + clock_offset_s
        end = meta.frame_to_epoch(seg.end_frame + 1) + clock_offset_s
        if intervals and intervals[-1].code == seg.code and intervals[-1].end == start:
            intervals[-1] = ObsInterval(intervals[-1].start, end, seg.code)
        else:
            intervals.append(ObsInterval(start, end, seg.code))
    return ObservationStream(stream.track_id, method, tuple(intervals))


def gantt_segments_scalar(stream):
    if isinstance(stream, LabelStream):
        merged: list[Segment] = []
        for seg in stream.segments:
            if (
                merged
                and merged[-1].code == seg.code
                and seg.start_frame == merged[-1].end_frame + 1
            ):
                merged[-1] = Segment(merged[-1].start_frame, seg.end_frame, seg.code)
            else:
                merged.append(seg)
        return merged
    out: list[ObsInterval] = []
    for iv in stream.intervals:
        if out and out[-1].code == iv.code and out[-1].end == iv.start:
            out[-1] = ObsInterval(out[-1].start, iv.end, iv.code)
        else:
            out.append(iv)
    return out


def label_runs_scalar(track_id: str, labels: list[tuple[int, str]]) -> list[LabelStream]:
    runs: list[LabelStream] = []
    segments: list[Segment] = []
    for frame, code in labels:
        if segments and frame == segments[-1].end_frame + 1 and code == segments[-1].code:
            segments[-1] = Segment(segments[-1].start_frame, frame, code)
        elif segments and frame == segments[-1].end_frame + 1:
            segments.append(Segment(frame, frame, code))
        else:
            if segments:
                runs.append(LabelStream(track_id, tuple(segments)))
            segments = [Segment(frame, frame, code)]
    if segments:
        runs.append(LabelStream(track_id, tuple(segments)))
    return runs


def dump_miniscene_manifest_scalar(scenes) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["track_id", "start_frame", "end_frame", "cx", "cy", "out_w", "out_h"])
    for scene in scenes:
        run_start = None
        prev = None
        for window in scene.windows:
            if (
                run_start is not None
                and prev is not None
                and window.frame == prev.frame + 1
                and window.cx == prev.cx
                and window.cy == prev.cy
            ):
                prev = window
                continue
            if run_start is not None and prev is not None:
                _write_run(writer, scene, run_start, prev)
            run_start = prev = window
        if run_start is not None and prev is not None:
            _write_run(writer, scene, run_start, prev)
    return out.getvalue()


def _write_run(writer, scene, first, last) -> None:
    writer.writerow(
        [
            scene.track_id,
            first.frame,
            last.frame,
            repr(first.cx),
            repr(first.cy),
            scene.out_w,
            scene.out_h,
        ]
    )


def from_frames_scalar(track_id: str, start_frame: int, codes) -> LabelStream:
    segments: list[Segment] = []
    for i, code in enumerate(codes):
        frame = start_frame + i
        if segments and segments[-1].code == code and segments[-1].end_frame == frame - 1:
            segments[-1] = Segment(segments[-1].start_frame, frame, code)
        else:
            segments.append(Segment(frame, frame, code))
    return LabelStream(track_id, tuple(segments))


def index_runs_scalar(values) -> list[tuple[int, int, object]]:
    """The loop of ``SimWorld._code_runs`` and ``observe_focal``."""
    runs = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[start]:
            runs.append((start, k, values[start]))
            start = k
    return runs


def label_code_at_scalar(stream: LabelStream, frame: int) -> str | None:
    lo, hi = 0, len(stream.segments) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        seg = stream.segments[mid]
        if frame < seg.start_frame:
            hi = mid - 1
        elif frame > seg.end_frame:
            lo = mid + 1
        else:
            return seg.code
    return None
