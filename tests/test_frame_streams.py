"""Frame label streams against the old label-stream branches, bit for bit.

Each test draws contiguous inclusive segment lists as oracle
``LabelStream``\\ s (``scalar_labels``), runs the library on the same
frames as an :class:`ObservationStream` with a frame rate, and requires
the result to equal what the old branch computed. The frame rates
include 1 fps, where a frame stream's bounds and its seconds are the
same numbers: it must still be read as frames.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    AnalysisParams,
    InteractionEvent,
    Track,
    VideoMeta,
    dump_miniscene_manifest,
    extract_miniscenes,
    gantt_svg,
    label_stream_to_observation,
    map_labels,
    out_of_sight_fraction,
    tag_interactions,
    time_budget,
    transition_matrix,
)
from conftest import T0, make_track, stream_from_intervals, track_from_boxes
from scalar_labels import (
    LabelStream,
    Segment,
    extract_miniscenes_scalar,
    gantt_lane_scalar,
    joined,
    out_of_sight_fraction_scalar,
    tag_interactions_scalar,
    time_budget_scalar,
    to_frames,
    transition_matrix_scalar,
)
from scalar_runs import (
    dump_miniscene_manifest_scalar,
    label_stream_to_observation_scalar,
    map_labels_scalar,
)

CODES = ("G", "W", "R", "OOS")
FPS = st.sampled_from([1.0, 25.0, 29.97, 30.0])
MAPPINGS = st.fixed_dictionaries({c: st.sampled_from(("G", "W", "OOS")) for c in CODES})


def video(fps: float) -> VideoMeta:
    return VideoMeta("s", 1920, 1080, T0, fps)


@st.composite
def label_streams(draw, track_id: str = "t1", start: int | None = None):
    """1-20 contiguous segments of 1-40 frames, equal codes side by side allowed."""
    parts = draw(
        st.lists(st.tuples(st.integers(1, 40), st.sampled_from(CODES)), min_size=1, max_size=20)
    )
    frame = draw(st.integers(0, 300)) if start is None else start
    segments = []
    for length, code in parts:
        segments.append(Segment(frame, frame + length - 1, code))
        frame += length
    return LabelStream(track_id, tuple(segments))


@st.composite
def gappy_labels(draw, track_ids=("a", "b")):
    """Per track, contiguous oracle streams separated by gaps of 1-5 frames.

    The library gets them through ``joined``: one frame stream per track
    with the gaps inside it.
    """
    streams = []
    for track_id in track_ids:
        frame = draw(st.integers(0, 20))
        for _ in range(draw(st.integers(0, 3))):
            stream = draw(label_streams(track_id, start=frame))
            streams.append(stream)
            frame = stream.end_frame + 1 + draw(st.integers(1, 5))
    return streams


def _outcome(fn, *args):
    """fn's value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestMetrics:
    @given(label_streams(), FPS)
    @settings(max_examples=300, deadline=None)
    def test_time_budget(self, stream, fps):
        got = _outcome(time_budget, to_frames(stream, fps))
        want = _outcome(time_budget_scalar, stream, video(fps))
        if isinstance(want, str):
            assert got == want
        else:
            assert dict(got.seconds) == dict(want.seconds)
            assert got.t_visible == want.t_visible

    @given(label_streams(), FPS)
    @settings(max_examples=300, deadline=None)
    def test_out_of_sight_fraction(self, stream, fps):
        got = _outcome(out_of_sight_fraction, to_frames(stream, fps))
        assert got == _outcome(out_of_sight_fraction_scalar, stream, video(fps))

    @given(
        st.lists(label_streams(), min_size=1, max_size=3),
        FPS,
        st.sampled_from([0.1, 0.5, 1.0, 2.0, 10 / 3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_transition_matrix(self, streams, fps, delta):
        codes = ("G", "R", "W")
        got = _outcome(transition_matrix, [to_frames(s, fps) for s in streams], delta, codes)
        assert got == _outcome(transition_matrix_scalar, streams, delta, codes, video(fps))


class TestTimeline:
    @given(label_streams(), MAPPINGS, FPS)
    @settings(max_examples=300, deadline=None)
    def test_map_labels(self, stream, mapping, fps):
        got = map_labels(to_frames(stream, fps), mapping)
        assert got == to_frames(map_labels_scalar(stream, mapping), fps)

    @given(label_streams(), FPS, st.sampled_from([0.0, -1.5, 0.1, 3600.25]))
    @settings(max_examples=300, deadline=None)
    def test_label_stream_to_observation(self, stream, fps, offset):
        got = label_stream_to_observation(
            to_frames(stream, fps), video(fps), "ml_auto", clock_offset_s=offset
        )
        assert got == label_stream_to_observation_scalar(stream, video(fps), "ml_auto", offset)


class TestGantt:
    @given(st.lists(label_streams(), min_size=1, max_size=3), FPS)
    @settings(max_examples=200, deadline=None)
    def test_gantt_svg(self, streams, fps):
        got = gantt_svg([(f"lane{i}", to_frames(s, fps)) for i, s in enumerate(streams)])
        # the old chart drew each label lane as float frame edges
        lanes = [
            (f"lane{i}", stream_from_intervals(f"lane{i}", "labels", gantt_lane_scalar(s)))
            for i, s in enumerate(streams)
        ]
        assert got == gantt_svg(lanes)


class TestSocial:
    @given(
        gappy_labels(),
        st.lists(st.tuples(st.integers(0, 400), st.integers(0, 60)), max_size=5),
        FPS,
    )
    @settings(max_examples=300, deadline=None)
    def test_tag_interactions(self, labels, spans, fps):
        events = [
            InteractionEvent("a", "b", "giraffe", "giraffe", start, start + length, 0.75)
            for start, length in spans
        ]
        got = tag_interactions(events, joined(labels, fps))
        assert got == tag_interactions_scalar(events, labels)


# Box corners for a 60x40 box in a 1920x1080 frame: the centres include 0
# and the frame's width and height exactly; BAD_* put a centre out of bounds.
GOOD_X = (-30.0, 0.0, 500.0, 500.5, 1860.0, 1890.0)
GOOD_Y = (-20.0, 400.0, 400.25, 1060.0)
BAD_X = (-30.5, 1890.5, math.nan, math.inf, -math.inf)
BAD_Y = (-20.5, 1060.5, math.nan, math.inf)
# the crop sizes include the whole frame, and two the scalar check refuses
CROPS = st.sampled_from([(400, 300), (1920, 1080), (1920, 300), (2000, 300), (400, 0)])


@st.composite
def miniscene_case(draw) -> tuple[list[LabelStream], Track]:
    """gappy_labels, and track "a": 1-120 frames, 1-5 apart (at the test's max
    gap of 3 frames a step of 5 splits a segment), inside its longest label
    stream if it has one, so that segments find their labels. Each box is
    drawn from GOOD_*; sometimes one box anywhere is moved out of bounds."""
    labels = draw(gappy_labels())
    own = [stream for stream in labels if stream.track_id == "a"]
    if own:
        longest = max(own, key=lambda stream: stream.n_frames)
        lo, hi = longest.start_frame, longest.end_frame
    else:
        lo, hi = 0, 400
    frame, frames = draw(st.integers(lo, min(lo + 10, hi))), []
    for step in draw(st.lists(st.integers(1, 5), min_size=8, max_size=120)):
        if frame > hi:
            break
        frames.append(frame)
        frame += step
    xs = draw(st.lists(st.sampled_from(GOOD_X), min_size=len(frames), max_size=len(frames)))
    ys = draw(st.lists(st.sampled_from(GOOD_Y), min_size=len(frames), max_size=len(frames)))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(frames) - 1))
        column, bad = draw(st.sampled_from([(xs, BAD_X), (ys, BAD_Y)]))
        column[k] = draw(st.sampled_from(bad))
    boxes = [(f, x, y, 60.0, 40.0) for f, x, y in zip(frames, xs, ys)]
    return labels, track_from_boxes("a", "grevys_zebra", boxes)


class TestMiniscenes:
    @given(miniscene_case(), FPS, CROPS)
    @settings(max_examples=500, deadline=None)
    def test_extract_miniscenes(self, case, fps, crop):
        labels, track_a = case
        params = AnalysisParams(min_miniscene_frames=5, max_track_gap_frames=3)
        meta = video(fps)
        frame_labels = joined(labels, fps)
        # one track at a time, so a coverage error on one leaves the other compared
        for track in (track_a, make_track("b", frames=range(5, 60))):
            got = _outcome(extract_miniscenes, [track], frame_labels, params, meta, *crop)
            want = _outcome(extract_miniscenes_scalar, [track], labels, params, meta, *crop)
            if isinstance(want, str):
                assert got == want
                continue
            assert len(got) == len(want)
            for new, old in zip(got, want):
                assert new.labels == to_frames(old.labels, fps)
                assert (new.track_id, new.start_frame, new.end_frame, new.windows) == (
                    old.track_id, old.start_frame, old.end_frame, old.windows
                )
            assert dump_miniscene_manifest(got) == dump_miniscene_manifest_scalar(want)


@pytest.mark.parametrize("fps", [1.0, 30.0])
def test_one_fps_is_still_frames(fps):
    # at 1 fps, frame 10 and second 10 are the same number; the stream's
    # fps field, not the magnitude of its bounds, says which it is
    stream = to_frames(LabelStream("t1", (Segment(0, 9, "G"), Segment(10, 19, "W"))), fps)
    assert time_budget(stream).t_visible == 20 / fps
    observed = label_stream_to_observation(stream, video(fps), "ml_auto")
    assert observed.span == (T0.timestamp(), T0.timestamp() + 20 / fps)
