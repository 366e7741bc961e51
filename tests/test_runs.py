"""Run-length primitives against the loops they replace: ``coalesce`` and ``runs``, kept
as oracles in ``scalar_runs``, and the library's runs over columns."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ethokit import (
    CvatImportWarning,
    ObsInterval,
    ParseError,
    VideoMeta,
    dump_miniscene_manifest,
    label_stream_to_observation,
    map_labels,
)
from ethokit.core import touching_runs
from ethokit.ingest import import_cvat_video_xml
from ethokit.miniscene import MiniScene, Window
from ethokit.timeline import _visible_spans
from conftest import T0, cvat_document, make_labels, obs
from scalar_labels import LabelStream, Segment, joined, to_frames
from scalar_runs import (
    coalesce,
    covered_intervals_scalar,
    dump_miniscene_manifest_scalar,
    from_frames_scalar,
    gantt_segments_scalar,
    index_runs_scalar,
    label_code_at_scalar,
    label_runs_scalar,
    label_stream_to_observation_scalar,
    map_labels_scalar,
    runs,
    visible_spans_scalar,
)

CODES = ("G", "W", "R", "OOS")
META_25 = VideoMeta("s", 1920, 1080, T0, 25.0)
META_30 = VideoMeta("s", 1920, 1080, T0, 30.0)
MAPPINGS = st.fixed_dictionaries({c: st.sampled_from(("G", "W", "OOS")) for c in CODES})


def _import_cvat(document: str, meta: VideoMeta):
    """Import a one-track document; a track without boxes is skipped with a warning."""
    if "<box " in document:
        return import_cvat_video_xml(document, meta)
    with pytest.warns(CvatImportWarning, match="skipping track t1: no visible box"):
        return import_cvat_video_xml(document, meta)


@st.composite
def obs_streams(draw):
    """Half-second grid: instants at equal times, touching intervals, gaps,
    and equal codes on both sides of a gap."""
    parts = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from(CODES)), max_size=25
        )
    )
    t, triples = 0, []
    for gap, length, code in parts:
        t += gap
        triples.append((t / 2, (t + length) / 2, code))
        t += length
    return obs("z1", "ground_focal", *triples)


@st.composite
def label_streams(draw):
    """Contiguous segments, with equal codes side by side."""
    parts = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(CODES)), max_size=25))
    frame = draw(st.integers(0, 50))
    segments = []
    for length, code in parts:
        segments.append(Segment(frame, frame + length - 1, code))
        frame += length
    return LabelStream("t1", tuple(segments))


class TestCoalesce:
    def test_merges_touching_equal_codes_only(self):
        items = [(0, 1, "G"), (1, 2, "G"), (3, 4, "G"), (4, 4, "W"), (4, 6, "W"), (6, 7, "G")]
        assert coalesce(items) == [(0, 2, "G"), (3, 4, "G"), (4, 6, "W"), (6, 7, "G")]

    def test_instants_at_one_time_merge(self):
        items = [ObsInterval(5, 5, "G"), ObsInterval(5, 5, "G"), ObsInterval(5, 5, "W")]
        assert coalesce(items) == [(5, 5, "G"), (5, 5, "W")]

    @given(obs_streams())
    @settings(max_examples=300, deadline=None)
    def test_touching_runs_merges_the_same(self, stream):
        got = touching_runs(stream.starts, stream.ends, stream.codes)
        want = [list(column) for column in zip(*coalesce(stream.intervals))] or [[], [], []]
        assert repr(list(got)) == repr(want)

    def test_unmerged_items_kept_as_given(self):
        a, b = ObsInterval(0, 1, "G"), ObsInterval(2, 3, "G")
        out = coalesce([a, b])
        assert out[0] is a and out[1] is b

    @given(obs_streams())
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, stream):
        once = coalesce(stream.intervals)
        assert coalesce(once) == once
        assert sum(e - s for s, e, _ in once) == stream.covered_duration()


class TestRuns:
    def test_empty_and_single(self):
        assert runs([]) == []
        assert runs("aab") == [(0, 2, "a"), (2, 3, "b")]

    @given(st.lists(st.integers(0, 3), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_matches_index_loop(self, values):
        assert runs(values) == index_runs_scalar(values)
        assert [v for a, b, v in runs(values) for _ in range(a, b)] == values

    @given(st.lists(st.sampled_from(CODES), max_size=60), st.integers(0, 1000))
    @settings(max_examples=300, deadline=None)
    def test_from_frames_matches_loop(self, codes, start):
        # one run of per-frame codes, as a CVAT export holds them
        _, got = _import_cvat(cvat_document(enumerate(codes, start)), META_25)
        assert got == ([to_frames(from_frames_scalar("t1", start, codes), 25.0)] if codes else [])


class TestObservationStreamRuns:
    @given(obs_streams())
    @settings(max_examples=300, deadline=None)
    def test_covered_intervals(self, stream):
        assert stream.covered_intervals() == covered_intervals_scalar(stream)

    @given(obs_streams())
    @settings(max_examples=300, deadline=None)
    def test_visible_spans(self, stream):
        assert _visible_spans(stream) == visible_spans_scalar(stream)

    @given(obs_streams(), MAPPINGS)
    @settings(max_examples=300, deadline=None)
    def test_map_labels(self, stream, mapping):
        assert map_labels(stream, mapping) == map_labels_scalar(stream, mapping)

    @given(obs_streams())
    @settings(max_examples=300, deadline=None)
    def test_gantt_segments(self, stream):
        assert coalesce(stream.intervals) == gantt_segments_scalar(stream)


class TestLabelStreamRuns:
    """Frame streams against the loops over the old inclusive segments."""

    @given(label_streams(), MAPPINGS)
    @settings(max_examples=300, deadline=None)
    def test_map_labels(self, stream, mapping):
        got = map_labels(to_frames(stream, 30.0), mapping)
        assert got == to_frames(map_labels_scalar(stream, mapping), 30.0)

    @given(label_streams())
    @settings(max_examples=300, deadline=None)
    def test_gantt_segments(self, stream):
        got = coalesce(to_frames(stream, 30.0).intervals)
        assert got == [(s, e + 1, code) for s, e, code in gantt_segments_scalar(stream)]

    @given(
        label_streams().filter(lambda s: s.segments),
        st.sampled_from([30.0, 29.97, 25.0, 7.0]),
        st.sampled_from([0.0, -1.5, 0.1, 3600.25]),
    )
    @settings(max_examples=300, deadline=None)
    def test_label_stream_to_observation(self, stream, fps, offset):
        meta = VideoMeta("s", 1920, 1080, datetime(2023, 6, 1, 8, 30, tzinfo=timezone.utc), fps)
        got = label_stream_to_observation(
            to_frames(stream, fps), meta, "ml_auto", clock_offset_s=offset
        )
        assert got == label_stream_to_observation_scalar(stream, meta, "ml_auto", offset)

    @given(label_streams())
    @settings(max_examples=300, deadline=None)
    def test_code_at(self, stream):
        frames = to_frames(stream, 30.0)
        lo = stream.start_frame - 2 if stream.segments else 0
        hi = stream.end_frame + 3 if stream.segments else 3
        for frame in range(lo, hi):
            assert frames.code_at(frame) == label_code_at_scalar(stream, frame)

    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(CODES)), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_label_runs(self, steps):
        # step 0 repeats a frame, 1 continues, 2 leaves a gap
        frame, labels = 0, []
        for step, code in steps:
            frame += step
            labels.append((frame, code))
        document = cvat_document(labels)
        if len({f for f, _ in labels}) < len(labels):
            with pytest.raises(ParseError, match="repeats frame"):
                import_cvat_video_xml(document, META_30)
            return
        # the runs of one track join into its one stream, gaps unlabeled
        _, got = _import_cvat(document, META_30)
        assert got == joined(label_runs_scalar("t1", labels), 30.0)


class TestTrackAndManifestRuns:
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(1, 4),  # above 1 leaves a detection gap
                    st.sampled_from([200.0, 200.5]),
                    st.sampled_from([150.0, 151.0]),
                ),
                min_size=1,
                max_size=30,
            ),
            max_size=3,
        )
    )
    # one centre throughout: rows break only where a frame is missing
    @example([[(1, 200.0, 150.0), (1, 200.0, 150.0), (3, 200.0, 150.0), (1, 200.0, 150.0)]])
    @settings(max_examples=300, deadline=None)
    def test_manifest(self, scene_steps):
        scenes = []
        for n, steps in enumerate(scene_steps):
            frame, windows = 0, []
            for step, cx, cy in steps:
                frame += step
                windows.append(Window(frame, cx, cy))
            labels = make_labels(windows[0].frame, frame, "G", track_id=f"t{n}")
            scenes.append(
                MiniScene(f"t{n}", windows[0].frame, frame, 400, 300, tuple(windows), labels)
            )
        assert dump_miniscene_manifest(scenes) == dump_miniscene_manifest_scalar(scenes)

