"""Proximity interactions and species-pair overlap normalization."""

from __future__ import annotations

import dataclasses
import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    AnalysisParams,
    InteractionEvent,
    OverlapMatrix,
    demo_config,
    detect_interactions,
    dump_interaction_events,
    dump_overlap_matrix,
    overlap_summary,
    simulate,
    tag_interactions,
)
from ethokit import social
from ethokit.core import BoundingBox
from conftest import make_labels, track_from_boxes
from scalar_social import detect_interactions_scalar, overlap_ratio


def offset_pair(offsets, species_b="grevys_zebra"):
    """Two 10x10 tracks where track b sits offsets[f] pixels right of a.

    min-area ratio on frame f is 1 - offsets[f]/10 for offsets in [0, 10].
    """
    a = track_from_boxes("a", "grevys_zebra", [(f, 50.0, 50.0, 10.0, 10.0)
                                               for f in range(len(offsets))])
    b = track_from_boxes("b", species_b, [(f, 50.0 + off, 50.0, 10.0, 10.0)
                                          for f, off in enumerate(offsets)])
    return [a, b]


def event(a="a", b="b", sa="grevys_zebra", sb="grevys_zebra", start=0, end=9, ratio=0.9):
    return InteractionEvent(a, b, sa, sb, start, end, ratio)


class TestOverlapRatio:
    """The scalar per-frame ratio the detector is checked against."""

    def test_identical_boxes(self):
        box = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        assert overlap_ratio(box, box) == 1.0

    def test_disjoint_boxes(self):
        a = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(0, 50.0, 0.0, 10.0, 10.0)
        assert overlap_ratio(a, b) == 0.0

    def test_half_covered(self):
        a = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(0, 5.0, 0.0, 10.0, 10.0)
        assert overlap_ratio(a, b) == 0.5

    def test_min_area_uses_smaller_box(self):
        small = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        large = BoundingBox(0, 0.0, 0.0, 40.0, 40.0)
        assert overlap_ratio(small, large) == 1.0

    def test_iou_variant(self):
        a = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(0, 5.0, 0.0, 10.0, 10.0)
        assert overlap_ratio(a, b, metric="iou") == pytest.approx(50 / 150)

    def test_frame_mismatch_rejected(self):
        a = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(1, 0.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="frames"):
            overlap_ratio(a, b)

    def test_unknown_metric_rejected(self):
        box = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="metric"):
            overlap_ratio(box, box, metric="dice")

    @given(
        ax=st.floats(0, 100, allow_nan=False),
        bx=st.floats(0, 100, allow_nan=False),
        w=st.floats(1, 50, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_bounded_and_symmetric(self, ax, bx, w):
        a = BoundingBox(0, ax, 0.0, w, 10.0)
        b = BoundingBox(0, bx, 0.0, 12.0, 9.0)
        for metric in ("min_area", "iou"):
            r = overlap_ratio(a, b, metric)
            assert 0.0 <= r <= 1.0
            assert r == overlap_ratio(b, a, metric)

    @pytest.mark.parametrize(
        "bad",
        [
            BoundingBox(0, math.nan, 0.0, 10.0, 10.0),
            BoundingBox(0, 0.0, math.nan, 10.0, 10.0),
            BoundingBox(0, 0.0, 0.0, 10.0, math.nan),
            BoundingBox(0, 0.0, 0.0, math.inf, 10.0),
            BoundingBox(0, -math.inf, 0.0, math.inf, 10.0),  # right edge NaN
        ],
    )
    def test_non_finite_box_overlaps_nothing(self, bad):
        box = BoundingBox(0, 0.0, 0.0, 10.0, 10.0)
        for metric in ("min_area", "iou"):
            assert overlap_ratio(bad, box, metric) == 0.0
            assert overlap_ratio(box, bad, metric) == 0.0
            params = AnalysisParams(
                overlap_ratio_threshold=0.01, min_overlap_frames=1, overlap_metric=metric
            )
            pair = [
                track_from_boxes("a", "giraffe", [bad]), track_from_boxes("b", "giraffe", [box])
            ]
            assert detect_interactions(pair, params) == []

    def test_area_beyond_float_range_overlaps_nothing(self):
        huge = BoundingBox(0, 0.0, 0.0, 1e200, 1e200)
        assert overlap_ratio(huge, huge) == 0.0

    @pytest.mark.parametrize("metric", ["min_area", "iou"])
    def test_area_that_underflows_caps_the_ratio(self, metric):
        # x + w rounds up to x plus one ulp, so the intersection (one ulp
        # squared, the least subnormal) exceeds the area, which rounds to 0
        x, w = 2.0**-485, 0.6 * 2.0**-537
        tiny, big = BoundingBox(0, x, x, w, w), BoundingBox(0, x, x, 1.0, 1.0)
        assert tiny.w * tiny.h == 0.0
        expected = 1.0 if metric == "min_area" else 2.0**-1074  # inter over the union, 1.0
        assert overlap_ratio(tiny, big, metric) == overlap_ratio(big, tiny, metric) == expected
        params = AnalysisParams(min_overlap_frames=1, overlap_metric=metric)
        pair = [track_from_boxes("a", "giraffe", [tiny]), track_from_boxes("b", "giraffe", [big])]
        got = detect_interactions(pair, params)
        assert got == detect_interactions_scalar(pair, params)
        assert [e.mean_ratio for e in got] == ([1.0] if metric == "min_area" else [])


class TestDetectInteractions:
    def test_identical_tracks_one_event(self):
        events = detect_interactions(offset_pair([0.0] * 10))
        assert len(events) == 1
        assert events[0].frame_count == 10
        assert events[0].mean_ratio == 1.0
        assert (events[0].track_a, events[0].track_b) == ("a", "b")

    def test_exact_threshold_excluded(self):
        events = detect_interactions(offset_pair([5.0] * 10))
        assert events == []

    def test_three_frames_below_default_minimum(self):
        offsets = [2.0, 2.0, 2.0] + [9.0] * 7
        assert detect_interactions(offset_pair(offsets)) == []
        relaxed = AnalysisParams(min_overlap_frames=3)
        events = detect_interactions(offset_pair(offsets), relaxed)
        assert len(events) == 1
        assert (events[0].start_frame, events[0].end_frame) == (0, 2)

    def test_dip_splits_runs(self):
        offsets = [1.0] * 5 + [8.0] + [1.0] * 5
        events = detect_interactions(offset_pair(offsets))
        assert [(e.start_frame, e.end_frame) for e in events] == [(0, 4), (6, 10)]

    def test_missing_frames_break_contiguity(self):
        a = track_from_boxes("a", "grevys_zebra",
                             [(f, 0.0, 0.0, 10.0, 10.0) for f in range(12) if f != 5])
        b = track_from_boxes("b", "grevys_zebra",
                             [(f, 1.0, 0.0, 10.0, 10.0) for f in range(12) if f != 5])
        events = detect_interactions([a, b])
        assert [(e.start_frame, e.end_frame) for e in events] == [(0, 4), (6, 11)]

    def test_input_order_irrelevant(self):
        tracks = offset_pair([0.0] * 10)
        assert detect_interactions(tracks) == detect_interactions(tracks[::-1])

    def test_excluded_tracks_ignored(self):
        a, b = offset_pair([0.0] * 10)
        a = dataclasses.replace(a, excluded=True)
        assert detect_interactions([a, b]) == []

    def test_mean_ratio_averages_run(self):
        events = detect_interactions(offset_pair([0.0, 2.0, 4.0, 2.0]))
        assert events[0].mean_ratio == pytest.approx((1.0 + 0.8 + 0.6 + 0.8) / 4)

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_raising_threshold_never_adds_frames(self, offsets):
        tracks = offset_pair(offsets)
        low = detect_interactions(tracks, AnalysisParams(overlap_ratio_threshold=0.4))
        high = detect_interactions(tracks, AnalysisParams(overlap_ratio_threshold=0.6))
        assert sum(e.frame_count for e in high) <= sum(e.frame_count for e in low)

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_raising_min_frames_never_adds_events(self, offsets):
        tracks = offset_pair(offsets)
        short = detect_interactions(tracks, AnalysisParams(min_overlap_frames=3))
        long = detect_interactions(tracks, AnalysisParams(min_overlap_frames=6))
        assert len(long) <= len(short)
        assert sum(e.frame_count for e in long) <= sum(e.frame_count for e in short)

    def test_duplicate_track_ids_rejected(self):
        a, b = offset_pair([0.0] * 10)
        with pytest.raises(ValueError, match="duplicate track id 'a'"):
            detect_interactions([a, dataclasses.replace(b, track_id="a")])

    def test_repeated_frame_rejected(self):
        # such a track cannot be built, so it never reaches the detector
        a, _ = offset_pair([0.0] * 6)
        boxes = a.boxes[:3] + ((2, 80.0, 50.0, 10.0, 10.0),) + a.boxes[3:]
        with pytest.raises(ValueError, match="'a': frames not strictly increasing"):
            track_from_boxes("a", a.species, boxes)

    def test_empty_tracks_skipped(self):
        tracks = offset_pair([0.0] * 10) + [track_from_boxes("c", "giraffe", [])]
        assert detect_interactions(tracks) == detect_interactions(tracks[:2])


SPECIES = ("grevys_zebra", "plains_zebra", "giraffe")
# coarse grids make exact ties with the threshold (and exact 1.0 ratios) common
COORD = st.one_of(st.sampled_from([0.0, 2.5, 5.0, 7.5, 10.0]), st.floats(0, 12))
SIZE = st.one_of(st.sampled_from([5.0, 10.0]), st.floats(1, 15))
JITTER = st.one_of(st.sampled_from([0.0, 2.5, -2.5]), st.floats(-3, 3))
# any float, NaN and infinities included, with extents and areas that overflow
WILD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-170]), st.floats()
)


@st.composite
def box_tracks(draw):
    """2-4 tracks within frames 0-24, each missing a random subset of frames.

    Each box jitters around its track's home position, so that pairs
    overlap over runs of frames, not on isolated frames only.
    """
    ids = draw(st.permutations(["a", "b", "c", "d"]))[: draw(st.integers(2, 4))]
    tracks = []
    for track_id in ids:
        missing = draw(st.sets(st.integers(0, 24), max_size=12))
        frames = [f for f in range(draw(st.integers(0, 8)), 25) if f not in missing]
        x, y, w, h = draw(COORD), draw(COORD), draw(SIZE), draw(SIZE)
        boxes = [(f, x + draw(JITTER), y + draw(JITTER), w, h) for f in frames]
        excluded = draw(st.integers(0, 5)) == 0
        tracks.append(track_from_boxes(track_id, draw(st.sampled_from(SPECIES)), boxes, excluded))
    return tracks


class TestDetectInteractionsMatchesScalarOracle:
    @given(
        tracks=box_tracks(),
        metric=st.sampled_from(["min_area", "iou"]),
        threshold=st.one_of(
            st.sampled_from([0.25, 0.5, 0.75]),
            st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        min_frames=st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_boxes(self, tracks, metric, threshold, min_frames):
        params = AnalysisParams(
            overlap_ratio_threshold=threshold, min_overlap_frames=min_frames, overlap_metric=metric
        )
        expected = detect_interactions_scalar(tracks, params)
        got = detect_interactions(tracks, params)
        assert dump_interaction_events(got) == dump_interaction_events(expected)
        assert got == expected

    @given(
        tracks=box_tracks(),
        edits=st.lists(
            st.tuples(st.integers(0, 99), st.sampled_from("xywh"), WILD), min_size=1, max_size=8
        ),
        metric=st.sampled_from(["min_area", "iou"]),
        threshold=st.sampled_from([0.01, 0.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_non_finite_and_extreme_coordinates(self, tracks, edits, metric, threshold):
        boxes = [list(t.boxes) for t in tracks]
        slots = [(i, j) for i, track in enumerate(boxes) for j in range(len(track))]
        for k, field, value in edits:
            if slots:
                i, j = slots[k % len(slots)]
                boxes[i][j] = boxes[i][j]._replace(**{field: value})
        tracks = [
            track_from_boxes(t.track_id, t.species, b, t.excluded) for t, b in zip(tracks, boxes)
        ]
        params = AnalysisParams(
            overlap_ratio_threshold=threshold, min_overlap_frames=1, overlap_metric=metric
        )
        expected = detect_interactions_scalar(tracks, params)
        assert dump_interaction_events(detect_interactions(tracks, params)) == (
            dump_interaction_events(expected)
        )

    @pytest.mark.parametrize("metric", ["min_area", "iou"])
    def test_simulated_herd(self, metric):
        cfg = dataclasses.replace(
            demo_config(5, 12, 60.0), arena_w_m=20.0, arena_h_m=15.0, px_per_m=13.5
        )
        tracks = simulate(cfg).tracks()
        params = AnalysisParams(overlap_ratio_threshold=0.3, overlap_metric=metric)
        expected = detect_interactions_scalar(tracks, params)
        assert expected  # the small arena makes the herd overlap
        assert dump_interaction_events(detect_interactions(tracks, params)) == (
            dump_interaction_events(expected)
        )


# home positions close enough that most pairs overlap
NEAR = st.one_of(st.sampled_from([0.0, 2.5, 5.0]), st.floats(0, 6))
# frames on either side of a window edge, for windows of 7 and of 32 frames
WINDOW_EDGES = sorted({m * k + d for m in (7, 32) for k in range(-6, 11) for d in (-1, 0)})


@st.composite
def windowed_tracks(draw):
    """2-4 tracks over frames -40 to 69, several windows long, with gaps that
    often sit at a window edge and some boxes set to WILD values."""
    ids = draw(st.permutations(["a", "b", "c", "d"]))[: draw(st.integers(2, 4))]
    tracks = []
    for track_id in ids:
        first = draw(st.integers(-40, 20))
        last = draw(st.integers(max(first, 0), 69))
        gap = st.one_of(st.integers(first, last), st.sampled_from(WINDOW_EDGES))
        missing = draw(st.sets(gap, max_size=15))
        x, y, w, h = draw(NEAR), draw(NEAR), draw(SIZE), draw(SIZE)
        jitter = draw(st.lists(JITTER, min_size=1, max_size=9))
        boxes = [
            [f, x + jitter[f % len(jitter)], y + jitter[-f % len(jitter)], w, h]
            for f in range(first, last + 1) if f not in missing
        ]
        for k, column, value in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(1, 4),
                                                        WILD), max_size=3)):
            if boxes:
                boxes[k % len(boxes)][column] = value
        excluded = draw(st.integers(0, 7)) == 0
        tracks.append(track_from_boxes(track_id, draw(st.sampled_from(SPECIES)), boxes, excluded))
    return tracks


class TestDetectionWindows:
    """Runs that cross the broad phase's window edges, for several window widths."""

    @pytest.mark.parametrize("window", sorted({1, 2, 7, social._WINDOW, 10**9}))
    @given(
        tracks=windowed_tracks(),
        metric=st.sampled_from(["min_area", "iou"]),
        threshold=st.sampled_from([0.01, 0.25, 0.5, 0.75]),
        min_frames=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, window, tracks, metric, threshold, min_frames):
        params = AnalysisParams(
            overlap_ratio_threshold=threshold, min_overlap_frames=min_frames, overlap_metric=metric
        )
        expected = detect_interactions_scalar(tracks, params)
        with patch.object(social, "_WINDOW", window):
            got = detect_interactions(tracks, params)
        assert dump_interaction_events(got) == dump_interaction_events(expected)


class TestTagInteractions:
    def test_modal_code_pair(self):
        events = [event(start=0, end=9)]
        labels = [
            make_labels(0, 9, "G", track_id="a"),
            make_labels(0, 3, "W", 4, 9, "G", track_id="b"),
        ]
        (tagged,) = tag_interactions(events, labels)
        assert tagged.tag == "G|G"

    def test_tie_prefers_lexicographic(self):
        events = [event(start=0, end=9)]
        labels = [
            make_labels(0, 9, "G", track_id="a"),
            make_labels(0, 4, "W", 5, 9, "A", track_id="b"),
        ]
        (tagged,) = tag_interactions(events, labels)
        assert tagged.tag == "G|A"

    def test_unlabeled_event_keeps_empty_tag(self):
        (tagged,) = tag_interactions([event()], [])
        assert tagged.tag == ""

    def test_two_streams_for_one_track_rejected(self):
        labels = [make_labels(0, 4, "G", track_id="b"), make_labels(6, 9, "W", track_id="b")]
        with pytest.raises(ValueError, match="track 'b' has more than one label stream"):
            tag_interactions([event()], labels)


class TestOverlapSummary:
    COMPOSITION = {"grevys_zebra": 11, "plains_zebra": 2, "giraffe": 3}

    def test_possible_pair_counts(self):
        matrix = OverlapMatrix.from_counts(self.COMPOSITION, {})
        expected = {
            ("grevys_zebra", "grevys_zebra"): 55,
            ("plains_zebra", "plains_zebra"): 1,
            ("giraffe", "giraffe"): 3,
            ("grevys_zebra", "plains_zebra"): 22,
            ("giraffe", "plains_zebra"): 6,
            ("giraffe", "grevys_zebra"): 33,
        }
        for (sa, sb), possible in expected.items():
            assert matrix.entry(sa, sb).possible_pairs == possible

    def test_field_study_normalization(self):
        counts = {
            ("grevys_zebra", "grevys_zebra"): 4836,
            ("plains_zebra", "plains_zebra"): 93,
            ("giraffe", "giraffe"): 78,
            ("grevys_zebra", "plains_zebra"): 28,
        }
        matrix = OverlapMatrix.from_counts(self.COMPOSITION, counts)
        assert matrix.entry("grevys_zebra", "grevys_zebra").normalized == pytest.approx(87.93, abs=5e-3)
        assert matrix.entry("plains_zebra", "plains_zebra").normalized == pytest.approx(93.00)
        assert matrix.entry("giraffe", "giraffe").normalized == pytest.approx(26.00)
        assert matrix.entry("grevys_zebra", "plains_zebra").normalized == pytest.approx(1.27, abs=5e-3)
        assert matrix.entry("giraffe", "plains_zebra").normalized == 0.0
        assert matrix.entry("giraffe", "grevys_zebra").normalized == 0.0

    def test_events_summed_per_pair(self):
        events = [
            event(start=0, end=9),                                   # 10 frames GG
            event(a="c", b="d", start=0, end=4),                     # 5 frames GG
            event(a="e", b="f", sb="plains_zebra", start=0, end=6),  # 7 frames G-P
        ]
        matrix = overlap_summary(events, self.COMPOSITION)
        assert matrix.entry("grevys_zebra", "grevys_zebra").overlap_count == 15
        assert matrix.entry("grevys_zebra", "plains_zebra").overlap_count == 7
        assert matrix.entry("giraffe", "giraffe").overlap_count == 0

    def test_missing_species_rejected(self):
        events = [event(sb="giraffe")]
        with pytest.raises(ValueError, match="missing from composition"):
            overlap_summary(events, {"grevys_zebra": 5})

    def test_singleton_species_zero_possible(self):
        matrix = OverlapMatrix.from_counts({"giraffe": 1}, {})
        entry = matrix.entry("giraffe", "giraffe")
        assert entry.possible_pairs == 0
        assert entry.normalized == 0.0


class TestDumps:
    def test_events_csv(self):
        events = detect_interactions(offset_pair([0.0] * 10))
        text = dump_interaction_events(events)
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,start_frame,end_frame,frames,mean_ratio,tag"
        assert lines[1].startswith("a,b,0,9,10,")

    def test_matrix_csv_two_decimals(self):
        counts = {("grevys_zebra", "grevys_zebra"): 4836}
        matrix = OverlapMatrix.from_counts({"grevys_zebra": 11}, counts)
        text = dump_overlap_matrix(matrix)
        assert "87.93" in text
