"""Proximity interactions and species-pair overlap normalization."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    AnalysisParams,
    BoundingBox,
    InteractionEvent,
    OverlapMatrix,
    Track,
    demo_config,
    detect_interactions,
    dump_interaction_events,
    dump_overlap_matrix,
    overlap_ratio,
    overlap_summary,
    simulate,
    tag_interactions,
)
from conftest import make_labels
from scalar_social import detect_interactions_scalar


def offset_pair(offsets, species_b="grevys_zebra"):
    """Two 10x10 tracks where track b sits offsets[f] pixels right of a.

    min-area ratio on frame f is 1 - offsets[f]/10 for offsets in [0, 10].
    """
    a = Track("a", "grevys_zebra", tuple(BoundingBox(f, 50.0, 50.0, 10.0, 10.0)
                                         for f in range(len(offsets))))
    b = Track("b", species_b, tuple(BoundingBox(f, 50.0 + off, 50.0, 10.0, 10.0)
                                    for f, off in enumerate(offsets)))
    return [a, b]


def event(a="a", b="b", sa="grevys_zebra", sb="grevys_zebra", start=0, end=9, ratio=0.9):
    return InteractionEvent(a, b, sa, sb, start, end, ratio)


class TestOverlapRatio:
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
        a = Track("a", "grevys_zebra",
                  tuple(BoundingBox(f, 0.0, 0.0, 10.0, 10.0) for f in range(12) if f != 5))
        b = Track("b", "grevys_zebra",
                  tuple(BoundingBox(f, 1.0, 0.0, 10.0, 10.0) for f in range(12) if f != 5))
        events = detect_interactions([a, b])
        assert [(e.start_frame, e.end_frame) for e in events] == [(0, 4), (6, 11)]

    def test_input_order_irrelevant(self):
        tracks = offset_pair([0.0] * 10)
        assert detect_interactions(tracks) == detect_interactions(tracks[::-1])

    def test_excluded_tracks_ignored(self):
        a, b = offset_pair([0.0] * 10)
        a = Track(a.track_id, a.species, a.boxes, excluded=True)
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
            detect_interactions([a, Track("a", b.species, b.boxes)])

    def test_repeated_frame_rejected(self):
        a, b = offset_pair([0.0] * 6)
        boxes = a.boxes[:3] + (BoundingBox(2, 80.0, 50.0, 10.0, 10.0),) + a.boxes[3:]
        with pytest.raises(ValueError, match="'a': frames not strictly increasing"):
            detect_interactions([Track("a", a.species, boxes), b])

    def test_empty_tracks_skipped(self):
        tracks = offset_pair([0.0] * 10) + [Track("c", "giraffe", ())]
        assert detect_interactions(tracks) == detect_interactions(tracks[:2])


SPECIES = ("grevys_zebra", "plains_zebra", "giraffe")
# coarse grids make exact ties with the threshold (and exact 1.0 ratios) common
COORD = st.one_of(st.sampled_from([0.0, 2.5, 5.0, 7.5, 10.0]), st.floats(0, 12))
SIZE = st.one_of(st.sampled_from([5.0, 10.0]), st.floats(1, 15))
JITTER = st.one_of(st.sampled_from([0.0, 2.5, -2.5]), st.floats(-3, 3))


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
        boxes = tuple(BoundingBox(f, x + draw(JITTER), y + draw(JITTER), w, h) for f in frames)
        excluded = draw(st.integers(0, 5)) == 0
        tracks.append(Track(track_id, draw(st.sampled_from(SPECIES)), boxes, excluded))
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
