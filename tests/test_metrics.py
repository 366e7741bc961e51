"""Time budgets, transitions, agreement, classification scores, cost."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    CountMatrix,
    PairedSeries,
    annotation_cost,
    class_metrics,
    cohens_kappa,
    confusion,
    out_of_sight_fraction,
    time_budget,
    transition_matrix,
)
from conftest import EPOCH0, make_labels, obs
from scalar_runs import coalesce


def paired(codes_a, codes_b):
    times = tuple(EPOCH0 + 10.0 * i for i in range(len(codes_a)))
    return PairedSeries("z1", "ground_focal", "drone_focal", 10.0, times,
                        tuple(codes_a), tuple(codes_b))


class TestTimeBudget:
    def test_single_code(self):
        budget = time_budget(obs("z1", "ground_focal", (0, 60, "G")))
        assert budget.t_visible == 60.0
        assert budget.proportion("G") == 1.0

    def test_technical_codes_excluded(self):
        stream = obs("z1", "ground_focal", (0, 60, "G"), (60, 90, "W"), (90, 100, "OOS"))
        budget = time_budget(stream)
        assert budget.t_visible == 90.0
        assert budget.proportion("G") == pytest.approx(2 / 3)
        assert budget.proportion("W") == pytest.approx(1 / 3)
        assert budget.seconds["G"] == 60.0

    def test_no_visible_time_rejected(self):
        with pytest.raises(ValueError, match="no visible time"):
            time_budget(obs("z1", "ground_focal", (0, 50, "OOS")))

    def test_label_stream_needs_meta(self, meta):
        # a frame stream carries its own frame rate
        budget = time_budget(make_labels(0, 59, "G", fps=meta.fps))
        assert budget.t_visible == 2.0  # 60 frames at 30 fps

    @given(st.lists(st.sampled_from(["G", "W", "R", "HU", "OOS"]), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_proportions_sum_to_one(self, codes):
        if all(c == "OOS" for c in codes):
            return
        stream = obs("z1", "ground_focal", *((i, i + 1, c) for i, c in enumerate(codes)))
        budget = time_budget(stream)
        assert math.isclose(sum(map(budget.proportion, budget.seconds)), 1.0, abs_tol=1e-9)
        assert "OOS" not in budget.seconds


class TestOutOfSightFraction:
    def test_fully_visible(self):
        assert out_of_sight_fraction(obs("z1", "ground_focal", (0, 60, "G"))) == 0.0

    def test_partial(self):
        stream = obs("z1", "ground_focal", (0, 80, "G"), (80, 100, "OOS"))
        assert out_of_sight_fraction(stream) == pytest.approx(0.2)

    def test_fully_hidden(self):
        assert out_of_sight_fraction(obs("z1", "ground_focal", (0, 30, "OOS"))) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            out_of_sight_fraction(obs("z1", "ground_focal"))


class TestTransitionMatrix:
    def test_constant_stream(self):
        stream = obs("z1", "ground_focal", (0, 100, "G"))
        tm = transition_matrix([stream], 10.0, ["G", "W"])
        assert tm.counts[0][0] == 9
        assert tm.probabilities[0][0] == 1.0

    def test_hand_counted_pairs(self):
        # samples at 0,10,20,30,40 read G,G,W,W,G
        stream = obs("z1", "ground_focal", (0, 20, "G"), (20, 40, "W"), (40, 50, "G"))
        tm = transition_matrix([stream], 10.0, ["G", "W"])
        assert tm.counts == ((1, 1), (1, 1))
        assert tm.probabilities == ((0.5, 0.5), (0.5, 0.5))

    def test_technical_pairs_skipped(self):
        stream = obs(
            "z1", "ground_focal", (0, 20, "G"), (20, 30, "OOS"), (30, 50, "W")
        )
        tm = transition_matrix([stream], 10.0, ["G", "W"])
        # samples G,G,-,W,W: only the two same-code pairs survive
        assert tm.counts == ((1, 0), (0, 1))

    def test_anchor_at_first_visible_sample(self):
        stream = obs("z1", "ground_focal", (5, 35, "G"))
        tm = transition_matrix([stream], 10.0, ["G"])
        # samples at 5,15,25 (35 is past the span)
        assert tm.counts == ((2,),)

    def test_counts_pooled_across_streams(self):
        a = obs("z1", "ground_focal", (0, 30, "G"))
        b = obs("z2", "ground_focal", (0, 30, "G"))
        tm = transition_matrix([a, b], 10.0, ["G"])
        assert tm.counts == ((4,),)

    def test_zero_row_probabilities(self):
        stream = obs("z1", "ground_focal", (0, 100, "G"))
        tm = transition_matrix([stream], 10.0, ["G", "W"])
        assert tm.probabilities[1] == (0.0, 0.0)

    def test_no_pairs_rejected(self):
        stream = obs("z1", "ground_focal", (0, 5, "G"))
        with pytest.raises(ValueError, match="no countable transition pairs"):
            transition_matrix([stream], 10.0, ["G"])

    def test_label_stream_input(self, meta):
        stream = make_labels(0, 3000 - 1, "G", fps=meta.fps)  # 100 s at 30 fps
        tm = transition_matrix([stream], 10.0, ["G"])
        assert tm.counts == ((9,),)

    def test_one_fps_frame_stream_samples_frames(self):
        # 10 frames at 1 fps last 10 s, not 10 frames' worth of seconds
        stream = make_labels(0, 4, "G", 5, 9, "W", fps=1.0)
        tm = transition_matrix([stream], 1.0, ["G", "W"])
        assert tm.counts == ((4, 1), (0, 4))

    def test_negative_frames_sample_the_frame_holding_t(self):
        # samples at -0.1, -0.01, 0.08 and 0.17 s read frames -3, -1, 2 and 5;
        # truncating t * fps toward zero read frame 0 ("B") at -0.01 s
        stream = make_labels(-3, -1, "A", 0, 5, "B", fps=30.0)
        tm = transition_matrix([stream], 0.09, ["A", "B"])
        assert tm.counts == ((1, 1), (0, 1))

    @given(
        st.lists(st.sampled_from(["G", "W", "R"]), min_size=2, max_size=60),
    )
    @settings(max_examples=60)
    def test_rows_stochastic_where_defined(self, codes):
        stream = obs("z1", "ground_focal", *((10 * i, 10 * (i + 1), c) for i, c in enumerate(codes)))
        tm = transition_matrix([stream], 10.0, ["G", "W", "R"])
        for row_counts, row_probs in zip(tm.counts, tm.probabilities):
            if sum(row_counts):
                assert math.isclose(sum(row_probs), 1.0, abs_tol=1e-9)
            else:
                assert all(p == 0.0 for p in row_probs)

    @given(st.lists(st.sampled_from(["G", "W"]), min_size=2, max_size=40))
    @settings(max_examples=60)
    def test_pair_count_identity(self, codes):
        # with no technical samples, pair count is samples - 1
        stream = obs("z1", "ground_focal", *((10 * i, 10 * (i + 1), c) for i, c in enumerate(codes)))
        tm = transition_matrix([stream], 10.0, ["G", "W"])
        assert tm.total == len(codes) - 1


class TestConfusion:
    def test_identical_series_diagonal(self):
        pairs = paired("GWGWGWGWGW", "GWGWGWGWGW")
        m = confusion(pairs, ["G", "W"])
        assert m.counts == ((5, 0), (0, 5))

    def test_hand_count(self):
        m = confusion(paired("GGGW", "GWGW"), ["G", "W"])
        assert m.counts == ((2, 1), (0, 1))

    def test_stray_codes_bucketed(self):
        m = confusion(paired(("G", "X"), ("G", "G")), ["G"])
        assert m.codes == ("G", "other")
        assert m.counts == ((1, 0), (1, 0))

    def test_row_normalized(self):
        m = confusion(paired("GGGW", "GWGW"), ["G", "W"])
        rows = m.probabilities
        assert rows[0] == pytest.approx((2 / 3, 1 / 3))
        assert rows[1] == pytest.approx((0.0, 1.0))


class TestCohensKappa:
    def test_perfect_agreement(self):
        stats = cohens_kappa(CountMatrix(("a", "b"), ((5, 0), (0, 5))))
        assert stats.kappa == 1.0
        assert stats.p_observed == 1.0

    def test_chance_level(self):
        stats = cohens_kappa(CountMatrix(("a", "b"), ((25, 25), (25, 25))))
        assert stats.kappa == 0.0

    def test_hand_arithmetic(self):
        stats = cohens_kappa(CountMatrix(("a", "b"), ((20, 5), (10, 15))))
        assert stats.p_observed == pytest.approx(0.7, abs=1e-12)
        assert stats.p_expected == pytest.approx(0.5, abs=1e-12)
        assert stats.kappa == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_marginals_rejected(self):
        with pytest.raises(ValueError, match="degenerate marginals"):
            cohens_kappa(CountMatrix(("a", "b"), ((10, 0), (0, 0))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cohens_kappa(CountMatrix(("a", "b"), ((0, 0), (0, 0))))

    @given(st.lists(st.lists(st.integers(0, 20), min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=80)
    def test_permutation_invariance(self, rows):
        total = sum(map(sum, rows))
        if total == 0:
            return
        m = CountMatrix(("a", "b", "c"), tuple(tuple(r) for r in rows))
        perm = (2, 0, 1)
        permuted = CountMatrix(
            ("c", "a", "b"),
            tuple(tuple(rows[i][j] for j in perm) for i in perm),
        )
        try:
            base = cohens_kappa(m)
        except ValueError:
            with pytest.raises(ValueError):
                cohens_kappa(permuted)
            return
        other = cohens_kappa(permuted)
        assert other.kappa == pytest.approx(base.kappa, abs=1e-12)


class TestClassMetrics:
    def test_perfect_diagonal(self):
        cm = class_metrics(CountMatrix(("a", "b"), ((5, 0), (0, 7))))
        for score in cm.per_class:
            assert score.precision == 1.0
            assert score.recall == 1.0
            assert score.f1 == 1.0
        assert cm.macro_f1 == 1.0

    def test_hand_arithmetic(self):
        cm = class_metrics(CountMatrix(("a", "b"), ((8, 2), (4, 6))))
        a = cm.per_class[0]
        assert a.precision == pytest.approx(8 / 12)
        assert a.recall == pytest.approx(0.8)
        assert a.f1 == pytest.approx(0.7273, abs=5e-5)

    def test_empty_predicted_class_excluded_from_macro(self):
        # nothing ever predicted as "b": its precision is undefined
        cm = class_metrics(CountMatrix(("a", "b"), ((5, 0), (3, 0))))
        assert cm.per_class[1].precision is None
        assert cm.per_class[1].recall == 0.0
        assert cm.macro_precision == pytest.approx(5 / 8)

    def test_permutation_equivariance(self):
        rows = ((8, 2, 1), (4, 6, 0), (2, 2, 9))
        base = class_metrics(CountMatrix(("a", "b", "c"), rows))
        perm = (2, 0, 1)
        permuted = class_metrics(
            CountMatrix(
                ("c", "a", "b"),
                tuple(tuple(rows[i][j] for j in perm) for i in perm),
            )
        )
        by_code = {s.code: s for s in base.per_class}
        for score in permuted.per_class:
            assert score == by_code[score.code]


class TestGanttSegments:
    def test_single_interval(self):
        segs = coalesce(obs("z1", "ground_focal", (0, 60, "G")).intervals)
        assert len(segs) == 1

    def test_per_frame_codes_merge(self):
        stream = make_labels(0, 0, "G", 1, 1, "G", 2, 2, "W", 3, 3, "G")
        segs = coalesce(stream.intervals)
        assert segs == [(0, 2, "G"), (2, 3, "W"), (3, 4, "G")]

    def test_adjacent_equal_intervals_merge(self):
        stream = obs("z1", "ground_focal", (0, 10, "G"), (10, 20, "G"), (20, 30, "W"))
        segs = coalesce(stream.intervals)
        assert [(i.start - EPOCH0, i.end - EPOCH0, i.code) for i in segs] == [
            (0.0, 20.0, "G"),
            (20.0, 30.0, "W"),
        ]

    @given(st.lists(st.sampled_from("GWR"), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_no_overlap_and_full_cover(self, codes):
        stream = obs("z1", "ground_focal", *((i, i + 1, c) for i, c in enumerate(codes)))
        segs = coalesce(stream.intervals)
        assert segs[0].start == EPOCH0
        assert segs[-1].end == EPOCH0 + len(codes)
        for prev, cur in zip(segs, segs[1:]):
            assert prev.end == cur.start
            assert prev.code != cur.code


class TestAnnotationCost:
    def test_three_individuals_ten_minutes(self):
        est = annotation_cost(3, 600.0)
        assert est.total_s == 2700.0
        assert est.total_min == 45.0

    def test_direct_formula(self):
        assert annotation_cost(2, 100.0).total_s == 300.0

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            annotation_cost(1, 0.0)

    def test_zero_individuals_rejected(self):
        with pytest.raises(ValueError):
            annotation_cost(0, 100.0)
