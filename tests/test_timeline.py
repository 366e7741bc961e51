"""Stream harmonization: scan propagation, visibility, mapping, alignment."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ethokit import (
    TECHNICAL_CODES,
    ObservationStream,
    ObsInterval,
    VideoMeta,
    align_pair,
    dump_paired_series,
    label_stream_to_observation,
    map_labels,
    propagate_scan,
    visibility_filter,
)
from ethokit import timeline
from ethokit.timeline import _atoms, _intersect, _restrict, _visible_spans
from conftest import EPOCH0, T0, make_labels, obs
from scalar_runs import map_labels_scalar, union
from scalar_timeline import (
    align_pair_tallies,
    atoms_scalar,
    atoms_set,
    code_at_keyed,
    code_at_scan,
    covered_intervals_coalesce,
    label_stream_to_observation_coalesce,
    restrict_scalar,
    restrict_walk,
    visible_spans_coalesce,
)


class TestPropagateScan:
    def test_regular_two_minute_cadence(self):
        events = obs("z1", "ground_scan", (0, 0, "G"), (120, 120, "W"))
        out = propagate_scan(events)
        assert out.intervals == (
            ObsInterval(EPOCH0, EPOCH0 + 120, "G"),
            ObsInterval(EPOCH0 + 120, EPOCH0 + 240, "W"),
        )

    def test_single_event_gets_full_horizon(self):
        events = obs("z1", "ground_scan", (0, 0, "G"))
        out = propagate_scan(events)
        assert out.intervals == (ObsInterval(EPOCH0, EPOCH0 + 120, "G"),)

    def test_irregular_events_truncate_at_next(self):
        events = obs("z1", "ground_scan", (0, 0, "G"), (60, 60, "W"))
        out = propagate_scan(events)
        assert out.intervals == (
            ObsInterval(EPOCH0, EPOCH0 + 60, "G"),
            ObsInterval(EPOCH0 + 60, EPOCH0 + 180, "W"),
        )

    def test_non_scan_input_rejected(self):
        focal = obs("z1", "ground_focal", (0, 10, "G"))
        with pytest.raises(ValueError):
            propagate_scan(focal)

    def test_custom_horizon(self):
        events = obs("z1", "ground_scan", (0, 0, "G"))
        out = propagate_scan(events, horizon_s=30.0)
        assert out.intervals == (ObsInterval(EPOCH0, EPOCH0 + 30, "G"),)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        events = obs("z1", "ground_scan", (0, 0, "G"))
        with pytest.raises(ValueError, match="horizon"):
            propagate_scan(events, horizon_s=horizon)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_simultaneous_events_keep_the_last(self, gaps):
        # equal instants are legal scan events; only the last one propagates
        t, triples = 0.0, []
        for k, g in enumerate(gaps):
            t += g
            triples.append((t, t, "GWR"[k % 3]))
        out = propagate_scan(obs("z1", "ground_scan", *triples), horizon_s=120.0)
        last_at = {u: code for u, _, code in triples}
        assert [(iv.start - EPOCH0, iv.code) for iv in out.intervals] == sorted(last_at.items())

    @given(st.lists(st.integers(1, 400), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_total_duration_bounded(self, gaps):
        t, times = 0.0, []
        for g in gaps:
            times.append(t)
            t += g
        events = obs("z1", "ground_scan", *((u, u, "G") for u in times))
        out = propagate_scan(events)
        assert out.covered_duration() <= len(times) * 120.0 + 1e-9


class TestVisibilityFilter:
    def test_fully_visible_unchanged(self):
        a = obs("z1", "ground_focal", (0, 30, "G"))
        b = obs("z1", "drone_focal", (0, 30, "W"))
        fa, fb = visibility_filter(a, b)
        assert fa.intervals == a.intervals
        assert fb.intervals == b.intervals

    def test_out_of_sight_removed_from_both(self):
        a = obs("z1", "ground_focal", (0, 30, "G"))
        b = obs("z1", "drone_focal", (0, 10, "W"), (10, 20, "OOS"), (20, 30, "W"))
        fa, fb = visibility_filter(a, b)
        assert fa.intervals == (
            ObsInterval(EPOCH0, EPOCH0 + 10, "G"),
            ObsInterval(EPOCH0 + 20, EPOCH0 + 30, "G"),
        )
        assert fb.intervals == (
            ObsInterval(EPOCH0, EPOCH0 + 10, "W"),
            ObsInterval(EPOCH0 + 20, EPOCH0 + 30, "W"),
        )

    def test_disjoint_spans_rejected(self):
        a = obs("z1", "ground_focal", (0, 10, "G"))
        b = obs("z1", "drone_focal", (20, 30, "W"))
        with pytest.raises(ValueError, match="no temporal overlap"):
            visibility_filter(a, b)

    def test_symmetry(self):
        a = obs("z1", "ground_focal", (0, 25, "G"), (25, 40, "OCL"))
        b = obs("z1", "drone_focal", (5, 18, "W"), (18, 40, "R"))
        fa, fb = visibility_filter(a, b)
        gb, ga = visibility_filter(b, a)
        assert fa.intervals == ga.intervals
        assert fb.intervals == gb.intervals

    @given(
        codes_a=st.lists(st.sampled_from(["G", "W", "OOS", "OCL"]), min_size=1, max_size=30),
        codes_b=st.lists(st.sampled_from(["G", "R", "OOS", "OOF"]), min_size=1, max_size=30),
    )
    @settings(max_examples=80)
    def test_matches_per_second_boolean_oracle(self, codes_a, codes_b):
        technical = {"OOS", "OCL", "OOF", "OOC"}
        a = obs("z1", "ground_focal", *((i, i + 1, c) for i, c in enumerate(codes_a)))
        b = obs("z1", "drone_focal", *((i, i + 1, c) for i, c in enumerate(codes_b)))
        n = min(len(codes_a), len(codes_b))
        visible = [
            codes_a[i] not in technical and codes_b[i] not in technical for i in range(n)
        ]
        if not any(visible):
            return  # nothing survives; output may legitimately be empty
        fa, fb = visibility_filter(a, b)
        for i, keep in enumerate(visible):
            t = EPOCH0 + i + 0.5
            if keep:
                assert fa.code_at(t) == codes_a[i]
                assert fb.code_at(t) == codes_b[i]
            else:
                assert fa.code_at(t) is None
                assert fb.code_at(t) is None


class TestMapLabels:
    def test_identity(self):
        s = obs("z1", "ground_focal", (0, 5, "G"), (5, 9, "W"))
        assert map_labels(s, {"G": "G", "W": "W"}).intervals == s.intervals

    def test_merge_adjacent_equal(self):
        s = obs("z1", "ground_focal", (0, 5, "TR"), (5, 9, "R"))
        out = map_labels(s, {"TR": "W", "R": "W"})
        assert out.intervals == (ObsInterval(EPOCH0, EPOCH0 + 9, "W"),)

    def test_missing_code_rejected(self):
        s = obs("z1", "ground_focal", (0, 5, "G"), (5, 9, "B"))
        with pytest.raises(ValueError, match="B"):
            map_labels(s, {"G": "G"})

    def test_label_stream_variant(self):
        s = make_labels(0, 4, "TR", 5, 9, "R", fps=25.0)
        out = map_labels(s, {"TR": "W", "R": "W"})
        assert out.intervals == (ObsInterval(0, 10, "W"),)
        assert out.fps == 25.0

    @given(st.lists(st.sampled_from(["G", "W", "TR", "R"]), min_size=1, max_size=25))
    @settings(max_examples=60)
    def test_duration_preserved(self, codes):
        s = obs("z1", "ground_focal", *((i, i + 1, c) for i, c in enumerate(codes)))
        out = map_labels(s, {"G": "G", "W": "M", "TR": "M", "R": "M"})
        assert out.covered_duration() == pytest.approx(s.covered_duration())


class TestAlignPair:
    def test_identical_streams(self):
        a = obs("z1", "ground_focal", (0, 30, "G"))
        b = obs("z1", "drone_focal", (0, 30, "G"))
        series = align_pair(a, b, 10.0)
        assert len(series) == 3
        assert series.codes_a == series.codes_b == ("G", "G", "G")

    def test_majority_within_bin(self):
        a = obs("z1", "ground_focal", (0, 10, "G"))
        b = obs("z1", "drone_focal", (0, 6, "G"), (6, 10, "W"))
        series = align_pair(a, b, 10.0)
        assert len(series) == 1
        assert series.codes_a == ("G",)
        assert series.codes_b == ("G",)

    def test_tie_goes_to_bin_start_code(self):
        a = obs("z1", "ground_focal", (0, 10, "G"))
        b = obs("z1", "drone_focal", (0, 5, "W"), (5, 10, "R"))
        series = align_pair(a, b, 10.0)
        assert series.codes_b == ("W",)

    def test_interval_too_wide_rejected(self):
        a = obs("z1", "ground_focal", (0, 8, "G"))
        b = obs("z1", "drone_focal", (0, 8, "G"))
        with pytest.raises(ValueError):
            align_pair(a, b, 10.0)

    def test_sample_count_is_floor_of_common_span(self):
        a = obs("z1", "ground_focal", (0, 35, "G"))
        b = obs("z1", "drone_focal", (0, 35, "W"))
        assert len(align_pair(a, b, 10.0)) == 3

    def test_interior_holes_squeezed_out(self):
        # bins run over jointly covered time, not the raw envelope:
        # 24 s of coverage at delta=10 gives 2 bins, not 3
        a = obs("z1", "ground_focal", (0, 12, "G"), (18, 30, "W"))
        b = obs("z1", "drone_focal", (0, 30, "G"))
        series = align_pair(a, b, 10.0)
        assert len(series) == 2
        assert series.times == (EPOCH0, EPOCH0 + 10)
        # second bin holds 2 s of G then 8 s of W for stream a
        assert series.codes_a == ("G", "W")
        assert series.codes_b == ("G", "G")

    def test_provenance_recorded(self):
        a = obs("z1", "ground_focal", (0, 30, "G"))
        b = obs("z1", "drone_focal", (0, 30, "G"))
        series = align_pair(a, b, 10.0)
        assert series.subject_id == "z1"
        assert series.method_a == "ground_focal"
        assert series.method_b == "drone_focal"
        assert series.delta_s == 10.0

    @given(
        n_a=st.integers(10, 60),
        n_b=st.integers(10, 60),
        delta=st.sampled_from([5.0, 10.0]),
    )
    @settings(max_examples=60)
    def test_count_invariant(self, n_a, n_b, delta):
        a = obs("z1", "ground_focal", (0, n_a, "G"))
        b = obs("z1", "drone_focal", (0, n_b, "W"))
        common = min(n_a, n_b)
        if common < delta:
            return
        assert len(align_pair(a, b, delta)) == int(common / delta)

    @given(
        a=st.deferred(lambda: half_second_streams("ground_focal")),
        b=st.deferred(lambda: half_second_streams("drone_focal")),
        delta=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    )
    @settings(max_examples=100)
    def test_count_is_floor_of_common_time(self, a, b, delta):
        # streams with holes: the common time is the summed pairwise overlap
        common = sum(
            max(0.0, min(x.end, y.end) - max(x.start, y.start))
            for x in a.intervals for y in b.intervals
        )
        if common < delta:
            with pytest.raises(ValueError):
                align_pair(a, b, delta)
            return
        assert len(align_pair(a, b, delta)) == math.floor(common / delta)

    def test_tiny_interval_refused_before_sampling(self):
        a = obs("z1", "ground_focal", (0, 40, "G"))
        b = obs("z1", "drone_focal", (0, 40, "W"))
        with pytest.raises(ValueError, match="into 40000000 samples, more than the 10000000"):
            align_pair(a, b, 1e-6)


class TestLabelStreamToObservation:
    def test_frame_to_epoch_conversion(self, meta):
        s = make_labels(0, 29, "G", 30, 59, "W")
        out = label_stream_to_observation(s, meta, subject_id="z9")
        assert out.subject_id == "z9"
        assert out.method == "drone_focal"
        assert out.intervals == (
            ObsInterval(EPOCH0, EPOCH0 + 1.0, "G"),
            ObsInterval(EPOCH0 + 1.0, EPOCH0 + 2.0, "W"),
        )

    def test_clock_offset_applied(self, meta):
        s = make_labels(0, 29, "G")
        out = label_stream_to_observation(s, meta, clock_offset_s=2.5)
        assert out.intervals[0].start == EPOCH0 + 2.5


class TestDumpPairedSeries:
    def test_csv_shape(self):
        a = obs("z1", "ground_focal", (0, 20, "G"))
        b = obs("z1", "drone_focal", (0, 20, "W"))
        text = dump_paired_series(align_pair(a, b, 10.0))
        lines = text.strip().split("\n")
        assert lines[0] == "t,code_a,code_b"
        assert len(lines) == 3
        assert lines[1].endswith(",G,W")


# Allen's (1983) thirteen relations of an interval X to Y = [10, 20), with
# X clipped to Y and the cuts Y gets from X's end points.
ALLEN = [
    ("before", (0, 5), None, [10, 20]),
    ("meets", (0, 10), None, [10, 20]),
    ("overlaps", (5, 15), (10, 15), [10, 15, 20]),
    ("starts", (10, 15), (10, 15), [10, 15, 20]),
    ("during", (12, 18), (12, 18), [10, 12, 18, 20]),
    ("finishes", (15, 20), (15, 20), [10, 15, 20]),
    ("equals", (10, 20), (10, 20), [10, 20]),
    ("finished-by", (5, 20), (10, 20), [10, 20]),
    ("contains", (5, 25), (10, 20), [10, 20]),
    ("started-by", (10, 25), (10, 20), [10, 20]),
    ("overlapped-by", (15, 25), (15, 20), [10, 15, 20]),
    ("met-by", (20, 25), None, [10, 20]),
    ("after", (25, 30), None, [10, 20]),
]
Y = (EPOCH0 + 10, EPOCH0 + 20)


class TestAllenRelations:
    @pytest.mark.parametrize("relation,x,clip,_", ALLEN, ids=[r[0] for r in ALLEN])
    def test_restrict_clips_to_the_overlap(self, relation, x, clip, _):
        out = _restrict(obs("z1", "ground_focal", (*x, "G")), [Y])
        want = () if clip is None else (ObsInterval(EPOCH0 + clip[0], EPOCH0 + clip[1], "G"),)
        assert out.intervals == want

    @pytest.mark.parametrize("relation,x,_,cuts", ALLEN, ids=[r[0] for r in ALLEN])
    def test_atoms_cut_at_interior_end_points(self, relation, x, _, cuts):
        a = obs("z1", "ground_focal", (*x, "G"))
        b = obs("z1", "drone_focal", (0, 30, "W"))
        atoms = _atoms(a, b, [Y])
        assert [t0 for t0, _, _, _ in atoms] + [atoms[-1][1]] == [EPOCH0 + t for t in cuts]
        assert atoms == atoms_scalar(a, b, [Y])


# codes of the generated streams; OOS and OCL are technical
CODES = ["G", "W", "R", "OOS", "OCL"]


@st.composite
def half_second_streams(draw, method: str):
    """Sorted, non-overlapping intervals on a half-second grid, with holes.

    Both streams of a test share the grid, so they often share or touch
    boundaries; equal codes may sit side by side.
    """
    t = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    parts = []
    for _ in range(draw(st.integers(1, 25))):
        t += draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 2.0]))
        length = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]))
        parts.append((t, t + length, draw(st.sampled_from(CODES))))
        t += length
    return obs("z1", method, *parts)


def _filter_and_align(a, b, delta):
    """visibility_filter then align_pair, with any ValueError as a result."""
    try:
        fa, fb = visibility_filter(a, b)
    except ValueError as exc:
        return repr(exc)
    try:
        text = dump_paired_series(align_pair(fa, fb, delta))
    except ValueError as exc:
        text = repr(exc)
    return fa.intervals, fb.intervals, text


def _spans(pairs):
    return union([(EPOCH0 + s / 2, EPOCH0 + (s + n) / 2) for s, n in pairs])


span_lists = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 8)), max_size=12)


class TestSweepsMatchScalarOracle:
    @given(
        a=half_second_streams("ground_focal"),
        b=half_second_streams("drone_focal"),
        delta=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_filter_and_alignment_outputs_equal(self, a, b, delta):
        got = _filter_and_align(a, b, delta)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeline, "_restrict", restrict_scalar)
            mp.setattr(timeline, "_atoms", atoms_scalar)
            want = _filter_and_align(a, b, delta)
        assert got == want

    @given(
        parts=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 8), st.sampled_from(CODES)), max_size=20
        ),
        spans_a=span_lists,
        spans_b=span_lists,
    )
    @settings(max_examples=300, deadline=None)
    def test_restrict_zero_length_and_touching_intervals(self, parts, spans_a, spans_b):
        # zero-length intervals, shared and touching bounds; spans as visibility_filter makes them
        t, triples = 0, []
        for gap, n, code in parts:
            t += gap
            triples.append((t / 2, (t + n) / 2, code))
            t += n
        stream = obs("z1", "ground_focal", *triples)
        spans = _intersect(_spans(spans_a), _spans(spans_b))
        assert _restrict(stream, spans) == restrict_scalar(stream, spans)

    @given(a=half_second_streams("ground_focal"), b=half_second_streams("drone_focal"))
    @settings(max_examples=300, deadline=None)
    def test_atoms_equal(self, a, b):
        pieces = _intersect(a.covered_intervals(), b.covered_intervals())
        assert _atoms(a, b, pieces) == atoms_scalar(a, b, pieces)
        try:
            fa, fb = visibility_filter(a, b)
        except ValueError:
            return
        pieces = _intersect(fa.covered_intervals(), fb.covered_intervals())
        assert _atoms(fa, fb, pieces) == atoms_scalar(fa, fb, pieces)

    @given(a=half_second_streams("ground_focal"), b=half_second_streams("drone_focal"))
    @settings(max_examples=200, deadline=None)
    def test_filtered_streams_cover_identical_time(self, a, b):
        try:
            fa, fb = visibility_filter(a, b)
        except ValueError:
            return
        assert fa.covered_intervals() == fb.covered_intervals()
        assert fa.covered_duration() == fb.covered_duration()
        assert not any(iv.code in TECHNICAL_CODES for iv in fa.intervals + fb.intervals)

    def test_one_interval_each(self):
        a = obs("z1", "ground_focal", (0, 10, "G"))
        b = obs("z1", "drone_focal", (4, 30, "W"))
        fa, fb = visibility_filter(a, b)
        assert fa.intervals == (ObsInterval(EPOCH0 + 4, EPOCH0 + 10, "G"),)
        assert fb.intervals == (ObsInterval(EPOCH0 + 4, EPOCH0 + 10, "W"),)
        assert _filter_and_align(a, b, 2.0)[2] == dump_paired_series(align_pair(fa, fb, 2.0))

    def test_overlap_all_technical_leaves_empty_streams(self):
        a = obs("z1", "ground_focal", (0, 10, "G"), (10, 20, "OOS"))
        b = obs("z1", "drone_focal", (10, 20, "W"))
        fa, fb = visibility_filter(a, b)
        assert fa.intervals == fb.intervals == ()
        with pytest.raises(ValueError, match="no covered time"):
            align_pair(fa, fb, 1.0)


def _bound(v: int):
    """v as an int or a float, and 0 also as -0.0."""
    return st.sampled_from([v, float(v), -0.0] if v == 0 else [v, float(v)])


@st.composite
def typed_streams(draw, lengths=(0, 1, 2, 5)):
    """A seconds stream on an integer grid around 0, each bound an int, a
    float or -0.0: intervals touch, leave gaps, and may be instants."""
    t = draw(st.integers(-3, 1))
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.sampled_from([0, 0, 1, 3]))
        n = draw(st.sampled_from(lengths))
        parts.append((draw(_bound(t)), draw(_bound(t + n)), draw(st.sampled_from(CODES))))
        t += n
    return ObservationStream("z1", "ground_focal", tuple(parts))


@st.composite
def typed_spans(draw):
    """Sorted, disjoint, non-empty spans on typed_streams' grid, as _intersect gives them."""
    points = sorted(draw(st.lists(st.integers(-4, 40), unique=True, max_size=10)))
    return [(draw(_bound(s)), draw(_bound(e))) for s, e in zip(points[::2], points[1::2])]


class TestColumnsMatchTheirPredecessors:
    """The run-edge and bisecting helpers give the bounds, down to their
    type and the sign of a zero, that the helpers they replace gave."""

    @given(stream=typed_streams())
    @settings(max_examples=400, deadline=None)
    def test_covered_and_visible_spans(self, stream):
        assert repr(stream.covered_intervals()) == repr(covered_intervals_coalesce(stream))
        assert repr(_visible_spans(stream)) == repr(visible_spans_coalesce(stream))

    @example(  # spans starting and ending on bounds, inside one interval and across two
        stream=ObservationStream("z1", "ground_focal", ((0, 10, "G"), (10.0, 12, "W"))),
        spans=[(-0.0, 2), (3.0, 5), (9, 11.0)],
    )
    @example(stream=ObservationStream("z1", "ground_focal", ((-0.0, 5, "G"),)), spans=[(0, 5.0)])
    @given(stream=typed_streams(), spans=typed_spans())
    @settings(max_examples=400, deadline=None)
    def test_restrict(self, stream, spans):
        got = _restrict(stream, spans)
        assert repr(got.intervals) == repr(restrict_walk(stream, spans).intervals)
        assert got == restrict_scalar(stream, spans)

    @given(a=typed_streams(lengths=(1, 2, 5)), b=typed_streams(lengths=(1, 2, 5)))
    @settings(max_examples=300, deadline=None)
    def test_atoms(self, a, b):
        pieces = _intersect(a.covered_intervals(), b.covered_intervals())
        assert repr(_atoms(a, b, pieces)) == repr(atoms_set(a, b, pieces))

    @given(
        stream=typed_streams(lengths=(1, 2, 5)),
        fps=st.sampled_from([30.0, 29.97, 25.0, 7.0]),
        offset=st.sampled_from([0.0, -0.0, 1.5, -3.25, 1e-9]) | st.floats(-1e3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_label_stream_to_observation(self, stream, fps, offset):
        frames = ObservationStream("t1", "labels", stream.intervals, fps=fps)
        meta = VideoMeta("s", 1920, 1080, T0, fps=fps)
        got = label_stream_to_observation(frames, meta, "ml_auto", "z1", offset)
        want = label_stream_to_observation_coalesce(frames, meta, "ml_auto", "z1", offset)
        assert repr(got) == repr(want)

    @given(stream=typed_streams(), mapping=st.dictionaries(st.sampled_from(CODES),
                                                          st.sampled_from("AB"), min_size=5))
    @settings(max_examples=200, deadline=None)
    def test_map_labels(self, stream, mapping):
        assert repr(map_labels(stream, mapping)) == repr(map_labels_scalar(stream, mapping))


class TestAlignLoop:
    @given(
        a=half_second_streams("ground_focal"),
        b=half_second_streams("drone_focal"),
        delta=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bins_as_the_tallies_loop_did(self, a, b, delta):
        try:
            fa, fb = visibility_filter(a, b)
            got = dump_paired_series(align_pair(fa, fb, delta))
        except ValueError:
            return
        assert got == dump_paired_series(align_pair_tallies(fa, fb, delta))

    def test_ends_on_a_bin_edge_its_quotient_rounds_below(self):
        # 21 * 7.3 / 7.3 is 20.999999999999996 in floats: the tallies loop
        # put that instant in bin 20, whose end it had reached, and never ended
        edge = 21 * 7.3
        a = ObservationStream("z1", "ground_focal", ((0.0, edge, "G"), (edge, 300.0, "W")))
        b = ObservationStream("z1", "drone_focal", ((0.0, 300.0, "W"),))
        pairs = align_pair(a, b, 7.3)
        assert len(pairs) == 41
        assert pairs.times[21] == edge
        assert (pairs.codes_a[20], pairs.codes_a[21]) == ("G", "W")


class TestCodeAt:
    @given(stream=typed_streams(), steps=st.lists(st.integers(-8, 90), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_is_a_linear_scan(self, stream, steps):
        times = [t / 2 for t in steps] + [b for iv in stream.intervals for b in iv[:2]]
        shifted = [(s + 1, e + 1, code) for s, e, code in stream.intervals]
        copies = (
            dataclasses.replace(stream, intervals=shifted),
            dataclasses.replace(stream, subject_id="z2"),
            pickle.loads(pickle.dumps(stream)),
            copy.deepcopy(stream),
        )
        for s in (stream, *copies):
            for t in times:
                assert s.code_at(t) == code_at_scan(s, t) == code_at_keyed(s, t)
