"""Synthetic herd: determinism, Markov dynamics, observation models."""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    ML_AUTO,
    ObservationStream,
    ObsInterval,
    OcclusionZone,
    SimConfig,
    cohens_kappa,
    align_pair,
    confusion,
    demo_config,
    observe_focal,
    observe_scan,
    out_of_sight_fraction,
    parse_video_meta,
    simulate,
    time_budget,
    transition_matrix,
    visibility_filter,
)
from ethokit.core import runs
from ethokit.ingest import parse_ground_observations, parse_labels, parse_tracks
from ethokit.simulator import export_world
import scalar_simulator as oracle


def truth_observation(world, subject: str) -> ObservationStream:
    """Ground truth on the wall clock, one interval per run of equal steps."""
    steps = world.code_steps[world.subjects.index(subject)]
    t0, step, codes = world.meta.start_time.timestamp(), world.config.step_s, world.config.codes
    intervals = [ObsInterval(t0 + a * step, t0 + b * step, codes[k]) for a, b, k in runs(steps)]
    return ObservationStream(subject, ML_AUTO, tuple(intervals), "sim")


def two_code_config(seed=1, q=((0.9, 0.1), (0.5, 0.5)), duration=2000.0, n=1, **kw):
    return SimConfig(
        seed=seed,
        n_individuals=n,
        codes=("G", "W"),
        transition=q,
        speeds_mps=(0.05, 1.0),
        duration_s=duration,
        **kw,
    )


class TestSimConfig:
    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError, match="row"):
            two_code_config(q=((0.9, 0.2), (0.5, 0.5)))

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, n_individuals=1, codes=("G",), transition=((1.0,),),
                      speeds_mps=(-1.0,))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, n_individuals=1, codes=("G", "W"),
                      transition=((1.0,),), speeds_mps=(0.1, 1.0))


class TestSimulate:
    def test_same_seed_bit_identical(self):
        a = simulate(demo_config(3, duration_s=120.0))
        b = simulate(demo_config(3, duration_s=120.0))
        assert a.code_steps == b.code_steps
        assert a.positions == b.positions
        assert a.occluded_ground == b.occluded_ground
        assert a.occluded_drone == b.occluded_drone

    def test_different_seeds_diverge(self):
        a = simulate(demo_config(3, duration_s=120.0))
        b = simulate(demo_config(4, duration_s=120.0))
        assert a.code_steps != b.code_steps

    def test_identity_chain_is_absorbing(self):
        cfg = two_code_config(q=((1.0, 0.0), (0.0, 1.0)), duration=300.0,
                              initial_code="G")
        world = simulate(cfg)
        stream = world.truth_label_stream(world.subjects[0])
        assert [iv.code for iv in stream.intervals] == ["G"]

    def test_positions_stay_inside_arena(self):
        cfg = two_code_config(duration=500.0, n=4)
        world = simulate(cfg)
        for trace in world.positions:
            for x, y in trace:
                assert 0.0 <= x <= cfg.arena_w_m
                assert 0.0 <= y <= cfg.arena_h_m

    def test_truth_streams_have_no_technical_codes(self):
        world = simulate(demo_config(5, duration_s=300.0))
        for subject in world.subjects:
            codes = {iv.code for iv in world.truth_label_stream(subject).intervals}
            assert codes <= {"G", "W", "TR", "R"}

    def test_empirical_frequencies_match_q(self):
        # one long chain: transition frequencies converge to the
        # generating matrix
        q = ((0.9, 0.1), (0.5, 0.5))
        world = simulate(two_code_config(seed=17, q=q, duration=1_000_000.0))
        steps = world.code_steps[0]
        counts = [[0, 0], [0, 0]]
        for prev, cur in zip(steps, steps[1:]):
            counts[prev][cur] += 1
        for i in range(2):
            total = sum(counts[i])
            for j in range(2):
                assert counts[i][j] / total == pytest.approx(q[i][j], abs=0.005)

    def test_unknown_subject_rejected(self):
        world = simulate(demo_config(1, duration_s=60.0))
        with pytest.raises(ValueError, match="unknown subject"):
            world.truth_label_stream("nobody")


class TestObserveScan:
    def test_six_instants_in_ten_minutes(self):
        cfg = two_code_config(duration=600.0)
        world = simulate(cfg)
        (stream,) = observe_scan(world)
        # t = 0, 120, 240, 360, 480, 600
        assert len(stream.intervals) == 6
        assert stream.is_instantaneous()

    def test_occluded_instant_yields_no_event(self):
        everywhere = OcclusionZone(0.0, 0.0, 200.0, 200.0, 1.0, 0.0)
        world = simulate(two_code_config(duration=600.0, zones=(everywhere,)))
        (stream,) = observe_scan(world)
        assert stream.intervals == ()

    def test_custom_period(self):
        world = simulate(two_code_config(duration=600.0))
        (stream,) = observe_scan(world, period_s=300.0)
        assert len(stream.intervals) == 3

    def test_events_match_truth_at_instants(self):
        world = simulate(two_code_config(duration=600.0))
        truth = truth_observation(world, world.subjects[0])
        _, truth_end = truth.span
        (stream,) = observe_scan(world)
        for iv in stream.intervals:
            # the endpoint instant samples the final step, so probe just
            # inside the step the scan actually read
            probe = min(iv.start + 0.25, truth_end - 0.25)
            assert truth.code_at(probe) == iv.code


class TestObserveFocal:
    def test_no_zones_equals_truth(self):
        world = simulate(two_code_config(duration=400.0))
        truth = truth_observation(world, world.subjects[0])
        for method in ("ground_focal", "drone_focal"):
            focal = observe_focal(world, world.subjects[0], method)
            assert focal.intervals == truth.intervals

    def test_total_occlusion_extremes(self):
        everywhere = OcclusionZone(0.0, 0.0, 200.0, 200.0, 1.0, 0.0)
        world = simulate(two_code_config(duration=400.0, zones=(everywhere,)))
        subject = world.subjects[0]
        ground = observe_focal(world, subject, "ground_focal")
        drone = observe_focal(world, subject, "drone_focal")
        assert [iv.code for iv in ground.intervals] == ["OOS"]
        assert drone.intervals == truth_observation(world, subject).intervals

    def test_bad_method_rejected(self):
        world = simulate(two_code_config(duration=60.0))
        with pytest.raises(ValueError, match="method"):
            observe_focal(world, world.subjects[0], "ground_scan")

    def test_visibility_filter_strips_every_occluded_instant(self):
        world = simulate(demo_config(23, duration_s=600.0))
        subject = world.subjects[0]
        ground = observe_focal(world, subject, "ground_focal")
        drone = observe_focal(world, subject, "drone_focal")
        fa, fb = visibility_filter(ground, drone)
        assert all(iv.code != "OOS" for iv in fa.intervals)
        assert all(iv.code != "OOS" for iv in fb.intervals)
        # spot-check instants: wherever either raw stream was OOS,
        # filtered streams are silent
        for k in range(0, 600, 7):
            t = ground.intervals[0].start + k + 0.5
            raw_g, raw_d = ground.code_at(t), drone.code_at(t)
            if raw_g == "OOS" or raw_d == "OOS":
                assert fa.code_at(t) is None
                assert fb.code_at(t) is None

    def test_occlusion_fraction_tracks_zone_occupancy(self):
        # demo zone: lower half of the arena, ground p = 0.468, so the
        # long-run expected out-of-sight share is about 0.234
        world = simulate(demo_config(41, n_individuals=12, duration_s=3000.0))
        fractions = [
            out_of_sight_fraction(observe_focal(world, s, "ground_focal"))
            for s in world.subjects
        ]
        mean = sum(fractions) / len(fractions)
        assert mean == pytest.approx(0.234, abs=0.05)


class TestTruthRecovery:
    def test_truth_vs_truth_kappa_is_one(self):
        world = simulate(demo_config(9, duration_s=600.0))
        truth = truth_observation(world, world.subjects[0])
        series = align_pair(truth, truth, 10.0)
        stats = cohens_kappa(confusion(series, sorted(set(series.codes_a))))
        assert stats.p_observed == 1.0
        assert stats.kappa == 1.0

    def test_transition_matrix_recovers_q_roughly(self):
        q = ((0.9, 0.1), (0.5, 0.5))
        world = simulate(two_code_config(seed=29, q=q, duration=50_000.0))
        truth = truth_observation(world, world.subjects[0])
        tm = transition_matrix([truth], 1.0, ["G", "W"])
        for i in range(2):
            for j in range(2):
                assert tm.probabilities[i][j] == pytest.approx(q[i][j], abs=0.02)

    def test_time_budget_approaches_stationary(self):
        # stationary vector of [[0.9,0.1],[0.5,0.5]] is (5/6, 1/6)
        world = simulate(two_code_config(seed=31, duration=50_000.0))
        budget = time_budget(truth_observation(world, world.subjects[0]))
        assert budget.proportion("G") == pytest.approx(5 / 6, abs=0.02)
        assert budget.proportion("W") == pytest.approx(1 / 6, abs=0.02)


class TestExport:
    def test_round_trips_through_canonical_formats(self, tmp_path):
        world = simulate(demo_config(7, n_individuals=2, duration_s=120.0))
        files = {p.name: p for p in export_world(world, tmp_path)}
        assert set(files) == {"meta.json", "tracks.csv", "labels.csv", "observations.csv"}
        meta = parse_video_meta(files["meta.json"].read_text())
        assert meta.session_id == "sim-7"
        tracks = parse_tracks(files["tracks.csv"].read_text())
        assert len(tracks) == 2
        labels = parse_labels(files["labels.csv"].read_text(), meta.fps)
        assert {s.subject_id for s in labels} == {"ind000", "ind001"}
        assert labels == [world.truth_label_stream(s) for s in world.subjects]
        streams = parse_ground_observations(files["observations.csv"].read_text())
        methods = {(s.subject_id, s.method) for s in streams}
        assert ("ind000", "ground_scan") in methods
        assert ("ind001", "drone_focal") in methods

    def test_export_is_deterministic(self, tmp_path):
        world = simulate(demo_config(7, n_individuals=2, duration_s=120.0))
        a = export_world(world, tmp_path / "a")
        b = export_world(world, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def assert_identical(new, old) -> None:
    """Leaf for leaf the same type and repr: floats bit for bit, no NumPy scalars."""
    a, b = list(_leaves(new)), list(_leaves(old))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (type(x), repr(x)) == (type(y), repr(y))


def assert_same_streams(new, old) -> None:
    assert new == old
    for s, o in zip(new, old):
        assert_identical(s.intervals, o.intervals)


@st.composite
def sim_configs(draw) -> SimConfig:
    """Small worlds that reflect off the walls often, with 0-3 overlapping zones."""
    k = draw(st.integers(1, 4))
    codes = ("G", "W", "TR", "R")[:k]
    weights = st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any)
    rows = draw(st.lists(weights, min_size=k, max_size=k))
    transition = [[w / sum(row) for w in row] for row in rows]
    w, h = draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 20.0))
    odds = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    zones = draw(st.lists(
        st.builds(OcclusionZone, st.floats(0.0, w), st.floats(0.0, h), st.floats(0.1, w),
                  st.floats(0.1, h), odds, odds),
        max_size=3,
    ))
    return SimConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_individuals=draw(st.integers(1, 3)),
        codes=codes,
        transition=transition,
        speeds_mps=draw(st.lists(st.floats(0.0, 8.0), min_size=k, max_size=k)),
        arena_w_m=w,
        arena_h_m=h,
        zones=zones,
        fps=draw(st.sampled_from([29.97, 12.5, 7.3, 1.0, 0.4]) | st.floats(0.2, 40.0)),
        duration_s=draw(st.floats(0.5, 60.0)),
        scan_period_s=draw(st.floats(0.3, 30.0)),
        step_s=draw(st.sampled_from([0.25, 0.5, 1.5, 2.0]) | st.floats(0.1, 3.0)),
        heading_sd_rad=draw(st.floats(0.0, 3.0)),
        initial_code=draw(st.none() | st.sampled_from(codes)),
        px_per_m=draw(st.floats(1.0, 20.0)),
    )


class TestMatchesScalarOracle:
    """The world and every observer equal the per-step originals, float for float."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=sim_configs(), period=st.none() | st.floats(0.3, 30.0))
    def test_world_and_streams(self, cfg, period):
        world, old = simulate(cfg), oracle.simulate(cfg)
        assert_identical(world.code_steps, old.code_steps)
        assert_identical(world.positions, old.positions)
        for flags, old_flags in ((world.occluded_ground, old.occluded_ground),
                                 (world.occluded_drone, old.occluded_drone)):
            assert flags == old_flags
            assert all(type(f) is bool for row in flags for f in row)
        assert (world.config, world.meta, world.subjects) == (old.config, old.meta, old.subjects)

        assert_same_streams(observe_scan(world, period), oracle.observe_scan(old, period))
        for subject in world.subjects:
            assert_same_streams(
                [world.truth_label_stream(subject)], [oracle.truth_label_stream(old, subject)]
            )
            for method in ("ground_focal", "drone_focal"):
                assert_same_streams(
                    [observe_focal(world, subject, method)],
                    [oracle.observe_focal(old, subject, method)],
                )
        tracks, old_tracks = world.tracks(), oracle.tracks(old)
        assert tracks == old_tracks
        for t, o in zip(tracks, old_tracks):
            assert_identical((t.frames, t.x, t.y, t.w, t.h), (o.frames, o.x, o.y, o.w, o.h))

    def test_walls_and_zones_are_exercised(self):
        # the strategy's kind of world: a 2 m arena at up to 6 m/s folds
        # most steps, and a zone with loss odds 1 hides every step in it
        cfg = dataclasses.replace(
            demo_config(5, 2, 60.0, zones=(OcclusionZone(0.0, 0.0, 1.0, 2.0, 1.0, 0.0),)),
            arena_w_m=2.0, arena_h_m=2.0, step_s=0.5, fps=12.5,
        )
        world, old = simulate(cfg), oracle.simulate(cfg)
        assert_identical(world.positions, old.positions)
        assert world.occluded_ground == old.occluded_ground
        assert 0 < sum(world.occluded_ground[0]) < cfg.n_steps


class TestSizeBound:
    """A config or scan period whose loops would run past MAX_SAMPLES is refused."""

    @pytest.mark.parametrize(
        "changes,count",
        [
            ({"scan_period_s": 1e-300}, "scan instants"),
            ({"duration_s": 1e308}, "steps"),
            ({"step_s": 1e-300}, "steps"),
        ],
    )
    def test_config_refused(self, changes, count):
        with pytest.raises(ValueError, match=f"^{count} .*more than the 10000000 allowed"):
            dataclasses.replace(demo_config(1), **changes)

    def test_frames_refused_where_filmed(self):
        world = simulate(dataclasses.replace(demo_config(1, 1, 60.0), fps=1e300))
        assert len(world.truth_label_stream("ind000").intervals) >= 1
        with pytest.raises(ValueError, match="^frames .*more than the 10000000 allowed"):
            world.tracks()

    def test_field_day_is_far_below_the_bound(self):
        cfg = demo_config(1, 1, 4 * 3600.0, zones=())
        cfg.bound_frames()
        assert (cfg.n_steps, cfg.n_frames) == (14_400, 432_000)
        (scan,) = observe_scan(simulate(cfg))
        assert len(scan.intervals) == 121

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_timing_refused(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            dataclasses.replace(demo_config(1), fps=value)
        with pytest.raises(ValueError, match="positive and finite"):
            dataclasses.replace(demo_config(1), scan_period_s=value)

    def test_scan_period_refused(self):
        # in a subprocess, so that a scan loop that never ends fails the test
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from ethokit import demo_config, observe_scan, simulate\n"
            "observe_scan(simulate(demo_config(1, 1, 60.0)), period_s=1e-300)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1
        assert "samples, more than the 10000000 allowed" in proc.stderr
