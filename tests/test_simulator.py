"""Synthetic herd: determinism, Markov dynamics, observation models."""

from __future__ import annotations

import math

import pytest

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
