"""Release gate: published arithmetic, estimator oracles, determinism.

Each test prints one checklist line ([PASS], [FAIL], or [SKIP]) next to
the usual pytest outcome so a full run reads as an acceptance report.
Tolerances and runtime budgets are asserted inside the tests; the
dataset-dependent check skips, never fails, when the download is
absent.
"""

from __future__ import annotations

import filecmp
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest

from ethokit import (
    GROUND_FOCAL,
    DRONE_FOCAL,
    TECHNICAL_CODES,
    AnalysisParams,
    CountMatrix,
    OverlapMatrix,
    SimConfig,
    Track,
    annotation_cost,
    cohens_kappa,
    default_ethogram,
    detect_interactions,
    extract_miniscenes,
    import_cvat_video_xml,
    ols_fit,
    out_of_sight_fraction,
    parse_ground_observations,
    parse_labels,
    parse_video_meta,
    simulate,
    time_budget,
    transition_matrix,
    two_sided_p,
)
from ethokit.cli import main
from conftest import make_labels, make_track, track_from_boxes


@contextmanager
def checklist(name: str, capsys):
    try:
        yield
    except pytest.skip.Exception:
        with capsys.disabled():
            print(f"[SKIP] {name}")
        raise
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name}")
        raise
    with capsys.disabled():
        print(f"[PASS] {name}")


def test_overlap_summary_reproduces_published_group(capsys):
    """Mixed-species group: counts in, possible pairs and per-pair rates out."""
    with checklist("overlap summary reproduces published group values", capsys):
        started = time.monotonic()
        composition = {"grevys_zebra": 11, "plains_zebra": 2, "giraffe": 3}
        counts = {
            ("grevys_zebra", "grevys_zebra"): 4836,
            ("plains_zebra", "plains_zebra"): 93,
            ("giraffe", "giraffe"): 78,
            ("grevys_zebra", "plains_zebra"): 28,
            ("giraffe", "plains_zebra"): 0,
            ("giraffe", "grevys_zebra"): 0,
        }
        matrix = OverlapMatrix.from_counts(composition, counts)
        expected = {
            ("grevys_zebra", "grevys_zebra"): (55, "87.93"),
            ("plains_zebra", "plains_zebra"): (1, "93.00"),
            ("giraffe", "giraffe"): (3, "26.00"),
            ("grevys_zebra", "plains_zebra"): (22, "1.27"),
            ("giraffe", "plains_zebra"): (6, "0.00"),
            ("giraffe", "grevys_zebra"): (33, "0.00"),
        }
        for pair, (possible, normalized) in expected.items():
            entry = matrix.entry(*pair)
            assert entry.possible_pairs == possible, pair
            assert f"{entry.normalized:.2f}" == normalized, pair
        assert time.monotonic() - started < 1.0


def test_annotation_cost_worked_case(capsys):
    with checklist("annotation cost: 3 observers x 600 s -> 2700 s", capsys):
        estimate = annotation_cost(3, 600.0)
        assert estimate.total_s == 2700.0
        assert estimate.total_min == 45.0


def test_t_distribution_tail(capsys):
    with checklist("two-sided t tail at t=4.73, df=5 is 0.005 +/- 0.001", capsys):
        assert abs(two_sided_p(4.73, 5) - 0.005) <= 0.001


def test_miniscene_length_boundary(capsys, meta):
    with checklist("mini-scene length filter: 89 frames out, 90 in", capsys):
        short = make_track("short", frames=range(0, 89))
        kept = make_track("kept", frames=range(0, 90))
        labels = [
            make_labels(0, 88, "G", track_id="short"),
            make_labels(0, 89, "G", track_id="kept"),
        ]
        scenes = extract_miniscenes([short, kept], labels, AnalysisParams(), meta)
        assert [scene.track_id for scene in scenes] == ["kept"]


def _stationary(q: tuple[tuple[float, ...], ...]) -> np.ndarray:
    vec = np.full(len(q), 1.0 / len(q))
    mat = np.asarray(q)
    for _ in range(10_000):
        nxt = vec @ mat
        if np.abs(nxt - vec).max() < 1e-13:
            break
        vec = nxt
    return vec


def test_estimators_recover_known_dynamics(capsys):
    """Pooled transition and budget estimates against the generating chain."""
    with checklist("estimators recover known transition matrix and budget", capsys):
        started = time.monotonic()
        q = (
            (0.90, 0.08, 0.015, 0.005),
            (0.30, 0.60, 0.08, 0.02),
            (0.10, 0.35, 0.50, 0.05),
            (0.05, 0.25, 0.30, 0.40),
        )
        codes = ("G", "W", "TR", "R")
        config = SimConfig(
            seed=101,
            n_individuals=20,
            codes=codes,
            transition=q,
            speeds_mps=(0.05, 1.0, 3.0, 6.0),
            duration_s=5001.0,
        )
        world = simulate(config)
        streams = [world.truth_label_stream(s) for s in world.subjects]

        estimate = transition_matrix(streams, 1.0, codes)
        assert estimate.total >= 100_000
        worst = max(
            abs(estimate.probabilities[i][j] - q[i][j])
            for i in range(4)
            for j in range(4)
        )
        assert worst <= 0.02

        seconds: dict[str, float] = {}
        for stream in streams:
            budget = time_budget(stream)
            for code, sec in budget.seconds.items():
                seconds[code] = seconds.get(code, 0.0) + sec
        visible = sum(seconds.values())
        pi = _stationary(q)
        tv = 0.5 * sum(
            abs(seconds.get(code, 0.0) / visible - pi[i])
            for i, code in enumerate(codes)
        )
        assert tv <= 0.02
        assert time.monotonic() - started < 30.0


def _solve_normal_equations(x: np.ndarray, y: np.ndarray) -> list[float]:
    """Textbook route: Gaussian elimination on X'X b = X'y, no linalg."""
    n, p = x.shape
    xs = x.tolist()
    ys = [float(v) for v in y]
    a = [[sum(xs[k][i] * xs[k][j] for k in range(n)) for j in range(p)] for i in range(p)]
    b = [sum(xs[k][i] * ys[k] for k in range(n)) for i in range(p)]
    for col in range(p):
        pivot = max(range(col, p), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for row in range(col + 1, p):
            factor = a[row][col] / a[col][col]
            for j in range(col, p):
                a[row][j] -= factor * a[col][j]
            b[row] -= factor * b[col]
    beta = [0.0] * p
    for row in range(p - 1, -1, -1):
        tail = sum(a[row][j] * beta[j] for j in range(row + 1, p))
        beta[row] = (b[row] - tail) / a[row][row]
    return beta


def test_ols_oracle_equivalence_and_coverage(capsys):
    with checklist("OLS matches normal-equations oracle; 95% CI calibrated", capsys):
        started = time.monotonic()
        rng = np.random.default_rng(20260814)
        for _ in range(1000):
            p = int(rng.integers(1, 7))
            n = int(rng.integers(p + 2, 51))
            x = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            fit = ols_fit(x, y)
            oracle = _solve_normal_equations(x, y)
            scale = max(1.0, max(abs(v) for v in oracle))
            assert max(
                abs(fit.beta[j] - oracle[j]) for j in range(p)
            ) <= 1e-8 * scale
            gram = np.abs(x.T @ np.asarray(fit.residuals)).max()
            assert gram <= 1e-8 * max(1.0, float(np.abs(y).max())) * n

        design = np.column_stack([np.ones(24), rng.normal(size=(24, 2))])
        beta_true = (0.5, -1.0, 2.0)
        mean_response = design @ np.asarray(beta_true)
        covered = 0
        for _ in range(10_000):
            y = mean_response + rng.normal(size=24)
            fit = ols_fit(design, y)
            for j, truth in enumerate(beta_true):
                if fit.ci_low[j] <= truth <= fit.ci_high[j]:
                    covered += 1
        coverage = covered / 30_000
        assert abs(coverage - 0.95) <= 0.02, coverage
        assert time.monotonic() - started < 60.0


def test_kappa_hand_values(capsys):
    with checklist("Cohen's kappa on hand-computed matrices: 1.0, 0.0, 0.4", capsys):
        perfect = CountMatrix(("a", "b"), ((5, 0), (0, 5)))
        assert cohens_kappa(perfect).kappa == pytest.approx(1.0, abs=1e-12)
        chance = CountMatrix(("a", "b"), ((25, 25), (25, 25)))
        assert cohens_kappa(chance).kappa == pytest.approx(0.0, abs=1e-12)
        partial = CountMatrix(("a", "b"), ((20, 5), (10, 15)))
        assert cohens_kappa(partial).kappa == pytest.approx(0.4, abs=1e-12)


# ratio level -> horizontal offset of the second 10x10 box
_LEVEL_OFFSET = {1.0: 0.0, 0.8: 2.0, 0.6: 4.0, 0.5: 5.0, 0.4: 6.0, 0.0: 12.0}


def _offset_pair(offsets: list[float]) -> tuple[Track, Track]:
    boxes_a = [(f, 50.0, 50.0, 10.0, 10.0) for f in range(len(offsets))]
    boxes_b = [(f, 50.0 + off, 50.0, 10.0, 10.0) for f, off in enumerate(offsets)]
    return (
        track_from_boxes("a", "grevys_zebra", boxes_a),
        track_from_boxes("b", "grevys_zebra", boxes_b),
    )


def _total_frames(events) -> int:
    return sum(e.end_frame - e.start_frame + 1 for e in events)


def test_interaction_detection_properties(capsys):
    """Oracle replay over generated pairs: strict 0.5, 3-vs-4 runs, monotone."""
    with checklist("interaction properties hold on 1000 generated pairs", capsys):
        rng = random.Random(8842)
        qualifying = (1.0, 0.8, 0.6)
        below = (0.5, 0.4, 0.0)
        for _ in range(1000):
            ratios: list[float] = []
            expected: list[tuple[int, int]] = []
            for _ in range(rng.randint(2, 5)):
                ratios.extend([rng.choice(below)] * rng.randint(1, 3))
                run = rng.randint(1, 6)
                start = len(ratios)
                ratios.extend([rng.choice(qualifying)] * run)
                if run >= 4:
                    expected.append((start, start + run - 1))
            ratios.extend([rng.choice(below)] * rng.randint(1, 3))
            pair = _offset_pair([_LEVEL_OFFSET[r] for r in ratios])

            events = detect_interactions(pair)
            assert [(e.start_frame, e.end_frame) for e in events] == expected
            for event in events:
                # a frame at exactly the threshold must never join a run
                assert all(
                    ratios[f] > 0.5
                    for f in range(event.start_frame, event.end_frame + 1)
                )

            tight = detect_interactions(
                pair, AnalysisParams(overlap_ratio_threshold=0.7)
            )
            assert _total_frames(tight) <= _total_frames(events)

            shorter = detect_interactions(pair, AnalysisParams(min_overlap_frames=3))
            assert len(shorter) >= len(events)
            assert _total_frames(shorter) >= _total_frames(events)


def test_pipeline_determinism(tmp_path, capsys):
    with checklist("simulate --seed and compare are byte-identical reruns", capsys):
        sim_a, sim_b = tmp_path / "sim_a", tmp_path / "sim_b"
        assert main(["simulate", "--seed", "23", "--out", str(sim_a)]) == 0
        assert main(["simulate", "--seed", "23", "--out", str(sim_b)]) == 0
        sim_files = ["meta.json", "tracks.csv", "labels.csv", "observations.csv"]
        match, mismatch, errors = filecmp.cmpfiles(sim_a, sim_b, sim_files, shallow=False)
        assert match == sim_files and not mismatch and not errors

        cmp_a, cmp_b = tmp_path / "cmp_a", tmp_path / "cmp_b"
        argv = [
            "compare", str(sim_a),
            "--subject", "ind000",
            "--method-a", "ground_focal",
            "--method-b", "drone_focal",
        ]
        assert main(argv + ["--out", str(cmp_a)]) == 0
        assert main(argv + ["--out", str(cmp_b)]) == 0
        cmp_files = ["paired.csv", "confusion.csv", "agreement.json", "class_metrics.csv"]
        match, mismatch, errors = filecmp.cmpfiles(cmp_a, cmp_b, cmp_files, shallow=False)
        assert match == cmp_files and not mismatch and not errors


def _nearest_meta(start: Path, root: Path):
    """meta.json beside the file or in the closest ancestor inside root."""
    for folder in [start.parent, *start.parent.parents]:
        candidate = folder / "meta.json"
        if candidate.exists():
            return parse_video_meta(candidate.read_text())
        if folder == root:
            break
    return None


def test_worked_example_dataset(capsys):
    """Field recordings reproduce the published occlusion and inertia numbers.

    Needs ETHOKIT_WORKED_EXAMPLE_DIR pointing at the downloaded data:
    session directories (meta.json, observations.csv, labels.csv) plus
    CVAT video-annotation XML exports, each with a meta.json alongside.
    """
    with checklist("worked-example dataset reproduction", capsys):
        root = os.environ.get("ETHOKIT_WORKED_EXAMPLE_DIR", "")
        if not root or not Path(root).is_dir():
            pytest.skip("set ETHOKIT_WORKED_EXAMPLE_DIR to the downloaded dataset")
        root = Path(root)
        ethogram = default_ethogram()

        labeled: list[list] = []  # frame streams per source
        for xml in sorted(root.rglob("*.xml")):
            meta = _nearest_meta(xml, root)
            assert meta is not None, f"{xml.name}: no meta.json alongside"
            tracks, labels = import_cvat_video_xml(xml.read_text(), meta, ethogram)
            assert tracks, f"{xml.name}: no tracks imported"
            if labels:
                labeled.append(labels)

        ground_fracs: list[float] = []
        drone_fracs: list[float] = []
        for meta_path in sorted(root.rglob("meta.json")):
            session = meta_path.parent
            meta = parse_video_meta(meta_path.read_text())
            obs_path = session / "observations.csv"
            if obs_path.exists():
                for stream in parse_ground_observations(obs_path.read_text()):
                    if stream.method == GROUND_FOCAL:
                        ground_fracs.append(out_of_sight_fraction(stream))
                    elif stream.method == DRONE_FOCAL:
                        drone_fracs.append(out_of_sight_fraction(stream))
            labels_path = session / "labels.csv"
            if labels_path.exists():
                streams = parse_labels(labels_path.read_text(), meta.fps)
                if streams:
                    labeled.append(streams)

        if not drone_fracs:
            drone_fracs = [out_of_sight_fraction(s) for streams in labeled for s in streams]
        assert ground_fracs, "no ground focal observation streams found"
        assert drone_fracs, "no drone-derived label or observation streams found"
        assert abs(fmean(ground_fracs) - 0.234) <= 0.03
        assert abs(fmean(drone_fracs) - 0.087) <= 0.03

        codes = sorted(
            {iv.code for streams in labeled for s in streams for iv in s.intervals}
            - TECHNICAL_CODES
        )
        assert "G" in codes, "no grazing labels in the dataset"
        pooled = None
        for streams in labeled:
            try:
                estimate = transition_matrix(streams, 1.0, codes)
            except ValueError:
                continue
            counts = np.asarray(estimate.counts)
            pooled = counts if pooled is None else pooled + counts
        assert pooled is not None, "no countable transition pairs in the dataset"
        g = codes.index("G")
        graze_self = pooled[g][g] / pooled[g].sum()
        assert abs(graze_self - 0.911) <= 0.05
