"""Seeded workload sessions and the CLI operations run against them.

Every input is built through ethokit's public simulator and ingest
writers from the benchmark seed alone; the program only ever sees the
files written here. Each workload is a list of operations, one CLI
invocation each, with the check that judges its output and the session
files that output depends on (the rest of what the command parses is
waste, counted by the traced run as ``ingest.unused_rows``).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ethokit import (
    DRONE_FOCAL,
    GROUND_FOCAL,
    OcclusionZone,
    demo_config,
    observe_focal,
    observe_scan,
    simulate,
    write_ground_observations,
    write_labels,
    write_tracks,
    write_video_meta,
)

import checks

# dense-herd: 32 animals packed into a 32 x 24 m arena, filmed at
# 13.5 px/m (432 x 324 px, just above the 400 x 300 crop), so that boxes
# overlap often; the left half is an occlusion zone with the demo herd's
# per-step loss odds. Interaction cost is pairs x frames: the 496 pairs
# carry the pairwise load, and 45 s of video keeps a round short enough
# that a run holds several (the machine's speed drifts over seconds).
DENSE_INDIVIDUALS = 32
DENSE_DURATION_S = 45.0
DENSE_ARENA_M = (32.0, 24.0)
DENSE_PX_PER_M = 13.5
DENSE_ZONE = OcclusionZone(0.0, 0.0, 16.0, 24.0, 0.468, 0.174)

# field-day: 8 subjects followed for four hours. The occlusion zone
# spans the whole arena, so every subject loses sight at the same rate
# and the cost of a focal comparison does not hinge on where the seed
# happens to put the subject. The loss odds are low enough that one
# focal comparison takes seconds, not the half-minute the quadratic
# visibility filter needs at the demo herd's odds.
FIELD_INDIVIDUALS = 8
FIELD_DURATION_S = 4 * 3600.0
FIELD_ZONE = OcclusionZone(0.0, 0.0, 200.0, 200.0, 0.02, 0.007)
FIELD_SUBJECTS = ("ind000",)
# The opening drone clip of the field day: the only tracks it has.
CLIP_DURATION_S = 10.0

# Hand-tallied overlap frames for the field-day counts-mode summary.
FIELD_COMPOSITION = {"giraffe": 3, "grevys_zebra": 8, "plains_zebra": 6}

# regress tables: habitat (3 levels) x herd size (2 levels), 20 rows a
# cell, with the habitat:herd interaction tested by a nested F-test.
REGRESS_LEVELS = {"habitat": ("bush", "edge", "open"), "herd": ("large", "small")}
REGRESS_ROWS_PER_CELL = 20
REGRESS_NOISE_SD = 0.5
MODERATE_EFFECTS = {"habitat[edge]": 0.15, "habitat[open]": -0.2, "herd[small]": 0.1,
                    "habitat[edge]:herd[small]": 0.1, "habitat[open]:herd[small]": -0.1}
# Strong enough that the true F-test p-value is far below 1e-16; the
# table is fixed (independent of the run seed) because the program
# fails on it every time (see checks.check_regress).
STRONG_EFFECTS = {"habitat[edge]": 0.15, "habitat[open]": -0.2, "herd[small]": 0.1,
                  "habitat[edge]:herd[small]": 1.5, "habitat[open]:herd[small]": -1.5}
STRONG_TABLE_SEED = 20251017

OBSERVER = "sim"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the metric it adds to, its argv, its check.

    ``check`` takes the command's standard output and raises
    ``checks.CheckFailed``; ``uses`` names the session files its output
    depends on; ``known_fault`` names the way it fails today, if it does.
    """

    metric: str
    argv: list[str]
    check: Callable[[str], None]
    uses: frozenset[str] = frozenset()
    known_fault: str | None = None


def _write_session(world, directory: Path, tracer, with_tracks: bool) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    if with_tracks:
        with tracer.span("simulator.tracks"):
            tracks = world.tracks()
    with tracer.span("simulator.observe"):
        streams = observe_scan(world)
        for subject in world.subjects:
            streams.append(observe_focal(world, subject, GROUND_FOCAL))
            streams.append(observe_focal(world, subject, DRONE_FOCAL))
        labels = [world.truth_label_stream(s) for s in world.subjects]
    session = world.meta.session_id
    with tracer.span("ingest.write"):
        write_video_meta(world.meta, directory / "meta.json")
        if with_tracks:
            write_tracks(tracks, directory / "tracks.csv", session)
        write_labels(labels, directory / "labels.csv", session)
        write_ground_observations(streams, directory / "observations.csv", OBSERVER)


def _regress_table(path: Path, effects: dict[str, float], rng: np.random.Generator) -> None:
    rows = []
    for habitat in REGRESS_LEVELS["habitat"]:
        for herd in REGRESS_LEVELS["herd"]:
            mean = effects.get(f"habitat[{habitat}]", 0.0) + effects.get(f"herd[{herd}]", 0.0)
            mean += effects.get(f"habitat[{habitat}]:herd[{herd}]", 0.0)
            for y in mean + rng.normal(0.0, REGRESS_NOISE_SD, REGRESS_ROWS_PER_CELL):
                rows.append((habitat, herd, repr(float(y))))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["habitat", "herd", "graze_dev"])
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _regress_op(root: Path, name: str, known_fault: str | None = None) -> Op:
    table, out = root / f"{name}.csv", root / "out" / name
    return Op(
        "regress",
        ["regress", str(table), "--response", "graze_dev",
         "--config", str(root / "regress.json"), "--out", str(out)],
        lambda stdout: checks.check_regress(out, table, "graze_dev", [("habitat", "herd")]),
        known_fault=known_fault,
    )


def _compare_op(root: Path, session: Path, world, subject: str, method_a: str,
                method_b: str, uses: frozenset[str]) -> Op:
    out = root / "out" / f"compare-{subject}-{method_a}-{method_b}"
    focal = {method_a, method_b} == {GROUND_FOCAL, DRONE_FOCAL}
    return Op(
        "compare",
        ["compare", str(session), "--subject", subject, "--method-a", method_a,
         "--method-b", method_b, "--out", str(out)],
        lambda stdout: checks.check_compare(out, world, subject, focal),
        uses=uses,
    )


def _miniscenes_op(root: Path, session: Path, world) -> Op:
    out = root / "out" / f"miniscenes-{session.name}"
    return Op(
        "miniscenes",
        ["miniscenes", str(session), "--out", str(out)],
        lambda stdout: checks.check_miniscenes(out, stdout, session, world.meta),
        uses=frozenset({"tracks.csv", "labels.csv"}),
    )


def _validate_and_report(root: Path, session: Path, world, files: frozenset[str]) -> list[Op]:
    out = root / "out" / "report"
    return [
        Op("validate", ["validate", str(session)], checks.check_validate, uses=files),
        Op("report", ["report", str(session), "--out", str(out)],
           lambda stdout: checks.check_report(out, world),
           uses=frozenset({"labels.csv", "observations.csv"})),
    ]


def _busiest_subject(world) -> str:
    """The subject whose ten-second focal bins hold the most codes (ties: lowest id).

    Under a minute of jointly visible time gives only a few bins, which
    can all land on one code for a calm animal, and kappa is undefined
    on a single class.
    """
    spread = [len(set(checks.focal_bins(world, s))) for s in world.subjects]
    return world.subjects[int(np.argmax(spread))]


def build_dense_herd(seed: int, root: Path, tracer,
                     duration_s: float = DENSE_DURATION_S) -> list[Op]:
    w, h = DENSE_ARENA_M
    cfg = dataclasses.replace(
        demo_config(seed, DENSE_INDIVIDUALS, duration_s, zones=(DENSE_ZONE,)),
        arena_w_m=w, arena_h_m=h, px_per_m=DENSE_PX_PER_M,
    )
    with tracer.span("simulator.simulate"):
        world = simulate(cfg)
    session = root / "session"
    _write_session(world, session, tracer, with_tracks=True)
    _write_json(root / "regress.json", {"interactions": [["habitat", "herd"]]})
    _regress_table(root / "moderate.csv", MODERATE_EFFECTS, np.random.default_rng([seed, 1]))

    out = root / "out" / "interactions"
    ops = _validate_and_report(
        root, session, world, frozenset({"tracks.csv", "labels.csv", "observations.csv"}))
    return ops + [
        Op("interactions", ["interactions", str(session), "--out", str(out)],
           lambda stdout: checks.check_interactions(out, session, world),
           uses=frozenset({"tracks.csv", "labels.csv"})),
        _miniscenes_op(root, session, world),
        _compare_op(root, session, world, _busiest_subject(world), GROUND_FOCAL, DRONE_FOCAL,
                    frozenset({"observations.csv"})),
        _regress_op(root, "moderate"),
    ]


def build_field_day(seed: int, root: Path, tracer,
                    duration_s: float = FIELD_DURATION_S) -> list[Op]:
    cfg = demo_config(seed, FIELD_INDIVIDUALS, duration_s, zones=(FIELD_ZONE,))
    with tracer.span("simulator.simulate"):
        world = simulate(cfg)
    session = root / "session"
    _write_session(world, session, tracer, with_tracks=False)
    with tracer.span("simulator.simulate"):
        clip_world = simulate(dataclasses.replace(cfg, duration_s=CLIP_DURATION_S))
    clip = root / "clip"
    _write_session(clip_world, clip, tracer, with_tracks=True)

    rng = np.random.default_rng([seed, 2])
    species = sorted(FIELD_COMPOSITION)
    counts = {f"{a}|{b}": int(rng.integers(0, 500))
              for i, a in enumerate(species) for b in species[i:]}
    _write_json(root / "counts.json", {"composition": FIELD_COMPOSITION, "overlap_counts": counts})
    _write_json(root / "regress.json", {"interactions": [["habitat", "herd"]]})
    _regress_table(root / "moderate.csv", MODERATE_EFFECTS, np.random.default_rng([seed, 1]))
    _regress_table(root / "strong.csv", STRONG_EFFECTS, np.random.default_rng(STRONG_TABLE_SEED))

    out = root / "out" / "overlap-counts"
    ops = _validate_and_report(root, session, world, frozenset({"labels.csv", "observations.csv"}))
    ops += [
        Op("interactions",
           ["interactions", "--config", str(root / "counts.json"), "--out", str(out)],
           lambda stdout: checks.check_overlap_counts(out, FIELD_COMPOSITION, counts)),
        _miniscenes_op(root, clip, clip_world),
    ]
    for subject in FIELD_SUBJECTS:
        ops.append(_compare_op(root, session, world, subject, GROUND_FOCAL, DRONE_FOCAL,
                               frozenset({"observations.csv"})))
        ops.append(_compare_op(root, session, world, subject, "ground_scan", "ml_auto",
                               frozenset({"observations.csv", "labels.csv"})))
    return ops + [_regress_op(root, "moderate"),
                  _regress_op(root, "strong", known_fault=checks.P_UNDERFLOW)]


WORKLOADS = {"dense-herd": build_dense_herd, "field-day": build_field_day}
