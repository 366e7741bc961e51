"""Deterministic synthetic herd generator.

Ground truth comes from a per-individual discrete-time Markov chain
(one step per step_s) driving a reflected heading random walk whose
speed depends on the current behavior. A fixed affine meters-to-pixels
camera turns positions into bounding-box tracks, and per-method
occlusion zones degrade the ground and drone observer streams
independently. Everything is a pure function of the config: randomness
is Philox keyed (seed, individual), with each individual's draws laid
out as fixed-size blocks, so equal configs give bit-identical worlds.
NumPy, which supplies the generator, is imported by :func:`simulate`.

The draws are converted to Python floats once, and each individual runs
three tight loops: the chain, the walk, then the occlusion flags. The
arithmetic is the original per-step loop's, operation for operation, so
worlds stay bit-identical to it (``tests/scalar_simulator.py`` keeps that
loop as the oracle). Steps, frames and scan instants are each made one
by one, so each count is refused past ``core.MAX_SAMPLES`` before its
loop starts: steps and scan instants by :class:`SimConfig`, a
``period_s`` by :func:`observe_scan`, and frames by
:meth:`SimWorld.tracks` (a long chain that is never filmed may have
more).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress
from math import cos, pi, sin
from operator import lt
from pathlib import Path
from typing import NamedTuple, Sequence

from .core import (
    DRONE_FOCAL,
    GREVYS_ZEBRA,
    GROUND_FOCAL,
    GROUND_SCAN,
    LABELS,
    ObservationStream,
    ObsInterval,
    Track,
    VideoMeta,
    obs_intervals,
    run_edges,
    sample_count,
    write_text,
)
from .ethogram import OUT_OF_SIGHT
from .ingest import (
    dump_ground_observations,
    dump_labels,
    dump_tracks,
    dump_video_meta,
)

__all__ = [
    "OcclusionZone",
    "SimConfig",
    "SimWorld",
    "simulate",
    "observe_scan",
    "observe_focal",
    "export_world",
    "demo_config",
]

# All simulated sessions start at the same arbitrary wall-clock origin.
_EPOCH_START = datetime(2023, 1, 1, 6, 0, 0, tzinfo=timezone.utc)

_OBSERVER = "sim"

# A scan instant this close past the session end still counts.
_SCAN_SLACK_S = 1e-9


class OcclusionZone(NamedTuple):
    """Arena rectangle where an observer may lose sight, per method."""

    x: float
    y: float
    w: float
    h: float
    p_ground: float  # per-step probability of losing a ground observer
    p_drone: float

    def contains(self, px: float, py: float) -> bool:
        return self.x <= px < self.x + self.w and self.y <= py < self.y + self.h


def _bound(name: str, span: float, delta: float) -> None:
    """sample_count's refusal of more than MAX_SAMPLES steps, naming what is counted."""
    try:
        sample_count(span, delta)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class SimConfig:
    seed: int
    n_individuals: int
    codes: tuple[str, ...]
    transition: tuple[tuple[float, ...], ...]  # row-stochastic, applied per step_s
    speeds_mps: tuple[float, ...]  # aligned with codes
    arena_w_m: float = 200.0
    arena_h_m: float = 200.0
    zones: tuple[OcclusionZone, ...] = ()
    fps: float = 30.0
    duration_s: float = 600.0
    scan_period_s: float = 120.0
    step_s: float = 1.0
    heading_sd_rad: float = 0.6
    initial_code: str | None = None
    species: str = GREVYS_ZEBRA
    px_per_m: float = 8.0
    body_w_m: float = 2.4
    body_h_m: float = 1.2

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        object.__setattr__(self, "transition", tuple(tuple(map(float, r)) for r in self.transition))
        object.__setattr__(self, "speeds_mps", tuple(map(float, self.speeds_mps)))
        object.__setattr__(self, "zones", tuple(OcclusionZone(*z) for z in self.zones))
        k = len(self.codes)
        if k == 0:
            raise ValueError("need at least one behavior code")
        if len(self.transition) != k or any(len(row) != k for row in self.transition):
            raise ValueError("transition matrix must be square over codes")
        for row in self.transition:
            if any(q < 0 for q in row):
                raise ValueError("transition probabilities must be non-negative")
            if abs(sum(row) - 1.0) > 1e-12:
                raise ValueError(f"transition row sums to {sum(row)}, expected 1")
        if len(self.speeds_mps) != k:
            raise ValueError("speeds must align with codes")
        if any(s < 0 for s in self.speeds_mps):
            raise ValueError("speeds must be non-negative")
        if self.n_individuals < 1:
            raise ValueError("need at least one individual")
        if not all(0 < v < math.inf for v in (self.duration_s, self.step_s, self.fps)):
            raise ValueError("duration, step and fps must be positive and finite")
        if not 0 < self.scan_period_s < math.inf:
            raise ValueError("scan period must be positive and finite")
        if self.arena_w_m <= 0 or self.arena_h_m <= 0 or self.px_per_m <= 0:
            raise ValueError("arena and camera scale must be positive")
        for zone in self.zones:
            if not (0 <= zone.p_ground <= 1 and 0 <= zone.p_drone <= 1):
                raise ValueError("zone loss probabilities must lie in [0, 1]")
        if self.initial_code is not None and self.initial_code not in self.codes:
            raise ValueError(f"initial code {self.initial_code!r} not among codes")
        # Every world makes each step and scan instant one by one, so
        # both counts are bounded before anything is allocated.
        _bound("steps (duration_s / step_s)", self.duration_s, self.step_s)
        _bound(
            "scan instants (duration_s / scan_period_s)",
            self.duration_s + _SCAN_SLACK_S,
            self.scan_period_s,
        )

    def bound_frames(self) -> None:
        """ValueError if the camera would make more than MAX_SAMPLES frames a track.

        Only :meth:`SimWorld.tracks` makes every frame, so a long chain
        that is never filmed may have more.
        """
        _bound("frames (duration_s * fps)", self.duration_s, 1 / self.fps)

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.duration_s / self.step_s)))

    @property
    def n_frames(self) -> int:
        return max(1, int(round(self.duration_s * self.fps)))


@dataclass(frozen=True)
class SimWorld:
    """Materialized simulation: per-step truth, positions, occlusion."""

    config: SimConfig
    meta: VideoMeta
    subjects: tuple[str, ...]
    code_steps: tuple[tuple[int, ...], ...]  # code index per individual per step
    positions: tuple[tuple[tuple[float, float], ...], ...]  # meters
    occluded_ground: tuple[tuple[bool, ...], ...]
    occluded_drone: tuple[tuple[bool, ...], ...]

    def _index(self, subject: str) -> int:
        try:
            return self.subjects.index(subject)
        except ValueError:
            raise ValueError(f"unknown subject {subject!r}") from None

    def truth_label_stream(self, subject: str) -> ObservationStream:
        """Ground-truth behavior as a frame stream, no technical codes."""
        steps = self.code_steps[self._index(subject)]
        cfg = self.config
        frames_per_step = cfg.step_s * cfg.fps
        n_frames = cfg.n_frames
        edges = run_edges(steps)
        # One run ends on the frame where the next begins; a run that
        # rounds to no frame, or starts past the last one, is dropped.
        bounds = [min(round(e * frames_per_step), n_frames) for e in edges]
        codes = [cfg.codes[steps[e]] for e in edges[:-1]]
        runs = zip(bounds, bounds[1:], codes)
        intervals = obs_intervals(compress(runs, map(lt, bounds, bounds[1:])))
        return ObservationStream(subject, LABELS, intervals, fps=self.meta.fps)

    def tracks(self) -> list[Track]:
        """Bounding-box tracks through the synthetic camera.

        Built on demand: positions are linearly interpolated between
        steps and projected with the fixed px_per_m scale. More than
        ``core.MAX_SAMPLES`` frames a track is refused before any is made.
        """
        cfg = self.config
        cfg.bound_frames()
        fps, step_s = cfg.fps, cfg.step_s
        scale = cfg.px_per_m
        half_w = cfg.body_w_m * scale / 2
        half_h = cfg.body_h_m * scale / 2
        n = cfg.n_frames
        out = []
        for subject, pos in zip(self.subjects, self.positions):
            last = len(pos) - 1
            xs, ys = [], []
            for frame in range(n):
                t = frame / fps / step_s
                k = int(t)
                if k > last:
                    k = last
                frac = t - k
                x0, y0 = pos[k]
                x1, y1 = pos[k + 1] if k < last else pos[last]
                xs.append((x0 + (x1 - x0) * frac) * scale - half_w)
                ys.append((y0 + (y1 - y0) * frac) * scale - half_h)
            out.append(
                Track(subject, cfg.species, range(n), xs, ys, (2 * half_w,) * n, (2 * half_h,) * n)
            )
        return out


def simulate(config: SimConfig) -> SimWorld:
    """Run the chain and the walk; same config, same world, always."""
    import numpy as np

    cfg = config
    last_code = len(cfg.codes) - 1
    cum_rows = [np.cumsum(row).tolist() for row in cfg.transition]
    dists = [speed * cfg.step_s for speed in cfg.speeds_mps]
    w, h = cfg.arena_w_m, cfg.arena_h_m
    period_w, period_h = 2 * w, 2 * h
    zones = [(z.x, z.x + z.w, z.y, z.y + z.h, z.p_ground, z.p_drone) for z in cfg.zones]
    n_steps = cfg.n_steps

    subjects = tuple(f"ind{i:03d}" for i in range(cfg.n_individuals))
    all_codes = []
    all_pos = []
    all_og = []
    all_od = []
    for i in range(cfg.n_individuals):
        gen = np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
        # Fixed draw layout per individual: position, heading, initial
        # code, then per-step blocks. Occlusion draws are unconditional
        # so the layout never depends on the trajectory.
        x = float(gen.random()) * w
        y = float(gen.random()) * h
        heading = float(gen.random()) * 2 * math.pi
        if cfg.initial_code is not None:
            code = cfg.codes.index(cfg.initial_code)
        else:
            code = int(gen.integers(last_code + 1))
        noise = gen.normal(0.0, cfg.heading_sd_rad, n_steps).tolist()
        u_trans = gen.random(n_steps).tolist()
        u_ground = gen.random(n_steps).tolist()
        u_drone = gen.random(n_steps).tolist()

        # The chain: the code at each step, then the draw that leaves it.
        codes = []
        for u in u_trans:
            codes.append(code)
            code = bisect_right(cum_rows[code], u)
            if code > last_code:
                code = last_code

        # The walk: turn, move at the code's speed, mirror-fold into the
        # arena, and reverse the heading's component along a fold.
        pos = []
        for dist, turn in zip(map(dists.__getitem__, codes), noise):
            pos.append((x, y))
            heading += turn
            x += cos(heading) * dist
            y += sin(heading) * dist
            x %= period_w
            if x > w:
                x = period_w - x
                heading = pi - heading
            y %= period_h
            if y > h:
                y = period_h - y
                heading = -heading

        # Sight loss: the first zone holding the position decides
        # (the test of OcclusionZone.contains, on bounds summed once).
        occl_g = []
        occl_d = []
        for (px, py), ug, ud in zip(pos, u_ground, u_drone):
            for x0, x1, y0, y1, p_ground, p_drone in zones:
                if x0 <= px < x1 and y0 <= py < y1:
                    occl_g.append(ug < p_ground)
                    occl_d.append(ud < p_drone)
                    break
            else:
                occl_g.append(False)
                occl_d.append(False)

        all_codes.append(tuple(codes))
        all_pos.append(tuple(pos))
        all_og.append(tuple(occl_g))
        all_od.append(tuple(occl_d))

    meta = VideoMeta(
        session_id=f"sim-{cfg.seed}",
        width_px=int(math.ceil(cfg.arena_w_m * cfg.px_per_m)),
        height_px=int(math.ceil(cfg.arena_h_m * cfg.px_per_m)),
        start_time=_EPOCH_START,
        fps=cfg.fps,
    )
    return SimWorld(
        cfg,
        meta,
        subjects,
        tuple(all_codes),
        tuple(all_pos),
        tuple(all_og),
        tuple(all_od),
    )


def observe_scan(world: SimWorld, period_s: float | None = None) -> list[ObservationStream]:
    """Instantaneous whole-group snapshots every period_s seconds.

    Instants run k * period_s for k = 0, 1, ... up to and including the
    session end; an individual occluded (ground method) at an instant
    simply yields no event there.
    """
    cfg = world.config
    period = cfg.scan_period_s if period_s is None else period_s
    if not 0 < period < math.inf:
        raise ValueError("scan period must be positive and finite")
    end = cfg.duration_s + _SCAN_SLACK_S
    _bound("scan instants (duration_s / period_s)", end, period)
    t0 = world.meta.start_time.timestamp()
    instants = []
    k = 0
    while k * period <= end:
        instants.append(k * period)
        k += 1
    last_step = cfg.n_steps - 1
    steps = [min(int(t / cfg.step_s), last_step) for t in instants]
    codes = cfg.codes
    streams = []
    for subject, code_steps, occluded in zip(
        world.subjects, world.code_steps, world.occluded_ground
    ):
        events = [
            ObsInterval(t0 + t, t0 + t, codes[code_steps[step]])
            for t, step in zip(instants, steps)
            if not occluded[step]
        ]
        streams.append(ObservationStream(subject, GROUND_SCAN, tuple(events), _OBSERVER))
    return streams


def observe_focal(world: SimWorld, subject: str, method: str) -> ObservationStream:
    """Continuous focal record with occlusion-dependent sight loss."""
    if method not in (GROUND_FOCAL, DRONE_FOCAL):
        raise ValueError(f"focal observation method must be ground or drone focal, got {method!r}")
    i = world._index(subject)
    cfg = world.config
    occl = world.occluded_ground[i] if method == GROUND_FOCAL else world.occluded_drone[i]
    codes = cfg.codes
    observed = [
        OUT_OF_SIGHT if hidden else codes[k] for hidden, k in zip(occl, world.code_steps[i])
    ]
    t0 = world.meta.start_time.timestamp()
    step = cfg.step_s
    edges = run_edges(observed)
    times = [t0 + e * step for e in edges]
    run_codes = [observed[e] for e in edges[:-1]]
    intervals = obs_intervals(zip(times, times[1:], run_codes))
    return ObservationStream(subject, method, intervals, _OBSERVER)


def export_world(world: SimWorld, out_dir: str | Path) -> list[Path]:
    """Write the world through the canonical file formats.

    Emits meta.json, tracks.csv, labels.csv (ground truth) and
    observations.csv (scan plus both focal methods per individual), so
    the full analytics pipeline runs unchanged on synthetic data. Each
    file is written whole or not at all, the directory made if need be.
    """
    out = Path(out_dir)
    session = world.meta.session_id
    streams: list[ObservationStream] = list(observe_scan(world))
    for subject in world.subjects:
        streams.append(observe_focal(world, subject, GROUND_FOCAL))
        streams.append(observe_focal(world, subject, DRONE_FOCAL))
    labels = [world.truth_label_stream(s) for s in world.subjects]
    files = {
        "meta.json": dump_video_meta(world.meta),
        "tracks.csv": dump_tracks(world.tracks(), session),
        "labels.csv": dump_labels(labels, session),
        "observations.csv": dump_ground_observations(streams, _OBSERVER),
    }
    return [write_text(out / name, text) for name, text in files.items()]


def demo_config(
    seed: int,
    n_individuals: int = 8,
    duration_s: float = 600.0,
    zones: Sequence[OcclusionZone] | None = None,
) -> SimConfig:
    """Four-gait zebra herd with sticky grazing, ready to simulate."""
    if zones is None:
        zones = (OcclusionZone(0.0, 100.0, 200.0, 100.0, 0.468, 0.174),)
    return SimConfig(
        seed=seed,
        n_individuals=n_individuals,
        codes=("G", "W", "TR", "R"),
        transition=(
            (0.90, 0.08, 0.015, 0.005),
            (0.30, 0.60, 0.08, 0.02),
            (0.10, 0.35, 0.50, 0.05),
            (0.05, 0.25, 0.30, 0.40),
        ),
        speeds_mps=(0.05, 1.0, 3.0, 6.0),
        duration_s=duration_s,
        zones=tuple(zones),
    )
