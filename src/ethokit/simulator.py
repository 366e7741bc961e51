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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
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
    runs,
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
        if self.duration_s <= 0 or self.step_s <= 0 or self.fps <= 0:
            raise ValueError("duration, step and fps must be positive")
        if self.scan_period_s <= 0:
            raise ValueError("scan period must be positive")
        if self.arena_w_m <= 0 or self.arena_h_m <= 0 or self.px_per_m <= 0:
            raise ValueError("arena and camera scale must be positive")
        for zone in self.zones:
            if not (0 <= zone.p_ground <= 1 and 0 <= zone.p_drone <= 1):
                raise ValueError("zone loss probabilities must lie in [0, 1]")
        if self.initial_code is not None and self.initial_code not in self.codes:
            raise ValueError(f"initial code {self.initial_code!r} not among codes")

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
        i = self._index(subject)
        cfg = self.config
        frames_per_step = cfg.step_s * cfg.fps
        intervals = []
        for a, b, k in runs(self.code_steps[i]):
            fa = int(round(a * frames_per_step))
            fb = min(int(round(b * frames_per_step)), cfg.n_frames)
            if fb > fa:
                intervals.append(ObsInterval(fa, fb, cfg.codes[k]))
        return ObservationStream(subject, LABELS, tuple(intervals), fps=self.meta.fps)

    def tracks(self) -> list[Track]:
        """Bounding-box tracks through the synthetic camera.

        Built on demand: positions are linearly interpolated between
        steps and projected with the fixed px_per_m scale.
        """
        cfg = self.config
        scale = cfg.px_per_m
        half_w = cfg.body_w_m * scale / 2
        half_h = cfg.body_h_m * scale / 2
        out = []
        for i, subject in enumerate(self.subjects):
            pos = self.positions[i]
            xs, ys = [], []
            for frame in range(cfg.n_frames):
                t = frame / cfg.fps / cfg.step_s
                k = min(int(t), len(pos) - 1)
                frac = t - k
                nxt = pos[min(k + 1, len(pos) - 1)]
                x = (pos[k][0] + (nxt[0] - pos[k][0]) * frac) * scale
                y = (pos[k][1] + (nxt[1] - pos[k][1]) * frac) * scale
                xs.append(x - half_w)
                ys.append(y - half_h)
            n = cfg.n_frames
            out.append(
                Track(subject, cfg.species, range(n), xs, ys, (2 * half_w,) * n, (2 * half_h,) * n)
            )
        return out


def simulate(config: SimConfig) -> SimWorld:
    """Run the chain and the walk; same config, same world, always."""
    import numpy as np

    cfg = config
    k_codes = len(cfg.codes)
    cum_rows = [list(np.cumsum(row)) for row in cfg.transition]
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
        x = float(gen.random()) * cfg.arena_w_m
        y = float(gen.random()) * cfg.arena_h_m
        heading = float(gen.random()) * 2 * math.pi
        if cfg.initial_code is not None:
            code = cfg.codes.index(cfg.initial_code)
        else:
            code = int(gen.integers(k_codes))
        noise = gen.normal(0.0, cfg.heading_sd_rad, n_steps)
        u_trans = gen.random(n_steps)
        u_ground = gen.random(n_steps)
        u_drone = gen.random(n_steps)

        codes = []
        pos = []
        occl_g = []
        occl_d = []
        for k in range(n_steps):
            codes.append(code)
            pos.append((x, y))
            zone = next((z for z in cfg.zones if z.contains(x, y)), None)
            occl_g.append(zone is not None and u_ground[k] < zone.p_ground)
            occl_d.append(zone is not None and u_drone[k] < zone.p_drone)

            heading += float(noise[k])
            dist = cfg.speeds_mps[code] * cfg.step_s
            nx = x + math.cos(heading) * dist
            ny = y + math.sin(heading) * dist
            nx, flip_x = _fold(nx, cfg.arena_w_m)
            ny, flip_y = _fold(ny, cfg.arena_h_m)
            if flip_x:
                heading = math.pi - heading
            if flip_y:
                heading = -heading
            x, y = nx, ny

            nxt = bisect_right(cum_rows[code], float(u_trans[k]))
            code = min(nxt, k_codes - 1)

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


def _fold(v: float, hi: float) -> tuple[float, bool]:
    """Mirror-fold v into [0, hi]; True when the net direction flipped."""
    period = 2 * hi
    m = v % period
    if m > hi:
        return period - m, True
    return m, False


def observe_scan(world: SimWorld, period_s: float | None = None) -> list[ObservationStream]:
    """Instantaneous whole-group snapshots every period_s seconds.

    Instants run k * period_s for k = 0, 1, ... up to and including the
    session end; an individual occluded (ground method) at an instant
    simply yields no event there.
    """
    cfg = world.config
    period = cfg.scan_period_s if period_s is None else period_s
    if period <= 0:
        raise ValueError("scan period must be positive")
    t0 = world.meta.start_time.timestamp()
    instants = []
    k = 0
    while k * period <= cfg.duration_s + 1e-9:
        instants.append(k * period)
        k += 1
    streams = []
    for i, subject in enumerate(world.subjects):
        events = []
        for t in instants:
            step = min(int(t / cfg.step_s), cfg.n_steps - 1)
            if world.occluded_ground[i][step]:
                continue
            code = cfg.codes[world.code_steps[i][step]]
            events.append(ObsInterval(t0 + t, t0 + t, code))
        streams.append(ObservationStream(subject, GROUND_SCAN, tuple(events), _OBSERVER))
    return streams


def observe_focal(world: SimWorld, subject: str, method: str) -> ObservationStream:
    """Continuous focal record with occlusion-dependent sight loss."""
    if method not in (GROUND_FOCAL, DRONE_FOCAL):
        raise ValueError(f"focal observation method must be ground or drone focal, got {method!r}")
    i = world._index(subject)
    cfg = world.config
    occl = world.occluded_ground[i] if method == GROUND_FOCAL else world.occluded_drone[i]
    observed = [
        OUT_OF_SIGHT if occl[k] else cfg.codes[world.code_steps[i][k]]
        for k in range(cfg.n_steps)
    ]
    t0 = world.meta.start_time.timestamp()
    step = cfg.step_s
    intervals = [ObsInterval(t0 + a * step, t0 + b * step, code) for a, b, code in runs(observed)]
    return ObservationStream(subject, method, tuple(intervals), _OBSERVER)


def export_world(world: SimWorld, out_dir: str | Path) -> list[Path]:
    """Write the world through the canonical file formats.

    Emits meta.json, tracks.csv, labels.csv (ground truth) and
    observations.csv (scan plus both focal methods per individual), so
    the full analytics pipeline runs unchanged on synthetic data.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    written = []
    for name, text in files.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


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
