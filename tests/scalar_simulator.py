"""The per-step simulator and observers, kept as oracles for the library's.

``ethokit.simulator`` once stepped every individual through one loop
that indexed NumPy arrays and bisected over NumPy scalars, and its
observers re-read config properties inside their loops. The library now
converts the draws to Python floats once and runs the chain, the walk
and the occlusion flags as three tight loops. The copies below are the
old code, unchanged but for taking the world as an argument and for
reading runs from the run loop they once held (``scalar_runs``); the
differential tests in ``test_simulator.py`` require both to give equal
worlds and streams, float for float.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ethokit.core import (
    GROUND_FOCAL,
    GROUND_SCAN,
    LABELS,
    ObservationStream,
    ObsInterval,
    Track,
    VideoMeta,
)
from ethokit.core import OUT_OF_SIGHT
from ethokit.simulator import _EPOCH_START, _OBSERVER, SimConfig, SimWorld
from conftest import stream_from_intervals
from scalar_runs import index_runs_scalar as runs


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


def truth_label_stream(world: SimWorld, subject: str) -> ObservationStream:
    """Ground-truth behavior as a frame stream, no technical codes."""
    i = world._index(subject)
    cfg = world.config
    frames_per_step = cfg.step_s * cfg.fps
    intervals = []
    for a, b, k in runs(world.code_steps[i]):
        fa = int(round(a * frames_per_step))
        fb = min(int(round(b * frames_per_step)), cfg.n_frames)
        if fb > fa:
            intervals.append(ObsInterval(fa, fb, cfg.codes[k]))
    return stream_from_intervals(subject, LABELS, tuple(intervals), fps=world.meta.fps)


def tracks(world: SimWorld) -> list[Track]:
    """Bounding-box tracks through the synthetic camera."""
    cfg = world.config
    scale = cfg.px_per_m
    half_w = cfg.body_w_m * scale / 2
    half_h = cfg.body_h_m * scale / 2
    out = []
    for i, subject in enumerate(world.subjects):
        pos = world.positions[i]
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


def observe_scan(world: SimWorld, period_s: float | None = None) -> list[ObservationStream]:
    """Instantaneous whole-group snapshots every period_s seconds."""
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
        streams.append(stream_from_intervals(subject, GROUND_SCAN, tuple(events), _OBSERVER))
    return streams


def observe_focal(world: SimWorld, subject: str, method: str) -> ObservationStream:
    """Continuous focal record with occlusion-dependent sight loss."""
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
    return stream_from_intervals(subject, method, tuple(intervals), _OBSERVER)
