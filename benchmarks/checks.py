"""Output checks that do not come from the program itself.

Each check recomputes what a command should have written from the
simulator's ground truth or from the raw input files, with NumPy and
SciPy, and raises :class:`CheckFailed` on the first disagreement.
``selftest.py`` shows that every check rejects a corrupted output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats as sps

# The analysis defaults the commands run with.
SAMPLE_INTERVAL_S = 10.0
OVERLAP_THRESHOLD = 0.5
MIN_OVERLAP_FRAMES = 4
CROP_W, CROP_H = 400, 300

# Kind of failure the program has today: p-values computed as 1 - cdf
# read exactly 0.0 once the true value drops below about 1e-16.
P_UNDERFLOW = "p-value underflow (1 - cdf)"


class CheckFailed(Exception):
    def __init__(self, message: str, kind: str = "mismatch"):
        super().__init__(message)
        self.kind = kind


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(got: float, want: float, rel: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=0.0):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise CheckFailed(f"missing output {path.name}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows), f"{path.name} is empty")
    return rows[0], rows[1:]


def _read_json(path: Path):
    if not path.exists():
        raise CheckFailed(f"missing output {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def read_track_columns(path: Path) -> dict[str, np.ndarray]:
    """tracks.csv as one (4, frames) array of x, y, w, h per track.

    Every simulated track has a box on every frame from 0, so the frame
    index is the column index; anything else is rejected here.
    """
    header, rows = _read_csv(path)
    _require(header[1] == "track_id" and header[3:8] == ["frame", "x", "y", "w", "h"],
             "tracks.csv header")
    ids = [r[1] for r in rows]
    num = np.array([r[3:8] for r in rows], dtype=float)
    out: dict[str, np.ndarray] = {}
    start = 0
    for k in range(1, len(ids) + 1):
        if k == len(ids) or ids[k] != ids[start]:
            frames = num[start:k, 0]
            _require(np.array_equal(frames, np.arange(k - start)), f"track {ids[start]} has gaps")
            out[ids[start]] = num[start:k, 1:].T.copy()
            start = k
    return out


def _truth_frame_codes(world, subject: str, n_frames: int) -> list[str]:
    cfg = world.config
    steps = world.code_steps[world.subjects.index(subject)]
    per_step = cfg.step_s * cfg.fps
    return [cfg.codes[steps[min(int(f // per_step), len(steps) - 1)]] for f in range(n_frames)]


def expected_interactions(tracks: dict[str, np.ndarray], world) -> list[tuple]:
    """(a, b, start, end, frames, mean_ratio, tag) from per-frame min-area ratios."""
    ids = sorted(tracks)
    events = []
    for i, a in enumerate(ids):
        if i + 1 == len(ids):
            break
        xa, ya, wa, ha = tracks[a]
        others = np.stack([tracks[b] for b in ids[i + 1:]])  # (pairs, 4, frames)
        xb, yb, wb, hb = (others[:, k] for k in range(4))
        ix = np.minimum(xa + wa, xb + wb) - np.maximum(xa, xb)
        iy = np.minimum(ya + ha, yb + hb) - np.maximum(ya, yb)
        overlapping = (ix > 0) & (iy > 0)
        ratio = np.where(overlapping, np.minimum(1.0, ix * iy / np.minimum(wa * ha, wb * hb)), 0.0)
        above = ratio > OVERLAP_THRESHOLD
        for row in np.flatnonzero(above.any(axis=1)):
            edges = np.diff(np.concatenate(([0], above[row].astype(np.int8), [0])))
            for s, e in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
                if e - s >= MIN_OVERLAP_FRAMES:
                    events.append((a, ids[i + 1 + row], int(s), int(e - 1), int(e - s),
                                   float(ratio[row, s:e].mean())))
    tagged = []
    codes: dict[str, list[str]] = {}
    for a, b, s, e, n, mean in events:
        for t in (a, b):
            if t not in codes:
                codes[t] = _truth_frame_codes(world, t, tracks[t].shape[1])
        tally: dict[tuple[str, str], int] = {}
        for f in range(s, e + 1):
            key = (codes[a][f], codes[b][f])
            tally[key] = tally.get(key, 0) + 1
        best = max(tally.values())
        pair = sorted(p for p, c in tally.items() if c == best)[0]
        tagged.append((a, b, s, e, n, mean, f"{pair[0]}|{pair[1]}"))
    return tagged


def check_interactions(out: Path, session: Path, world) -> None:
    want = expected_interactions(read_track_columns(session / "tracks.csv"), world)
    header, rows = _read_csv(out / "interactions.csv")
    _require(header == ["a", "b", "start_frame", "end_frame", "frames", "mean_ratio", "tag"],
             "interactions.csv header")
    _require(len(rows) == len(want), f"{len(rows)} interaction rows, expected {len(want)}")
    for row, (a, b, s, e, n, mean, tag) in zip(rows, want):
        _require(row[:5] == [a, b, str(s), str(e), str(n)] and row[6] == tag,
                 f"interaction row {row} != {(a, b, s, e, n, tag)}")
        _close(float(row[5]), mean, 1e-9, f"mean_ratio of {a}/{b}@{s}")


def check_miniscenes(out: Path, stdout: str, session: Path, meta) -> None:
    tracks = read_track_columns(session / "tracks.csv")
    _require(stdout.startswith(f"{len(tracks)} mini-scene(s)"),
             f"expected one scene per gap-free track ({len(tracks)}), got {stdout.strip()!r}")
    header, rows = _read_csv(out / "miniscenes.csv")
    _require(header == ["track_id", "start_frame", "end_frame", "cx", "cy", "out_w", "out_h"],
             "miniscenes.csv header")
    by_track: dict[str, list[list[str]]] = {}
    for row in rows:
        by_track.setdefault(row[0], []).append(row)
    _require(sorted(by_track) == sorted(tracks), "manifest tracks differ from tracks.csv")
    for track_id, box in tracks.items():
        starts = np.array([int(r[1]) for r in by_track[track_id]])
        ends = np.array([int(r[2]) for r in by_track[track_id]])
        _require(bool(starts[0] == 0 and ends[-1] == box.shape[1] - 1
                      and np.all(starts[1:] == ends[:-1] + 1) and np.all(ends >= starts)),
                 f"manifest rows of {track_id} do not tile its frames")
        _require(all(r[5:] == [str(CROP_W), str(CROP_H)] for r in by_track[track_id]),
                 f"crop size of {track_id}")
        reps = ends - starts + 1
        cx = np.repeat([float(r[3]) for r in by_track[track_id]], reps)
        cy = np.repeat([float(r[4]) for r in by_track[track_id]], reps)
        _require(bool(np.all(cx - CROP_W / 2 >= 0) and np.all(cx + CROP_W / 2 <= meta.width_px)
                      and np.all(cy - CROP_H / 2 >= 0) and np.all(cy + CROP_H / 2 <= meta.height_px)),
                 f"a window of {track_id} leaves the frame")
        x, y, w, h = box
        want_x = np.minimum(np.maximum(x + w / 2.0 - CROP_W / 2, 0.0), meta.width_px - CROP_W)
        want_y = np.minimum(np.maximum(y + h / 2.0 - CROP_H / 2, 0.0), meta.height_px - CROP_H)
        _require(bool(np.allclose(cx, want_x + CROP_W / 2, rtol=1e-12, atol=1e-9)
                      and np.allclose(cy, want_y + CROP_H / 2, rtol=1e-12, atol=1e-9)),
                 f"window centres of {track_id} do not follow its boxes")


def _check_agreement(out: Path) -> dict:
    doc = _read_json(out / "agreement.json")
    header, rows = _read_csv(out / "paired.csv")
    _require(header == ["t", "code_a", "code_b"], "paired.csv header")
    n = len(rows)
    _require(n > 0 and doc["samples"] == n, f"samples {doc['samples']} but {n} paired rows")
    a = [r[1] for r in rows]
    b = [r[2] for r in rows]
    p_o = sum(x == y for x, y in zip(a, b)) / n
    p_e = sum(a.count(c) * b.count(c) for c in set(a) | set(b)) / (n * n)
    kappa = (p_o - p_e) / (1.0 - p_e)
    for key, want in (("p_observed", p_o), ("p_expected", p_e), ("kappa", kappa)):
        _require(math.isclose(doc[key], want, rel_tol=1e-12, abs_tol=1e-12),
                 f"{key} {doc[key]!r} != {want!r} recomputed from paired.csv")
    return doc


def focal_bins(world, subject: str) -> list[str]:
    """The truth code of each ten-second bin of jointly visible time.

    Both focal logs follow the truth and differ only where one observer
    lost sight; that time is excised from both, and what is left is cut
    into whole bins. A bin takes its majority code; a tie goes to the
    code at the bin's start, else to the tied code seen first.
    """
    i = world.subjects.index(subject)
    cfg = world.config
    visible = ~np.array(world.occluded_ground[i]) & ~np.array(world.occluded_drone[i])
    codes = [cfg.codes[k] for k, seen in zip(world.code_steps[i], visible) if seen]
    per_bin = int(round(SAMPLE_INTERVAL_S / cfg.step_s))
    bins = []
    for k in range(math.floor(len(codes) * cfg.step_s / SAMPLE_INTERVAL_S)):
        window = codes[k * per_bin:(k + 1) * per_bin]
        tally = {c: window.count(c) for c in dict.fromkeys(window)}
        best = max(tally.values())
        winners = [c for c, n in tally.items() if n == best]
        bins.append(window[0] if window[0] in winners else winners[0])
    return bins


def check_compare(out: Path, world, subject: str, focal: bool) -> None:
    doc = _check_agreement(out)
    if not focal:
        return
    want = focal_bins(world, subject)
    _require(doc["samples"] == len(want),
             f"{doc['samples']} samples, expected floor(jointly visible seconds / "
             f"{SAMPLE_INTERVAL_S:g}) = {len(want)}")
    _require(doc["kappa"] == 1.0, f"focal kappa {doc['kappa']!r} != 1")
    _, rows = _read_csv(out / "paired.csv")
    _require([r[1] for r in rows] == want and [r[2] for r in rows] == want,
             "paired codes differ from the truth's ten-second bins")


def check_report(out: Path, world) -> None:
    cfg = world.config
    header, rows = _read_csv(out / "timebudget.csv")
    _require(header == ["source", "subject", "code", "seconds", "proportion"], "timebudget header")
    for source, hidden in (("labels", None), ("ground_focal", world.occluded_ground),
                           ("drone_focal", world.occluded_drone)):
        got = {(r[1], r[2]): float(r[3]) for r in rows if r[0] == source}
        want = {}
        for i, (subject, steps) in enumerate(zip(world.subjects, world.code_steps)):
            seen = np.array(steps)[~np.array(hidden[i])] if hidden else np.array(steps)
            for k, c in zip(*np.unique(seen, return_counts=True)):
                want[(subject, cfg.codes[k])] = float(c) * cfg.step_s
        _require(got == want, f"{source} budget seconds differ from the truth step counts")

    stride = int(round(SAMPLE_INTERVAL_S / cfg.step_s))
    codes = sorted({cfg.codes[k] for steps in world.code_steps for k in set(steps)})
    pos = {cfg.codes.index(c): j for j, c in enumerate(codes)}
    counts = np.zeros((len(codes), len(codes)))
    for steps in world.code_steps:
        sampled = [pos[k] for k in steps[::stride]]
        np.add.at(counts, (sampled[:-1], sampled[1:]), 1)
    header, rows = _read_csv(out / "transitions.csv")
    _require(header == ["code"] + codes, f"transitions header {header}")
    for j, row in enumerate(rows):
        total = counts[j].sum()
        want_p = [c / total if total else 0.0 for c in counts[j]]
        _require(row[0] == codes[j] and np.allclose([float(v) for v in row[1:]], want_p,
                                                    rtol=1e-12, atol=1e-15),
                 f"transition row {row[0]} differs from truth sampled every {SAMPLE_INTERVAL_S} s")
    for name in ("transitions.svg", "gantt.svg"):
        _require((out / name).exists() and (out / name).stat().st_size > 0, f"missing {name}")


def _design(table: Path, response: str, interactions):
    header, rows = _read_csv(table)
    factors = [c for c in header if c != response]
    levels = {f: sorted({r[header.index(f)] for r in rows}) for f in factors}
    cols = {"intercept": np.ones(len(rows))}
    for f in factors:
        values = np.array([r[header.index(f)] for r in rows])
        for level in levels[f][1:]:
            cols[f"{f}[{level}]"] = (values == level).astype(float)
    main = list(cols)
    for f1, f2 in interactions:
        for l1 in levels[f1][1:]:
            for l2 in levels[f2][1:]:
                cols[f"{f1}[{l1}]:{f2}[{l2}]"] = cols[f"{f1}[{l1}]"] * cols[f"{f2}[{l2}]"]
    y = np.array([float(r[header.index(response)]) for r in rows])
    return list(cols), np.column_stack(list(cols.values())), y, len(main)


def regress_reference(table: Path, response: str, interactions):
    """(terms, betas, t-test p-values, F-test p) from lstsq and scipy survival functions."""
    names, x, y, n_main = _design(table, response, interactions)
    n, p = x.shape
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    rss = float(np.sum((y - x @ beta) ** 2))
    df = n - p
    se = np.sqrt(rss / df * np.diag(np.linalg.inv(x.T @ x)))
    p_t = 2.0 * sps.t.sf(np.abs(beta / se), df)
    reduced, *_ = np.linalg.lstsq(x[:, :n_main], y, rcond=None)
    rss_r = float(np.sum((y - x[:, :n_main] @ reduced) ** 2))
    f = ((rss_r - rss) / (p - n_main)) / (rss / df)
    return names, beta, p_t, float(sps.f.sf(f, p - n_main, df))


def check_regress(out: Path, table: Path, response: str, interactions) -> None:
    names, beta, p_t, p_f = regress_reference(table, response, interactions)
    header, rows = _read_csv(out / "regression.csv")
    _require(header[:5] == ["term", "beta", "se", "t", "p"], "regression.csv header")
    _require([r[0] for r in rows] == names, f"terms {[r[0] for r in rows]} != {names}")
    scale = float(np.max(np.abs(beta)))
    for row, b in zip(rows, beta):
        _require(math.isclose(float(row[1]), b, rel_tol=1e-9, abs_tol=1e-12 * scale),
                 f"beta of {row[0]}: {row[1]} != lstsq {float(b)!r}")
    model = _read_json(out / "model.json")
    got_p = [(f"p of {r[0]}", float(r[4]), w) for r, w in zip(rows, p_t)]
    got_p.append(("interaction F-test p", model["interaction_test"]["p"], p_f))
    for what, got, want in got_p:
        if not math.isclose(got, want, rel_tol=1e-6, abs_tol=0.0):
            kind = P_UNDERFLOW if got == 0.0 and want > 0.0 else "mismatch"
            raise CheckFailed(f"{what}: got {got!r}, scipy sf gives {float(want)!r}", kind)


def check_overlap_counts(out: Path, composition: dict[str, int], counts: dict[str, int]) -> None:
    header, rows = _read_csv(out / "overlap_summary.csv")
    _require(header == ["species_a", "species_b", "overlap_count", "possible_pairs", "normalized"],
             "overlap_summary.csv header")
    names = sorted(composition)
    want = []
    for i, a in enumerate(names):
        for b in names[i:]:
            possible = composition[a] * (composition[a] - 1) // 2 if a == b else composition[a] * composition[b]
            count = counts.get(f"{a}|{b}", 0)
            want.append([a, b, str(count), str(possible), f"{count / possible:.2f}"])
    _require(rows == want, "overlap summary differs from counts / possible pairs")


def check_validate(stdout: str) -> None:
    _require(stdout.strip() == "ok", f"validate printed {stdout.strip()!r}")
