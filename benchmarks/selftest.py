"""Show that every output check rejects a corrupted output.

    python3 benchmarks/selftest.py

Run from the root of an ethokit source tree. Builds both workloads at a
reduced length, runs each command in process, confirms that its check
accepts the real output (and that the known-fault operation fails only
in its named way), then corrupts the output in several ways and
confirms that the check rejects each corruption. Exits 1 if any
corruption is accepted.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ethokit.cli as cli  # noqa: E402

from checks import CheckFailed, regress_reference  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import build_dense_herd, build_field_day  # noqa: E402

SHORT = {"dense-herd": (build_dense_herd, 60.0), "field-day": (build_field_day, 3600.0)}


def _edit_csv(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _nudge(text: str, rel: float) -> str:
    return repr(float(text) * (1.0 + rel))


def _set(rows, i: int, j: int, value: str) -> None:
    rows[i][j] = value


def _shift_budget(rows, source: str) -> None:
    row = next(r for r in rows if r[0] == source)
    row[3] = repr(float(row[3]) + 1.0)


def _flip_code(rows) -> None:
    row = rows[len(rows) // 2]
    row[2] = "R" if row[2] != "R" else "G"


def _drop_paired_row(out: Path) -> None:
    """One bin fewer, with agreement.json made consistent with paired.csv."""
    rows = []
    _edit_csv(out / "paired.csv", lambda r: (r.pop(), rows.extend(r[1:])))
    n = len(rows)
    a, b = [r[1] for r in rows], [r[2] for r in rows]
    p_o = sum(x == y for x, y in zip(a, b)) / n
    p_e = sum(a.count(c) * b.count(c) for c in set(a) | set(b)) / (n * n)
    _edit_json(out / "agreement.json", lambda d: d.update(
        samples=n, p_observed=p_o, p_expected=p_e, kappa=(p_o - p_e) / (1 - p_e)))


def _sf_p_values(out: Path, table: Path) -> None:
    """Replace the program's p-values by scipy's survival functions."""
    _, _, p_t, p_f = regress_reference(table, "graze_dev", [("habitat", "herd")])
    _edit_csv(out / "regression.csv",
              lambda rows: [_set(rows, k + 1, 4, repr(float(v))) for k, v in enumerate(p_t)])
    _edit_json(out / "model.json", lambda d: d["interaction_test"].update(p=p_f))
    print(f"  strong table: true F-test p = {p_f:.3g} (program prints 0.0)")


def corruptions(op, out: Path):
    """(description, function of the output dir returning the stdout to check)."""
    name = op.argv[0]
    if name == "validate":
        return [("prints an issue instead of ok", lambda o, s: "track[ind000]: empty species\n")]
    if name == "interactions" and "--config" in op.argv:
        return [("one normalized value off by 0.01",
                 lambda o, s: _edit_csv(o / "overlap_summary.csv",
                                        lambda r: _set(r, 1, 4, f"{float(r[1][4]) + 0.01:.2f}")))]
    if name == "interactions":
        return [
            ("mean_ratio off by 1e-6 relative",
             lambda o, s: _edit_csv(o / "interactions.csv", lambda r: _set(r, 1, 5, _nudge(r[1][5], 1e-6)))),
            ("one event dropped", lambda o, s: _edit_csv(o / "interactions.csv", lambda r: r.pop())),
            ("an event one frame longer",
             lambda o, s: _edit_csv(o / "interactions.csv",
                                    lambda r: (_set(r, 1, 3, str(int(r[1][3]) + 1)),
                                               _set(r, 1, 4, str(int(r[1][4]) + 1))))),
            ("a tag replaced", lambda o, s: _edit_csv(o / "interactions.csv",
                                                      lambda r: _set(r, 1, 6, "X|Y"))),
        ]
    if name == "miniscenes":
        return [
            ("a manifest row dropped", lambda o, s: _edit_csv(o / "miniscenes.csv", lambda r: r.pop(2))),
            ("a window centre moved 1 px", lambda o, s: _edit_csv(o / "miniscenes.csv",
                                                                  lambda r: _set(r, 2, 3, repr(float(r[2][3]) + 1.0)))),
            ("a window pushed out of frame", lambda o, s: _edit_csv(o / "miniscenes.csv",
                                                                    lambda r: _set(r, 1, 3, "150.0"))),
            ("one scene fewer reported", lambda o, s: f"{int(s.split()[0]) - 1} mini-scene(s) -> x\n"),
        ]
    if name == "compare":
        cases = [
            ("a code flipped in paired.csv", lambda o, s: _edit_csv(o / "paired.csv", _flip_code)),
            ("kappa in agreement.json altered",
             lambda o, s: _edit_json(o / "agreement.json", lambda d: d.update(kappa=d["kappa"] - 1e-9))),
        ]
        if {"ground_focal", "drone_focal"} <= set(op.argv):
            cases.append(("one sample short of floor(visible / 10)", lambda o, s: _drop_paired_row(o)))
        return cases
    if name == "report":
        return [
            ("a label budget off by one second",
             lambda o, s: _edit_csv(o / "timebudget.csv", lambda r: _shift_budget(r, "labels"))),
            ("a focal budget off by one second",
             lambda o, s: _edit_csv(o / "timebudget.csv", lambda r: _shift_budget(r, "ground_focal"))),
            ("a transition probability off by 1e-9",
             lambda o, s: _edit_csv(o / "transitions.csv", lambda r: _set(r, 1, 1, repr(float(r[1][1]) + 1e-9)))),
        ]
    if name == "regress":
        return [
            ("a beta off by 1e-6 relative",
             lambda o, s: _edit_csv(o / "regression.csv", lambda r: _set(r, 2, 1, _nudge(r[2][1], 1e-6)))),
            ("a t-test p off by 1e-5 relative",
             lambda o, s: _edit_csv(o / "regression.csv", lambda r: _set(r, 2, 4, _nudge(r[2][4], 1e-5)))),
            ("the F-test p off by 1e-5 relative",
             lambda o, s: _edit_json(o / "model.json",
                                     lambda d: d["interaction_test"].update(p=d["interaction_test"]["p"] * (1 + 1e-5)))),
        ]
    raise ValueError(f"no corruptions for {name}")


def _out_dir(op) -> Path | None:
    return Path(op.argv[op.argv.index("--out") + 1]) if "--out" in op.argv else None


def run_op(op) -> str:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(list(op.argv))
    if status != 0:
        raise SystemExit(f"ethokit {' '.join(op.argv)} exited {status}: {err.getvalue()}")
    return out.getvalue()


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    problems = 0
    try:
        for workload, (build, duration) in SHORT.items():
            print(f"{workload} ({duration:g} s):")
            for op in build(1, work / workload, NullTracer(), duration_s=duration):
                stdout = run_op(op)
                out = _out_dir(op)
                label = " ".join(op.argv[:1] + [a for a in op.argv if a in ("ground_focal", "ground_scan")])
                try:
                    op.check(stdout)
                    if op.known_fault:
                        print(f"  {label}: expected the known fault, got a pass")
                        problems += 1
                    else:
                        print(f"  {label}: real output accepted")
                except CheckFailed as exc:
                    if exc.kind != op.known_fault:
                        print(f"  {label}: real output REJECTED: {exc}")
                        problems += 1
                        continue
                    print(f"  {label}: fails with the known fault: {exc}")
                    _sf_p_values(out, Path(op.argv[1]))
                    op.check(stdout)
                    print(f"  {label}: accepted once its p-values come from sf")
                    continue
                backup = out.with_name(out.name + ".orig") if out else None
                if out:
                    shutil.copytree(out, backup)
                for what, corrupt in corruptions(op, out):
                    bad_stdout = corrupt(out, stdout) or stdout
                    try:
                        op.check(bad_stdout)
                    except CheckFailed as exc:
                        print(f"    rejects {what}: {exc}")
                    else:
                        print(f"    ACCEPTS {what}")
                        problems += 1
                    if out:
                        shutil.rmtree(out)
                        shutil.copytree(backup, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print("every corruption rejected" if not problems else f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
