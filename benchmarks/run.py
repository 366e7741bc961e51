"""Run one ethokit benchmark workload from a seed and print its metrics.

    python3 benchmarks/run.py --workload dense-herd --seed 1 --seconds 55 --trace 0

Run from the root of an ethokit source tree. The run simulates the
workload's session, then repeats whole rounds of the workload's CLI
commands for about --seconds (at least one round), setting the session
up again between rounds until it has SETUP_REPS set-up times. Each
command runs in a fresh interpreter, as a user runs it, one at a time:
a closed loop with a single client. Every output is checked against an
independent computation.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds). With --trace 1 the run
instead executes each command in process twice, untraced and then
traced, and reports per-layer self times and counts, plus the tracing
overhead; the spans go to .bench_traces/ at the tree's root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from checks import CheckFailed
from tracing import NullTracer, Tracer, instrumented

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
COMMAND_TIMEOUT_S = 150.0
IMPORT_REPS = 3
COMMANDS = ("validate", "interactions", "miniscenes", "compare", "report", "regress")

PER_LAYER_TIMES = (
    "cli.self", "ingest.read_tracks", "ingest.read_observations", "ingest.read_labels",
    "ingest.write", "core.validate_session", "social.detect_interactions",
    "social.tag_interactions", "miniscene.extract", "miniscene.manifest",
    "timeline.propagate_scan", "timeline.label_to_observation", "timeline.visibility_filter",
    "timeline.align_pair", "metrics.time_budget", "metrics.transition_matrix",
    "metrics.agreement", "svgplot.render", "stats.fit", "simulator.simulate",
    "simulator.tracks", "simulator.observe",
)
PER_LAYER_COUNTS = (
    "ingest.track_rows", "ingest.unused_rows", "ingest.observation_rows", "ingest.label_rows",
    "core.boxes_checked", "social.pairs", "social.pair_frames", "social.pairs_with_events",
    "social.events", "social.event_frames", "miniscene.windows", "miniscene.manifest_rows",
    "timeline.intervals_in", "timeline.intervals_out", "timeline.bins",
    "metrics.transition_samples", "metrics.transition_pairs", "svgplot.svg_bytes",
    "stats.design_cells",
)
SETUP_SPANS = ("ingest.write", "simulator.simulate", "simulator.tracks", "simulator.observe")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], scratch: Path) -> tuple[float, int, int, str, str]:
    """One command in a fresh interpreter: (seconds, peak RSS KiB, status, stdout, stderr)."""
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ethokit.cli", *argv],
                                stdout=out, stderr=err, env=_env())
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, usage.ru_maxrss, proc.returncode,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


class Outcomes:
    """Attempted and failed operations; correct stays true unless a
    failure is other than the op's named known fault."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True

    def judge(self, op, status: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        try:
            if status != 0:
                raise CheckFailed(f"exit status {status}: {stderr.strip()[-300:]}", f"exit {status}")
            op.check(stdout)
        except CheckFailed as exc:
            self.failed += 1
            expected = exc.kind == op.known_fault
            self.correct &= expected
            label = "known fault" if expected else "FAILED"
            print(f"{label}: ethokit {op.argv[0]}: {exc}", file=sys.stderr)
        else:
            if op.known_fault:
                print(f"note: {op.argv[0]} passed although {op.known_fault!r} was expected",
                      file=sys.stderr)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (SRC / "ethokit").rglob("*.py"))


def set_up(build, seed: int, target: Path, tracer) -> tuple[list, float]:
    """Simulate the workload and write its files under target; (ops, seconds)."""
    start = time.perf_counter()
    ops = build(seed, target, tracer)
    return ops, time.perf_counter() - start


def measure_rounds(build, seed: int, seconds: float, work: Path,
                   outcomes: Outcomes) -> tuple[dict, dict]:
    """Whole rounds of the workload until the next would overrun seconds.

    The machine's speed drifts over seconds, so the set-up repeats are
    spread between rounds rather than run back to back, and every metric
    is a median over samples taken across the whole run.
    """
    ops, first = set_up(build, seed, work / "session", NullTracer())
    setup_times = [first]

    def set_up_again() -> None:
        setup_times.append(set_up(build, seed, work / "again", NullTracer())[1])
        shutil.rmtree(work / "again")

    subprocess.run([sys.executable, "-c", "import ethokit.cli"], env=_env(), check=True)
    rounds = []
    peak_kib = 0
    start = time.perf_counter()
    while True:
        spent = dict.fromkeys(COMMANDS, 0.0)
        for op in ops:
            elapsed, rss, status, stdout, stderr = run_cli(op.argv, work)
            spent[op.metric] += elapsed
            peak_kib = max(peak_kib, rss)
            outcomes.judge(op, status, stdout, stderr)
        rounds.append(spent)
        if len(setup_times) < SETUP_REPS:
            set_up_again()
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    while len(setup_times) < SETUP_REPS:
        set_up_again()
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update({f"{c}_s": statistics.median(r[c] for r in rounds) for c in COMMANDS})
    metrics["peak_rss_mb"] = peak_kib / 1024
    return metrics, {"rounds": len(rounds), "setup_s": setup_times, "per_round_s": rounds}


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import ethokit.cli; print(time.perf_counter() - t)"
    samples = [float(subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(IMPORT_REPS)]
    return statistics.median(samples)


def in_process_pass(ops, outcomes: Outcomes, tracer=None) -> list[float]:
    """Run every op through cli.main in this process; seconds per op."""
    import ethokit.cli as cli

    tracer = tracer or NullTracer()
    seconds = []
    for op in ops:
        tracer.uses = op.uses
        out, err = StringIO(), StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err), tracer.span(f"cli.{op.metric}"):
            status = cli.main(list(op.argv))
        seconds.append(time.perf_counter() - start)
        outcomes.judge(op, status, out.getvalue(), err.getvalue())
    return seconds


def traced_metrics(build, seed: int, work: Path, outcomes: Outcomes,
                   name: str) -> tuple[dict, dict]:
    import ethokit.cli as cli

    setup_tracer = Tracer()
    for rep in range(SETUP_REPS):
        ops, _ = set_up(build, seed, work / f"session{rep}", setup_tracer)
    untraced = in_process_pass(ops, outcomes)
    tracer = Tracer()
    with instrumented(cli, tracer):
        traced = in_process_pass(ops, outcomes, tracer)
    own = tracer.self_times()
    for span in SETUP_SPANS:
        own[span] = setup_tracer.self_times()[span] / SETUP_REPS
    own["cli.self"] = sum(v for k, v in own.items() if k.startswith("cli."))
    tracer.spans += [[f"setup:{s[0]}", *s[1:]] for s in setup_tracer.spans]
    tracer.dump(ROOT / ".bench_traces" / f"{name}.json")
    metrics = {f"{n}_s": (float(own[n]), "s") for n in PER_LAYER_TIMES}
    metrics.update({n: (tracer.counts[n], "count") for n in PER_LAYER_COUNTS})
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced), "s")
    return metrics, {"untraced_s": untraced, "traced_s": traced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dense-herd", "field-day"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ethokit" / "cli.py").is_file():
        print(f"error: no ethokit sources under {SRC}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    name = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    build = WORKLOADS[args.workload]
    outcomes = Outcomes()
    try:
        if args.trace:
            metrics, context = traced_metrics(build, args.seed, work, outcomes, name)
        else:
            values, context = measure_rounds(build, args.seed, args.seconds, work, outcomes)
            metrics = {k: (v, "MB" if k == "peak_rss_mb" else "s") for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    context.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "cores": os.cpu_count(),
                    "src_ethokit_lines": src_lines()})
    print(json.dumps(context))
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
