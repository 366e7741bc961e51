"""Spans and counts recorded from the benchmark's side of each layer.

The traced pass runs every command in process through ``cli.main``
with the public functions it calls replaced, for the duration of the
pass, by wrappers that open a span and record counts. Nothing is
written into the program: the wrappers live in ``ethokit.cli``'s
namespace only while the pass runs. Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from itertools import combinations
from pathlib import Path

import numpy as np


class NullTracer:
    """Stands in for a tracer when tracing is off."""

    uses: frozenset[str] = frozenset()

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """In-memory spans (name, start, end, parent) and per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, trace id]
        self.counts: Counter = Counter()
        self.uses: frozenset[str] = frozenset()  # files the current command's output needs
        self._stack: list[int] = []
        self._trace_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._trace_id += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._trace_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time its child spans cover."""
        own = Counter()
        for name, start, end, _, _ in self.spans:
            own[name] += end - start
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "trace")
        doc = {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": dict(self.counts)}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return max(0, fh.read().count(b"\n") - 1)


def _rows_counter(kind: str, file_name: str):
    def count(tracer: Tracer, args, result) -> None:
        rows = _data_rows(args[0])
        tracer.counts[f"ingest.{kind}_rows"] += rows
        if file_name not in tracer.uses:
            tracer.counts["ingest.unused_rows"] += rows
    return count


def _count_boxes(tracer: Tracer, args, result) -> None:
    tracer.counts["core.boxes_checked"] += sum(len(t.boxes) for t in args[0])


def _count_interactions(tracer: Tracer, args, result) -> None:
    active = sorted((t for t in args[0] if not t.excluded and t.boxes), key=lambda t: t.track_id)
    frames = [np.fromiter((b.frame for b in t.boxes), dtype=np.int64) for t in active]
    tracer.counts["social.pairs"] += len(active) * (len(active) - 1) // 2
    tracer.counts["social.pair_frames"] += sum(
        np.intersect1d(a, b, assume_unique=True).size for a, b in combinations(frames, 2)
    )
    tracer.counts["social.pairs_with_events"] += len({(e.track_a, e.track_b) for e in result})
    tracer.counts["social.events"] += len(result)
    tracer.counts["social.event_frames"] += sum(e.frame_count for e in result)


def _count_windows(tracer: Tracer, args, result) -> None:
    tracer.counts["miniscene.windows"] += sum(len(s.windows) for s in result)


def _count_manifest(tracer: Tracer, args, result) -> None:
    tracer.counts["miniscene.manifest_rows"] += result.count("\n") - 1


def _count_filtered(tracer: Tracer, args, result) -> None:
    tracer.counts["timeline.intervals_in"] += len(args[0].intervals) + len(args[1].intervals)
    tracer.counts["timeline.intervals_out"] += sum(len(s.intervals) for s in result)


def _count_bins(tracer: Tracer, args, result) -> None:
    tracer.counts["timeline.bins"] += len(result)


def _samples(stream, delta: float, technical, meta) -> int:
    """Points t0, t0 + delta, ... before the stream's end, as the metric samples them."""
    if hasattr(stream, "segments"):
        first = next((s.start_frame for s in stream.segments if s.code not in technical), None)
        t0 = None if first is None else first / meta.fps
        end = (stream.end_frame + 1) / meta.fps
    else:
        t0 = next((iv.start for iv in stream.intervals if iv.code not in technical), None)
        end = stream.span[1] if stream.intervals else 0.0
    if t0 is None:
        return 0
    n = 0
    while t0 + n * delta < end:
        n += 1
    return n


def _count_transitions(tracer: Tracer, args, result) -> None:
    from ethokit import TECHNICAL_CODES

    streams, delta = args[0], args[1]
    ethogram = args[3] if len(args) > 3 else None
    meta = args[4] if len(args) > 4 else None
    technical = ethogram.technical_codes() if ethogram is not None else TECHNICAL_CODES
    tracer.counts["metrics.transition_samples"] += sum(
        _samples(s, delta, technical, meta) for s in streams
    )
    tracer.counts["metrics.transition_pairs"] += result.total


def _count_svg(tracer: Tracer, args, result) -> None:
    tracer.counts["svgplot.svg_bytes"] += len(result.encode("utf-8"))


def _count_design(tracer: Tracer, args, result) -> None:
    tracer.counts["stats.design_cells"] += len(result.rows) * len(result.columns)


# ethokit.cli attribute -> (span name, count hook). The CLI imports these
# names into its own namespace, so replacing them there reaches every
# call a command makes into the layer below it.
WRAPPED = {
    "read_tracks": ("ingest.read_tracks", _rows_counter("track", "tracks.csv")),
    "read_labels": ("ingest.read_labels", _rows_counter("label", "labels.csv")),
    "read_ground_observations": ("ingest.read_observations",
                                 _rows_counter("observation", "observations.csv")),
    "validate_session": ("core.validate_session", _count_boxes),
    "detect_interactions": ("social.detect_interactions", _count_interactions),
    "tag_interactions": ("social.tag_interactions", None),
    "extract_miniscenes": ("miniscene.extract", _count_windows),
    "dump_miniscene_manifest": ("miniscene.manifest", _count_manifest),
    "propagate_scan": ("timeline.propagate_scan", None),
    "label_stream_to_observation": ("timeline.label_to_observation", None),
    "visibility_filter": ("timeline.visibility_filter", _count_filtered),
    "align_pair": ("timeline.align_pair", _count_bins),
    "time_budget": ("metrics.time_budget", None),
    "transition_matrix": ("metrics.transition_matrix", _count_transitions),
    "confusion": ("metrics.agreement", None),
    "cohens_kappa": ("metrics.agreement", None),
    "class_metrics": ("metrics.agreement", None),
    "gantt_svg": ("svgplot.render", _count_svg),
    "transition_heatmap_svg": ("svgplot.render", _count_svg),
    "dummy_code": ("stats.fit", _count_design),
    "ols_fit": ("stats.fit", None),
    "nested_f_test": ("stats.fit", None),
}


def _wrap(tracer: Tracer, fn, name: str, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, result)
        return result

    return traced


@contextmanager
def instrumented(cli, tracer: Tracer):
    """Route the CLI's calls into each layer through spans while inside."""
    originals = {attr: getattr(cli, attr) for attr in WRAPPED}
    try:
        for attr, (name, count) in WRAPPED.items():
            setattr(cli, attr, _wrap(tracer, originals[attr], name, count))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(cli, attr, fn)
