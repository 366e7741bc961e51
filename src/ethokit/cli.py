"""Command-line entry point.

A session directory holds the canonical files (meta.json, tracks.csv,
labels.csv, observations.csv); every command reads some subset, writes
deterministic CSV/JSON (and SVG for report) into --out, and exits 0 on
success, 1 on an analysis error, 2 on a parse or I/O error. The only
randomized command is `simulate`, which demands an explicit --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from .core import (
    DEFAULT_OUT_H,
    DEFAULT_OUT_W,
    DRONE_FOCAL,
    GROUND_SCAN,
    METHODS,
    ML_AUTO,
    TECHNICAL_CODES,
    AnalysisParams,
    ObservationStream,
    ParseError,
    Rows,
    Track,
    check_keys,
    csv_text,
    json_number,
    json_object,
    read_text,
    validate_session,
    write_text,
)

# The names this module reads from each module but core, and the modules
# each command runs. main() imports a command's modules before it runs it,
# a Session imports ingest, whose readers parse the session's files, and
# __getattr__ imports a module when one of its names is first read from
# outside. None of them rebinds a name that is already here, so a wrapper
# put on one (as benchmarks/tracing.py does) stays in effect.
_IMPORTS = {
    "ethogram": ("default_ethogram", "read_ethogram"),
    "ingest": (
        "ObservationIndex",
        "read_ground_observations",  # benchmarks/tracing.py wraps it here
        "read_labels",
        "read_observation_index",
        "read_tracks",
        "read_video_meta",
    ),
    "metrics": ("class_metrics", "cohens_kappa", "confusion", "time_budget", "transition_matrix"),
    "miniscene": ("dump_miniscene_manifest", "extract_miniscenes"),
    "social": (
        "OverlapMatrix",
        "detect_interactions",
        "dump_interaction_events",
        "dump_overlap_matrix",
        "overlap_summary",
        "tag_interactions",
    ),
    "stats": ("dummy_code", "nested_f_test", "ols_fit", "significance_stars"),
    "simulator": ("SimConfig", "demo_config", "export_world", "simulate"),
    "svgplot": ("gantt_svg", "transition_heatmap_svg"),
    "timeline": (
        "align_pair",
        "dump_paired_series",
        "label_stream_to_observation",
        "map_labels",
        "propagate_scan",
        "visibility_filter",
    ),
}
_RUNS = {
    "validate": ("ethogram",),
    "miniscenes": ("miniscene",),
    "timebudget": ("metrics",),
    "transitions": ("metrics",),
    "interactions": ("social",),
    "compare": ("timeline", "metrics"),
    "regress": ("stats",),
    "simulate": ("simulator",),
    "report": ("metrics", "svgplot"),
}


def _load(*modules: str) -> None:
    """Bind the names read from each module that are not bound here yet."""
    namespace = globals()
    for module in modules:
        found = importlib.import_module(f".{module}", __package__)
        for name in _IMPORTS[module]:
            namespace.setdefault(name, getattr(found, name))


def __getattr__(name: str):
    module = next((m for m, names in _IMPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


_PARAM_KEYS = {f.name for f in dataclasses.fields(AnalysisParams)}

# JSON type of each --config section but clock_offset_s, which is a number
_OBJECT, _LIST = (dict, "an object"), (list, "a list")
_SECTION_TYPES = {
    "ethogram": ((str, type(None)), "a string"),
    "params": _OBJECT,
    "label_map": _OBJECT,
    "crop": _OBJECT,
    "composition": _OBJECT,
    "overlap_counts": _OBJECT,
    "simulation": _OBJECT,
    "references": _OBJECT,
    "factors": _LIST,
    "interactions": _LIST,
}
_CONFIG_KEYS = {*_SECTION_TYPES, "clock_offset_s"}


class RunConfig(NamedTuple):
    """Parsed --config document; every field has a working default."""

    ethogram_path: str | None
    params: AnalysisParams
    label_map: dict[str, str]
    crop: tuple[int, int]
    clock_offset_s: float
    composition: dict[str, int]
    overlap_counts: dict[tuple[str, str], int]
    simulation: dict
    references: dict[str, str]
    factors: list[str]
    interactions: list[tuple[str, str]]


def _default_config() -> RunConfig:
    return RunConfig(
        None, AnalysisParams(), {}, (DEFAULT_OUT_W, DEFAULT_OUT_H), 0.0, {}, {}, {}, {}, [], []
    )


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return _default_config()
    p = Path(path)
    doc = json_object(read_text(p), p.name, _CONFIG_KEYS)
    _check_sections(p.name, doc)
    params_doc = doc.get("params", {})
    check_keys(f"{p.name}: params", params_doc, _PARAM_KEYS)
    params = AnalysisParams()
    for key, value in params_doc.items():
        default = getattr(AnalysisParams, key)
        if not isinstance(default, str):
            value = json_number(f"{p.name}: params.{key}", value, type(default) is int)
        try:
            params = dataclasses.replace(params, **{key: value})
        except ValueError as exc:
            raise ParseError(f"{p.name}: params.{key}: {exc}") from None
    crop_doc = doc.get("crop", {})
    check_keys(f"{p.name}: crop", crop_doc, ("out_w", "out_h"))
    sim_doc = doc.get("simulation", {})
    if sim_doc:
        _load("simulator")
        sim_keys = {f.name for f in dataclasses.fields(SimConfig)} - {"seed"}  # the seed is --seed
        check_keys(f"{p.name}: simulation", sim_doc, sim_keys)
    counts = {}
    for key, value in doc.get("overlap_counts", {}).items():
        parts = key.split("|")
        if len(parts) != 2:
            raise ParseError(f"{p.name}: overlap_counts key {key!r} is not 'speciesA|speciesB'")
        counts[tuple(sorted(parts))] = _config_count(f"{p.name}: overlap_counts[{key!r}]", value)
    crop = tuple(
        json_number(f"{p.name}: crop.{k}", crop_doc.get(k, default), integer=True)
        for k, default in (("out_w", DEFAULT_OUT_W), ("out_h", DEFAULT_OUT_H))
    )
    return RunConfig(
        doc.get("ethogram"),
        params,
        dict(doc.get("label_map", {})),
        crop,
        float(json_number(f"{p.name}: clock_offset_s", doc.get("clock_offset_s", 0.0))),
        {
            str(k): _config_count(f"{p.name}: composition[{k!r}]", v)
            for k, v in doc.get("composition", {}).items()
        },
        counts,
        sim_doc,
        {str(k): str(v) for k, v in doc.get("references", {}).items()},
        list(doc.get("factors", [])),
        [tuple(pair) for pair in doc.get("interactions", [])],
    )


def _check_sections(name: str, doc: dict) -> None:
    """Each section has its JSON type; label_map, factors and interactions hold strings."""
    for key, (kind, expected) in _SECTION_TYPES.items():
        if key in doc and not isinstance(doc[key], kind):
            raise ParseError(f"{name}: {key} must be {expected}, got {doc[key]!r}")
    for code, target in doc.get("label_map", {}).items():
        if not isinstance(target, str):
            raise ParseError(f"{name}: label_map[{code!r}] must be a string, got {target!r}")
    for factor in doc.get("factors", []):
        if not isinstance(factor, str):
            raise ParseError(f"{name}: factors must hold strings, got {factor!r}")
    for pair in doc.get("interactions", []):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(f, str) for f in pair)):
            raise ParseError(
                f"{name}: interactions must hold [factor, factor] pairs, got {pair!r}"
            )


def _config_count(where: str, value) -> int:
    """A whole, non-negative JSON number from --config."""
    count = json_number(where, value, integer=True)
    if count < 0:
        raise ParseError(f"{where} must not be negative, got {value!r}")
    return count


class Session:
    """A session directory whose CSV files are parsed on first use.

    meta.json is read up front; tracks, labels and observations are each
    read when a command first asks for them, so a command parses (and
    fails on) only the files it uses. A file listed in ``need`` must
    exist; any other missing file reads as empty.

    observations.csv is read once into an :class:`ObservationIndex`,
    whose pass checks the header and field counts. ``observations``
    builds every stream from it; :meth:`observation_streams` builds one
    subject's streams for one method, so ``compare`` fails only on
    faults inside the streams it compares. Likewise :meth:`track_labels`
    builds one track's label stream and checks only that track's frames,
    though the header, field counts, session and track order of the
    whole of labels.csv.
    """

    def __init__(self, directory: str | Path, need: tuple[str, ...] = ()):
        _load("ingest")
        self.root = Path(directory)
        self.meta = read_video_meta(self.root / "meta.json")
        self.need = need

    def _read(self, name: str, reader):
        path = self.root / name
        if name in self.need or path.exists():
            return reader(path)
        return []

    # the readers are looked up in this module at call time, so a wrapper
    # put on one there (as benchmarks/tracing.py does) sees each of its reads
    @functools.cached_property
    def tracks(self) -> list[Track]:
        return self._read("tracks.csv", read_tracks)

    @functools.cached_property
    def labels(self) -> list[ObservationStream]:
        """One frame stream per track at the session's frame rate, gaps unlabeled."""
        return self._read("labels.csv", lambda path: read_labels(path, self.meta.fps))

    def track_labels(self, track_id: str) -> list[ObservationStream]:
        """The one frame stream of a track, or none; only that track's frames are checked."""
        return self._read("labels.csv", lambda path: read_labels(path, self.meta.fps, track_id))

    @functools.cached_property
    def _observation_index(self) -> ObservationIndex | None:
        # _read gives [] for an absent file that is not needed
        return self._read("observations.csv", read_observation_index) or None

    @functools.cached_property
    def observations(self) -> list[ObservationStream]:
        return self.observation_streams()

    def observation_streams(
        self, subject: str | None = None, method: str | None = None
    ) -> list[ObservationStream]:
        index = self._observation_index
        return index.streams(subject, method) if index else []


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args, config: RunConfig) -> int:
    session = Session(args.session)
    # only validate reads an ethogram: it checks the session's codes against it
    path = config.ethogram_path or os.environ.get("ETHOKIT_ETHOGRAM")
    report = validate_session(
        session.tracks,
        session.labels + session.observations,
        session.meta,
        read_ethogram(path) if path else default_ethogram(),
    )
    if report.ok:
        print("ok")
        return 0
    print(report)
    return 1


def cmd_miniscenes(args, config: RunConfig) -> int:
    params = config.params
    if args.min_frames is not None:
        params = dataclasses.replace(params, min_miniscene_frames=args.min_frames)
    session = Session(args.session, need=("tracks.csv", "labels.csv"))
    out_w, out_h = config.crop
    scenes = extract_miniscenes(
        session.tracks, session.labels, params, session.meta, out_w, out_h
    )
    path = write_text(Path(args.out) / "miniscenes.csv", dump_miniscene_manifest(scenes))
    print(f"{len(scenes)} mini-scene(s) -> {path}")
    return 0


_BUDGET_HEADER = ["source", "subject", "code", "seconds", "proportion"]


def _budget_rows(session: Session) -> list[tuple[str, str, str, float, float]]:
    # scans are instantaneous and a fully occluded track or focal record
    # has no behavioral denominator; neither yields a budget row
    visible = [
        stream
        for stream in session.labels + session.observations
        if sum(iv.end - iv.start for iv in stream.intervals if iv.code not in TECHNICAL_CODES) > 0
    ]
    rows = []
    for stream in visible:
        budget = time_budget(stream)
        for code in sorted(budget.seconds):
            rows.append(
                (stream.method, stream.subject_id, code, budget.seconds[code], budget.proportion(code))
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def cmd_timebudget(args, config: RunConfig) -> int:
    session = Session(args.session)
    if not session.labels and not session.observations:
        raise ValueError("session has neither labels.csv nor observations.csv")
    rows = _budget_rows(session)
    out = Path(args.out)
    if args.format == "json":
        doc = [
            {"source": s, "subject": subj, "code": c, "seconds": sec, "proportion": prop}
            for s, subj, c, sec, prop in rows
        ]
        path = write_text(out / "timebudget.json", _json_text(doc))
    else:
        path = write_text(out / "timebudget.csv", csv_text(_BUDGET_HEADER, rows))
    print(f"time budget -> {path}")
    return 0


def _transition_inputs(session: Session):
    """Label streams when present, else non-scan observation streams."""
    if session.labels:
        streams = session.labels
    else:
        streams = [s for s in session.observations if s.method != GROUND_SCAN]
    if not streams:
        raise ValueError("no streams to sample transitions from")
    codes = {iv.code for stream in streams for iv in stream.intervals}
    return streams, sorted(codes - TECHNICAL_CODES)


def _matrix_csv(codes, rows) -> str:
    return csv_text(["code", *codes], ([code, *map(float, row)] for code, row in zip(codes, rows)))


def cmd_transitions(args, config: RunConfig) -> int:
    session = Session(args.session)
    streams, codes = _transition_inputs(session)
    delta = args.interval if args.interval is not None else config.params.downsample_interval_s
    matrix = transition_matrix(streams, delta, codes)
    out = Path(args.out)
    if args.format == "json":
        doc = {
            "codes": list(matrix.codes),
            "counts": [list(r) for r in matrix.counts],
            "probabilities": [list(r) for r in matrix.probabilities],
        }
        path = write_text(out / "transitions.json", _json_text(doc))
    else:
        path = write_text(out / "transitions.csv", _matrix_csv(matrix.codes, matrix.probabilities))
        write_text(out / "transition_counts.csv", _matrix_csv(matrix.codes, matrix.counts))
    print(f"{matrix.total} transition pair(s) -> {path}")
    return 0


def cmd_interactions(args, config: RunConfig) -> int:
    params = config.params
    if args.threshold is not None:
        params = dataclasses.replace(params, overlap_ratio_threshold=args.threshold)
    if args.min_frames is not None:
        params = dataclasses.replace(params, min_overlap_frames=args.min_frames)
    out = Path(args.out)
    if config.overlap_counts:
        if not config.composition:
            raise ValueError("overlap_counts given without composition")
        matrix = OverlapMatrix.from_counts(config.composition, config.overlap_counts)
        path = write_text(out / "overlap_summary.csv", dump_overlap_matrix(matrix))
        print(f"overlap summary (published counts) -> {path}")
        return 0
    if args.session is None:
        raise ParseError("interactions needs a session directory or overlap_counts in --config")
    session = Session(args.session, need=("tracks.csv",))
    events = detect_interactions(session.tracks, params)
    if session.labels:
        events = tag_interactions(events, session.labels)
    path = write_text(out / "interactions.csv", dump_interaction_events(events))
    print(f"{len(events)} interaction(s) -> {path}")
    if config.composition:
        summary = overlap_summary(events, config.composition)
        write_text(out / "overlap_summary.csv", dump_overlap_matrix(summary))
    return 0


def _pick_stream(session: Session, config: RunConfig, subject: str, method: str):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    found = session.observation_streams(subject, method)
    if len(found) > 1:
        observers = sorted(s.observer_id for s in found)
        raise ValueError(
            f"multiple {method} streams for {subject!r} (observers: {', '.join(observers)})"
        )
    if found:
        return found[0]
    labels = session.track_labels(subject) if method in (DRONE_FOCAL, ML_AUTO) else []
    if labels:
        return label_stream_to_observation(
            labels[0], session.meta, method, subject, config.clock_offset_s
        )
    raise ValueError(f"no {method} stream for subject {subject!r}")


def _apply_map(stream: ObservationStream, config: RunConfig):
    if not config.label_map:
        return stream
    # The config mapping lists only renames; everything else (incl.
    # technical codes) maps to itself.
    present = {iv.code for iv in stream.intervals}
    total = {code: config.label_map.get(code, code) for code in present}
    return map_labels(stream, total)


def cmd_compare(args, config: RunConfig) -> int:
    session = Session(args.session, need=("observations.csv",))
    a = _pick_stream(session, config, args.subject, args.method_a)
    b = _pick_stream(session, config, args.subject, args.method_b)
    if a.method == GROUND_SCAN:
        a = propagate_scan(a, config.params.scan_propagation_s)
    if b.method == GROUND_SCAN:
        b = propagate_scan(b, config.params.scan_propagation_s)
    a = _apply_map(a, config)
    b = _apply_map(b, config)
    a, b = visibility_filter(a, b)
    delta = args.interval if args.interval is not None else config.params.downsample_interval_s
    pairs = align_pair(a, b, delta)
    codes = sorted(set(pairs.codes_a) | set(pairs.codes_b))
    matrix = confusion(pairs, codes)
    agreement = cohens_kappa(matrix)
    scores = class_metrics(matrix)

    out = Path(args.out)
    write_text(out / "paired.csv", dump_paired_series(pairs))
    write_text(out / "confusion.csv", _matrix_csv(matrix.codes, matrix.counts))
    write_text(
        out / "agreement.json",
        _json_text(
            {
                "subject": pairs.subject_id,
                "method_a": pairs.method_a,
                "method_b": pairs.method_b,
                "samples": len(pairs),
                "p_observed": agreement.p_observed,
                "p_expected": agreement.p_expected,
                "kappa": agreement.kappa,
            }
        ),
    )
    macro = ("macro", scores.macro_precision, scores.macro_recall, scores.macro_f1)
    write_text(
        out / "class_metrics.csv",
        csv_text(["code", "precision", "recall", "f1"], [*scores.per_class, macro]),
    )
    print(f"kappa = {agreement.kappa:.4f} over {len(pairs)} samples -> {out}")
    return 0


def _read_table(path: Path, numbers: Sequence[str] = ()) -> tuple[list[str], list[list]]:
    """A CSV table's header, its own first row, and its data rows, blank lines
    skipped; each column named in ``numbers`` must exist and holds finite floats."""
    rows = Rows(read_text(path), None, path.name)
    for col in numbers:
        if col not in rows.header:
            raise ParseError(f"{path}: no column {col!r}")
    body = []
    for row in rows:
        for col in numbers:
            row[rows.header.index(col)] = rows.to_float(row, col)
        body.append(row)
    if not body:
        raise ParseError(f"{path.name}: no data rows")
    return rows.header, body


def cmd_regress(args, config: RunConfig) -> int:
    path = Path(args.data)
    header, body = _read_table(path, [args.response])
    factors = config.factors or [c for c in header if c != args.response]
    for f in factors:
        if f not in header:
            raise ParseError(f"{path}: no column {f!r}")
    y_idx = header.index(args.response)
    f_idx = [(f, header.index(f)) for f in factors]
    y = [row[y_idx] for row in body]
    observations = [{f: row[j] for f, j in f_idx} for row in body]
    references = dict(config.references)
    for f in factors:
        references.setdefault(f, min(obs[f] for obs in observations))
    references = {f: references[f] for f in factors}

    design = dummy_code(observations, references, config.interactions)
    result = ols_fit(design, y)

    header = ["term", "beta", "se", "t", "p", "ci_low", "ci_high", "stars"]
    columns = (result.columns, result.beta, result.se, result.t_stats, result.p_values)
    rows = zip(*columns, result.ci_low, result.ci_high, map(significance_stars, result.p_values))
    out = Path(args.out)
    path = write_text(out / "regression.csv", csv_text(header, rows))
    model = {
        "n_obs": result.n_obs,
        "r_squared": result.r_squared,
        "adj_r_squared": result.adj_r_squared,
        "f_squared": result.f_squared,
        "block_f_squared": {name: value for name, value in result.block_f_squared},
        "response": args.response,
        "references": references,
    }
    if config.interactions:
        reduced = ols_fit(dummy_code(observations, references), y)
        ftest = nested_f_test(result, reduced)
        model["interaction_test"] = {
            "f": ftest.f,
            "df1": ftest.df1,
            "df2": ftest.df2,
            "p": ftest.p,
        }
    write_text(out / "model.json", _json_text(model))
    print(f"R^2 = {result.r_squared:.4f} -> {path}")
    return 0


def cmd_simulate(args, config: RunConfig) -> int:
    cfg = demo_config(args.seed)
    if config.simulation:
        name = Path(args.config).name
        base = dataclasses.asdict(cfg)
        for key, value in config.simulation.items():
            if type(base[key]) in (int, float):
                value = json_number(f"{name}: simulation.{key}", value, type(base[key]) is int)
            base[key] = value
        try:
            cfg = SimConfig(**base)
            cfg.bound_frames()  # the export films every frame
        except (TypeError, ValueError) as exc:  # a value SimConfig cannot read, or rejects
            raise ParseError(f"{name}: simulation: {exc}") from None
    world = simulate(cfg)
    written = export_world(world, args.out)
    for path in written:
        print(path)
    return 0


def cmd_report(args, config: RunConfig) -> int:
    session = Session(args.session)
    if not session.labels and not session.observations:
        raise ValueError("session has neither labels.csv nor observations.csv")
    out = Path(args.out)
    write_text(out / "timebudget.csv", csv_text(_BUDGET_HEADER, _budget_rows(session)))

    streams, codes = _transition_inputs(session)
    matrix = transition_matrix(streams, config.params.downsample_interval_s, codes)
    write_text(out / "transitions.csv", _matrix_csv(matrix.codes, matrix.probabilities))
    write_text(out / "transitions.svg", transition_heatmap_svg(matrix, "Transition probabilities"))

    if session.labels:
        lanes = [(s.subject_id, s) for s in sorted(session.labels, key=lambda s: s.subject_id)]
    else:
        lanes = [
            (f"{s.subject_id} ({s.method})", s)
            for s in sorted(session.observations, key=lambda s: (s.subject_id, s.method))
            if not s.is_instantaneous()
        ]
    write_text(out / "gantt.svg", gantt_svg(lanes, title="Behavior timeline"))
    print(f"report -> {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ethokit",
        description="Behavioral analytics for tracked animal video and field observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON run-config file")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("validate", help="check a session directory against the data contracts")
    sp.add_argument("session")
    sp.add_argument("--config")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("miniscenes", help="emit the mini-scene crop-window manifest")
    sp.add_argument("session")
    sp.add_argument("--min-frames", type=int, help="minimum mini-scene length in frames")
    common(sp)
    sp.set_defaults(func=cmd_miniscenes)

    sp = sub.add_parser("timebudget", help="per-subject visible-time budgets")
    sp.add_argument("session")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)
    sp.set_defaults(func=cmd_timebudget)

    sp = sub.add_parser("transitions", help="downsampled behavior transition matrix")
    sp.add_argument("session")
    sp.add_argument("--interval", type=float, help="sampling interval in seconds")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)
    sp.set_defaults(func=cmd_transitions)

    sp = sub.add_parser("interactions", help="detect and normalize pairwise interactions")
    sp.add_argument("session", nargs="?")
    sp.add_argument("--threshold", type=float, help="overlap ratio threshold (strict >)")
    sp.add_argument("--min-frames", type=int, help="minimum run length in frames")
    common(sp)
    sp.set_defaults(func=cmd_interactions)

    sp = sub.add_parser("compare", help="agreement between two methods on one subject")
    sp.add_argument("session")
    sp.add_argument("--subject", required=True)
    sp.add_argument("--method-a", required=True, dest="method_a")
    sp.add_argument("--method-b", required=True, dest="method_b")
    sp.add_argument("--interval", type=float, help="alignment bin width in seconds")
    common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("regress", help="OLS with dummy-coded factors on a CSV table")
    sp.add_argument("data")
    sp.add_argument("--response", required=True, help="numeric response column")
    common(sp)
    sp.set_defaults(func=cmd_regress)

    sp = sub.add_parser("simulate", help="generate a synthetic session")
    sp.add_argument("--seed", type=int, required=True, help="simulation seed (required)")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("report", help="render budgets, matrices and SVG figures")
    sp.add_argument("session")
    common(sp)
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _load(*_RUNS[args.command])
    try:
        return args.func(args, load_config(args.config))
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
