"""Behavioral summary statistics over label and observation streams.

Time here is always seconds of *visible* time: spans carrying technical
codes (occlusion, out of frame/focus/sight) never enter a behavioral
denominator. A frame stream carries its own frame rate, so frames and
seconds streams go through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .core import TECHNICAL_CODES, sample_count

__all__ = [
    "TimeBudget",
    "CountMatrix",
    "AgreementStats",
    "ClassScore",
    "ClassMetrics",
    "CostEstimate",
    "time_budget",
    "out_of_sight_fraction",
    "transition_matrix",
    "confusion",
    "cohens_kappa",
    "class_metrics",
    "annotation_cost",
    "OTHER_CODE",
]

# Reserved confusion-matrix bucket for codes outside the requested set.
OTHER_CODE = "other"


def _durations(stream) -> list[float]:
    """Each interval's length in seconds, in time order."""
    return list(map(stream.to_seconds, map(sub, stream.ends, stream.starts)))


@dataclass(frozen=True)
class TimeBudget:
    """Seconds and proportion of visible time per behavioral code."""

    seconds: Mapping[str, float]  # per-code visible seconds
    t_visible: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "seconds", MappingProxyType(dict(self.seconds)))

    def proportion(self, code: str) -> float:
        return self.seconds.get(code, 0.0) / self.t_visible


def time_budget(stream) -> TimeBudget:
    """Visible-time budget; technical codes drop out of the denominator."""
    seconds: dict[str, float] = {}
    for code, dur in zip(stream.codes, _durations(stream)):
        if code in TECHNICAL_CODES:
            continue
        seconds[code] = seconds.get(code, 0.0) + dur
    t_visible = sum(seconds.values())
    if t_visible <= 0:
        raise ValueError("no visible time in stream")
    return TimeBudget(seconds, t_visible)


def out_of_sight_fraction(stream) -> float:
    """Share of the recorded time carrying a technical code."""
    durations = _durations(stream)
    total = sum(durations)
    if total <= 0:
        raise ValueError("empty stream")
    lost = sum(dur for code, dur in zip(stream.codes, durations) if code in TECHNICAL_CODES)
    return lost / total


@dataclass(frozen=True)
class CountMatrix:
    """Square counts over codes, with row-normalized probabilities.

    A transition matrix counts n_ij, from code i to code j; a confusion
    matrix counts c_ab, the reference method on rows, the other on
    columns.
    """

    codes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        object.__setattr__(self, "counts", tuple(tuple(row) for row in self.counts))
        k = len(self.codes)
        if len(self.counts) != k or any(len(row) != k for row in self.counts):
            raise ValueError("counts must be square over codes")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("negative count")

    @property
    def row_totals(self) -> tuple[int, ...]:
        """Each row's sum, in code order."""
        return tuple(map(sum, self.counts))

    @property
    def col_totals(self) -> tuple[int, ...]:
        """Each column's sum, in code order."""
        return tuple(map(sum, zip(*self.counts)))

    @property
    def probabilities(self) -> tuple[tuple[float, ...], ...]:
        """Each row divided by its total; a row with no counts is all zeros."""
        return tuple(
            tuple(c / total for c in row) if total else (0.0,) * len(row)
            for row, total in zip(self.counts, self.row_totals)
        )

    @property
    def total(self) -> int:
        return sum(self.row_totals)


def _sample_codes(stream, delta_s: float) -> list[str | None]:
    """Point-in-time codes at t0, t0+delta, ... within the stream span.

    t0 anchors at the first instant carrying a non-technical code; None
    marks samples landing on gaps or technical time.
    """
    visible = zip(stream.starts, stream.codes)
    t0 = next((start for start, code in visible if code not in TECHNICAL_CODES), None)
    if t0 is None:
        return []
    t0, span_end = stream.to_seconds(t0), stream.to_seconds(stream.span[1])
    sample_count(span_end - t0, delta_s)  # refuses a count that would not fit in memory
    samples: list[str | None] = []
    k = 0
    while True:
        t = t0 + k * delta_s
        if t >= span_end:
            break
        code = stream.code_at_seconds(t)
        samples.append(None if code is None or code in TECHNICAL_CODES else code)
        k += 1
    return samples


def transition_matrix(streams: Sequence, delta_s: float, codes: Sequence[str]) -> CountMatrix:
    """Pool downsampled transition counts across streams.

    Each stream is sampled every delta_s seconds starting from its first
    visible sample; consecutive sample pairs with both codes in `codes`
    count, and pairs touching a technical code or coverage gap are
    skipped, never bridged.
    """
    if not 0 < delta_s < math.inf:
        raise ValueError(f"sampling interval must be positive and finite, got {delta_s}")
    codes = tuple(codes)
    index = {code: i for i, code in enumerate(codes)}
    counts = [[0] * len(codes) for _ in codes]
    pairs = 0
    for stream in streams:
        samples = _sample_codes(stream, delta_s)
        for prev, cur in zip(samples, samples[1:]):
            if prev in index and cur in index:
                counts[index[prev]][index[cur]] += 1
                pairs += 1
    if pairs == 0:
        raise ValueError("no countable transition pairs")
    return CountMatrix(codes, counts)


def confusion(pairs, codes: Sequence[str]) -> CountMatrix:
    """Cross-tabulate a PairedSeries; stray codes land in "other"."""
    base = tuple(codes)
    if len(pairs) == 0:
        raise ValueError("empty paired series")
    stray = any(ca not in base or cb not in base for _, ca, cb in pairs)
    full = base + (OTHER_CODE,) if stray else base
    index = {code: i for i, code in enumerate(full)}
    other = index.get(OTHER_CODE)
    counts = [[0] * len(full) for _ in full]
    for _, ca, cb in pairs:
        i = index.get(ca, other)
        j = index.get(cb, other)
        counts[i][j] += 1
    return CountMatrix(full, counts)


class AgreementStats(NamedTuple):
    """Observed/expected agreement and chance-corrected kappa."""

    p_observed: float
    p_expected: float
    kappa: float


def cohens_kappa(m: CountMatrix) -> AgreementStats:
    """Chance-corrected agreement with marginal-product expectation."""
    total = m.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    p_o = sum(row[i] for i, row in enumerate(m.counts)) / total
    p_e = sum(map(mul, m.row_totals, m.col_totals)) / (total * total)
    if p_e >= 1.0:
        raise ValueError("degenerate marginals: expected agreement is 1")
    return AgreementStats(p_o, p_e, (p_o - p_e) / (1.0 - p_e))


class ClassScore(NamedTuple):
    """Per-class scores; None marks an undefined (0/0) quantity."""

    code: str
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class ClassMetrics:
    """Per-class precision/recall/F1 plus their unweighted means.

    Macro averages skip classes whose quantity is undefined; they are
    None only when no class defines the quantity at all.
    """

    per_class: tuple[ClassScore, ...]
    macro_precision: float | None
    macro_recall: float | None
    macro_f1: float | None


def class_metrics(m: CountMatrix) -> ClassMetrics:
    """Reference on rows, prediction on columns."""
    scores = []
    for i, (code, row_total, col_total) in enumerate(zip(m.codes, m.row_totals, m.col_totals)):
        tp = m.counts[i][i]
        precision = tp / col_total if col_total else None
        recall = tp / row_total if row_total else None
        if precision is None or recall is None:
            f1 = None
        elif precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        scores.append(ClassScore(code, precision, recall, f1))

    def macro(values: list[float | None]) -> float | None:
        defined = [v for v in values if v is not None]
        return sum(defined) / len(defined) if defined else None

    return ClassMetrics(
        tuple(scores),
        macro([s.precision for s in scores]),
        macro([s.recall for s in scores]),
        macro([s.f1 for s in scores]),
    )


@dataclass(frozen=True)
class CostEstimate:
    """Wall-clock annotation effort: total_s = rate * n * t."""

    n_individuals: int
    duration_s: float
    rate: float

    @property
    def total_s(self) -> float:
        return self.rate * self.n_individuals * self.duration_s

    @property
    def total_min(self) -> float:
        return self.total_s / 60.0


def annotation_cost(n: int, t: float, rate: float = 1.5) -> CostEstimate:
    """Effort to annotate n individuals over t seconds of video.

    The default rate folds in playback plus correction overhead: about
    1.5x real time per individual.
    """
    if n < 1:
        raise ValueError(f"need at least one individual, got {n}")
    if t <= 0:
        raise ValueError(f"duration must be positive, got {t}")
    return CostEstimate(n, t, rate)
