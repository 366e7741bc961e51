"""Regression and hypothesis tests for behavior-vs-context analyses.

The working model is ordinary least squares on dummy-coded categorical
predictors (reference levels absorbed by the intercept), with effect
sizes reported as Cohen's f2 at the model level and incrementally per
predictor block. Solving uses a Householder QR with column pivoting,
never an explicit inverse.

The fit is plain Python on float columns: every inner product (column
norms, reflections, back-substitution, residuals, sums of squares) is
``math.fsum`` of the products, so each is correctly rounded, and a
reflection is applied to a column by ``map``. A fit without blocks
takes about 1.4 ms at 120 x 6, 12 ms at 969 x 8 (the paper's sequence
count), 26 ms at 1000 x 12, 0.15 s at 5000 x 15 and 0.26 s at
5000 x 20 (one core of a 2-core Linux container). NumPy's LAPACK takes
7.5 ms at 5000 x 15 but costs about 0.16 s to import, so the pure fit
is slower only past about 5000 rows by 15 columns, far above a table of
one row per sequence or subject with a handful of dummy columns.

The t and F tails are the regularized incomplete beta function
``I_x(a, b)``, evaluated by its continued fraction (modified Lentz), one
of the methods of DiDonato & Morris, ACM TOMS Algorithm 708 (1992). Against mpmath at
50 digits they are within a relative 1e-10 (two subnormal ulps below
about 2.2e-308) for degrees of freedom up to 1e4, where they were
checked; ``1 - cdf`` is never formed, so p-values far below 1e-16 keep
their digits. The module imports neither scipy nor NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "DesignMatrix",
    "RegressionResult",
    "FTestResult",
    "dummy_code",
    "ols_fit",
    "nested_f_test",
    "two_sided_p",
    "significance_stars",
]

INTERCEPT = "intercept"
_EPS = 2.0**-52
_TINY = 1e-300  # keeps Lentz's denominators off zero
_MAX_ITERATIONS = 10_000
_Z_975 = 1.959963984540054  # the standard normal's 0.975 quantile


@dataclass(frozen=True)
class DesignMatrix:
    """Observations-by-predictors matrix with named columns.

    blocks groups column indices by originating factor (or interaction)
    so incremental effect sizes can drop a factor wholesale.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    blocks: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(map(float, r)) for r in self.rows))
        object.__setattr__(
            self, "blocks", tuple((name, tuple(idx)) for name, idx in self.blocks)
        )
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(f"design row {i} has width {len(row)}, not {len(self.columns)}")

    @property
    def n_obs(self) -> int:
        return len(self.rows)


def dummy_code(
    observations: Sequence[Mapping[str, str]],
    references: Mapping[str, str],
    interactions: Sequence[tuple[str, str]] = (),
) -> DesignMatrix:
    """0/1 design matrix against reference levels, intercept first.

    Factor order follows `references`; level columns are sorted within a
    factor, the levels being those in the data. Interaction columns are
    elementwise products of the two factors' dummy columns.
    """
    factors = list(references)
    seen: dict[str, set[str]] = {f: {references[f]} for f in factors}
    for i, obs in enumerate(observations):
        for f in factors:
            if f not in obs:
                raise ValueError(f"observation {i} missing factor {f!r}")
            seen[f].add(obs[f])
    for f1, f2 in interactions:
        if f1 not in references or f2 not in references:
            raise ValueError(f"interaction names unknown factor: {(f1, f2)}")

    columns = [INTERCEPT]
    col_of: dict[tuple[str, str], int] = {}
    blocks: list[tuple[str, tuple[int, ...]]] = []
    for f in factors:
        idx = []
        for level in sorted(seen[f] - {references[f]}):
            col_of[(f, level)] = len(columns)
            idx.append(len(columns))
            columns.append(f"{f}[{level}]")
        blocks.append((f, tuple(idx)))
    inter_cols: list[tuple[int, tuple[int, int]]] = []
    for f1, f2 in interactions:
        idx = []
        for l1 in sorted(seen[f1] - {references[f1]}):
            for l2 in sorted(seen[f2] - {references[f2]}):
                c1, c2 = col_of[(f1, l1)], col_of[(f2, l2)]
                inter_cols.append((len(columns), (c1, c2)))
                idx.append(len(columns))
                columns.append(f"{f1}[{l1}]:{f2}[{l2}]")
        blocks.append((f"{f1}:{f2}", tuple(idx)))

    rows = []
    for obs in observations:
        row = [0.0] * len(columns)
        row[0] = 1.0
        for f in factors:
            key = (f, obs[f])
            if key in col_of:
                row[col_of[key]] = 1.0
        for target, (c1, c2) in inter_cols:
            row[target] = row[c1] * row[c2]
        rows.append(tuple(row))
    return DesignMatrix(tuple(columns), tuple(rows), tuple(blocks))


@dataclass(frozen=True)
class RegressionResult:
    """OLS fit summary; parallel tuples are indexed like columns."""

    columns: tuple[str, ...]
    beta: tuple[float, ...]
    se: tuple[float, ...]
    t_stats: tuple[float, ...]
    p_values: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    residuals: tuple[float, ...]
    rss: float
    tss: float
    r_squared: float
    adj_r_squared: float
    f_squared: float
    block_f_squared: tuple[tuple[str, float], ...] = ()

    @property
    def n_obs(self) -> int:
        return len(self.residuals)

    @property
    def df_resid(self) -> int:
        return self.n_obs - len(self.columns)

    def coefficient(self, column: str) -> float:
        return self.beta[self.columns.index(column)]


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    """The inner product of a and b, correctly rounded."""
    return math.fsum(map(mul, a, b))


def _qr_solve(
    columns: Sequence[Sequence[float]], y: Sequence[float], names: Sequence[str]
) -> tuple[list[float], list[float]]:
    """Least squares via Householder QR with column pivoting; names
    rank-deficient columns.

    Each step moves the column of largest remaining norm to the front
    (the first one on a tie), as LAPACK's ``geqp3`` does, so the rank
    ends at the first step whose norm is at most
    ``max(n, p) * eps * |r_00|``. Returns beta and the diagonal of
    (X'X)^-1.
    """
    n, p = len(y), len(columns)
    a = [list(c) for c in columns]  # reduced in place to R, column by column
    qty = list(y)
    piv = list(range(p))
    tol = 0.0
    for k in range(p):
        squares = [_dot(c[k:], c[k:]) for c in a[k:]]
        j = k + squares.index(max(squares))
        a[k], a[j] = a[j], a[k]
        piv[k], piv[j] = piv[j], piv[k]
        v = a[k][k:]
        norm = math.sqrt(squares[j - k])
        if k == 0:
            tol = max(n, p) * _EPS * norm
        if norm <= tol:
            dependent = sorted(names[i] for i in piv[k:])
            raise ValueError(f"design matrix is rank deficient; dependent columns: {dependent}")
        # reflects the column onto -sign(v0) * norm * e_0
        a[k][k] = -math.copysign(norm, v[0])
        v[0] += math.copysign(norm, v[0])
        scale = 2.0 / _dot(v, v)
        for c in (*a[k + 1:], qty):
            tail = c[k:]
            c[k:] = map(sub, tail, map(mul, v, repeat(scale * _dot(v, tail))))
    # back-substitution for R b = Q'y and R R^-1 = I at once
    upper = [[a[j][i] for j in range(i + 1, p)] for i in range(p)]
    solutions = []
    for rhs in (qty[:p], *([float(i == m) for i in range(p)] for m in range(p))):
        x = [0.0] * p
        for i in range(p - 1, -1, -1):
            x[i] = (rhs[i] - _dot(upper[i], x[i + 1:])) / a[i][i]
        solutions.append(x)
    # (X'X)^-1 = P R^-1 R^-T P' for the pivoted factorization
    beta = [0.0] * p
    xtx_inv_diag = [0.0] * p
    for i, r_inv_row in enumerate(zip(*solutions[1:])):
        beta[piv[i]] = solutions[0][i]
        xtx_inv_diag[piv[i]] = _dot(r_inv_row, r_inv_row)
    return beta, xtx_inv_diag


def _residuals(
    rows: Iterable[Sequence[float]], y: Sequence[float], beta: Sequence[float]
) -> list[float]:
    """y - X beta, each row's inner product correctly rounded."""
    return [yi - _dot(row, beta) for yi, row in zip(y, rows)]


def ols_fit(
    design: DesignMatrix | Sequence[Sequence[float]], y: Sequence[float]
) -> RegressionResult:
    """Ordinary least squares with t-based inference at 95%.

    The design is a DesignMatrix or a sequence of rows (a NumPy array
    among them), whose columns are then named x0, x1, ... Requires more
    observations than parameters and a full-rank design; a
    rank-deficient design fails with the dependent columns named.
    """
    if not isinstance(design, DesignMatrix):
        rows = list(design)
        design = DesignMatrix(tuple(f"x{j}" for j in range(len(rows[0]) if rows else 0)), rows)
    rows, names = design.rows, design.columns
    yv = list(map(float, y))
    n, p = len(rows), len(names)
    if n == 0:
        raise ValueError("design has no rows")
    if p == 0:
        raise ValueError("design has no columns")
    if len(yv) != n:
        raise ValueError(f"response length {len(yv)} does not match {n} rows")
    if n <= p:
        raise ValueError(f"need more observations ({n}) than parameters ({p})")
    if not all(map(math.isfinite, chain(yv, chain.from_iterable(rows)))):
        raise ValueError("design and response must be finite")

    columns = list(zip(*rows))
    beta, xtx_inv_diag = _qr_solve(columns, yv, names)
    resid = _residuals(rows, yv, beta)
    rss = _dot(resid, resid)
    deviations = list(map(sub, yv, repeat(math.fsum(yv) / n)))
    tss = _dot(deviations, deviations)
    if tss == 0:
        raise ValueError("response is constant; R-squared undefined")
    df = n - p
    sigma2 = rss / df
    se = [math.sqrt(max(sigma2 * v, 0.0)) for v in xtx_inv_diag]
    t_stats = []
    for b, s in zip(beta, se):
        if s > 0:
            t_stats.append(b / s)
        else:  # exact fit: zero residual variance
            t_stats.append(0.0 if b == 0 else math.copysign(math.inf, b))
    t_crit = _t_critical_95(df)
    r2 = 1.0 - rss / tss
    adj = 1.0 - (1.0 - r2) * (n - 1) / df
    f2 = r2 / (1.0 - r2) if r2 < 1.0 else math.inf

    block_f2: list[tuple[str, float]] = []
    for name, idx in design.blocks:
        if not idx:
            continue
        keep = [j for j in range(p) if j not in set(idx)]
        kept = [columns[j] for j in keep]
        beta_red, _ = _qr_solve(kept, yv, [names[j] for j in keep])
        resid_red = _residuals(zip(*kept), yv, beta_red)
        r2_red = 1.0 - _dot(resid_red, resid_red) / tss
        block_f2.append((name, (r2 - r2_red) / (1.0 - r2) if r2 < 1.0 else math.inf))

    return RegressionResult(
        names,
        tuple(beta),
        tuple(se),
        tuple(t_stats),
        tuple(two_sided_p(t, df) for t in t_stats),
        tuple(b - t_crit * s for b, s in zip(beta, se)),
        tuple(b + t_crit * s for b, s in zip(beta, se)),
        tuple(resid),
        rss,
        tss,
        r2,
        adj,
        f2,
        tuple(block_f2),
    )


class FTestResult(NamedTuple):
    f: float
    df1: int
    df2: int
    p: float


def nested_f_test(full: RegressionResult, reduced: RegressionResult) -> FTestResult:
    """F-test of the extra columns in `full` over nested `reduced`."""
    if not set(reduced.columns) <= set(full.columns):
        raise ValueError("models are not nested; reduced columns must be a subset")
    if full.n_obs != reduced.n_obs or full.tss != reduced.tss:
        raise ValueError("models were fit to different responses")
    df1 = len(full.columns) - len(reduced.columns)
    df2 = full.df_resid
    if df1 == 0:
        return FTestResult(0.0, 0, df2, 1.0)
    # an exact fit leaves only rounding noise in rss; judge it against tss
    if full.rss <= 1e-12 * full.tss:
        raise ValueError("full model fits exactly; F statistic undefined")
    f = max(0.0, (reduced.rss - full.rss) / df1) / (full.rss / df2)
    return FTestResult(f, df1, df2, _f_sf(f, df1, df2))


def two_sided_p(t: float, df: float) -> float:
    """2 P(T > |t|) for Student's t with df degrees of freedom: the
    incomplete beta ``I_x(df/2, 1/2)`` at ``x = df / (df + t^2)``, which
    keeps its digits where ``1 - cdf`` rounds to 0 (p below about 1e-16)."""
    if not df > 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    tt = t * t
    return _betainc(0.5 * df, 0.5, df / (df + tt), tt / (df + tt))


def _f_sf(f: float, df1: float, df2: float) -> float:
    """P(F > f) for Snedecor's F: ``I_x(df2/2, df1/2)`` at ``x = df2 / (df2 + df1 f)``."""
    if math.isinf(f):
        return 0.0
    u = df1 * f
    return _betainc(0.5 * df2, 0.5 * df1, df2 / (df2 + u), u / (df2 + u))


def _t_critical_95(df: float) -> float:
    """The t > 0 with two_sided_p(t, df) = 0.05, by Newton's method.

    The tail is convex and falling for t > 0, so Newton steps from a
    start left of the root rise to it without overshooting; the normal
    quantile is such a start, because every t tail is heavier. It stops
    at a step below 1e-12 of t, which includes a negative step: only the
    tail's rounding makes one.
    """
    log_norm = -0.5 * math.log(df) - _log_beta(0.5 * df, 0.5)
    t = _Z_975
    for _ in range(_MAX_ITERATIONS):
        density = math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))
        step = (two_sided_p(t, df) - 0.05) / (2.0 * density)
        t += step
        if step <= 1e-12 * t:
            return t
    raise ArithmeticError(f"t quantile did not converge for df={df}")


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, given ``y = 1 - x`` as
    computed exactly by the caller (``x`` itself may round to 1).

    The continued fraction converges fast for ``x < (a+1)/(a+b+2)``;
    above that point ``I_x(a, b) = 1 - I_y(b, a)``, which is then at
    least about 0.08, so the subtraction costs no relative precision.
    """
    if math.isnan(x + y):  # a NaN statistic has no tail
        return math.nan
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _betainc_cf(a, b, x, y)
    return 1.0 - _betainc_cf(b, a, y, x)


def _betainc_cf(a: float, b: float, x: float, y: float) -> float:
    """``x^a y^b / (a B(a, b))`` times the continued fraction, by
    modified Lentz; the prefactor is summed in log space so a result
    below the smallest normal double is rounded once."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def clamp(v: float) -> float:
        return v if abs(v) > _TINY else _TINY

    c = 1.0
    d = 1.0 / clamp(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITERATIONS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / clamp(1.0 + aa * d)
        c = clamp(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / clamp(1.0 + aa * d)
        c = clamp(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.0 * _EPS:
            break
    else:
        raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    return math.exp(a * log_x + b * log_y - _log_beta(a, b) + math.log(h / a))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0.

    Once the larger argument reaches 10, ``lgamma(a) - lgamma(a + b)``
    comes from Stirling's series with its large terms cancelled by hand,
    as cephes ``lbeta`` does for a large argument: differencing two
    ``lgamma`` values of several thousand loses digits to their rounding.
    """
    if a < b:
        a, b = b, a
    if a < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    s = a + b
    head = -(a - 0.5) * math.log1p(b / a) - b * math.log(s) + b
    return math.lgamma(b) + head + _stirling_tail(a) - _stirling_tail(s)


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) for z >= 10, by
    five terms of Stirling's series (the sixth is below 2e-14 there)."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def significance_stars(p: float) -> str:
    """Conventional star ladder, with a dagger for p < 0.10."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    if p < 0.10:
        return "†"
    return ""
