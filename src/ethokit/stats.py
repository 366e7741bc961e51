"""Regression and hypothesis tests for behavior-vs-context analyses.

The working model is ordinary least squares on dummy-coded categorical
predictors (reference levels absorbed by the intercept), with effect
sizes reported as Cohen's f2 at the model level and incrementally per
predictor block. Solving uses QR, never an explicit inverse.

Distribution tails come from ``scipy.special`` (``stdtr``, ``stdtrit``,
``fdtrc``): these are the functions scipy's own ``stats`` t and F
distributions evaluate, so the values are the same to the bit,
but the ``stats`` subpackage (which also loads ``scipy.optimize`` and
``scipy.spatial``) is never loaded. NumPy and scipy are imported on
first use, inside the functions that call them, so importing this
module (and every command that never fits a model) does not pay for
loading either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

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
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match column count")

    @property
    def matrix(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.rows, dtype=float)

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


def _qr_solve(x: np.ndarray, y: np.ndarray, names: Sequence[str]):
    """Least squares via pivoted QR; names rank-deficient columns."""
    import numpy as np
    import scipy.linalg

    n, p = x.shape
    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(n, p) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < p:
        dependent = sorted(names[j] for j in piv[rank:])
        raise ValueError(f"design matrix is rank deficient; dependent columns: {dependent}")
    beta_piv = scipy.linalg.solve_triangular(r, q.T @ y)
    beta = np.empty(p)
    beta[piv] = beta_piv
    # (X'X)^-1 = P R^-1 R^-T P' for the pivoted factorization
    r_inv = scipy.linalg.solve_triangular(r, np.eye(p))
    xtx_inv_piv = r_inv @ r_inv.T
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = xtx_inv_piv
    return beta, xtx_inv


def ols_fit(design: DesignMatrix | np.ndarray, y: Sequence[float]) -> RegressionResult:
    """Ordinary least squares with t-based inference at 95%.

    Requires more observations than parameters and a full-rank design;
    a rank-deficient design fails with the dependent columns named.
    """
    import numpy as np

    if isinstance(design, DesignMatrix):
        x = design.matrix
        names: Sequence[str] = design.columns
        blocks = design.blocks
    else:
        x = np.asarray(design, dtype=float)
        names = tuple(f"x{j}" for j in range(x.shape[1]))
        blocks = ()
    yv = np.asarray(y, dtype=float)
    n, p = x.shape
    if yv.shape != (n,):
        raise ValueError(f"response length {yv.shape} does not match {n} rows")
    if n <= p:
        raise ValueError(f"need more observations ({n}) than parameters ({p})")

    beta, xtx_inv = _qr_solve(x, yv, names)
    resid = yv - x @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((yv - yv.mean()) ** 2))
    if tss == 0:
        raise ValueError("response is constant; R-squared undefined")
    df = n - p
    sigma2 = rss / df
    se = np.sqrt(np.clip(sigma2 * np.diag(xtx_inv), 0.0, None))
    t_stats = np.empty(p)
    for j in range(p):
        if se[j] > 0:
            t_stats[j] = beta[j] / se[j]
        else:  # exact fit: zero residual variance
            t_stats[j] = 0.0 if beta[j] == 0 else math.copysign(math.inf, beta[j])
    p_values = np.array([two_sided_p(t, df) if math.isfinite(t) else 0.0 for t in t_stats])
    from scipy import special

    t_crit = float(special.stdtrit(df, 0.975))
    ci_low = beta - t_crit * se
    ci_high = beta + t_crit * se
    r2 = 1.0 - rss / tss
    adj = 1.0 - (1.0 - r2) * (n - 1) / df
    f2 = r2 / (1.0 - r2) if r2 < 1.0 else math.inf

    block_f2: list[tuple[str, float]] = []
    for name, idx in blocks:
        if not idx:
            continue
        keep = [j for j in range(p) if j not in set(idx)]
        x_red = x[:, keep]
        beta_red, _ = _qr_solve(x_red, yv, [names[j] for j in keep])
        resid_red = yv - x_red @ beta_red
        r2_red = 1.0 - float(resid_red @ resid_red) / tss
        block_f2.append((name, (r2 - r2_red) / (1.0 - r2) if r2 < 1.0 else math.inf))

    return RegressionResult(
        tuple(names),
        tuple(beta.tolist()),
        tuple(se.tolist()),
        tuple(float(t) for t in t_stats),
        tuple(float(v) for v in p_values),
        tuple(ci_low.tolist()),
        tuple(ci_high.tolist()),
        tuple(resid.tolist()),
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
    from scipy import special

    f = max(0.0, (reduced.rss - full.rss) / df1) / (full.rss / df2)
    return FTestResult(f, df1, df2, float(special.fdtrc(df1, df2, f)))


def two_sided_p(t: float, df: float) -> float:
    """2 P(T > |t|) from the survival function, which keeps its digits
    where ``1 - cdf`` rounds to 0 (p below about 1e-16)."""
    if not df > 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    from scipy import special

    return 2.0 * float(special.stdtr(df, -abs(t)))


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
