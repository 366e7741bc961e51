"""Dummy coding, OLS inference, t and F machinery.

The least-squares oracle here is deliberately different plumbing from
the implementation: plain Gaussian elimination on the normal equations
and quadrature for distribution tails. Fits of dummy-coded designs are
also held to a 50-digit mpmath solution of the normal equations (see
``mp_ols``), to 1e-13 of the largest coefficient or standard error. The tails are also compared with
mpmath's regularized incomplete beta at 50 digits, to a relative 1e-10
(see ``assert_tail``), and with ``scipy.stats`` (see
``scipy_stats_oracle``) to a relative 1e-12 where scipy is that exact.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy_stats_oracle as oracle
from ethokit import (
    DesignMatrix,
    RegressionResult,
    dummy_code,
    nested_f_test,
    ols_fit,
    significance_stars,
    two_sided_p,
)


def solve_normal_equations(x, y):
    """Gaussian elimination with partial pivoting on X'X b = X'y."""
    n, p = len(x), len(x[0])
    a = [[sum(x[k][i] * x[k][j] for k in range(n)) for j in range(p)] for i in range(p)]
    b = [sum(x[k][i] * y[k] for k in range(n)) for i in range(p)]
    for col in range(p):
        pivot = max(range(col, p), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, p):
            m = a[r][col] / a[col][col]
            for c in range(col, p):
                a[r][c] -= m * a[col][c]
            b[r] -= m * b[col]
    beta = [0.0] * p
    for r in range(p - 1, -1, -1):
        s = sum(a[r][c] * beta[c] for c in range(r + 1, p))
        beta[r] = (b[r] - s) / a[r][r]
    return beta


def rss_of(x, y, beta):
    return sum((yi - sum(xi[j] * beta[j] for j in range(len(beta)))) ** 2
               for xi, yi in zip(x, y))


def t_cdf_quadrature(t, df, panels=8192):
    """Simpson integration of the t density from 0 to |t|."""
    if t < 0:
        return 1.0 - t_cdf_quadrature(-t, df, panels)
    norm = math.exp(
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    )

    def density(x):
        return norm * (1.0 + x * x / df) ** (-(df + 1) / 2)

    h = t / panels
    total = density(0.0) + density(t)
    for k in range(1, panels):
        total += density(k * h) * (4 if k % 2 else 2)
    return 0.5 + total * h / 3.0


class TestDummyCode:
    REFS = {"habitat": "closed", "herd": "large"}

    def test_non_reference_observation(self):
        dm = dummy_code([{"habitat": "open", "herd": "small"}], self.REFS)
        assert dm.columns == ("intercept", "habitat[open]", "herd[small]")
        assert dm.rows == ((1.0, 1.0, 1.0),)

    def test_reference_observation(self):
        obs = [{"habitat": "closed", "herd": "large"}, {"habitat": "open", "herd": "small"}]
        dm = dummy_code(obs, self.REFS)
        assert dm.rows[0] == (1.0, 0.0, 0.0)

    def test_interaction_product_column(self):
        dm = dummy_code(
            [{"habitat": "open", "herd": "small"}],
            self.REFS,
            interactions=[("habitat", "herd")],
        )
        assert dm.columns[-1] == "habitat[open]:herd[small]"
        assert dm.rows == ((1.0, 1.0, 1.0, 1.0),)

    def test_interaction_zero_when_either_reference(self):
        dm = dummy_code(
            [{"habitat": "open", "herd": "large"}, {"habitat": "closed", "herd": "small"}],
            self.REFS,
            interactions=[("habitat", "herd")],
        )
        assert dm.rows == ((1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0))

    def test_missing_factor_rejected(self):
        with pytest.raises(ValueError, match="missing factor"):
            dummy_code([{"habitat": "open"}], self.REFS)

    def test_blocks_group_columns_by_factor(self):
        dm = dummy_code(
            [{"habitat": "open", "herd": "small"}],
            self.REFS,
            interactions=[("habitat", "herd")],
        )
        assert dict(dm.blocks) == {"habitat": (1,), "herd": (2,), "habitat:herd": (3,)}

    def test_three_level_factor_sorted_columns(self):
        obs = [{"habitat": h, "herd": "large"} for h in ("open", "semi", "closed")]
        dm = dummy_code(obs, self.REFS)
        assert dm.columns == ("intercept", "habitat[open]", "habitat[semi]")


class TestOlsFit:
    def test_exact_line(self):
        x = [[1.0, float(v)] for v in range(5)]
        fit = ols_fit(np.array(x), [1.0, 3.0, 5.0, 7.0, 9.0])
        assert fit.beta == pytest.approx((1.0, 2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.residuals == pytest.approx((0.0,) * 5, abs=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)

    def test_matches_normal_equations_oracle(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(10, 40)
            p = rng.randint(2, 5)
            x = [[1.0] + [rng.gauss(0, 1) for _ in range(p - 1)] for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            fit = ols_fit(np.array(x), y)
            oracle = solve_normal_equations(x, y)
            scale = max(1.0, max(abs(v) for v in oracle))
            assert max(abs(a - b) for a, b in zip(fit.beta, oracle)) < 1e-8 * scale

    def test_residuals_orthogonal_to_design(self):
        rng = random.Random(7)
        x = np.array([[1.0, rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(30)])
        y = [rng.gauss(0, 1) for _ in range(30)]
        fit = ols_fit(x, y)
        gram = x.T @ np.array(fit.residuals)
        assert np.max(np.abs(gram)) < 1e-8 * max(1.0, float(np.abs(y).max()))

    def test_rank_deficiency_names_columns(self):
        dm = DesignMatrix(
            ("intercept", "a", "a_copy"),
            tuple((1.0, float(v), float(v)) for v in range(6)),
        )
        with pytest.raises(ValueError, match="rank deficient.*a"):
            ols_fit(dm, list(range(6)))

    def test_underdetermined_rejected(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="more observations"):
            ols_fit(x, [0.0, 1.0])

    @pytest.mark.parametrize(
        "design,y,message",
        [
            ([], [], "design has no rows"),
            (DesignMatrix(("intercept",), ()), [], "design has no rows"),
            ([[], [], []], [1.0, 2.0, 3.0], "design has no columns"),
            ([[1.0, 0.0], [1.0, 1.0, 2.0], [1.0, 2.0]], [0.0, 1.0, 2.0],
             "design row 1 has width 3, not 2"),
            ([[1.0, 0.0], [1.0, 1.0], [1.0]], [0.0, 1.0, 2.0],
             "design row 2 has width 1, not 2"),
        ],
        ids=["empty", "empty-design-matrix", "no-columns", "long-row", "short-row"],
    )
    def test_malformed_design_rejected(self, design, y, message):
        with pytest.raises(ValueError, match=message):
            ols_fit(design, y)

    def test_constant_response_rejected(self):
        x = np.array([[1.0, float(v)] for v in range(5)])
        with pytest.raises(ValueError, match="constant"):
            ols_fit(x, [3.0] * 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.array([[1.0, float(v)] for v in range(5)])
        with pytest.raises(ValueError, match="finite"):
            ols_fit(x, [1.0, 2.0, bad, 3.0, 5.0])
        x[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ols_fit(x, [1.0, 2.0, 4.0, 3.0, 5.0])

    def test_r_squared_affine_invariant(self):
        rng = random.Random(3)
        x = np.array([[1.0, rng.gauss(0, 1)] for _ in range(25)])
        y = np.array([rng.gauss(0, 1) for _ in range(25)])
        base = ols_fit(x, y)
        shifted = ols_fit(x, 3.5 * y - 11.0)
        assert shifted.r_squared == pytest.approx(base.r_squared, abs=1e-12)

    def test_confidence_interval_formula(self):
        rng = random.Random(9)
        x = np.array([[1.0, rng.gauss(0, 1)] for _ in range(20)])
        y = [rng.gauss(0, 1) for _ in range(20)]
        fit = ols_fit(x, y)
        # t_{0.975, 18} = 2.1009...; check CI = beta +- t*se
        for b, s, lo, hi in zip(fit.beta, fit.se, fit.ci_low, fit.ci_high):
            assert hi - b == pytest.approx(b - lo, abs=1e-12)
            assert (hi - lo) / (2 * s) == pytest.approx(2.10092204, abs=1e-6)

    def test_model_f_squared(self):
        rng = random.Random(5)
        x = np.array([[1.0, rng.gauss(0, 1)] for _ in range(40)])
        y = [0.5 * row[1] + rng.gauss(0, 1) for row in x]
        fit = ols_fit(x, y)
        assert fit.f_squared == pytest.approx(fit.r_squared / (1 - fit.r_squared))

    def test_block_f_squared_matches_refit(self):
        rng = random.Random(11)
        obs = [
            {"habitat": rng.choice(["closed", "open"]), "herd": rng.choice(["large", "small"])}
            for _ in range(60)
        ]
        dm = dummy_code(obs, {"habitat": "closed", "herd": "large"})
        y = [
            0.3 * row[1] - 0.2 * row[2] + rng.gauss(0, 0.5)
            for row in dm.rows
        ]
        fit = ols_fit(dm, y)
        reduced_cols = [0, 2]  # drop the habitat block
        reduced = ols_fit(np.asarray(dm.rows, dtype=float)[:, reduced_cols], y)
        expected = (fit.r_squared - reduced.r_squared) / (1 - fit.r_squared)
        assert dict(fit.block_f_squared)["habitat"] == pytest.approx(expected, abs=1e-10)

    def test_exact_fit_inference_degenerates_cleanly(self):
        # residual variance collapses to (near) zero: inference must not
        # blow up, and the slope must come out overwhelmingly significant
        x = np.array([[1.0, float(v)] for v in range(5)])
        fit = ols_fit(x, [1.0 + 2.0 * v for v in range(5)])
        assert fit.t_stats[1] > 1e10 or math.isinf(fit.t_stats[1])
        assert fit.p_values[1] == pytest.approx(0.0, abs=1e-12)
        assert fit.se[1] == pytest.approx(0.0, abs=1e-12)
        assert fit.ci_high[1] - fit.ci_low[1] == pytest.approx(0.0, abs=1e-10)


def mp_ols(rows, y):
    """beta and se from the normal equations, solved at 50 digits from the exact inputs."""
    n, p = len(rows), len(rows[0])
    with mpmath.workdps(50):
        x = mpmath.matrix(rows)
        xtx_inv = mpmath.inverse(x.T * x)
        beta = xtx_inv * (x.T * mpmath.matrix(y))
        resid = mpmath.matrix(y) - x * beta
        sigma2 = mpmath.fsum(r * r for r in resid) / (n - p)
        se = [mpmath.sqrt(sigma2 * xtx_inv[j, j]) for j in range(p)]
        return [float(b) for b in beta], [float(s) for s in se]


@st.composite
def dummy_coded_fits(draw):
    """A full-rank dummy-coded design of 2-3 factors and 20-300 rows, and a
    response whose scale spans 1e-8 to 1e8: every cell of the factorial
    appears, the rest of the rows fall in random cells."""
    levels = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    cells = list(itertools.product(*(range(k) for k in levels)))
    n = draw(st.integers(max(20, len(cells)), 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    chosen = cells + [rng.choice(cells) for _ in range(n - len(cells))]
    rng.shuffle(chosen)
    observations = [{f"f{i}": f"l{level}" for i, level in enumerate(cell)} for cell in chosen]
    references = {f"f{i}": "l0" for i in range(len(levels))}
    interactions = [("f0", "f1")] if draw(st.booleans()) else []
    design = dummy_code(observations, references, interactions)
    scale = 10.0 ** draw(st.integers(-8, 8))
    effect = {cell: rng.gauss(0, 1) for cell in cells}
    y = [scale * (effect[cell] + rng.gauss(0, 1)) for cell in chosen]
    return design, y


class TestOlsAccuracy:
    @given(dummy_coded_fits())
    @settings(max_examples=40, deadline=None)
    def test_dummy_coded_fit_matches_50_digit_solution(self, case):
        design, y = case
        fit = ols_fit(design, y)
        beta, se = mp_ols(design.rows, y)
        for got, want in ((fit.beta, beta), (fit.se, se)):
            bound = 1e-13 * max(map(abs, want))
            assert max(abs(g - w) for g, w in zip(got, want)) <= bound
        # the same rows as a list fit to the same bits; only the names and blocks differ
        as_rows = ols_fit([list(row) for row in design.rows], y)
        assert as_rows.columns == tuple(f"x{j}" for j in range(len(design.columns)))
        assert as_rows.block_f_squared == ()
        named = dataclasses.replace(
            as_rows, columns=fit.columns, block_f_squared=fit.block_f_squared
        )
        assert named == fit


class TestNestedFTest:
    @staticmethod
    def _models():
        rng = random.Random(13)
        x_full = [[1.0, rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(30)]
        y = [0.4 * r[1] + rng.gauss(0, 1) for r in x_full]
        full = ols_fit(
            DesignMatrix(("intercept", "a", "b"), tuple(tuple(r) for r in x_full)), y
        )
        reduced = ols_fit(
            DesignMatrix(("intercept", "a"), tuple((r[0], r[1]) for r in x_full)), y
        )
        return x_full, y, full, reduced

    def test_equal_models(self):
        _, _, full, _ = self._models()
        result = nested_f_test(full, full)
        assert result == (0.0, 0, full.df_resid, 1.0)

    def test_matches_rss_oracle(self):
        x_full, y, full, reduced = self._models()
        result = nested_f_test(full, reduced)
        beta_f = solve_normal_equations(x_full, y)
        beta_r = solve_normal_equations([[r[0], r[1]] for r in x_full], y)
        rss_f = rss_of(x_full, y, beta_f)
        rss_r = rss_of([[r[0], r[1]] for r in x_full], y, beta_r)
        expected = ((rss_r - rss_f) / 1) / (rss_f / (30 - 3))
        assert result.f == pytest.approx(expected, rel=1e-8)
        assert (result.df1, result.df2) == (1, 27)

    def test_non_nested_rejected(self):
        _, y, full, _ = self._models()
        rng = random.Random(14)
        other = ols_fit(
            DesignMatrix(("intercept", "zzz"),
                         tuple((1.0, rng.gauss(0, 1)) for _ in range(30))), y
        )
        with pytest.raises(ValueError, match="not nested"):
            nested_f_test(full, other)

    def test_exact_full_fit_rejected(self):
        x = [[1.0, float(v)] for v in range(5)]
        y = [1.0 + 2.0 * v for v in range(5)]
        full = ols_fit(DesignMatrix(("intercept", "x"), tuple(tuple(r) for r in x)), y)
        reduced_x = tuple((1.0,) for _ in range(5))
        reduced = ols_fit(DesignMatrix(("intercept",), reduced_x), y)
        with pytest.raises(ValueError, match="exactly"):
            nested_f_test(full, reduced)

    def test_tiny_p_value_does_not_underflow(self):
        # 104 observations, 4 columns against 1: F = ((280 - 100) / 3) / (100 / 100) = 60
        rng = random.Random(15)
        x = [[1.0] + [rng.gauss(0, 1) for _ in range(3)] for _ in range(104)]
        y = [rng.gauss(0, 1) for _ in range(104)]
        full = ols_fit(DesignMatrix(("intercept", "a", "b", "c"), tuple(map(tuple, x))), y)
        reduced = ols_fit(DesignMatrix(("intercept",), tuple((1.0,) for _ in x)), y)
        full = dataclasses.replace(full, rss=100.0, tss=1000.0)
        reduced = dataclasses.replace(reduced, rss=280.0, tss=1000.0)
        result = nested_f_test(full, reduced)
        assert (result.f, result.df1, result.df2) == (60.0, 3, 100)
        assert result.p == pytest.approx(2.8e-22, rel=0.05, abs=0.0)
        assert result.p == pytest.approx(scipy.stats.f.sf(60.0, 3, 100), rel=1e-12, abs=0.0)


class TestDistributionTails:
    def test_cdf_at_zero(self):
        # each tail of t = 0 holds half the mass
        for df in (1, 2, 5, 30):
            assert two_sided_p(0.0, df) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry(self):
        assert two_sided_p(-1.7, 8) == two_sided_p(1.7, 8)
        assert two_sided_p(1.7, 8) == pytest.approx(2 * (1 - t_cdf_quadrature(1.7, 8)), abs=1e-10)

    def test_field_comparison_p_value(self):
        assert two_sided_p(4.73, 5) == pytest.approx(0.0052, abs=2e-4)

    def test_critical_value_at_five_percent(self):
        assert two_sided_p(2.571, 5) == pytest.approx(0.05, abs=1e-4)

    def test_matches_quadrature_oracle(self):
        for df in (1, 2, 3, 7, 15, 30):
            for t in (-10.0, -2.5, -0.3, 0.7, 4.73, 10.0):
                assert two_sided_p(t, df) == pytest.approx(
                    2.0 * t_cdf_quadrature(-abs(t), df), abs=1e-10
                )

    @pytest.mark.parametrize("t,df", [(20.0, 30), (-15.0, 60), (40.0, 100)])
    def test_two_sided_p_below_machine_epsilon(self, t, df):
        expected = 2.0 * scipy.stats.t.sf(abs(t), df)
        assert expected < 1e-16
        assert two_sided_p(t, df) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_nan_statistic_has_nan_tail(self):
        assert math.isnan(two_sided_p(math.nan, 5))

    def test_invalid_df_rejected(self):
        with pytest.raises(ValueError):
            two_sided_p(1.0, 0)

    def test_f_cdf_monotone(self):
        # the F test's p-value is its upper tail: 1 at F = 0, falling as F grows
        p = []
        for f in (0.0, 0.5, 1.0, 2.0, 8.0):
            full, reduced = _fit_summary(4, 16, 12.0), _fit_summary(1, 16, 12.0 + 3 * f)
            p.append(nested_f_test(full, reduced).p)
        assert p[0] == 1.0
        assert all(a > b for a, b in zip(p, p[1:]))

    @pytest.mark.parametrize("df", [math.nan, -math.inf, -1.0])
    def test_nan_or_negative_df_rejected(self, df):
        with pytest.raises(ValueError):
            two_sided_p(1.0, df)


DFS = st.one_of(st.integers(1, 10_000), st.floats(1.0, 1e4))
T_VALUES = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, math.inf, -math.inf])
)
F_VALUES = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, math.inf]))


def _fit_summary(n_columns: int, n_obs: int, rss: float) -> RegressionResult:
    """A fit with only what nested_f_test reads: columns, n_obs, rss, tss."""
    zeros = (0.0,) * n_columns
    return RegressionResult(
        tuple(f"x{j}" for j in range(n_columns)),
        zeros, zeros, zeros, zeros, zeros, zeros,
        (0.0,) * n_obs, rss, 1e6, 0.0, 0.0, 0.0,
    )


def mp_two_sided_p(t: float, df: float) -> float:
    """2 P(T > |t|) as mpmath's incomplete beta at 50 digits, from exact t and df."""
    if math.isinf(t):
        return 0.0
    with mpmath.workdps(50):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        return float(mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True))


def mp_f_sf(f: float, df1: int, df2: int) -> float:
    """P(F > f) as mpmath's incomplete beta at 50 digits, from exact f."""
    if math.isinf(f):
        return 0.0
    with mpmath.workdps(50):
        f = mpmath.mpf(f)
        return float(mpmath.betainc(mpmath.mpf(df2) / 2, mpmath.mpf(df1) / 2, 0,
                                    df2 / (df2 + df1 * f), regularized=True))


def assert_tail(got: float, want: float) -> None:
    """Relative 1e-10, plus two subnormal ulps: below about 2.2e-308 a
    double cannot hold a relative 1e-10."""
    assert abs(got - want) <= 1e-10 * want + 1e-323, (got, want)


class TestTailTolerance:
    """The tails are within a relative 1e-10 of the exact incomplete beta."""

    @given(t=T_VALUES, df=DFS)
    @settings(max_examples=500, deadline=None)
    def test_two_sided_p(self, t, df):
        assert_tail(two_sided_p(t, df), mp_two_sided_p(t, df))

    @given(f=F_VALUES, df1=st.integers(1, 20), df2=st.integers(1, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_nested_f_test_p(self, f, df1, df2):
        full = _fit_summary(1 + df1, 1 + df1 + df2, float(df2))
        reduced = _fit_summary(1, 1 + df1 + df2, df2 + f * df1)
        result = nested_f_test(full, reduced)
        assert (result.df1, result.df2) == (df1, df2)
        assert_tail(result.p, mp_f_sf(result.f, df1, df2))

    def test_f_tail_near_the_smallest_normal(self):
        # scipy's fdtrc returns 1.0495e-306 here, 32 % below the true tail
        df1, df2 = 19, 2937
        full = _fit_summary(1 + df1, 1 + df1 + df2, float(df2))
        reduced = _fit_summary(1, 1 + df1 + df2, df2 + 102.46175995124452 * df1)
        result = nested_f_test(full, reduced)
        assert result.f == pytest.approx(102.46175995124452, rel=1e-14)
        assert result.p == pytest.approx(1.38604e-306, rel=1e-5)
        assert_tail(result.p, mp_f_sf(result.f, df1, df2))

    @given(df=st.integers(1, 10_000), p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_ols_confidence_bounds(self, df, p, seed):
        rng = np.random.default_rng(seed)
        n = df + p
        x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        result = ols_fit(x, rng.normal(size=n))
        crit = oracle.t_ppf(0.975, df)
        # a bound is a difference, so its error is judged against its terms
        for b, s, lo, hi in zip(result.beta, result.se, result.ci_low, result.ci_high):
            scale = abs(b) + crit * s
            assert abs(lo - (b - crit * s)) <= 1e-10 * scale + 1e-323
            assert abs(hi - (b + crit * s)) <= 1e-10 * scale + 1e-323
        for got, t in zip(result.p_values, result.t_stats):
            assert_tail(got, mp_two_sided_p(t, df))


class TestSignificanceStars:
    @pytest.mark.parametrize(
        "p,stars",
        [
            (0.0005, "***"),
            (0.005, "**"),
            (0.03, "*"),
            (0.07, "†"),
            (0.2, ""),
            (0.05, "†"),
            (0.01, "*"),
        ],
    )
    def test_ladder(self, p, stars):
        assert significance_stars(p) == stars
