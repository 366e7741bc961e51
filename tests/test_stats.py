"""Dummy coding, OLS inference, t and F machinery.

The least-squares oracle here is deliberately different plumbing from
the implementation: plain Gaussian elimination on the normal equations
and quadrature for distribution tails.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
import scipy.stats

from ethokit import (
    DesignMatrix,
    dummy_code,
    f_cdf,
    nested_f_test,
    ols_fit,
    paired_ttest,
    significance_stars,
    student_t_cdf,
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
    LEVELS = {"habitat": ["closed", "open"], "herd": ["large", "small"]}

    def test_non_reference_observation(self):
        dm = dummy_code([{"habitat": "open", "herd": "small"}], self.REFS, levels=self.LEVELS)
        assert dm.columns == ("intercept", "habitat[open]", "herd[small]")
        assert dm.rows == ((1.0, 1.0, 1.0),)

    def test_reference_observation(self):
        dm = dummy_code([{"habitat": "closed", "herd": "large"}], self.REFS, levels=self.LEVELS)
        assert dm.rows == ((1.0, 0.0, 0.0),)

    def test_interaction_product_column(self):
        dm = dummy_code(
            [{"habitat": "open", "herd": "small"}],
            self.REFS,
            interactions=[("habitat", "herd")],
            levels=self.LEVELS,
        )
        assert dm.columns[-1] == "habitat[open]:herd[small]"
        assert dm.rows == ((1.0, 1.0, 1.0, 1.0),)

    def test_interaction_zero_when_either_reference(self):
        dm = dummy_code(
            [{"habitat": "open", "herd": "large"}],
            self.REFS,
            interactions=[("habitat", "herd")],
            levels=self.LEVELS,
        )
        assert dm.rows == ((1.0, 1.0, 0.0, 0.0),)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown level"):
            dummy_code([{"habitat": "swamp", "herd": "large"}], self.REFS, levels=self.LEVELS)

    def test_missing_factor_rejected(self):
        with pytest.raises(ValueError, match="missing factor"):
            dummy_code([{"habitat": "open"}], self.REFS)

    def test_blocks_group_columns_by_factor(self):
        dm = dummy_code(
            [{"habitat": "open", "herd": "small"}],
            self.REFS,
            interactions=[("habitat", "herd")],
            levels=self.LEVELS,
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

    def test_constant_response_rejected(self):
        x = np.array([[1.0, float(v)] for v in range(5)])
        with pytest.raises(ValueError, match="constant"):
            ols_fit(x, [3.0] * 5)

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
        reduced = ols_fit(dm.matrix[:, reduced_cols], y)
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


class TestPairedTTest:
    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            paired_ttest([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])

    def test_hand_arithmetic(self):
        d = [1.0, 1.0, 1.0, 1.0, -1.0, 1.0]
        result = paired_ttest(d, [0.0] * 6)
        assert result.t == pytest.approx(2.0, abs=1e-12)
        assert result.df == 5
        assert result.mean_diff == pytest.approx(2 / 3)
        assert result.p == pytest.approx(2 * (1 - t_cdf_quadrature(2.0, 5)), abs=1e-10)

    def test_direction_sign(self):
        result = paired_ttest([0.0, 1.0, 2.0], [2.0, 4.0, 3.0])
        assert result.t < 0
        assert result.mean_diff == pytest.approx(-2.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [1.0])


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
        for df in (1, 2, 5, 30):
            assert student_t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        assert student_t_cdf(-1.7, 8) == pytest.approx(1 - student_t_cdf(1.7, 8), abs=1e-12)

    def test_field_comparison_p_value(self):
        assert two_sided_p(4.73, 5) == pytest.approx(0.0052, abs=2e-4)

    def test_critical_value_at_five_percent(self):
        assert two_sided_p(2.571, 5) == pytest.approx(0.05, abs=1e-4)

    def test_matches_quadrature_oracle(self):
        for df in (1, 2, 3, 7, 15, 30):
            for t in (-10.0, -2.5, -0.3, 0.7, 4.73, 10.0):
                assert student_t_cdf(t, df) == pytest.approx(
                    t_cdf_quadrature(t, df), abs=1e-10
                )

    @pytest.mark.parametrize("t,df", [(20.0, 30), (-15.0, 60), (40.0, 100)])
    def test_two_sided_p_below_machine_epsilon(self, t, df):
        expected = 2.0 * scipy.stats.t.sf(abs(t), df)
        assert expected < 1e-16
        assert two_sided_p(t, df) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_invalid_df_rejected(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)
        with pytest.raises(ValueError):
            two_sided_p(1.0, 0)
        with pytest.raises(ValueError):
            f_cdf(1.0, 0, 5)

    def test_f_cdf_monotone(self):
        values = [f_cdf(v, 3, 12) for v in (0.0, 0.5, 1.0, 2.0, 8.0)]
        assert values[0] == 0.0
        assert all(a < b for a, b in zip(values, values[1:]))


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
