import json
import math
import statistics
import sys
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrader.cli import _fields, _json
from pairtrader.econometrics import (
    _chi2_2_sf,
    _t_ppf,
    _t_tail,
    correlation_matrix,
    durbin_watson,
    jarque_bera,
    ols_through_origin,
    omnibus_k2,
)
from pairtrader.errors import (
    AllZeroResiduals,
    DegenerateRegressor,
    LengthMismatch,
    NumericError,
    SampleTooSmall,
    SeriesTooShort,
    ZeroVariance,
)
from pairtrader.marketdata import AlignedPanel, align_panel
from pairtrader.synthetic import weekday_calendar

from conftest import TAIL_DFS, TAIL_STATS, make_series


def oracle_pearson(xs, ys):
    """Direct product-moment formula, summed with fsum."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def simple_returns(closes):
    return [b / a - 1.0 for a, b in zip(closes, closes[1:])]


def pair_correlation(columns):
    """The A-B cell of ``correlation_matrix`` over a two-ticker panel of ``columns``."""
    panel = align_panel([make_series(t, closes) for t, closes in columns.items()])
    return float(correlation_matrix(panel)[0, 1])


class TestPearson:
    """Single cells of ``correlation_matrix`` against hand-built returns."""

    def test_self_correlation_is_one(self):
        closes = [1.0, 2.0, 5.0, 3.0]
        assert pair_correlation({"A": closes, "B": closes}) == 1.0

    def test_perfect_negative(self):
        # Returns +10%, -10%, +10% against -10%, +10%, -10%.
        got = pair_correlation({"A": [100, 110, 99, 108.9], "B": [100, 90, 99, 89.1]})
        assert got == pytest.approx(-1.0, abs=1e-15)

    def test_hand_evaluated_oracle(self):
        # Returns exactly [1, 2, 3] and [1, 2, 4].
        got = pair_correlation({"A": [1, 2, 6, 24], "B": [1, 2, 6, 30]})
        assert got == pytest.approx(oracle_pearson([1, 2, 3], [1, 2, 4]), abs=1e-14)
        assert got == pytest.approx(0.98198, abs=5e-6)

    def test_length_mismatch(self):
        # Calendars of different length are joined on their shared dates,
        # never paired by position.
        a = make_series("A", [10, 11, 9, 12, 13])
        b = AlignedPanel(("B",), a.dates[[0, 1, 3, 4]], [[20.0, 23.0, 25.0, 24.0]])
        got = float(correlation_matrix(align_panel([a, b]))[0, 1])
        expected = oracle_pearson(simple_returns([10, 11, 12, 13]),
                                  simple_returns([20, 23, 25, 24]))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pair_correlation({"A": [1, 1, 1, 1], "B": [1, 2, 3, 4]})

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            pair_correlation({"A": [1, 2, 3], "B": [3, 4, 6]})


def frozen_correlation_matrix(panel):
    """``correlation_matrix``'s values as its per-ticker loop computed them,
    one return array per ticker: the bit-for-bit reference."""

    def _deviations(x: np.ndarray) -> tuple[np.ndarray, float]:
        """Deviations from the mean and their sum of squares."""
        dx = x - x.mean()
        return dx, float(dx @ dx)

    def _correlation(dx: np.ndarray, sxx: float, dy: np.ndarray, syy: float) -> float:
        r = float(dx @ dy) / math.sqrt(sxx * syy)
        return min(1.0, max(-1.0, r))

    n = len(panel.tickers)
    returns = [row[1:] / row[:-1] - 1.0 for row in np.array(panel.closes)]
    devs = [_deviations(r) for r in returns]
    values = np.eye(n)
    for i in range(n):
        dx, sxx = devs[i]
        for j in range(i + 1, n):
            dy, syy = devs[j]
            r = _correlation(dx, sxx, dy, syy)
            values[i, j] = r
            values[j, i] = r
    return values


class TestCorrelationMatrix:
    def panel(self, columns):
        return align_panel([make_series(t, closes) for t, closes in columns.items()])

    @settings(max_examples=60, deadline=None)
    @given(n_tickers=st.integers(min_value=2, max_value=9),
           n_dates=st.integers(min_value=2, max_value=200).map(lambda k: 2 * k + 1),
           exponents=st.lists(st.floats(min_value=-3.0, max_value=6.0), min_size=9, max_size=9),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bit_identical_to_frozen_per_ticker_loop(self, n_tickers, n_dates, exponents, seed):
        # Odd lengths put the rows of the 2-D returns at every alignment, and
        # the price scales run from 1e-3 to 1e6.  The frozen loop sums by BLAS
        # dot products and the package by einsum: each sum of the n returns'
        # products errs by about sqrt(n) eps of the sum of their sizes, which
        # is at most sqrt(sxx syy), so each r errs by sqrt(n) eps (1 + |r|),
        # twice over for the two.  The diagonal and the symmetry are exact.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** np.array(exponents[:n_tickers])
        closes = scales[:, np.newaxis] * np.exp(
            np.cumsum(rng.normal(0.0, 0.02, size=(n_tickers, n_dates)), axis=1))
        panel = AlignedPanel(tuple(f"T{k}" for k in range(n_tickers)),
                             tuple(weekday_calendar(date(2021, 1, 1), n_dates)), closes)
        mine, frozen = correlation_matrix(panel), frozen_correlation_matrix(panel)
        eps = float(np.finfo(float).eps)
        tolerance = 2.0 * math.sqrt(n_dates - 1) * eps * (1.0 + abs(frozen))
        assert (abs(mine - frozen) <= tolerance).all()
        assert (np.diagonal(mine) == 1.0).all()
        assert mine.tobytes() == mine.T.copy().tobytes()

    def test_every_cell_matches_fsum_oracle(self):
        rng = np.random.default_rng(17)
        columns = {
            f"T{i}": 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=60))) for i in range(6)
        }
        panel = self.panel(columns)
        matrix = correlation_matrix(panel)
        returns = [simple_returns(panel.closes[j].tolist()) for j in range(6)]
        for i in range(6):
            for j in range(6):
                if i != j:
                    expected = oracle_pearson(returns[i], returns[j])
                    assert abs(matrix[i, j] - expected) <= 1e-14

    def test_distinct_matrices_compare_without_raising(self):
        columns = {"A": [10, 12, 11, 15], "B": [20, 25, 22, 31], "C": [5, 4, 6, 7]}
        m1 = correlation_matrix(self.panel(columns))
        m2 = correlation_matrix(self.panel(columns))
        assert np.array_equal(m1, m2)
        assert not np.shares_memory(m1, m2)

    def test_values_are_a_read_only_copy(self):
        matrix = correlation_matrix(self.panel({"A": [10, 12, 11, 15], "B": [20, 25, 22, 31]}))
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 1] = 0.5

    def test_ten_tickers_cover_45_pairs(self):
        rng = np.random.default_rng(3)
        columns = {
            f"T{i:02d}": 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=30)))
            for i in range(10)
        }
        matrix = correlation_matrix(self.panel(columns))
        off_diag = np.isfinite(matrix) & ~np.eye(10, dtype=bool)
        assert off_diag.sum() == 90  # 45 unordered pairs mirrored
        assert np.all(np.abs(matrix) <= 1.0)

    def test_proportional_columns_correlate_fully(self):
        matrix = correlation_matrix(self.panel({"A": [10, 12, 11, 15], "B": [20, 24, 22, 30]}))
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_exactly_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(5)
        columns = {t: 50 * np.exp(np.cumsum(rng.normal(0, 0.03, size=40))) for t in "ABCD"}
        matrix = correlation_matrix(self.panel(columns))
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.ones(4))

    def test_zero_variance_names_ticker(self):
        with pytest.raises(ZeroVariance, match="B"):
            correlation_matrix(self.panel({"A": [1, 2, 3, 4], "B": [5, 5, 5, 5]}))

    @pytest.mark.parametrize("closes, named", [
        ({"A": [5, 5, 5, 5], "B": [1, 2, 3, 4]}, "A"),
        ({"A": [1, 2, 3, 4], "B": [5, 5, 5, 5], "C": [2, 4, 8, 16]}, "B"),
    ], ids=["flat_first", "first_of_two_flat"])
    def test_zero_variance_names_first_flat_ticker(self, closes, named):
        with pytest.raises(ZeroVariance, match=f"returns of {named} have zero variance"):
            correlation_matrix(self.panel(closes))

    def test_invariant_under_price_scaling(self):
        rng = np.random.default_rng(11)
        base = {t: 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=25))) for t in "ABC"}
        scaled = {t: 7.5 * v if t == "B" else v for t, v in base.items()}
        m1 = correlation_matrix(self.panel(base))
        m2 = correlation_matrix(self.panel(scaled))
        assert np.allclose(m1, m2, atol=1e-12)


def oracle_ols(xs, ys):
    """Closed-form through-origin fit via fsum, independent of numpy."""
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    sxx = math.fsum(x * x for x in xs)
    beta = sxy / sxx
    resid = [y - beta * x for x, y in zip(xs, ys)]
    ssr = math.fsum(e * e for e in resid)
    syy = math.fsum(y * y for y in ys)
    n = len(xs)
    se = math.sqrt((ssr / (n - 1)) / sxx)
    t = beta / se
    return {
        "beta": beta,
        "resid": resid,
        "se": se,
        "t": t,
        "f": t * t,
        "r2": 1.0 - ssr / syy,
        "dw": math.fsum((a - b) ** 2 for a, b in zip(resid[1:], resid[:-1])) / ssr,
    }


class TestOlsThroughOrigin:
    def test_exact_fit(self):
        report = ols_through_origin([1, 2, 3], [2, 4, 6])
        assert report.hedge_ratio == pytest.approx(2.0, abs=1e-15)
        assert report.r2_uncentered == pytest.approx(1.0, abs=1e-15)
        assert all(abs(e) < 1e-14 for e in report.residuals)
        assert report.cond_no == 1.0
        assert math.isnan(report.durbin_watson)

    def test_residuals_that_move_are_no_exact_fit(self):
        # y near 1e-300 on x near 100: the residuals span 1e-300, but their
        # squares underflow to an SSR of 0.  That once read as an exact fit,
        # with se 0, t = inf and a log-likelihood of inf.
        rng = np.random.default_rng(31)
        x = rng.uniform(90.0, 110.0, size=60)
        y = 1e-300 * rng.uniform(1.0, 2.0, size=60)
        with pytest.raises(NumericError, match="^standard error underflows: values too small$"):
            ols_through_origin(x, y)

    def test_closed_form_two_points(self):
        report = ols_through_origin([1, 2], [1, 1])
        assert report.hedge_ratio == pytest.approx(0.6, abs=1e-15)
        assert report.residuals == pytest.approx([0.4, -0.2], abs=1e-15)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 51))
            x = rng.normal(10, 4, size=n)
            y = 0.7 * x + rng.normal(0, 2, size=n)
            report = ols_through_origin(x, y)
            want = oracle_ols(list(x), list(y))
            assert report.hedge_ratio == pytest.approx(want["beta"], rel=1e-10)
            assert report.se_beta == pytest.approx(want["se"], rel=1e-10)
            assert report.t_stat == pytest.approx(want["t"], rel=1e-10)
            assert report.f_stat == pytest.approx(want["f"], rel=1e-10)
            assert report.r2_uncentered == pytest.approx(want["r2"], rel=1e-10)
            assert report.durbin_watson == pytest.approx(want["dw"], rel=1e-10)
            assert report.f_stat == pytest.approx(report.t_stat**2, rel=1e-12)

    def test_normal_equation_orthogonality(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(1, 100, size=200)
        y = 3 * x + rng.normal(0, 10, size=200)
        report = ols_through_origin(x, y)
        dot = float(x @ np.asarray(report.residuals))
        assert abs(dot) <= 1e-8 * float(x @ y)

    def test_target_scale_equivariance(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(10, 50, size=120)
        y = 2 * x + rng.normal(0, 3, size=120)
        base = ols_through_origin(x, y)
        scaled = ols_through_origin(x, 7.0 * y)
        assert scaled.hedge_ratio == pytest.approx(7.0 * base.hedge_ratio, rel=1e-12)
        for name in ("t_stat", "f_stat", "r2_uncentered", "durbin_watson",
                     "jarque_bera", "omnibus_k2"):
            assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-9)

    def test_regressor_scale_equivariance(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(10, 50, size=120)
        y = 2 * x + rng.normal(0, 3, size=120)
        base = ols_through_origin(x, y)
        scaled = ols_through_origin(4.0 * x, y)
        assert scaled.hedge_ratio == pytest.approx(base.hedge_ratio / 4.0, rel=1e-12)
        assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-10)
        assert scaled.r2_uncentered == pytest.approx(base.r2_uncentered, rel=1e-10)

    def test_degenerate_regressor(self):
        with pytest.raises(DegenerateRegressor):
            ols_through_origin([0, 0, 0], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ols_through_origin([1, 2, 3], [1, 2])

    def test_statsmodels_equivalence(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(37)
        x = rng.uniform(50, 150, size=300)
        y = 0.5 * x + rng.normal(0, 5, size=300)
        mine = ols_through_origin(x, y)
        res = sm.OLS(y, x).fit()
        assert mine.hedge_ratio == pytest.approx(res.params[0], rel=1e-12)
        assert mine.se_beta == pytest.approx(res.bse[0], rel=1e-12)
        assert mine.log_likelihood == pytest.approx(res.llf, rel=1e-12)
        assert mine.aic == pytest.approx(res.aic, rel=1e-12)
        assert mine.bic == pytest.approx(res.bic, rel=1e-12)
        assert mine.adj_r2_uncentered == pytest.approx(res.rsquared_adj, rel=1e-12)
        assert mine.p_t == pytest.approx(res.pvalues[0], abs=1e-12)

    def test_report_serialization(self):
        report = ols_through_origin([1, 2, 3], [2, 4, 6])
        payload = json.loads(_json(_fields(report, "residuals")).decode("utf-8"))
        assert payload["durbin_watson"] is None  # NaN encodes as null
        assert payload["t_stat"] is None  # and so does inf
        assert payload["n_obs"] == 3 and payload["hedge_ratio"] == 2.0
        text = ols_through_origin([1.0, 2.0, 3.5], [2.1, 3.9, 7.2]).to_text("tgt", "prd")
        for label in ("Dep. Variable:", "R-squared (uncentered):", "F-statistic:",
                      "Durbin-Watson:", "Jarque-Bera (JB):", "Omnibus:", "Cond. No."):
            assert label in text


class TestDurbinWatson:
    def test_alternating_residuals(self):
        assert durbin_watson([1, -1, 1, -1]) == pytest.approx(3.0, abs=1e-15)

    def test_near_constant_residuals(self):
        assert durbin_watson([1, 1, 1, 1.0001]) == pytest.approx(0.0, abs=1e-7)

    def test_all_zero(self):
        with pytest.raises(AllZeroResiduals):
            durbin_watson([0.0, 0.0, 0.0])

    def test_relates_to_lag1_autocorrelation(self):
        rng = np.random.default_rng(41)
        for phi in (-0.6, 0.0, 0.7):
            e = np.empty(400)
            e[0] = rng.normal()
            innov = rng.normal(size=400)
            for t in range(1, 400):
                e[t] = phi * e[t - 1] + innov[t]
            centered = e - e.mean()
            rho1 = float(centered[1:] @ centered[:-1] / (centered @ centered))
            assert durbin_watson(e) == pytest.approx(2.0 * (1.0 - rho1), abs=0.05)


class TestJarqueBera:
    def test_normal_moments_give_zero(self):
        # Symmetric 18-point sample engineered so kurtosis is exactly 3:
        # eight pairs at +-1 plus one pair at +-sqrt(10) solve
        # 3*(8 + c**4) = (8 + c**2)**2 at c**2 = 10.
        sample = [1.0, -1.0] * 8 + [math.sqrt(10), -math.sqrt(10)]
        result = jarque_bera(sample)
        assert result.skew == pytest.approx(0.0, abs=1e-14)
        assert result.kurtosis == pytest.approx(3.0, abs=1e-13)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_moment_formula_pins_published_value(self):
        # Rounded moments from a 740-observation regression summary should
        # land within printing tolerance of its reported statistic 75.823.
        # The sample is z + a*z**2 + b*z**3 over 740 normal quantiles, with
        # (a, b) solved numerically for skew 0.780 and kurtosis 3.150.
        n = 740
        z = np.array([statistics.NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
        result = jarque_bera(z + 0.15681149 * z**2 - 0.03735023 * z**3)
        assert result.skew == pytest.approx(0.780, abs=1e-6)
        assert result.kurtosis == pytest.approx(3.150, abs=1e-6)
        assert result.statistic == pytest.approx(75.823, abs=0.5)
        assert result.p_value < 1e-10

    def test_brute_force_moment_oracle(self):
        sample = [1.0, 1.0, 1.0, 10.0]
        n = 4
        mean = math.fsum(sample) / n
        m2 = math.fsum((v - mean) ** 2 for v in sample) / n
        m3 = math.fsum((v - mean) ** 3 for v in sample) / n
        m4 = math.fsum((v - mean) ** 4 for v in sample) / n
        skew = m3 / m2**1.5
        kurt = m4 / m2**2
        expected = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
        result = jarque_bera(sample)
        assert result.statistic == pytest.approx(expected, rel=1e-12)
        assert result.skew == pytest.approx(skew, rel=1e-12)
        assert result.kurtosis == pytest.approx(kurt, rel=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            jarque_bera([2.0, 2.0, 2.0, 2.0])

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            jarque_bera([1.0, 2.0, 3.0])

    @given(
        # Coarse value grid so distinct points stay distinct after the
        # affine map; float rounding can otherwise merge values separated
        # by less than machine epsilon and change the sample itself.
        st.lists(st.integers(min_value=-10_000, max_value=10_000).map(lambda v: v / 100.0),
                 min_size=5, max_size=40).filter(lambda v: len(set(v)) > 2),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=-20, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, sample, scale, shift):
        base = jarque_bera(sample)
        mapped = jarque_bera([scale * v + shift for v in sample])
        assert mapped.statistic == pytest.approx(base.statistic, rel=1e-6, abs=1e-9)

    def test_statsmodels_equivalence(self):
        sm_stats = pytest.importorskip("statsmodels.stats.stattools")
        rng = np.random.default_rng(43)
        e = rng.gamma(2.0, size=500)
        mine = jarque_bera(e)
        jb, pjb, skew, kurt = sm_stats.jarque_bera(e)
        assert mine.statistic == pytest.approx(jb, rel=1e-12)
        assert mine.p_value == pytest.approx(pjb, abs=1e-12)
        assert mine.skew == pytest.approx(skew, rel=1e-12)
        assert mine.kurtosis == pytest.approx(kurt, rel=1e-12)


class TestOmnibus:
    def test_scipy_equivalence(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(47)
        for sample in (rng.normal(size=100), rng.exponential(size=64), rng.normal(size=21)):
            mine = omnibus_k2(sample)
            want = scipy_stats.normaltest(sample)
            assert mine.statistic == pytest.approx(want.statistic, rel=1e-12)
            assert mine.p_value == pytest.approx(want.pvalue, rel=1e-9, abs=1e-12)

    def test_symmetric_near_normal_sample_passes(self):
        # Alternating +-1 plus wide Gaussian jitter is symmetric with
        # kurtosis just under 3; the test should rarely reject.  Checked
        # over several seeds so one unlucky draw cannot flip the verdict.
        passes = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            base = np.tile([1.0, -1.0], 400)
            sample = base + rng.normal(0.0, 2.0, size=800)
            if omnibus_k2(sample).p_value > 0.05:
                passes += 1
        assert passes >= 8

    def test_heavily_skewed_sample_rejects(self):
        rng = np.random.default_rng(59)
        sample = rng.exponential(size=500)
        assert omnibus_k2(sample).p_value < 0.01

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            omnibus_k2(list(range(19)))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            omnibus_k2([1.0] * 25)


def test_tails_below_the_smallest_normal_double_read_zero():
    # As subnormals these would be 2.9e-318 and 1.4e-315.  The demo pair
    # AMBER,BASALT fits t = 67.5 on 739 df.
    assert _t_tail(67.50550960573382, 739) == 0.0
    assert _chi2_2_sf(1450.0) == 0.0
    assert _t_tail(60.0, 739) > sys.float_info.min
    assert _chi2_2_sf(1400.0) > sys.float_info.min


def scipy_stats():
    return pytest.importorskip("scipy.stats")


# Quantile levels inside ``_t_ppf``'s domain, ``min(q, 1 - q) > 1e-12``.
TAIL_LEVELS = (0.025, 0.5, 0.975, 1.0 - 1e-12)
# Each tail as the package computes it, the scipy.stats call for the same
# number, and the points it is checked at.  The report's p_f is its p_t, the
# two-sided t tail at sqrt(F).
TAILS = {
    "t.sf": (_t_tail, lambda x, d: 2.0 * scipy_stats().t.sf(x, d), TAIL_STATS),
    "t.ppf": (_t_ppf, lambda q, d: scipy_stats().t.ppf(q, d), TAIL_LEVELS),
    "f.sf": (lambda x, d: _t_tail(math.sqrt(x), d),
             lambda x, d: scipy_stats().f.sf(x, 1, d), TAIL_STATS),
    "chi2.sf": (lambda x, d: _chi2_2_sf(x), lambda x, d: scipy_stats().chi2.sf(x, d), TAIL_STATS),
}
# Points where scipy.stats itself is off by more than 1e-12 (scipy 1.17):
# F(1, 1)'s tail at 1e-12 is 1 - (2/pi) atan(1e-6) = 0.99999936338022763,
# which mpmath and the package give, against scipy's 0.9999993633519304.
SCIPY_OFF = {("f.sf", 1, 1e-12)}


@pytest.mark.parametrize(
    "tail, df",
    [(tail, d) for tail in ("t.sf", "t.ppf", "f.sf") for d in TAIL_DFS] + [("chi2.sf", 2)],
)
def test_tail_bits_match_scipy_stats(tail, df):
    """The leading 40 of 53 significand bits agree with scipy.stats: 1e-12 relative.

    Below the smallest normal double a result carries fewer significant
    bits, so the tolerance has that as its absolute floor.  mpmath is the
    primary oracle (``test_pvalue_precision.py``); this is the second.
    """
    mine, reference, points = TAILS[tail]
    mismatches = [
        (x, mine(x, df), float(reference(x, df)))
        for x in points
        if (tail, df, x) not in SCIPY_OFF
        and mine(x, df) != pytest.approx(float(reference(x, df)), rel=1e-12, abs=sys.float_info.min)
    ]
    assert mismatches == []
