"""High-precision oracles for every distribution tail used in reports.

mpmath evaluates the regularized incomplete beta/gamma functions at 50
digits.  The package's p-values must agree to 1e-8 absolute, and each tail
the report reads must agree to 1e-12 relative wherever its value is a
normal double.
"""

import math
import sys

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from pairtrader.econometrics import (
    _chi2_2_sf,
    _t_ppf,
    _t_tail,
    jarque_bera,
    ols_through_origin,
    omnibus_k2,
)
from pairtrader.unitroot import BOUNDS, PVAL_LARGE, PVAL_SMALL, mackinnon_pvalue

from conftest import TAIL_DFS, TAIL_STATS

mpmath.mp.dps = 50


def t_sf_two_sided(x, df):
    """2 * P(T_df > |x|) via the regularized incomplete beta function."""
    x = abs(x)
    return float(mpmath.betainc(df / 2, mpmath.mpf(1) / 2,
                                0, df / (df + x * x), regularized=True))


def f_sf(f, d1, d2):
    """P(F_{d1,d2} > f) via the regularized incomplete beta function."""
    return float(mpmath.betainc(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2,
                                0, d2 / (d2 + d1 * f), regularized=True))


def chi2_sf(x, k):
    """P(chi2_k > x) via the regularized upper incomplete gamma function."""
    return float(mpmath.gammainc(mpmath.mpf(k) / 2, a=mpmath.mpf(x) / 2,
                                 regularized=True))


def norm_cdf(x):
    return float(mpmath.ncdf(x))


def t_tail_exact(t, df):
    """P(|T_df| > |t|) at the double ``t``, with ``t**2`` and ``x`` taken in mpmath."""
    t2 = mpmath.mpf(t) ** 2
    return mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t2),
                          regularized=True)


def f_sf_exact(f, df):
    """P(F_{1,df} > f) at the double ``f``, with ``x`` taken in mpmath."""
    return t_tail_exact(mpmath.sqrt(mpmath.mpf(f)), df)


def close_1e12(got, want):
    """1e-12 relative agreement, asked only of a normal double."""
    want = float(want)
    return want < sys.float_info.min or got == pytest.approx(want, rel=1e-12)


class TestRegressionPValues:
    def test_t_and_f_pvalues_to_1e8(self):
        rng = np.random.default_rng(71)
        for n in (5, 20, 100, 740):
            x = rng.uniform(10, 200, size=n)
            y = 0.8 * x + rng.normal(0, x.mean() * rng.uniform(0.05, 0.8), size=n)
            report = ols_through_origin(x, y)
            df = n - 1
            assert report.p_t == pytest.approx(
                t_sf_two_sided(report.t_stat, df), abs=1e-8)
            assert report.p_f == pytest.approx(
                f_sf(report.f_stat, 1, df), abs=1e-8)

    def test_jarque_bera_pvalue_to_1e8(self):
        rng = np.random.default_rng(73)
        for sample in (rng.normal(size=50), rng.exponential(size=200),
                       rng.uniform(size=30)):
            result = jarque_bera(sample)
            assert result.p_value == pytest.approx(
                chi2_sf(result.statistic, 2), abs=1e-8)

    def test_omnibus_pvalue_to_1e8(self):
        rng = np.random.default_rng(79)
        for sample in (rng.normal(size=60), rng.gamma(3.0, size=400)):
            result = omnibus_k2(sample)
            assert result.p_value == pytest.approx(
                chi2_sf(result.statistic, 2), abs=1e-8)


class TestMacKinnonNormalTail:
    def test_surface_phi_matches_mpmath(self):
        # The response-surface p-value is Phi(poly(tau)); spot-check the
        # normal CDF evaluation itself across the whole usable range.
        for n_series, det in ((1, "constant"), (2, "constant"), (1, "none")):
            for tau in np.arange(-6.0, 2.0, 0.17):
                p = mackinnon_pvalue(float(tau), n_series, det)
                if p in (0.0, 1.0):
                    continue
                # Invert through the package's own polynomial by recomputing
                # it here from the module constants.
                tau_min, tau_star, tau_max = BOUNDS[(n_series, det)]
                coeffs = (PVAL_SMALL if tau <= tau_star
                          else PVAL_LARGE)[(n_series, det)]
                poly = 0.0
                for c in reversed(coeffs):
                    poly = poly * tau + c
                assert p == pytest.approx(norm_cdf(poly), abs=1e-12)

    def test_erfc_normal_cdf_extreme_tails(self):
        from pairtrader.unitroot import _norm_cdf  # package-private helper
        for x in (-37.0, -10.0, -5.0, -1.0, 0.0, 1.0, 8.0):
            assert _norm_cdf(x) == pytest.approx(norm_cdf(x), abs=1e-15, rel=1e-12)


class TestTailsTo1e12:
    """Each tail the report reads, to 1e-12 relative over the df grid."""

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_t_tail(self, df):
        bad = [(t, _t_tail(t, df)) for t in TAIL_STATS
               if not close_1e12(_t_tail(t, df), t_tail_exact(t, df))]
        assert bad == []

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_t_tail_either_side_of_the_branch_switch(self, df):
        # The tail switches fractions at x = (a + 1) / (a + 2.5), a = df / 2,
        # that is at t**2 = 1.5 df / (a + 1).
        switch = math.sqrt(1.5 * df / (df / 2 + 1))
        bad = [(t, _t_tail(t, df)) for t in (switch * (1 - 1e-9), switch, switch * (1 + 1e-9))
               if not close_1e12(_t_tail(t, df), t_tail_exact(t, df))]
        assert bad == []

    def test_t_tail_off_the_grid(self):
        rng = np.random.default_rng(83)
        dfs = np.rint(10.0 ** rng.uniform(0.0, 7.0, size=150))
        ts = 10.0 ** rng.uniform(-3.0, 1.3, size=150)
        bad = [(int(df), float(t)) for df, t in zip(dfs, ts)
               if not close_1e12(_t_tail(float(t), int(df)), t_tail_exact(float(t), int(df)))]
        assert bad == []

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_report_p_f(self, df):
        # Residuals orthogonal to x make the fitted t land on each target.
        rng = np.random.default_rng(89)
        x = rng.uniform(10.0, 20.0, size=df + 1)
        e = rng.normal(size=df + 1)
        e -= (x @ e) / (x @ x) * x
        se = math.sqrt((e @ e) / df / (x @ x))
        for target in (0.5, 1.96, 3.5, 40.0):
            report = ols_through_origin(x, target * se * x + e)
            assert report.t_stat == pytest.approx(target, rel=1e-6)
            assert close_1e12(report.p_f, f_sf_exact(report.f_stat, df)), target

    def test_chi2_2_tail(self):
        bad = [(x, _chi2_2_sf(x)) for x in TAIL_STATS
               if not close_1e12(_chi2_2_sf(x), mpmath.exp(-mpmath.mpf(x) / 2))]
        assert bad == []

    @pytest.mark.parametrize("df", TAIL_DFS)
    def test_t_quantile_975(self, df):
        got = _t_ppf(0.975, df)
        p = 2 * (1 - mpmath.mpf(0.975))
        want = mpmath.findroot(lambda t: t_tail_exact(t, df) - p, mpmath.mpf(got))
        assert got == pytest.approx(float(want), rel=1e-12)
