"""The reported statistics against a 50-digit recomputation of the same inputs.

mpmath recomputes, at ``mp.dps = 50`` and by normal equations (at 50 digits
the squared condition number costs nothing), what the package computes in
doubles: the ADF t-ratio at the chosen lag, refit on the longest sample
that lag permits with ``n_eff = n - k - 1`` observations; the Engle-Granger
stage-1 slope and intercept; the return correlations; and the
through-origin hedge ratio, its standard error, t-ratio and uncentered R^2.
The inputs are the package's own doubles, so the gates measure the
package's rounding alone.  Series are random walks, AR(1) series and near
unit roots.
"""

import math
from datetime import date

import numpy as np
import pytest

from pairtrader import unitroot
from pairtrader.econometrics import correlation_matrix, ols_through_origin
from pairtrader.marketdata import AlignedPanel
from pairtrader.synthetic import weekday_calendar
from pairtrader.unitroot import adf_test, stage1_fit, stage1_terms

mpmath = pytest.importorskip("mpmath")

TAU_RTOL = 1e-10
OLS_RTOL = 1e-12
CORRELATION_ATOL = 1e-13


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def walk(rng, n):
    return np.cumsum(rng.normal(size=n))


def ar1(rng, n, phi):
    e = rng.normal(size=n)
    y = np.empty(n)
    y[0] = e[0]
    for t in range(1, n):
        y[t] = phi * y[t - 1] + e[t]
    return y


SERIES = {
    "random_walk": walk,
    "ar1": lambda rng, n: ar1(rng, n, 0.6),
    "near_unit_root": lambda rng, n: ar1(rng, n, 0.995),
}


def mp_adf_tau(y, lag, constant):
    """tau of ``y``'s ADF regression at ``lag`` on its longest sample, by
    normal equations at 50 digits.  Returns (tau, number of observations)."""
    y = [mpmath.mpf(float(v)) for v in y]
    dy = [b - a for a, b in zip(y[:-1], y[1:])]
    m = len(dy) - lag
    columns = [[mpmath.mpf(1)] * m] if constant else []
    columns.append(y[lag:-1])
    columns.extend(dy[lag - i:len(dy) - i] for i in range(1, lag + 1))
    b = dy[lag:]
    c = len(columns)
    gram = mpmath.matrix(c, c)
    for i in range(c):
        for j in range(i, c):
            gram[i, j] = gram[j, i] = mpmath.fdot(columns[i], columns[j])
    rhs = mpmath.matrix([mpmath.fdot(col, b) for col in columns])
    beta = mpmath.lu_solve(gram, rhs)
    resid = [b[t] - mpmath.fsum(beta[i] * columns[i][t] for i in range(c)) for t in range(m)]
    ssr = mpmath.fdot(resid, resid)
    level = 1 if constant else 0
    unit = mpmath.matrix([1 if i == level else 0 for i in range(c)])
    inverse_level = mpmath.lu_solve(gram, unit)[level]
    return beta[level] / mpmath.sqrt(ssr / (m - c) * inverse_level), m


# (kind, n, deterministic, max_lag): n = 60 and 750 throughout, and a few
# low-lag cases at 3,750.
ADF_CASES = [
    (kind, n, deterministic, max_lag)
    for kind in sorted(SERIES)
    for n in (60, 750)
    for deterministic in ("none", "constant")
    for max_lag in (None, 0, 3)
] + [
    ("random_walk", 3750, "none", 0),
    ("ar1", 3750, "constant", 1),
    ("near_unit_root", 3750, "none", 2),
]


@pytest.mark.parametrize("factor", ["gram", "householder"])
@pytest.mark.parametrize("kind,n,deterministic,max_lag", ADF_CASES)
def test_adf_tau_matches_fifty_digits(kind, n, deterministic, max_lag, factor, monkeypatch):
    if factor == "householder":
        # No column keeps more than all of its norm: every refit then takes
        # the Householder factor.
        monkeypatch.setattr(unitroot, "_GRAM_REFIT_MIN_SINE", 2.0)
    rng = np.random.default_rng([n, len(kind), max_lag or 7])
    y = 10.0 * SERIES[kind](rng, n)
    result = adf_test(y, deterministic, max_lag=max_lag)
    exact, m = mp_adf_tau(y, result.used_lags, deterministic == "constant")
    assert result.n_eff == m == n - result.used_lags - 1
    assert abs(result.tau - exact) <= TAU_RTOL * abs(exact)


def pair(rng, n, kind):
    x = 50.0 + walk(rng, n)
    return x, 1.5 * x + 3.0 + SERIES[kind](rng, n)


@pytest.mark.parametrize("kind", sorted(SERIES))
@pytest.mark.parametrize("n", [60, 750, 3750])
def test_stage1_slope_and_intercept_match_fifty_digits(kind, n):
    x, y = pair(np.random.default_rng([n, len(kind)]), n, kind)
    slopes, intercepts = stage1_fit(stage1_terms(np.stack([y, x])), np.array([0]), np.array([1]))
    xs, ys = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y]
    mean_x, mean_y = mpmath.fsum(xs) / n, mpmath.fsum(ys) / n
    dx = [v - mean_x for v in xs]
    dy = [v - mean_y for v in ys]
    slope = mpmath.fdot(dx, dy) / mpmath.fdot(dx, dx)
    intercept = mean_y - slope * mean_x
    assert abs(slopes[0] - slope) <= OLS_RTOL * abs(slope)
    # The intercept is a difference: its rounding scales with the terms.
    assert abs(intercepts[0] - intercept) <= OLS_RTOL * (abs(mean_y) + abs(slope * mean_x))


@pytest.mark.parametrize("n", [60, 750])
def test_correlations_match_fifty_digits(n):
    rng = np.random.default_rng(n)
    k = 5
    scales = 10.0 ** rng.uniform(-2.0, 4.0, size=k)
    common = rng.normal(0.0, 0.02, size=n)
    closes = scales[:, np.newaxis] * np.exp(np.cumsum(
        common + rng.normal(0.0, 0.02, size=(k, n)) * rng.uniform(0.2, 2.0, size=(k, 1)), axis=1))
    panel = AlignedPanel(tuple(f"T{i}" for i in range(k)),
                         tuple(weekday_calendar(date(2020, 1, 1), n)), closes)
    matrix = correlation_matrix(panel)
    returns = closes[:, 1:] / closes[:, :-1] - 1.0
    devs = []
    for row in returns:
        values = [mpmath.mpf(float(v)) for v in row]
        mean = mpmath.fsum(values) / len(values)
        devs.append([v - mean for v in values])
    for i in range(k):
        for j in range(i + 1, k):
            exact = mpmath.fdot(devs[i], devs[j]) / mpmath.sqrt(mpmath.fdot(devs[i], devs[i])
                                                            * mpmath.fdot(devs[j], devs[j]))
            assert abs(matrix[i, j] - exact) <= CORRELATION_ATOL


@pytest.mark.parametrize("kind", sorted(SERIES))
@pytest.mark.parametrize("n", [60, 750, 3750])
def test_through_origin_fit_matches_fifty_digits(kind, n):
    x, y = pair(np.random.default_rng([n, len(kind), 1]), n, kind)
    report = ols_through_origin(x, y)
    xs, ys = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y]
    sxx, sxy, syy = mpmath.fdot(xs, xs), mpmath.fdot(xs, ys), mpmath.fdot(ys, ys)
    beta = sxy / sxx
    resid = [b - beta * a for a, b in zip(xs, ys)]
    ssr = mpmath.fdot(resid, resid)
    se = mpmath.sqrt(ssr / (n - 1) / sxx)
    exact = {"hedge_ratio": beta, "se_beta": se, "t_stat": beta / se,
             "r2_uncentered": 1 - ssr / syy}
    for field, value in exact.items():
        got = getattr(report, field)
        assert math.isfinite(got)
        assert abs(got - value) <= OLS_RTOL * abs(value), field
