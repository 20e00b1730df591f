"""The reported statistics against a 50-digit recomputation of the same inputs.

mpmath recomputes, at ``mp.dps = 50`` and by normal equations (at 50 digits
the squared condition number costs nothing), what the package computes in
doubles: the ADF t-ratio at the chosen lag, refit on the longest sample
that lag permits with ``n_eff = n - k - 1`` observations; the Engle-Granger
stage-1 slope and intercept; the return correlations; and the
through-origin hedge ratio, its standard error, t-ratio and uncentered R^2,
Durbin-Watson, log-likelihood, AIC and BIC, and its residuals' skew,
kurtosis, Jarque-Bera and omnibus K^2 statistics and their p-values.
It also recomputes the AIC of each lag order, over the sample truncated at
``max_lag``, for the designs whose lag the Gram search leaves to the
Householder search: near-collinear and almost exactly fitting designs, and
near ties.  The inputs are the package's own doubles, so the gates measure
the package's rounding alone.  Series are random walks, AR(1) series and
near unit roots.
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

from fallback_cases import near_ties
from test_scan_pool import block_panel

mpmath = pytest.importorskip("mpmath")

TAU_RTOL = 1e-10
OLS_RTOL = 1e-12
P_RTOL = 1e-10
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


def mp_normal_equations(y, lag, constant):
    """``y``'s ADF regression at ``lag`` on its longest sample, at 50 digits:
    the regressor columns [const?, y_{t-1}, dy_{t-1}, ..., dy_{t-lag}], dy_t,
    their Gram matrix and its right-hand side."""
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
    return columns, b, gram, mpmath.matrix([mpmath.fdot(col, b) for col in columns])


def mp_adf_tau(y, lag, constant):
    """tau of ``y``'s ADF regression at ``lag`` on its longest sample, by
    normal equations at 50 digits.  Returns (tau, number of observations)."""
    columns, b, gram, rhs = mp_normal_equations(y, lag, constant)
    m, c = len(b), len(columns)
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


def early_jump(rng, n):
    """A walk whose first few steps are a thousand times the rest: most of
    its differences' sum of squares lies before the lag search's sample."""
    steps = rng.normal(size=n)
    steps[1:3] *= 1000.0
    return np.cumsum(steps)


@pytest.mark.parametrize("kind", [*sorted(SERIES), "early_jump"])
@pytest.mark.parametrize("n,max_lag", [(60, 3), (300, 11), (3750, 2)])
@pytest.mark.parametrize("constant", [False, True], ids=["none", "constant"])
def test_lag_gram_is_within_its_formation_bound(kind, n, max_lag, constant):
    # ``_gram_lag_search``'s bound on forming G from lagged sums, against the
    # 50-digit Gram matrix of the same double design: 2 (m + 2L + 1) rho^2
    # eps s_k s_l for two lag columns (the dependent dy_t among them), m eps
    # s_i s_j for the level or the constant.
    rng = np.random.default_rng([n, max_lag, len(kind)])
    y = 10.0 * (early_jump(rng, n) if kind == "early_jump" else SERIES[kind](rng, n))
    (gram,), (rho2,) = unitroot._lag_grams(y[np.newaxis], max_lag, constant)
    design = unitroot._adf_designs(y[np.newaxis], max_lag, constant)[0]
    columns = [[mpmath.mpf(float(v)) for v in row] for row in design]
    m = design.shape[1]
    norms = [mpmath.sqrt(mpmath.fdot(column, column)) for column in columns]
    first_lag = int(constant) + 1
    worst = 0.0
    for i in range(len(columns)):
        for j in range(i, len(columns)):
            lagged = i >= first_lag and j >= first_lag
            bound = (2 * (m + 2 * max_lag + 1) * rho2 if lagged else m) * 2.0**-52
            error = abs(mpmath.mpf(float(gram[i, j])) - mpmath.fdot(columns[i], columns[j]))
            worst = max(worst, float(error / (bound * norms[i] * norms[j])))
    assert worst <= 1.0
    if kind == "early_jump":
        assert rho2 > 10.0


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


def mp_omnibus_k2(skew, kurt, n):
    """D'Agostino-Pearson K^2 of ``skew`` and ``kurt`` over ``n`` observations:
    the skewness and kurtosis transforms ``omnibus_k2`` applies, at 50 digits."""
    n = mpmath.mpf(n)
    y = skew * mpmath.sqrt((n + 1) * (n + 3) / (6 * (n - 2)))
    beta2 = 3 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2) * (n + 5) * (n + 7) * (n + 9))
    w2 = mpmath.sqrt(2 * (beta2 - 1)) - 1
    alpha = mpmath.sqrt(2 / (w2 - 1))
    z1 = mpmath.asinh(y / alpha) / mpmath.sqrt(mpmath.log(w2) / 2)
    x = (kurt - 3 * (n - 1) / (n + 1)) / mpmath.sqrt(
        24 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5)))
    sqrt_beta1 = (6 * (n**2 - 5 * n + 2) / ((n + 7) * (n + 9))
                  * mpmath.sqrt(6 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))))
    a = 6 + 8 / sqrt_beta1 * (2 / sqrt_beta1 + mpmath.sqrt(1 + 4 / sqrt_beta1**2))
    denom = 1 + x * mpmath.sqrt(2 / (a - 4))
    z2 = ((1 - 2 / (9 * a) - mpmath.sign(denom) * mpmath.cbrt(abs((1 - 2 / a) / denom)))
          / mpmath.sqrt(2 / (9 * a)))
    return z1**2 + z2**2


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
    loglik = -mpmath.mpf(n) / 2 * (mpmath.log(2 * mpmath.pi) + mpmath.log(ssr / n) + 1)
    steps = [b - a for a, b in zip(resid, resid[1:])]
    mean = mpmath.fsum(resid) / n
    m2, m3, m4 = (mpmath.fsum((e - mean) ** k for e in resid) / n for k in (2, 3, 4))
    skew, kurt = m3 / m2 ** mpmath.mpf(1.5), m4 / m2**2
    jb = mpmath.mpf(n) / 6 * (skew**2 + (kurt - 3) ** 2 / 4)
    k2 = mp_omnibus_k2(skew, kurt, n)
    exact = {"hedge_ratio": beta, "se_beta": se, "t_stat": beta / se,
             "r2_uncentered": 1 - ssr / syy, "durbin_watson": mpmath.fdot(steps, steps) / ssr,
             "log_likelihood": loglik, "aic": 2 - 2 * loglik, "bic": mpmath.log(n) - 2 * loglik,
             "skew": skew, "kurtosis": kurt, "jarque_bera": jb, "p_jb": mpmath.exp(-jb / 2),
             "omnibus_k2": k2, "p_omnibus": mpmath.exp(-k2 / 2)}
    for field, value in exact.items():
        got = getattr(report, field)
        assert math.isfinite(got)
        if field.startswith("p_"):
            # Below 1e-300 a p-value nears the subnormals, where doubles
            # hold too few digits for a relative gate.
            assert value <= 1e-300 or abs(got - value) <= P_RTOL * value, field
        else:
            assert abs(got - value) <= OLS_RTOL * abs(value), field


def mp_aics(y, max_lag, constant):
    """The AIC ``2p + m log(SSR_k / m)`` of each lag order k in 0..max_lag,
    over the common sample truncated at ``max_lag``, at 50 digits."""
    columns, b, gram, rhs = mp_normal_equations(y, max_lag, constant)
    m = len(b)
    total = mpmath.fdot(b, b)
    aics = []
    for p in range(int(constant) + 1, len(columns) + 1):
        beta = mpmath.lu_solve(gram[:p, :p], rhs[:p, 0])
        ssr = total - mpmath.fsum(rhs[i] * beta[i] for i in range(p))
        aics.append(2 * p + m * mpmath.log(ssr / m))
    return aics


@pytest.fixture
def householder_searches(monkeypatch):
    """How many designs ``adf_test`` hands to the Householder lag search."""
    searched = []
    real = unitroot._householder_lag_search

    def counted(designs, ntrend):
        searched.append(len(designs))
        return real(designs, ntrend)

    monkeypatch.setattr(unitroot, "_householder_lag_search", counted)
    return searched


def plus_minus_one_residuals(seed, n_dates):
    """The Engle-Granger residuals of ``block_panel``'s fallback pair: +-1 on
    alternate days and noise of 1e-5."""
    closes = block_panel(6, n_dates, seed, twin=2, fallback=4).closes
    slopes, intercepts = stage1_fit(stage1_terms(closes), np.array([4]), np.array([3]))
    return closes[4] - intercepts[0] - slopes[0] * closes[3]


# (series, deterministic, max_lag): designs the Gram search leaves to the
# Householder search, for a small pivot, a tiny SSR or an almost exact fit.
DEFERRED_CASES = [
    *((alternating + 1e-7 * np.random.default_rng(seed).normal(size=200), deterministic, 3)
      for seed in range(3) for deterministic in ("none", "constant")
      for alternating in [np.tile([0.0, 1.0], 100)]),
    *((np.sin(np.arange(200.0) / 7.0) + 1e-6 * np.random.default_rng(seed).normal(size=200),
       "none", max_lag) for seed in range(3) for max_lag in (2, 3)),
    *((plus_minus_one_residuals(seed, n_dates), "none", 3)
      for seed in range(3) for n_dates in (100, 400)),
]


@pytest.mark.parametrize("y,deterministic,max_lag", DEFERRED_CASES)
def test_deferred_lag_is_the_fifty_digit_aic_argmin(y, deterministic, max_lag,
                                                    householder_searches):
    # Where the 50-digit AICs separate the best lag from the others by more
    # than 1e-9, the Householder search chooses it.
    result = adf_test(y, deterministic, max_lag=max_lag)
    assert householder_searches == [1]
    aics = mp_aics(y, max_lag, deterministic == "constant")
    best = min(range(len(aics)), key=aics.__getitem__)
    margin = min((aic - aics[best] for k, aic in enumerate(aics) if k != best), default=math.inf)
    if margin > 1e-9:
        assert result.used_lags == best, (aics, margin)


def test_near_tie_lags_are_the_fifty_digit_aic_argmin_but_for_ties_below_1e_12(
        householder_searches):
    # MA(1) walks whose AICs at lags 0 and 1 are bisected to a tie: every one
    # is left to the Householder search, and where its choice is not the
    # 50-digit argmin, the two AICs differ by less than 1e-12.
    ties = near_ties()
    assert len(ties) > 100
    misses = []
    for seed, y in ties:
        result = adf_test(y, "none", max_lag=1)
        aic0, aic1 = mp_aics(y, 1, False)
        if result.used_lags != int(aic1 < aic0):
            misses.append((seed, float(abs(aic1 - aic0))))
    assert householder_searches == [1] * len(ties)
    assert [miss for miss in misses if not miss[1] < 1e-12] == []
