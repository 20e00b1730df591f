import json
import math
import os
import subprocess
import sys
from datetime import date
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrader import unitroot
from pairtrader.errors import (
    ConstantSeries,
    DegenerateRegressor,
    LengthMismatch,
    SeriesTooShort,
    UnknownSurface,
)
from pairtrader.marketdata import AlignedPanel, align_panel
from pairtrader.pairscan import (DEFAULT_NEAR_EPS, DEFAULT_THRESHOLD, PValueMatrix, coint_matrix,
                                 select_pairs)
from pairtrader.synthetic import TRAIN_DAYS, build_sector, weekday_calendar
from pairtrader.unitroot import (
    BOUNDS,
    CRIT,
    LEVELS,
    adf_test,
    default_max_lag,
    engle_granger,
    mackinnon_crit,
    mackinnon_pvalue,
)

from conftest import make_series, row_means


def random_walk(rng, n):
    return np.cumsum(rng.normal(size=n))


def ar1(rng, n, phi=0.5, sigma=1.0):
    out = np.empty(n)
    innov = rng.normal(0.0, sigma, size=n)
    out[0] = innov[0]
    for t in range(1, n):
        out[t] = phi * out[t - 1] + innov[t]
    return out


# Published response-surface coefficients, typed from the papers rather than
# taken from the package's own constants.
#
# MacKinnon (2010), Queen's Economics Department Working Paper 1227, Table 1:
# (b_inf, b1, b2, b3) at the 1%, 5% and 10% levels, the critical value at
# sample size T being b_inf + b1/T + b2/T^2 + b3/T^3.
PUBLISHED_CRIT = {
    (1, "none"): [
        (-2.56574, -2.2358, -3.627, 0.0),
        (-1.94100, -0.2686, -3.365, 31.223),
        (-1.61682, 0.2656, -2.714, 25.364),
    ],
    (1, "constant"): [
        (-3.43035, -6.5393, -16.786, -79.433),
        (-2.86154, -2.8903, -4.234, -40.040),
        (-2.56677, -1.5384, -2.809, 0.0),
    ],
    (2, "constant"): [
        (-3.89644, -10.9519, -33.527, 0.0),
        (-3.33613, -6.1101, -6.823, 0.0),
        (-3.04445, -4.2412, -2.720, 0.0),
    ],
}

# MacKinnon (1994), JBES 12(2), Tables 3-4: p = Phi(poly(tau)) with the
# small-p polynomial up to tau_star and the large-p one above it, p = 0 below
# tau_min and p = 1 above tau_max.  Coefficients as printed, in units of the
# column scales below.
PUBLISHED_SMALLP_SCALE = (1.0, 1.0, 1e-2)
PUBLISHED_LARGEP_SCALE = (1.0, 1e-1, 1e-1, 1e-2)
PUBLISHED_PVAL = {
    # (n_series, deterministic): (tau_min, tau_star, tau_max, small-p, large-p)
    (1, "none"): (-19.04, -1.04, math.inf,
                  (0.6344, 1.2378, 3.2496), (0.4797, 9.3557, -0.6999, 3.3066)),
    (2, "none"): (-19.62, -1.53, 1.51,
                  (1.9129, 1.3857, 3.5322), (1.5578, 8.558, -2.083, -3.3549)),
    (1, "constant"): (-18.83, -1.61, 2.74,
                      (2.1659, 1.4412, 3.8269), (1.7339, 9.3202, -1.2745, -1.0368)),
    (2, "constant"): (-18.86, -2.62, 0.92,
                      (2.92, 1.5012, 3.9796), (2.1945, 6.4695, -2.9198, -4.2377)),
}


def published_pvalue(tau, n_series, deterministic):
    tau_min, tau_star, tau_max, smallp, largep = PUBLISHED_PVAL[(n_series, deterministic)]
    if tau < tau_min:
        return 0.0
    if tau > tau_max:
        return 1.0
    coeffs, scale = ((smallp, PUBLISHED_SMALLP_SCALE) if tau <= tau_star
                     else (largep, PUBLISHED_LARGEP_SCALE))
    return NormalDist().cdf(sum(c * s * tau**k for k, (c, s) in enumerate(zip(coeffs, scale))))


class TestMacKinnonCrit:
    def test_published_one_percent_value_at_t739(self):
        assert mackinnon_crit(1, "constant", "1%", 739) == pytest.approx(-3.4392, abs=1e-4)

    def test_infinite_sample_returns_asymptote(self):
        for (n, det, level), coeffs in CRIT.items():
            assert mackinnon_crit(n, det, level, math.inf) == coeffs[0]

    def test_level_ordering_strict_at_every_sample_size(self):
        surfaces = {(n, det) for (n, det, _) in CRIT.keys()}
        for n, det in surfaces:
            for t in list(range(20, 2000, 7)) + [10_000, 1_000_000]:
                c1 = mackinnon_crit(n, det, "1%", t)
                c5 = mackinnon_crit(n, det, "5%", t)
                c10 = mackinnon_crit(n, det, "10%", t)
                assert c1 < c5 < c10

    def test_five_percent_greater_than_one_percent(self):
        assert mackinnon_crit(1, "constant", "5%", 739) > mackinnon_crit(1, "constant", "1%", 739)

    def test_unknown_surface(self):
        with pytest.raises(UnknownSurface):
            mackinnon_crit(2, "none", "5%", 100)
        with pytest.raises(UnknownSurface):
            mackinnon_crit(3, "constant", "5%", 100)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            mackinnon_crit(1, "constant", "2.5%", 100)

    def test_every_value_matches_published_table(self):
        assert {(n, det) for n, det, _ in CRIT} == set(PUBLISHED_CRIT)
        for (n, det), rows in PUBLISHED_CRIT.items():
            for level, (b_inf, b1, b2, b3) in zip(LEVELS, rows):
                assert mackinnon_crit(n, det, level, math.inf) == b_inf
                for t in (20, 25, 50, 100, 250, 739, 1000, 5000):
                    expected = b_inf + b1 / t + b2 / t**2 + b3 / t**3
                    assert mackinnon_crit(n, det, level, t) == pytest.approx(
                        expected, rel=1e-14, abs=0.0), (n, det, level, t)

    def test_statsmodels_equivalence(self):
        adfvalues = pytest.importorskip("statsmodels.tsa.adfvalues")
        for n, det, reg in ((1, "constant", "c"), (2, "constant", "c"), (1, "none", "n")):
            for t in (50, 200, 739, 5000):
                theirs = adfvalues.mackinnoncrit(N=n, regression=reg, nobs=t)
                mine = [mackinnon_crit(n, det, lvl, t) for lvl in LEVELS]
                assert mine == pytest.approx(list(theirs), rel=1e-12)


class TestMacKinnonPvalue:
    def test_self_consistency_at_asymptotic_critical_values(self):
        for (n, det, level), coeffs in CRIT.items():
            p = mackinnon_pvalue(coeffs[0], n, det)
            nominal = float(level.rstrip("%")) / 100.0
            assert p == pytest.approx(nominal, abs=0.005), (n, det, level)

    def test_monotone_on_fine_grid(self):
        for n, det in BOUNDS.keys():
            taus = np.arange(-6.0, 3.0 + 1e-9, 0.01)
            ps = [mackinnon_pvalue(float(t), n, det) for t in taus]
            assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:])), (n, det)

    def test_clamped_below_minimum_and_above_maximum(self):
        assert mackinnon_pvalue(-25.0, 1, "constant") == 0.0
        assert mackinnon_pvalue(5.0, 1, "constant") == 1.0
        assert mackinnon_pvalue(5.0, 1, "none") < 1.0  # no upper bound on this surface

    def test_nan_statistic_has_nan_pvalue(self):
        # NaN passes neither bound, and max(0.0, nan) is 0.0: a NaN tau once
        # read as p = 0, the strongest evidence a scan can give.
        for n, det in BOUNDS:
            assert math.isnan(mackinnon_pvalue(math.nan, n, det)), (n, det)
        assert math.isnan(mackinnon_pvalue(math.nan, 2, "constant"))
        assert math.isnan(mackinnon_pvalue(math.nan, 1, "none"))

    def test_nan_pvalue_is_never_selected(self):
        p_value = mackinnon_pvalue(math.nan, 2, "constant")
        matrix = PValueMatrix(("A", "B"), predictors=np.array([0]), targets=np.array([1]),
                              p_values=np.array([p_value]), exact=np.array([False]))
        assert select_pairs(matrix, threshold=0.9, near_eps=0.09) == []

    def test_zero_statistic_agrees_with_dickey_fuller_null_simulation(self):
        # Monte-Carlo oracle: simulate the Dickey-Fuller null (random walk,
        # lag-0 regression with constant) and compare the empirical CDF at
        # tau = 0 with the response-surface p-value.
        rng = np.random.default_rng(2024)
        reps, n = 10_000, 200
        taus = np.empty(reps)
        for i in range(reps):
            y = np.cumsum(rng.normal(size=n))
            dy = np.diff(y)
            lag = y[:-1]
            x = np.column_stack([np.ones(n - 1), lag])
            coef, _, _, _ = np.linalg.lstsq(x, dy, rcond=None)
            resid = dy - x @ coef
            sigma2 = float(resid @ resid) / (n - 1 - 2)
            cov = sigma2 * np.linalg.inv(x.T @ x)
            taus[i] = coef[1] / math.sqrt(cov[1, 1])
        p_surface = mackinnon_pvalue(0.0, 1, "constant")
        p_empirical = float(np.mean(taus <= 0.0))
        assert p_surface > 0.9
        assert p_surface == pytest.approx(p_empirical, abs=0.02)

    def test_monotone_pairwise_examples(self):
        assert mackinnon_pvalue(-4.0, 1, "constant") <= mackinnon_pvalue(-2.0, 1, "constant")
        assert mackinnon_pvalue(-3.0, 2, "constant") <= mackinnon_pvalue(-1.0, 2, "constant")

    def test_unknown_surface(self):
        with pytest.raises(UnknownSurface):
            mackinnon_pvalue(-3.0, 5, "constant")

    def test_every_surface_matches_published_table(self):
        assert set(BOUNDS) == set(PUBLISHED_PVAL)
        for (n, det), (tau_min, tau_star, tau_max, _, _) in PUBLISHED_PVAL.items():
            edges = [tau_min, tau_star, tau_max]
            taus = [float(t) for t in np.arange(-21.0, 4.0, 0.05)]
            taus += [e + d for e in edges if math.isfinite(e) for d in (-1e-9, 0.0, 1e-9)]
            for tau in taus:
                assert mackinnon_pvalue(tau, n, det) == pytest.approx(
                    published_pvalue(tau, n, det), rel=0.0, abs=1e-12), (n, det, tau)

    def test_statsmodels_equivalence(self):
        adfvalues = pytest.importorskip("statsmodels.tsa.adfvalues")
        for n, det, reg in ((1, "constant", "c"), (2, "constant", "c"),
                            (1, "none", "n"), (2, "none", "n")):
            for tau in (-5.0, -3.44, -2.86, -1.7, -0.5, 0.0, 0.8):
                mine = mackinnon_pvalue(tau, n, det)
                theirs = adfvalues.mackinnonp(tau, regression=reg, N=n)
                assert mine == pytest.approx(float(theirs), abs=1e-12)


SURFACES_WITHOUT_FILES = """
import builtins, importlib.resources, io, json

def refuse(*args, **kwargs):
    raise AssertionError("unitroot tried to read a file")

builtins.open = io.open = importlib.resources.files = refuse

from pairtrader.unitroot import BOUNDS, CRIT, mackinnon_crit, mackinnon_pvalue

crit = [mackinnon_crit(n, det, level, 100).hex() for n, det, level in CRIT]
pval = [mackinnon_pvalue(tau, n, det).hex() for n, det in BOUNDS for tau in (-4.0, -1.0, 0.5)]
print(json.dumps([crit, pval]))
"""


def test_surfaces_are_read_without_opening_a_file():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", SURFACES_WITHOUT_FILES], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    crit, pval = json.loads(done.stdout)
    assert crit == [mackinnon_crit(n, det, level, 100).hex() for n, det, level in CRIT]
    assert pval == [mackinnon_pvalue(tau, n, det).hex()
                    for n, det in BOUNDS for tau in (-4.0, -1.0, 0.5)]


class TestAdf:
    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        y = random_walk(rng, 300)
        base = adf_test(y, "constant")
        scaled = adf_test(100.0 * y, "constant")
        assert scaled.tau == pytest.approx(base.tau, abs=1e-8)
        assert scaled.used_lags == base.used_lags
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-8)
        negated = adf_test(-y, "constant")
        assert negated.tau == pytest.approx(base.tau, abs=1e-8)

    def test_shift_invariance_with_constant(self):
        rng = np.random.default_rng(9)
        y = ar1(rng, 250)
        base = adf_test(y, "constant")
        shifted = adf_test(y + 1234.5, "constant")
        assert shifted.tau == pytest.approx(base.tau, abs=1e-7)
        assert shifted.used_lags == base.used_lags

    def test_stationary_ar1_rejects(self):
        rng = np.random.default_rng(11)
        rejected = 0
        for _ in range(20):
            result = adf_test(ar1(rng, 500), "constant")
            rejected += result.p_value < 0.01
        assert rejected >= 19

    def test_lag_selection_deterministic(self):
        rng = np.random.default_rng(13)
        y = random_walk(rng, 200)
        lags = {adf_test(y, "constant").used_lags for _ in range(3)}
        assert len(lags) == 1

    def test_result_invariants(self):
        rng = np.random.default_rng(15)
        y = random_walk(rng, 240)
        result = adf_test(y, "constant")
        assert result.n_eff == 240 - result.used_lags - 1
        assert result.crit["1%"] < result.crit["5%"] < result.crit["10%"]
        assert 0.0 <= result.p_value <= 1.0
        assert result.deterministic == "constant"

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeries):
            adf_test(np.ones(100), "constant")

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            adf_test(np.arange(8.0), "constant")

    def test_accepts_price_series(self):
        # A one-ticker panel's close column goes in as it is.
        rng = np.random.default_rng(29)
        series = make_series("A", 100 + np.abs(random_walk(rng, 60)))
        result = adf_test(series.closes[0], "constant")
        assert result.n_eff == 60 - result.used_lags - 1

    def test_deterministic_sinusoid_is_singular(self):
        # sin obeys an exact two-term recurrence, so its lagged differences
        # are collinear and the regression is rank-deficient.
        with pytest.raises(ConstantSeries):
            adf_test(100 + np.sin(np.arange(60.0)), "constant")

    def test_default_max_lag_rule(self):
        assert default_max_lag(100) == 12
        assert default_max_lag(739) == 19
        assert default_max_lag(50) == 10

    @pytest.mark.parametrize("deterministic,regression", [("constant", "c"), ("none", "n")])
    def test_statsmodels_equivalence(self, deterministic, regression):
        adfuller = pytest.importorskip("statsmodels.tsa.stattools").adfuller
        rng = np.random.default_rng(17)
        cases = [
            random_walk(rng, 500),
            ar1(rng, 500),
            random_walk(rng, 120),
            ar1(rng, 75, phi=0.9),
            np.cumsum(rng.normal(size=320)) + 0.05 * np.arange(320),
        ]
        for y in cases:
            for maxlag in (0, 3, 12):
                mine = adf_test(y, deterministic, max_lag=maxlag)
                theirs = adfuller(y, maxlag=maxlag, regression=regression, autolag="AIC")
                assert mine.tau == pytest.approx(theirs[0], abs=1e-8)
                assert mine.used_lags == theirs[2]
                assert mine.n_eff == theirs[3]
                assert mine.p_value == pytest.approx(theirs[1], abs=1e-8)


class TestEngleGranger:
    def test_constructed_cointegration_rejects_both_orderings(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            x = random_walk(rng, 750)
            y = 2.0 * x + ar1(rng, 750)
            if engle_granger(y, x).p_value < 0.05 and engle_granger(x, y).p_value < 0.05:
                hits += 1
        assert hits >= 9

    def test_white_noise_spread_is_strongly_cointegrated(self):
        rng = np.random.default_rng(19)
        x = random_walk(rng, 400) + 500.0
        y = x + rng.normal(size=400)
        assert engle_granger(x, y).p_value < 0.01

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            engle_granger(np.arange(40.0), np.arange(41.0))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            engle_granger(np.arange(29.0), np.arange(29.0) * 2)

    def test_degenerate_regressor(self):
        rng = np.random.default_rng(21)
        with pytest.raises(DegenerateRegressor):
            engle_granger(rng.normal(size=50), np.full(50, 3.0))

    def test_block_refuses_terms_not_at_unit_scale(self):
        # Rows near 1e302 are far from unit_rows' scale; the block refuses
        # their terms instead of calling the pair singular, while
        # engle_granger, which scales them first, gets a statistic.
        rng = np.random.default_rng(29)
        x = 100.0 + random_walk(rng, 300)
        rows = 1e302 * np.stack([2.0 * x + ar1(rng, 300), x])
        assert math.isfinite(engle_granger(*rows).tau)
        with pytest.raises(ValueError, match="unit_rows"):
            unitroot.engle_granger_block(unitroot.stage1_terms(rows), [(0, 1)])
        lags, taus, codes = unitroot.engle_granger_block(
            unitroot.stage1_terms(unitroot.unit_rows(rows)), [(0, 1)])
        assert (lags.tolist(), taus.tolist(), codes.tolist()) == (
            [engle_granger(*rows).used_lags], [engle_granger(*rows).tau], [0])

    def test_crit_from_two_series_surface(self):
        rng = np.random.default_rng(23)
        x = random_walk(rng, 200)
        y = 1.5 * x + ar1(rng, 200)
        result = engle_granger(y, x)
        for level in LEVELS:
            assert result.crit[level] == pytest.approx(
                mackinnon_crit(2, "constant", level, result.n_eff), rel=1e-12
            )

    def test_statsmodels_equivalence(self):
        coint = pytest.importorskip("statsmodels.tsa.stattools").coint
        rng = np.random.default_rng(27)
        for _ in range(5):
            x = random_walk(rng, 400)
            y = 1.3 * x + ar1(rng, 400, phi=0.6)
            mine = engle_granger(y, x)
            # statsmodels uses a ceil()-based default lag rule; pass ours in.
            theirs = coint(y, x, maxlag=mine.used_lags, autolag=None)
            mine_fixed = engle_granger(y, x, max_lag=mine.used_lags)
            assert mine_fixed.tau == pytest.approx(theirs[0], abs=1e-8)
            assert mine_fixed.p_value == pytest.approx(theirs[1], abs=1e-8)
            # statsmodels evaluates crit at T = n - 1 regardless of lag
            # order; ours uses the stage-2 effective sample, so allow the
            # tiny finite-sample gap.
            assert list(mine_fixed.crit.values()) == pytest.approx(list(theirs[2]), abs=2e-3)


# --- reference implementations for the ADF kernel -----------------------------

#: (deterministic, max_lag, generator, n): the grid both kernel references cover.
KERNEL_GRID = [
    (det, max_lag, kind, n)
    for det in ("none", "constant")
    for max_lag in (None, 0, 3)
    for kind in ("random_walk", "ar1")
    for n in (60, 750, 3750)
]


def kernel_case(kind, n, seed):
    rng = np.random.default_rng(seed)
    return random_walk(rng, n) if kind == "random_walk" else ar1(rng, n, phi=0.6)


def naive_adf(y, deterministic, max_lag):
    """Textbook ADF: fit every candidate lag order on its own, no shared QR.

    Every k in 0..max_lag is fitted by least squares on the common sample
    truncated at max_lag, the lowest AIC wins (first one on ties), and the
    winner is refit on its longest sample.  The t-ratio's variance comes
    from the pseudo-inverse, ``(X'X)^-1 = X^+ (X^+)'``.
    Returns (used_lags, tau, n_eff, p_value).
    """
    constant = deterministic == "constant"
    if max_lag is None:
        max_lag = default_max_lag(y.size)
    dy = np.diff(y)

    def design(k, start):
        rows = dy.size - start
        cols = [np.ones(rows)] if constant else []
        cols.append(y[start:-1])
        cols.extend(dy[start - i : dy.size - i] for i in range(1, k + 1))
        return np.column_stack(cols), dy[start:]

    best_aic, best_k = math.inf, None
    for k in range(max_lag + 1):
        X, b = design(k, max_lag)
        coef = np.linalg.lstsq(X, b, rcond=None)[0]
        ssr = float(np.sum((b - X @ coef) ** 2))
        nobs = b.size
        llf = -nobs / 2.0 * (math.log(2.0 * math.pi) + math.log(ssr / nobs) + 1.0)
        aic = 2.0 * X.shape[1] - 2.0 * llf
        if aic < best_aic:
            best_aic, best_k = aic, k

    X, b = design(best_k, best_k)
    coef = np.linalg.lstsq(X, b, rcond=None)[0]
    resid = b - X @ coef
    sigma2 = float(resid @ resid) / (b.size - X.shape[1])
    pinv = np.linalg.pinv(X)
    gamma = 1 if constant else 0
    se = math.sqrt(sigma2 * float(pinv[gamma] @ pinv[gamma]))
    tau = float(coef[gamma]) / se
    return best_k, tau, b.size, mackinnon_pvalue(tau, 1, deterministic)


def naive_engle_granger(y, x):
    """Textbook two-stage Engle-Granger: ``lstsq`` of y on ``[1, x]``, then
    ``naive_adf`` on the residuals with no constant, and the p-value from
    the two-series surface with a constant.
    Returns (used_lags, tau, n_eff, p_value).
    """
    stage1 = np.column_stack([np.ones(x.size), x])
    coef = np.linalg.lstsq(stage1, y, rcond=None)[0]
    used_lags, tau, n_eff, _ = naive_adf(y - stage1 @ coef, "none", None)
    return used_lags, tau, n_eff, mackinnon_pvalue(tau, 2, "constant")


def _frozen_design(y, lag, constant):
    dy = np.diff(y)
    nobs = dy.size - lag
    rhs_cols = []
    if constant:
        rhs_cols.append(np.ones(nobs))
    rhs_cols.append(y[lag:-1])
    for i in range(1, lag + 1):
        rhs_cols.append(dy[lag - i : dy.size - i])
    return np.column_stack(rhs_cols), dy[lag:]


def frozen_adf(y, deterministic, max_lag):
    """The ADF kernel as it stood before the R-only QR: a reduced QR of X and
    ``Q'b`` by matrix product.  Kept verbatim (minus input checks) so the
    current kernel can be held to the same bits.
    Returns (used_lags, tau, n_eff, p_value).
    """
    if max_lag is None:
        max_lag = default_max_lag(y.size)
    constant = deterministic == "constant"
    ntrend = 1 if constant else 0
    X_full, b = _frozen_design(y, max_lag, constant)
    nobs_common = b.size
    q, r = np.linalg.qr(X_full)
    if min(abs(np.diag(r))) <= 1e-12 * max(abs(np.diag(r))):
        raise ConstantSeries("unit-root regression is singular")
    qtb = q.T @ b
    total = float(b @ b)
    explained = np.cumsum(qtb**2)
    best_k = 0
    best_aic = math.inf
    for k in range(0, max_lag + 1):
        p = ntrend + 1 + k
        ssr = max(total - float(explained[p - 1]), 0.0)
        ll = -0.5 * nobs_common * (math.log(2.0 * math.pi) + math.log(ssr / nobs_common) + 1.0)
        aic = 2.0 * p - 2.0 * ll
        if aic < best_aic:
            best_aic = aic
            best_k = k
    X, b = _frozen_design(y, best_k, constant)
    n_eff = b.size
    coef, _, _, _ = np.linalg.lstsq(X, b, rcond=None)
    resid = b - X @ coef
    sigma2 = float(resid @ resid) / (n_eff - X.shape[1])
    xtx_inv = np.linalg.inv(X.T @ X)
    tau = float(coef[ntrend] / math.sqrt(sigma2 * xtx_inv[ntrend, ntrend]))
    return best_k, tau, n_eff, mackinnon_pvalue(tau, 1, deterministic)


EPS = float(np.finfo(float).eps)


def frozen_engle_granger(y, x):
    """Engle-Granger test with the stage-2 ADF of ``frozen_adf``: its
    ``(used_lags, tau, n_eff)`` and the tolerance of tau (``tau_tolerance``),
    widened for the rounding of stage 1."""
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float(dx @ dy) / float(dx @ dx)
    intercept = y.mean() - slope * x.mean()
    resid = y - intercept - slope * x
    used_lags, tau, n_eff, _ = frozen_adf(resid, "none", None)
    # A slope off by sqrt(n) eps relative moves the residuals by that times
    # |dy| / |resid|, and forming them rounds each by eps times the size of
    # the terms cancelled.
    size = math.sqrt(float(resid @ resid))
    stage1 = EPS * (math.sqrt(x.size) * math.sqrt(float(dy @ dy)) / size
                    + 2.0 * (np.linalg.norm(y) + abs(intercept) * math.sqrt(x.size)
                             + abs(slope) * np.linalg.norm(x)) / size)
    return used_lags, tau, n_eff, tau_tolerance(resid, "none", used_lags, tau, stage1)


def tau_tolerance(y, deterministic, lag, tau, stage1=0.0):
    """How far apart two backward-stable refits of ``y``'s ADF regression at
    ``lag`` may put its t-ratio ``tau``: the LAPACK refit of ``frozen_adf``
    and the package's numpy one.

    tau = sqrt(dof) cot(theta), for theta the angle between the level column
    and dy_t, each taken off the span of the other regressors, so tau moves
    by (sqrt(dof) + tau^2 / sqrt(dof)) times theta's error.  A Householder
    refit is exact for columns moved by about sqrt(m) c eps of their norms
    (the statistical size of its backward error, Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sec. 19.3 and 3.5), and
    that moves theta by at most about kappa^2 times as much, kappa the
    condition number of the column-scaled ``[X | b]``.  ``stage1`` adds a
    relative error in ``y`` itself.  Two refits err, hence the factor 2.
    """
    X, b = _frozen_design(y, lag, deterministic == "constant")
    design = np.column_stack([X, b])
    kappa = float(np.linalg.cond(design / np.linalg.norm(design, axis=0)))
    m, c = design.shape
    dof = m - (c - 1)
    column_error = math.sqrt(m) * c * EPS + stage1
    return 2.0 * column_error * kappa**2 * (math.sqrt(dof) + tau * tau / math.sqrt(dof))


def assert_matches_frozen(mine, y, deterministic, max_lag):
    """``mine`` is ``frozen_adf``'s test of ``y``: the same lag order and
    sample size, and tau and its p-value within ``tau_tolerance``."""
    used_lags, tau, n_eff, _ = frozen_adf(y, deterministic, max_lag)
    assert (mine.used_lags, mine.n_eff) == (used_lags, n_eff)
    tol = tau_tolerance(y, deterministic, used_lags, tau)
    assert abs(mine.tau - tau) <= tol, (mine.tau, tau, tol)
    # The p-value rises with tau.
    assert (mackinnon_pvalue(tau - tol, 1, deterministic) <= mine.p_value
            <= mackinnon_pvalue(tau + tol, 1, deterministic))


@pytest.mark.parametrize("deterministic,max_lag,kind,n", KERNEL_GRID)
def test_adf_matches_naive_per_lag_oracle(deterministic, max_lag, kind, n):
    y = kernel_case(kind, n, seed=n + (max_lag or 0))
    mine = adf_test(y, deterministic, max_lag=max_lag)
    used_lags, tau, n_eff, p_value = naive_adf(y, deterministic, max_lag)
    assert mine.used_lags == used_lags
    assert mine.n_eff == n_eff
    assert mine.tau == pytest.approx(tau, abs=1e-8)
    assert mine.p_value == pytest.approx(p_value, abs=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [60, 750])
@pytest.mark.parametrize("kind", ["cointegrated", "independent"])
def test_engle_granger_matches_two_stage_oracle(kind, n, seed):
    rng = np.random.default_rng(100 * n + seed)
    x = random_walk(rng, n) + 50.0
    noise = ar1(rng, n, phi=0.6) if kind == "cointegrated" else random_walk(rng, n)
    y = 1.5 * x + noise
    mine = engle_granger(y, x)
    used_lags, tau, n_eff, p_value = naive_engle_granger(y, x)
    assert mine.used_lags == used_lags
    assert mine.n_eff == n_eff
    assert mine.tau == pytest.approx(tau, abs=1e-8)
    assert mine.p_value == pytest.approx(p_value, abs=1e-8)


@pytest.mark.parametrize("deterministic,max_lag,kind,n", KERNEL_GRID)
def test_adf_bit_identical_to_frozen_kernel(deterministic, max_lag, kind, n):
    # Bit for bit in the lag order and the sample size; tau and p within the
    # rounding error of two refits.
    y = kernel_case(kind, n, seed=n + (max_lag or 0))
    assert_matches_frozen(adf_test(y, deterministic, max_lag=max_lag), y, deterministic, max_lag)


def test_coint_matrix_bit_identical_to_frozen_per_pair_loop():
    calendar = weekday_calendar(date(2018, 1, 1), TRAIN_DAYS)
    prices = build_sector()
    panel = align_panel([
        AlignedPanel((t,), calendar, prices[t][np.newaxis, :TRAIN_DAYS])
        for t in sorted(prices)
    ])
    expected = {}
    for i, a in enumerate(panel.tickers):
        for j in range(i + 1, len(panel.tickers)):
            b = panel.tickers[j]
            closes_a = np.ascontiguousarray(panel.closes[i])
            closes_b = np.ascontiguousarray(panel.closes[j])
            # Higher mean close predicts; ties go to the lower ticker.
            mean_a, mean_b = np.mean(closes_a), np.mean(closes_b)
            if mean_a > mean_b or (mean_a == mean_b and a <= b):
                predictor, target = closes_a, closes_b
            else:
                predictor, target = closes_b, closes_a
            expected[a, b] = frozen_engle_granger(target, predictor)
    scan = coint_matrix(panel, row_means(panel))
    names = scan.tickers
    # The columns are in the frozen loop's order, the pairs' panel order.
    assert len(scan.p_values) == len(expected)
    # Bit for bit in each lag order and sample size; tau and p within the
    # rounding error of two refits and two stage-1 fits.  The scan's p-value
    # is the one-pair test's of its roles, bit for bit.
    frozen_p = {}
    for (a, b), pred, targ, p in zip(expected, scan.predictors, scan.targets,
                                     scan.p_values.tolist()):
        assert {names[pred], names[targ]} == {a, b}
        mine = engle_granger(panel.closes[targ], panel.closes[pred])
        used_lags, tau, n_eff, tol = expected[a, b]
        assert (mine.used_lags, mine.n_eff) == (used_lags, n_eff)
        assert abs(mine.tau - tau) <= tol, (a, b, mine.tau, tau, tol)
        assert p == mine.p_value
        assert (mackinnon_pvalue(tau - tol, 2, "constant") <= p
                <= mackinnon_pvalue(tau + tol, 2, "constant"))
        frozen_p[names[pred], names[targ]] = mackinnon_pvalue(tau, 2, "constant")
    # The same pairs are selected, in the same order.
    frozen_selection = sorted((p, pair) for pair, p in frozen_p.items()
                              if p < DEFAULT_THRESHOLD + DEFAULT_NEAR_EPS)
    assert [(sp.predictor_ticker, sp.target_ticker) for sp in select_pairs(scan)] == [
        pair for _, pair in frozen_selection]
    # Each pair's roles are the frozen loop's: the higher mean close predicts.
    for pred, targ in zip(scan.predictors, scan.targets):
        assert np.mean(panel.closes[pred]) > np.mean(panel.closes[targ])


# --- the Gram lag search and its Householder fallback --------------------------


def near_unit_root(rng, n):
    return ar1(rng, n, phi=0.995)


def near_collinear(rng, n):
    """A slow sine with noise 1e-6 of its size: the lag columns are nearly
    combinations of two sinusoids, so the design is badly conditioned."""
    return np.sin(np.arange(n) / 25.0) + 1e-6 * rng.normal(size=n)


PROPERTY_SERIES = {
    "random_walk": random_walk,
    "ar1": ar1,
    "near_unit_root": near_unit_root,
    "near_collinear": near_collinear,
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(PROPERTY_SERIES)),
    n=st.integers(min_value=40, max_value=1000),
    scale=st.integers(min_value=-6, max_value=6).map(lambda e: 10.0**e),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    deterministic=st.sampled_from(["none", "constant"]),
    max_lag=st.sampled_from([None, 0, 3]),
)
def test_adf_bit_identical_to_frozen_kernel_on_generated_series(kind, n, scale, seed,
                                                                deterministic, max_lag):
    y = scale * PROPERTY_SERIES[kind](np.random.default_rng(seed), n)
    try:
        mine = adf_test(y, deterministic, max_lag=max_lag)
    except ConstantSeries:
        # The frozen kernel raises on a singular design and fails on the log
        # of a zero SSR.
        with pytest.raises((ConstantSeries, ValueError)):
            frozen_adf(y, deterministic, max_lag)
        return
    assert_matches_frozen(mine, y, deterministic, max_lag)


@pytest.fixture
def qr_searches(monkeypatch):
    """The shape of each design ``adf_test`` hands to the Householder QR lag
    search, one row-major ``(m, c)`` per design of the stack."""
    designs = []
    real = unitroot._householder_lag_search

    def counted(stack, ntrend):
        designs.extend([stack.shape[:0:-1]] * len(stack))
        return real(stack, ntrend)

    monkeypatch.setattr(unitroot, "_householder_lag_search", counted)
    return designs


def householder_lag(y, max_lag, constant):
    """The lag order that the Householder search gives ``y`` alone, or -1 for a fault."""
    designs = unitroot._adf_designs(y[np.newaxis], max_lag, constant)
    (lag,), (code,) = unitroot._householder_lag_search(designs, int(constant))
    return -1 if code else int(lag)


def adf_design(y, lag, constant):
    """``y``'s ADF design at ``lag`` as one C-contiguous array, one row per
    observation: the regressors first and the dependent ``dy_t`` last."""
    return np.ascontiguousarray(unitroot._adf_designs(y, lag, constant).T)


@pytest.mark.parametrize("constant", [False, True])
@pytest.mark.parametrize("lag", [0, 1, 4])
def test_one_design_builder_fills_a_stack_and_a_row_major_design(lag, constant):
    # The stack the lag search reads, the level-last stack the refit reads and
    # one series' row-major design hold the same numbers, and a row of a
    # stack is its series' own.
    rng = np.random.default_rng(lag)
    ys = np.stack([random_walk(rng, 61), ar1(rng, 61, phi=0.5)])
    ntrend = int(constant)
    stack = unitroot._adf_designs(ys, lag, constant)
    refit = unitroot._adf_designs(ys, lag, constant, level_last=True)
    assert stack.shape == refit.shape == (2, ntrend + lag + 2, 60 - lag)
    level_last = [*range(ntrend), *range(ntrend + 1, ntrend + lag + 1), ntrend, ntrend + lag + 1]
    for y, slab, refit_slab in zip(ys, stack, refit):
        design = adf_design(y, lag, constant)
        assert np.array_equal(design, slab.T)
        assert refit_slab.tobytes() == slab[level_last].tobytes()
        assert design[:, -1].tolist() == np.diff(y)[lag:].tolist()
        assert design[:, ntrend].tolist() == y[lag:-1].tolist()


def gram_checks(y, deterministic, max_lag):
    """What the Gram search sees: None when the Cholesky factorisation fails,
    else (smallest pivot / its column's norm, smallest SSR / b'b)."""
    constant = deterministic == "constant"
    gram = unitroot._lag_grams(y[np.newaxis], max_lag, constant)[0][0]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    nx = gram.shape[1] - 1
    pivots = chol.diagonal()[:nx]
    ssr = gram[-1, -1] - np.cumsum(chol[-1, :nx] ** 2)[int(constant):]
    return min(pivots / np.sqrt(gram.diagonal()[:nx])), ssr.min() / gram[-1, -1]


def alternating(n=200, noise=0.0):
    rng = np.random.default_rng(3)
    return np.tile([0.0, 1.0], n // 2) + noise * rng.normal(size=n)


def test_gram_search_decides_ordinary_scans(qr_searches):
    rng = np.random.default_rng(41)
    for n in (60, 750, 3750):
        for deterministic in ("none", "constant"):
            adf_test(random_walk(rng, n), deterministic)
            adf_test(ar1(rng, n, phi=0.6), deterministic)
        # Residual designs with near-orthogonal columns, and with the
        # autocorrelated lags of a cointegrated pair's residuals.
        x = random_walk(rng, n) + 50.0
        engle_granger(1.5 * x + random_walk(rng, n), x)
        engle_granger(1.5 * x + ar1(rng, n, phi=0.6), x)
    panel = align_panel([
        AlignedPanel((t,), weekday_calendar(date(2018, 1, 1), TRAIN_DAYS),
                     closes[np.newaxis, :TRAIN_DAYS])
        for t, closes in sorted(build_sector().items())
    ])
    coint_matrix(panel, row_means(panel))
    assert qr_searches == []


@pytest.mark.parametrize("y,deterministic,max_lag,message", [
    # 0, 1, 0, 1, ...: every lag column is +-dy, so D'D is exactly singular.
    (alternating(), "none", 3, "unit-root regression is singular"),
    (alternating(), "constant", 3, "unit-root regression is singular"),
    # y_t = t: dy is all ones, and dy_t equals its own first lag.
    (np.arange(200.0), "none", 1, "unit-root regression fits exactly"),
], ids=["singular-none", "singular-constant", "fits-exactly"])
def test_cholesky_failure_falls_back_to_qr(qr_searches, y, deterministic, max_lag, message):
    assert gram_checks(y, deterministic, max_lag) is None
    with pytest.raises(ConstantSeries, match=f"^{message}$"):
        adf_test(y, deterministic, max_lag=max_lag)
    assert len(qr_searches) == 1


@pytest.mark.parametrize("deterministic", ["none", "constant"])
def test_small_pivot_falls_back_to_qr(qr_searches, deterministic):
    y = alternating(noise=1e-7)
    pivot_ratio, _ = gram_checks(y, deterministic, 3)
    assert 0.0 < pivot_ratio <= unitroot._GRAM_MIN_PIVOT
    mine = adf_test(y, deterministic, max_lag=3)
    assert len(qr_searches) == 1
    assert_matches_frozen(mine, y, deterministic, 3)


def test_tiny_ssr_falls_back_to_qr(qr_searches):
    # A sine with noise 1e-6 of its size: dy_t is a combination of its two
    # lags up to the noise, while the lag columns stay far from singular.
    rng = np.random.default_rng(5)
    t = np.arange(200.0)
    y = np.sin(t / 7.0) + 1e-6 * rng.normal(size=t.size)
    pivot_ratio, ssr_ratio = gram_checks(y, "none", 2)
    assert pivot_ratio > unitroot._GRAM_MIN_PIVOT
    assert ssr_ratio <= unitroot._GRAM_MIN_SSR
    mine = adf_test(y, "none", max_lag=2)
    assert len(qr_searches) == 1
    assert_matches_frozen(mine, y, "none", 2)


@pytest.mark.parametrize("deterministic", ["none", "constant"])
def test_tiny_ssr_keeps_the_fits_exactly_fault(qr_searches, deterministic):
    # dy_t = 0.01 * 1.01 * y_{t-1}: the level alone fits dy exactly, bar rounding.
    y = 1.01 ** np.arange(200.0)
    pivot_ratio, ssr_ratio = gram_checks(y, deterministic, 0)
    assert pivot_ratio > unitroot._GRAM_MIN_PIVOT
    assert ssr_ratio <= unitroot._GRAM_MIN_SSR
    with pytest.raises(ConstantSeries, match="^unit-root regression fits exactly$"):
        adf_test(y, deterministic, max_lag=0)
    assert len(qr_searches) == 1


def aic_gap(y, max_lag=1):
    """AIC(0) - AIC(1) of the no-constant ADF regression, by ``lstsq`` per lag."""
    design = adf_design(y, max_lag, False)
    b = design[:, -1]
    aic = []
    for k in range(2):
        X = design[:, :k + 1]
        resid = b - X @ np.linalg.lstsq(X, b, rcond=None)[0]
        aic.append(2.0 * (k + 1) + b.size * math.log(float(resid @ resid)))
    return aic[0] - aic[1]


def test_aic_near_tie_falls_back_to_qr(qr_searches):
    # dy_t = e_t + theta * e_{t-1}: the first lag's AIC falls below the
    # no-lag AIC as theta grows.  Bisect theta until the two tie to ~1e-10,
    # far inside the Gram search's error bound.
    rng = np.random.default_rng(8)
    e = rng.normal(size=301)

    def series(theta):
        return np.cumsum(e[1:] + theta * e[:-1])

    low, high = 0.0, 0.9
    assert aic_gap(series(low)) < 0.0 < aic_gap(series(high))
    for _ in range(80):
        mid = 0.5 * (low + high)
        if aic_gap(series(mid)) < 0.0:
            low = mid
        else:
            high = mid
    y = series(low)
    assert abs(aic_gap(y)) < 1e-9
    pivot_ratio, ssr_ratio = gram_checks(y, "none", 1)
    assert pivot_ratio > unitroot._GRAM_MIN_PIVOT and ssr_ratio > unitroot._GRAM_MIN_SSR
    mine = adf_test(y, "none", max_lag=1)
    assert len(qr_searches) == 1
    # The Householder search alone makes the choice.
    assert mine.used_lags == householder_lag(y, 1, False)


def correlation_kappa(design):
    """tr(C^-1) for the correlation matrix C of ``design``'s columns: the
    kappa of ``_gram_lag_search``'s error bound."""
    gram = design.T @ design
    norms = np.sqrt(gram.diagonal())
    return float(np.trace(np.linalg.inv(gram / np.outer(norms, norms))))


def test_gram_search_decides_well_conditioned_walks_at_any_scale(qr_searches):
    # 200 random walks at scales 1e-6 to 1e6.  Each test takes its series at
    # unit scale, so a constant-term test of a walk far from 1 in size, whose
    # constant column would be tiny or huge beside its level column, is
    # decided by the Gram search whenever its design is well conditioned.
    rng = np.random.default_rng(2024)
    fallback_kappas = []
    for i in range(200):
        n = int(rng.integers(40, 1001))
        y = 10.0 ** int(rng.integers(-6, 7)) * random_walk(rng, n)
        deterministic = ("none", "constant")[i % 2]
        ntrend = int(deterministic == "constant")
        design = adf_design(y, default_max_lag(n), ntrend == 1)
        searches = len(qr_searches)
        mine = adf_test(y, deterministic)
        if len(qr_searches) > searches:
            fallback_kappas.append(correlation_kappa(design))
        assert mine.used_lags == householder_lag(y, default_max_lag(n), ntrend == 1)
        assert_matches_frozen(mine, y, deterministic, None)
    assert [k for k in fallback_kappas if k < 100.0] == []


def test_pivot_spread_keeps_the_qr_singular_fault(qr_searches):
    # A well-conditioned walk some 1e13 above 0: without a constant, its
    # level column is some 1e14 times its lag columns at any unit.  The
    # Householder search calls that design singular, so the Gram search
    # must leave the decision, and the fault, to it.
    walk = random_walk(np.random.default_rng(6), 300)
    y = 1e13 + walk
    assert correlation_kappa(adf_design(y, 2, False)) < 100.0
    with pytest.raises(ConstantSeries, match="^unit-root regression is singular$"):
        adf_test(y, "none", max_lag=2)
    assert len(qr_searches) == 1
    # Times 1e13 with a constant, the walk's level column was as far from
    # its constant column, and singular; at unit scale it gets a tau.
    assert adf_test(1e13 * walk, "constant", max_lag=2).used_lags == adf_test(
        walk, "constant", max_lag=2).used_lags


def test_gram_search_of_a_stack_is_the_search_of_each_design():
    # An exactly singular design in the middle of a stack fails the stack's
    # one Cholesky call, which sends every design to the Householder search:
    # each still gets the lag or the fault it gets alone.
    rng = np.random.default_rng(12)
    ys = np.stack([random_walk(rng, 300), alternating(300), ar1(rng, 300, phi=0.6)])
    grams, _ = unitroot._lag_grams(ys, 3, False)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(grams[1])
    assert unitroot._gram_lag_search(ys, 3, False).tolist() == [-1, -1, -1]
    lags, codes = unitroot._search_lags(ys, 3, False)
    alone = [unitroot._search_lags(y[np.newaxis], 3, False) for y in ys]
    assert lags.tolist() == [lag.item() for lag, _ in alone]
    assert codes.tolist() == [code.item() for _, code in alone]
    assert codes.tolist() == [0, unitroot.SINGULAR, 0]
    assert lags[::2].tolist() == [unitroot._gram_lag_search(ys[[k]], 3, False)[0] for k in (0, 2)]


@pytest.mark.parametrize("lag,constant", [(0, False), (0, True), (2, False), (5, True)])
def test_refit_of_a_group_is_the_refit_of_each_row(lag, constant):
    # Rows of every kind share one group: a walk and an AR(1) series, which
    # take the Gram factor (or, at lag 0 without a constant, the closed
    # form), a sine whose lags are near collinear, and a series whose lagged
    # level is all zero, which takes the Householder factor and its
    # "singular" fault.
    # Each row's tau or fault is bit for bit the one it gets alone.
    rng = np.random.default_rng(lag)
    flat_start = np.zeros(300)
    flat_start[-1] = 1.0
    ys = np.stack([random_walk(rng, 300), near_collinear(rng, 300), ar1(rng, 300, phi=0.6),
                   flat_start])
    factors = []
    real = unitroot._householder_factor
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unitroot, "_householder_factor",
                      lambda designs: factors.append(len(designs)) or real(designs))
        taus, codes = unitroot._refit_taus(ys, lag, constant)
        alone = [unitroot._refit_taus(y[np.newaxis], lag, constant) for y in ys]
    assert [t.hex() for t in taus.tolist()] == [t.item().hex() for t, _ in alone]
    assert codes.tolist() == [code.item() for _, code in alone]
    assert codes[3] == unitroot.SINGULAR
    assert codes[0] == 0
    if lag or constant:
        # The flat start, and the sine where its lags are near collinear,
        # in one Householder factorisation.
        assert factors[0] == (2 if lag else 1)


def exact_scales(values):
    """The least and the greatest k for which every nonzero value times 2^k is a normal double."""
    magnitudes = abs(values[values != 0.0])
    return -1021 - int(np.frexp(magnitudes.min())[1]), 1024 - int(np.frexp(magnitudes.max())[1])


def outcome_bits(result):
    """An Engle-Granger or ADF outcome as its lag, its tau's bits and its sample size."""
    return result.used_lags, result.tau.hex(), result.n_eff


def scan_columns(scan):
    return (scan.predictors.tolist(), scan.targets.tolist(),
            [p.hex() for p in scan.p_values.tolist()], scan.exact.tolist())


# No max_examples of its own: the "deep" profile (conftest.py) runs this
# test with 20 times the default's 100 examples.
@pytest.mark.filterwarnings("error")
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 200), data=st.data())
def test_a_power_of_two_scale_leaves_every_statistic_bit_identical(seed, n, data):
    # Four tickers' closes over n dates, the last two cointegrated.  Every
    # test takes its series at unit scale, so scaling a series by 2^k, exact
    # while the values stay normal, moves no bit of any lag or tau, at any
    # k: closes near 1e302 once overflowed, and near 1e-300 faulted.
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, (4, n)), axis=1))
    closes[3] = 0.5 * closes[2] + rng.normal(0.0, 1.0, n) ** 2
    y, x = closes[3], closes[2]
    k = data.draw(st.integers(*exact_scales(closes)), label="k")
    for deterministic in ("none", "constant"):
        assert (outcome_bits(adf_test(np.ldexp(y, k), deterministic))
                == outcome_bits(adf_test(y, deterministic)))
    assert outcome_bits(engle_granger(np.ldexp(y, k), x)) == outcome_bits(engle_granger(y, x))

    # A panel scaled as a whole, its keys with it, keeps every cell.  So
    # does each cell whose roles survive one ticker's scaling.
    dates = weekday_calendar(date(2020, 1, 6), n)
    panel = AlignedPanel(("A", "B", "C", "D"), dates, closes)
    means = np.array(row_means(panel))
    base = scan_columns(coint_matrix(panel, means.tolist()))
    scaled = AlignedPanel(panel.tickers, dates, np.ldexp(closes, k))
    assert scan_columns(coint_matrix(scaled, np.ldexp(means, k).tolist())) == base
    ticker = data.draw(st.integers(0, 3), label="ticker")
    one_k = data.draw(st.integers(*exact_scales(closes[ticker])), label="one_k")
    one = closes.copy()
    one[ticker] = np.ldexp(one[ticker], one_k)
    keys = means.copy()
    keys[ticker] = np.ldexp(keys[ticker], one_k)
    cells = scan_columns(coint_matrix(AlignedPanel(panel.tickers, dates, one), keys.tolist()))
    kept = [(cell, old) for cell, old in zip(zip(*cells), zip(*base)) if cell[:2] == old[:2]]
    assert [cell for cell, _ in kept] == [old for _, old in kept]
    assert len(kept) >= 3  # the pairs without the scaled ticker at least


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_series_with_a_non_finite_value_is_refused(value):
    # inf once gave SumOverflow from adf_test and a RuntimeWarning from
    # engle_granger; NaN gave "singular" from one and SumOverflow from the
    # other.  Neither is a series a unit-root test can take.
    rng = np.random.default_rng(5)
    x = 50.0 + random_walk(rng, 100)
    y = 2.0 * x + rng.normal(size=100)
    bad = y.copy()
    bad[40] = value
    for deterministic in ("none", "constant"):
        with pytest.raises(ValueError, match="^series must be finite$"):
            adf_test(bad, deterministic)
    for args in ((bad, x), (x, bad)):
        with pytest.raises(ValueError, match="^series must be finite$"):
            engle_granger(*args)
