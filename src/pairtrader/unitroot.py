"""Augmented Dickey-Fuller and Engle-Granger tests with MacKinnon surfaces.

The ADF regression is

    dy_t = [alpha] + gamma * y_{t-1} + sum_{i=1..k} delta_i * dy_{t-i} + eps_t

with the lag order k chosen by AIC over a common truncated sample (all
candidate regressions see the observations available at ``max_lag``, so their
AICs are comparable), followed by a refit at the chosen k on the longest
sample that lag permits.  The unit-root null is rejected when the t-ratio on
the lagged level is below (more negative than) the critical value.

The lag search costs one R-only QR factorisation per test: the widest design
is built once with the dependent column appended, ``[X | dy]``, one slice
copy of ``dy`` per lag column, and the last column of its R factor is
``Q'dy``, so every nested candidate's SSR is a prefix sum of its squares and
Q is never formed.  The refit at the chosen lag is a plain least-squares fit
on a design built the same way.

Critical values and approximate p-values come from MacKinnon's published
response surfaces, held as module constants (``CRIT``, ``PVAL_SMALL``,
``PVAL_LARGE``, ``BOUNDS``).  Both tests return an ``AdfResult``, which stores
the statistic and the surface it is read against and evaluates that surface
only when its critical values or p-value are first read: the sector scan
reads one p-value per pair and no critical value.  ``cli`` writes a residual
test's statistic, critical values and p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    ConstantSeries,
    DegenerateRegressor,
    LengthMismatch,
    SeriesTooShort,
    UnknownSurface,
)

LEVELS = ("1%", "5%", "10%")

_DETERMINISTICS = ("none", "constant")


# MacKinnon response surfaces, keyed by n_series, the number of I(1) series
# under the no-cointegration null (1 for a plain unit-root test, 2 for a
# two-series cointegration test), and deterministic, the terms in the test
# regression.
#
# CRIT[(n_series, deterministic, level)] = (b_inf, b1, b2, b3): MacKinnon
# (2010), "Critical Values for Cointegration Tests", Queen's Economics
# Department Working Paper 1227, Table 1 (updating MacKinnon 1991/1994).  The
# finite-sample critical value at effective sample size T is
# b_inf + b1/T + b2/T^2 + b3/T^3.  The 2010 study does not tabulate a
# no-constant surface for n_series >= 2, so there is no (2, "none") entry.
CRIT = MappingProxyType({
    (1, "none", "1%"): (-2.56574, -2.2358, -3.627, 0.0),
    (1, "none", "5%"): (-1.94100, -0.2686, -3.365, 31.223),
    (1, "none", "10%"): (-1.61682, 0.2656, -2.714, 25.364),
    (1, "constant", "1%"): (-3.43035, -6.5393, -16.786, -79.433),
    (1, "constant", "5%"): (-2.86154, -2.8903, -4.234, -40.040),
    (1, "constant", "10%"): (-2.56677, -1.5384, -2.809, 0.0),
    (2, "constant", "1%"): (-3.89644, -10.9519, -33.527, 0.0),
    (2, "constant", "5%"): (-3.33613, -6.1101, -6.823, 0.0),
    (2, "constant", "10%"): (-3.04445, -4.2412, -2.720, 0.0),
})

# PVAL_SMALL / PVAL_LARGE[(n_series, deterministic)] = (c0, c1, c2[, c3]):
# MacKinnon (1994), "Approximate Asymptotic Distribution Functions for
# Unit-Root and Cointegration Tests", Journal of Business & Economic
# Statistics 12(2), 167-176, Tables 3-4.  p = Phi(c0 + c1*tau + c2*tau^2
# [+ c3*tau^3]), using the small polynomial for tau <= tau_star and the large
# one above it.
PVAL_SMALL = MappingProxyType({
    (1, "none"): (0.6344, 1.2378, 0.032496),
    (2, "none"): (1.9129, 1.3857, 0.035322),
    (1, "constant"): (2.1659, 1.4412, 0.038269),
    (2, "constant"): (2.92, 1.5012, 0.039796),
})
PVAL_LARGE = MappingProxyType({
    (1, "none"): (0.4797, 0.93557, -0.06999, 0.033066),
    (2, "none"): (1.5578, 0.8558, -0.2083, -0.033549),
    (1, "constant"): (1.7339, 0.93202, -0.12745, -0.010368),
    (2, "constant"): (2.1945, 0.64695, -0.29198, -0.042377),
})

# BOUNDS[(n_series, deterministic)] = (tau_min, tau_star, tau_max): the
# tabulated validity range, p = 0 below tau_min and p = 1 above tau_max, and
# the switch between the two polynomials.
BOUNDS = MappingProxyType({
    (1, "none"): (-19.04, -1.04, math.inf),
    (2, "none"): (-19.62, -1.53, 1.51),
    (1, "constant"): (-18.83, -1.61, 2.74),
    (2, "constant"): (-18.86, -2.62, 0.92),
})


def _check_deterministic(deterministic: str) -> None:
    if deterministic not in _DETERMINISTICS:
        raise ValueError(f"deterministic must be one of {_DETERMINISTICS}")


def mackinnon_crit(n_series: int, deterministic: str, level: str, nobs: float) -> float:
    """Critical value ``b_inf + b1/T + b2/T^2 + b3/T^3`` at sample size T.

    ``nobs`` may be ``math.inf`` to get the asymptotic value.
    """
    _check_deterministic(deterministic)
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if nobs < 20:
        raise ValueError(f"effective sample size {nobs} below 20")
    try:
        b = CRIT[(n_series, deterministic, level)]
    except KeyError:
        raise UnknownSurface(
            f"no critical-value surface for (n_series={n_series}, {deterministic!r})"
        ) from None
    if math.isinf(nobs):
        return b[0]
    t = float(nobs)
    return b[0] + b[1] / t + b[2] / t**2 + b[3] / t**3


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def mackinnon_pvalue(tau: float, n_series: int, deterministic: str) -> float:
    """Approximate asymptotic p-value ``Phi(poly(tau))``, clamped to [0, 1].

    Returns 0 below the tabulated minimum and 1 above the maximum; the
    "small" polynomial applies for ``tau <= tau_star`` and the "large" one
    above it.
    """
    _check_deterministic(deterministic)
    key = (n_series, deterministic)
    try:
        tau_min, tau_star, tau_max = BOUNDS[key]
    except KeyError:
        raise UnknownSurface(
            f"no p-value surface for (n_series={n_series}, {deterministic!r})"
        ) from None
    if tau > tau_max:
        return 1.0
    if tau < tau_min:
        return 0.0
    coeffs = PVAL_SMALL[key] if tau <= tau_star else PVAL_LARGE[key]
    poly = 0.0
    for c in reversed(coeffs):
        poly = poly * tau + c
    return min(1.0, max(0.0, _norm_cdf(poly)))


@dataclass(frozen=True)
class AdfResult:
    """Outcome of an ADF test, read against one MacKinnon surface.

    The test itself gives ``tau``, ``used_lags`` and ``n_eff``;
    ``(n_series, deterministic)`` names the response surface the statistic
    is read against: ``(1, deterministic)`` for a plain ADF test and
    ``(2, "constant")`` for the Engle-Granger residual test.  ``crit`` (at
    ``n_eff``) and ``p_value`` are computed from that surface when first read.
    """

    tau: float
    used_lags: int
    n_eff: int
    n_series: int
    deterministic: str

    @cached_property
    def crit(self) -> MappingProxyType:
        return MappingProxyType({
            lvl: mackinnon_crit(self.n_series, self.deterministic, lvl, self.n_eff)
            for lvl in LEVELS
        })

    @cached_property
    def p_value(self) -> float:
        return mackinnon_pvalue(self.tau, self.n_series, self.deterministic)


def default_max_lag(n: int) -> int:
    """Schwert-style rule of thumb ``floor(12 * (n/100)**0.25)``.

    Capped so the widest candidate regression keeps at least one residual
    degree of freedom (binds only for very short series).
    """
    rule = int(math.floor(12.0 * (n / 100.0) ** 0.25))
    return max(0, min(rule, (n - 4) // 2))


def _as_1d(series) -> np.ndarray:
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError("series must be one-dimensional")
    return values


def _adf_design(y: np.ndarray, lag: int, constant: bool) -> np.ndarray:
    """Rows t = lag+2 .. n of [const?, y_{t-1}, dy_{t-1}, ..., dy_{t-lag}, dy_t].

    The regressors come first and the dependent ``dy_t`` last, in one
    C-contiguous array.  Lag column i is ``dy`` shifted back i steps, so each
    column is filled by one slice copy of ``dy``.
    """
    dy = y[1:] - y[:-1]
    m = dy.size
    nobs = m - lag
    ntrend = 1 if constant else 0
    design = np.empty((nobs, ntrend + lag + 2))
    if constant:
        design[:, 0] = 1.0
    design[:, ntrend] = y[lag:-1]
    for i in range(1, lag + 1):
        design[:, ntrend + i] = dy[lag - i : m - i]
    design[:, -1] = dy[lag:]
    return design


def adf_test(series, deterministic: str = "constant", max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test with AIC lag selection.

    AIC is evaluated for every k in 0..max_lag on the sample truncated at
    max_lag, all from one R-only QR of ``[X | b]`` (the widest design with
    the dependent column appended); the winning k is then refit by least
    squares on its own longest sample, giving ``n_eff = n - used_lags - 1``
    regression observations.  The result is read against the single-series
    MacKinnon surface ``(1, deterministic)``.
    """
    _check_deterministic(deterministic)
    y = _as_1d(series)
    n = y.size
    if n >= 1 and np.ptp(y) == 0.0:
        raise ConstantSeries("series is constant")
    if max_lag is None:
        max_lag = default_max_lag(n)
        if n < 10 + max_lag:
            raise SeriesTooShort(f"need >= {10 + max_lag} observations, have {n}")
    else:
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        ntrend = 1 if deterministic == "constant" else 0
        if n - 1 - max_lag < ntrend + 2 + max_lag:
            raise SeriesTooShort(
                f"{n} observations leave no degrees of freedom at max_lag={max_lag}"
            )

    constant = deterministic == "constant"
    ntrend = 1 if constant else 0

    # One QR of the widest design [X | b] scores every nested candidate: the
    # model with k lags uses the first ntrend+1+k columns of X, so its SSR
    # falls out of the prefix sums of (Q'b)^2, and Q'b is the last column of
    # R.  Q itself is never formed, and R is read in place from the upper
    # triangle of h.T (mode "r" would copy it out with triu).  b is copied
    # out of the design because a dot product over a strided view rounds
    # differently.
    design = _adf_design(y, max_lag, constant)
    b = np.ascontiguousarray(design[:, -1])
    nobs_common = b.size
    h, _ = np.linalg.qr(design, mode="raw")
    nx = h.shape[0] - 1
    diag_r = abs(np.diagonal(h)[:nx])
    if diag_r.min() <= 1e-12 * diag_r.max():
        raise ConstantSeries("unit-root regression is singular")
    qtb = h[-1, :nx]
    total = float(b @ b)
    explained = np.cumsum(qtb**2)

    best_k = 0
    best_aic = math.inf
    for k in range(0, max_lag + 1):
        p = ntrend + 1 + k
        ssr = max(total - float(explained[p - 1]), 0.0)
        if ssr <= 0.0:
            raise ConstantSeries("unit-root regression fits exactly")
        ll = -0.5 * nobs_common * (math.log(2.0 * math.pi) + math.log(ssr / nobs_common) + 1.0)
        aic = 2.0 * p - 2.0 * ll
        if aic < best_aic:
            best_aic = aic
            best_k = k

    # Refit the winner on the longest sample its lag order allows.  X must be
    # C-contiguous: on a strided view the BLAS calls below round differently
    # and move the last bits of tau.
    design = _adf_design(y, best_k, constant)
    X, b = np.ascontiguousarray(design[:, :-1]), design[:, -1]
    n_eff = b.size
    nparams = X.shape[1]
    coef, _, rank, _ = np.linalg.lstsq(X, b, rcond=None)
    if rank < nparams:
        raise ConstantSeries("unit-root regression is singular")
    resid = b - X @ coef
    ssr = float(resid @ resid)
    dof = n_eff - nparams
    if dof <= 0 or ssr <= 0.0:
        raise ConstantSeries("unit-root regression has no residual variance")
    sigma2 = ssr / dof
    xtx_inv = np.linalg.inv(X.T @ X)
    gamma_idx = ntrend
    se_gamma = math.sqrt(sigma2 * xtx_inv[gamma_idx, gamma_idx])
    tau = float(coef[gamma_idx] / se_gamma)

    return AdfResult(tau=tau, used_lags=best_k, n_eff=n_eff, n_series=1,
                     deterministic=deterministic)


def engle_granger(y, x, max_lag: int | None = None) -> AdfResult:
    """Two-step Engle-Granger cointegration test of y on x.

    Stage 1 regresses ``y = c + b*x + u`` (with constant); stage 2 runs the
    ADF test on the residuals with no deterministic term, since the constant
    already lives in stage 1.  The result is stage 2's, re-pointed at the
    two-series MacKinnon surface with a constant, ``(2, "constant")``, which
    its p-value and critical values then come from.
    """
    yv = _as_1d(y)
    xv = _as_1d(x)
    if yv.size != xv.size:
        raise LengthMismatch(f"lengths {yv.size} vs {xv.size}")
    if yv.size < 30:
        raise SeriesTooShort(f"need >= 30 observations, have {yv.size}")

    mean_x, mean_y = xv.mean(), yv.mean()
    dx = xv - mean_x
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateRegressor("regressor is constant")
    slope = float(dx @ (yv - mean_y)) / sxx
    intercept = mean_y - slope * mean_x
    resid = yv - intercept - slope * xv

    stage2 = adf_test(resid, deterministic="none", max_lag=max_lag)
    return replace(stage2, n_series=2, deterministic="constant")
