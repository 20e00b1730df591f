"""Pearson correlation and the no-intercept OLS hedge-ratio model.

The pair model regresses the target leg on the predictor leg through the
origin (no constant), so R-squared is the uncentered variant and the single
regressor makes ``F = t**2`` and the condition number exactly 1.  The report
carries every diagnostic a conventional regression summary prints: t/F tests,
log-likelihood, AIC/BIC, Durbin-Watson, Jarque-Bera, and the
D'Agostino-Pearson omnibus statistic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AllZeroResiduals,
    DegenerateRegressor,
    LengthMismatch,
    NumericError,
    SampleTooSmall,
    SeriesTooShort,
    SumOverflow,
    ZeroVariance,
)
from .marketdata import AlignedPanel, readonly_copy
from .unitroot import stage1_terms

#: Minimum sample size for the omnibus kurtosis transform to be stable.
OMNIBUS_MIN_N = 20


# Distribution tails, in closed form or from the regularized incomplete beta
# function, so that the package needs nothing beyond numpy and the standard
# library.  A report reads three: the two-sided t tail, which is also the
# upper tail of F(1, d) at t**2; the chi-square(2) tail; and the 97.5% t
# quantile of the confidence interval.  A tail below the smallest normal
# double reads 0: it would carry fewer than 53 significant bits.

_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2) = log(sqrt(pi) Gamma(a) / Gamma(a + 1/2))`` for ``a >= 1/2``.

    Each ``lgamma`` is about ``a log a`` and rounds at that size, so for
    large ``a`` the difference comes from Stirling's series instead, where
    every term is small.  Truncated after the ``x**-9`` term, the series is
    off by less than 1e-17 from ``a = 20`` on.
    """
    if a < 20.0:
        return _LOG_SQRT_PI + math.lgamma(a) - math.lgamma(a + 0.5)

    def series(x: float) -> float:  # lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2)
        r = 1.0 / (x * x)
        return (1 / 12 + r * (-1 / 360 + r * (1 / 1260 + r * (-1 / 1680 + r / 1188)))) / x

    # lgamma(a + 1/2) - lgamma(a) = log(a) / 2 + (a log(1 + 1/(2a)) - 1/2) + series terms
    return _LOG_SQRT_PI - (
        0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + series(a + 0.5) - series(a)
    )


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction ``F`` with ``I_x(a, b) = x**a y**b / (B(a, b) F)``, ``y = 1 - x``.

    Evaluated by the modified Lentz method; it converges fast for
    ``x < (a + 1) / (a + b + 2)``.  Its terms take ``y`` where the textbook
    fraction takes ``1 - x``, so a ``y`` that ``1 - x`` would round away
    (``x`` near 1, large ``a``) keeps its precision.
    """
    tiny = 1e-300
    f = a * (a * y - b * x + 1.0) / (a + 1.0) or tiny
    c, d = f, 0.0
    for m in range(1, 1000):
        k = a + 2.0 * m - 1.0
        num = (a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * x * x / (k * k)
        den = m + m * (b - m) * x / k + (a + m) * (a * y - b * x + 1.0 + m * (1.0 + y)) / (k + 2.0)
        d = 1.0 / (den + num * d or tiny)
        c = den + num / c or tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            return f
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _t_tail(t: float, df: int) -> float:
    """Two-sided Student's t tail ``P(|T| > |t|)`` with ``df`` degrees of freedom.

    This is ``I_x(df/2, 1/2)`` at ``x = df / (df + t**2)``.  Below
    ``x = (a + 1) / (a + 5/2)``, ``a = df/2``, near the mean of
    Beta(a, 1/2), it is the continued fraction itself; above, it is
    ``1 - I_y(1/2, a)`` with ``y = t**2 / (df + t**2)``.  Either way the
    fraction converges fast, and the subtraction, whose result is then at
    least about 0.08, costs at most a digit.  ``x`` and ``y`` are each
    computed directly, neither as one minus the other.
    """
    t = abs(t)
    if math.isnan(t):
        return math.nan
    if t == math.inf:
        return 0.0
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a = 0.5 * df
    if t2 < math.inf:
        x, y = df / (df + t2), t2 / (df + t2)
        log_x, log_y = -math.log1p(t2 / df), -math.log1p(df / t2)
    else:  # t**2 overflows and y rounds to 1
        log_x = math.log(df) - 2.0 * math.log(t)
        x, y, log_y = math.exp(log_x), 1.0, 0.0
    front = math.exp(a * log_x + 0.5 * log_y - _log_beta_half(a))  # x**a y**(1/2) / B
    if x < (a + 1.0) / (a + 2.5):
        p = front / _beta_fraction(a, 0.5, x, y)
        return p if p >= sys.float_info.min else 0.0
    return 1.0 - front / _beta_fraction(0.5, a, y, x)


def _t_ppf(q: float, df: int) -> float:
    """Student's t quantile, for ``min(q, 1 - q) > 1e-12``.

    Newton's method on the two-sided tail ``p = 2 min(q, 1 - q)``, solved
    for ``log t`` against ``log p``: on those scales the tail is close to a
    straight line for every df, Cauchy-like or normal-like.  It starts from
    ``sqrt(-2 log(p/2))``, the normal tail's leading-order quantile, and
    stops after the first step under 1e-12 relative, which quadratic
    convergence has already brought to rounding level.  Reports only ask
    for ``q = 0.975``.
    """
    if q == 0.5:
        return 0.0
    p = 2.0 * min(q, 1.0 - q)
    a = 0.5 * df
    t = math.sqrt(-2.0 * math.log(0.5 * p))
    for _ in range(100):
        tail = _t_tail(t, df)
        # density of |T| at t: 2 (1 + t**2/df)**-(a + 1/2) / (sqrt(df) B(a, 1/2))
        density = 2.0 * math.exp(
            -(a + 0.5) * math.log1p(t * t / df) - 0.5 * math.log(df) - _log_beta_half(a)
        )
        step = (math.log(tail) - math.log(p)) * tail / (t * density)
        t *= math.exp(step)
        if abs(step) < 1e-12:
            return t if q > 0.5 else -t
    raise ArithmeticError(f"t quantile did not converge: q={q}, df={df}")


def _chi2_2_sf(x: float) -> float:
    """Chi-square upper tail with 2 degrees of freedom, ``exp(-x/2)``."""
    p = math.exp(-0.5 * x)
    return 0.0 if p < sys.float_info.min else p


def correlation_matrix(panel: AlignedPanel) -> np.ndarray:
    """Pairwise return correlations for every ticker pair in a panel.

    The result is a read-only (n, n) array in ``panel.tickers`` order.
    Returns are simple daily returns ``p_t / p_{t-1} - 1`` of each ticker;
    the diagonal is exactly 1 and the matrix is exactly symmetric by
    construction.  Each ticker's return deviations are computed once, by
    ``stage1_terms`` as for the Engle-Granger scan, and each cell is the
    product-moment correlation of two of them, its sum of products an
    ``einsum`` over the two rows: an order fixed by their length, whichever
    other tickers the panel holds.
    """
    n = len(panel.tickers)
    if n < 2:
        raise ValueError("panel must hold at least 2 tickers")
    if len(panel.dates) < 4:
        raise SeriesTooShort("panel must span at least 4 dates (3 returns)")

    closes = panel.closes
    terms = stage1_terms(closes[:, 1:] / closes[:, :-1] - 1.0)
    for ticker, sxx in zip(panel.tickers, terms.sxx):
        if sxx == 0.0:
            raise ZeroVariance(f"returns of {ticker} have zero variance")

    devs, sxx = terms.devs, terms.sxx
    values = np.eye(n)
    for i in range(n - 1):
        r = np.einsum("t,jt->j", devs[i], devs[i + 1:]) / np.sqrt(sxx[i] * sxx[i + 1:])
        values[i, i + 1:] = values[i + 1:, i] = np.clip(r, -1.0, 1.0)
    values.setflags(write=False)
    return values


class JarqueBeraResult(NamedTuple):
    statistic: float
    p_value: float
    skew: float
    kurtosis: float


class OmnibusResult(NamedTuple):
    statistic: float
    p_value: float


def _moments(e: np.ndarray) -> tuple[float, float, float]:
    """Population variance, skewness, and raw kurtosis (normal = 3).

    Deviations are normalized by their largest magnitude before the higher
    moments: skewness and kurtosis are scale-free, and the rescaling stops
    ``m2**1.5`` underflowing to zero for tiny-valued samples.
    """
    centered = e - e.mean()
    scale = float(np.max(np.abs(centered)))
    if scale == 0.0:
        raise ZeroVariance("moments undefined for a zero-variance sample")
    unit = centered / scale  # holds an exact +-1, so m2 >= 1/n
    m2 = float(np.mean(unit**2))
    m3 = float(np.mean(unit**3))
    m4 = float(np.mean(unit**4))
    return m2 * scale**2, m3 / m2**1.5, m4 / m2**2


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> float:
    """``sum(x * y)`` in an order fixed by the length, not by the BLAS kernel."""
    return float(np.einsum("t,t->", x, y))


def durbin_watson(e) -> float:
    """Durbin-Watson statistic ``sum (e_t - e_{t-1})^2 / sum e_t^2``."""
    resid = np.asarray(e, dtype=float)
    if resid.size < 2:
        raise SeriesTooShort(f"need >= 2 residuals, have {resid.size}")
    denom = _sum_of_products(resid, resid)
    if denom == 0.0:
        raise AllZeroResiduals("Durbin-Watson undefined when all residuals are zero")
    diff = np.diff(resid)
    return _sum_of_products(diff, diff) / denom


def jarque_bera(e) -> JarqueBeraResult:
    """Jarque-Bera normality test from population skewness and kurtosis.

    ``JB = n/6 * (S^2 + (K-3)^2 / 4)`` with a chi-square(2) p-value.
    """
    resid = np.asarray(e, dtype=float)
    n = resid.size
    if n < 4:
        raise SeriesTooShort(f"need >= 4 residuals, have {n}")
    _, skew, kurt = _moments(resid)
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return JarqueBeraResult(statistic=jb, p_value=_chi2_2_sf(jb), skew=skew, kurtosis=kurt)


def _skew_z(skew: float, n: int) -> float:
    # D'Agostino (1970) normalizing transform of sample skewness.
    y = skew * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = 3.0 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3) / (
        (n - 2.0) * (n + 5) * (n + 7) * (n + 9)
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    if y == 0.0:
        y = 1.0
    return delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))


def _kurtosis_z(kurt: float, n: int) -> float:
    # Anscombe & Glynn (1983) normalizing transform of sample kurtosis.
    mean_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    x = (kurt - mean_b2) / math.sqrt(var_b2)
    sqrt_beta1 = (
        6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
        * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3)))
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1**2))
    term1 = 1.0 - 2.0 / (9.0 * a)
    denom = 1.0 + x * math.sqrt(2.0 / (a - 4.0))
    if denom == 0.0:
        return math.nan
    term2 = math.copysign(abs((1.0 - 2.0 / a) / denom) ** (1.0 / 3.0), denom)
    return (term1 - term2) / math.sqrt(2.0 / (9.0 * a))


def omnibus_k2(e) -> OmnibusResult:
    """D'Agostino-Pearson K-squared normality test.

    Combines the skewness and kurtosis z-transforms into a chi-square(2)
    statistic.  The kurtosis transform is unstable for tiny samples, so at
    least 20 observations are required.
    """
    resid = np.asarray(e, dtype=float)
    n = resid.size
    if n < OMNIBUS_MIN_N:
        raise SampleTooSmall(f"omnibus test needs >= {OMNIBUS_MIN_N} observations, have {n}")
    _, skew, kurt = _moments(resid)
    z1 = _skew_z(skew, n)
    z2 = _kurtosis_z(kurt, n)
    k2 = z1**2 + z2**2
    return OmnibusResult(statistic=k2, p_value=_chi2_2_sf(k2))


@dataclass(frozen=True, eq=False)
class OlsOriginReport:
    """Fit report of the no-intercept regression ``y = beta * x + e``.

    Diagnostic fields that are undefined for a degenerate fit (all-zero
    residuals, or too few observations for the omnibus transform) are NaN.
    ``residuals`` is a read-only array, so reports compare by identity.
    """

    hedge_ratio: float
    se_beta: float
    t_stat: float
    p_t: float
    f_stat: float
    p_f: float
    r2_uncentered: float
    adj_r2_uncentered: float
    log_likelihood: float
    aic: float
    bic: float
    durbin_watson: float
    jarque_bera: float
    p_jb: float
    skew: float
    kurtosis: float
    omnibus_k2: float
    p_omnibus: float
    cond_no: float
    n_obs: int
    residuals: np.ndarray

    def to_text(self, dep_name: str = "asset2", regressor_name: str = "asset1") -> str:
        """Plain-text summary block in conventional regression-table layout."""
        def fmt(v: float, spec: str = "%.3f") -> str:
            if not math.isfinite(v):
                return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
            return spec % v

        df_resid = self.n_obs - 1
        if math.isfinite(self.t_stat):
            half = _t_ppf(0.975, df_resid) * self.se_beta
            ci_low, ci_high = self.hedge_ratio - half, self.hedge_ratio + half
        else:
            ci_low = ci_high = self.hedge_ratio
        left = [
            ("Dep. Variable:", dep_name),
            ("Model:", "OLS"),
            ("Method:", "Least Squares"),
            ("No. Observations:", str(self.n_obs)),
            ("Df Residuals:", str(df_resid)),
            ("Df Model:", "1"),
            ("Covariance Type:", "nonrobust"),
        ]
        right = [
            ("R-squared (uncentered):", fmt(self.r2_uncentered)),
            ("Adj. R-squared (uncentered):", fmt(self.adj_r2_uncentered)),
            ("F-statistic:", fmt(self.f_stat, "%.4g")),
            ("Prob (F-statistic):", fmt(self.p_f, "%.3g")),
            ("Log-Likelihood:", fmt(self.log_likelihood, "%.1f")),
            ("AIC:", fmt(self.aic, "%.4g")),
            ("BIC:", fmt(self.bic, "%.4g")),
        ]

        def rows(left, right) -> list[str]:
            # Two columns of right-aligned values, 37 and 39 characters wide.
            return [f"{lname} {lval:>{36 - len(lname)}}  {rname} {rval:>{38 - len(rname)}}"
                    for (lname, lval), (rname, rval) in zip(left, right, strict=True)]

        width = 78
        lines = ["OLS Regression Results (no intercept)".center(width), "=" * width]
        lines.extend(rows(left, right))
        lines.append("=" * width)
        lines.append(
            f"{'':>12} {'coef':>10} {'std err':>10} {'t':>10} {'P>|t|':>10}"
            f" {'[0.025':>10} {'0.975]':>10}"
        )
        lines.append("-" * width)
        lines.append(
            f"{regressor_name:>12} {fmt(self.hedge_ratio, '%.4f'):>10}"
            f" {fmt(self.se_beta, '%.4f'):>10} {fmt(self.t_stat, '%.3f'):>10}"
            f" {fmt(self.p_t, '%.3f'):>10} {fmt(ci_low, '%.4f'):>10} {fmt(ci_high, '%.4f'):>10}"
        )
        lines.append("=" * width)
        tail_left = [
            ("Omnibus:", fmt(self.omnibus_k2)),
            ("Prob(Omnibus):", fmt(self.p_omnibus)),
            ("Skew:", fmt(self.skew)),
            ("Kurtosis:", fmt(self.kurtosis)),
        ]
        tail_right = [
            ("Durbin-Watson:", fmt(self.durbin_watson)),
            ("Jarque-Bera (JB):", fmt(self.jarque_bera)),
            ("Prob(JB):", fmt(self.p_jb, "%.3g")),
            ("Cond. No.", fmt(self.cond_no, "%.2f")),
        ]
        lines.extend(rows(tail_left, tail_right))
        lines.append("=" * width)
        lines.append("Notes:")
        lines.append("[1] R-squared is uncentered because the model has no constant.")
        return "\n".join(lines) + "\n"


def ols_through_origin(x, y) -> OlsOriginReport:
    """Fit ``y = beta * x`` by least squares with the full diagnostic suite.

    ``beta = sum(x*y) / sum(x**2)`` with one estimated coefficient, so the
    residual degrees of freedom are ``n - 1``.  The log-likelihood is the
    Gaussian MLE value (variance ``sum(e**2)/n``); AIC/BIC use ``k = 1``.

    Sums too large for a double raise ``SumOverflow``.  Residuals not all
    exactly 0 whose standard error underflows to 0 (both series near
    1e-162, or y near 1e-300 and x near 100: the residuals' squares are
    subnormal or 0) raise ``NumericError``, where ``t = beta / se`` would
    divide by 0.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape:
        raise LengthMismatch(f"lengths {xv.size} vs {yv.size}")
    n = int(xv.size)
    if n < 2:
        raise SeriesTooShort(f"need >= 2 observations, have {n}")
    # Sums too large for a double are refused below, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sxx = _sum_of_products(xv, xv)
        sxy = _sum_of_products(xv, yv)
        syy = _sum_of_products(yv, yv)
        if sxx == 0.0:
            raise DegenerateRegressor("regressor's sum of squares is zero")
        beta = sxy / sxx
        resid = yv - beta * xv
        ssr = _sum_of_products(resid, resid)
    if not all(map(math.isfinite, (sxx, sxy, syy, ssr))):
        raise SumOverflow("sums of squares overflow: values too large")
    df_resid = n - 1

    if resid.any():
        se = math.sqrt((ssr / df_resid) / sxx)
        if se == 0.0:
            raise NumericError("standard error underflows: values too small")
        t_stat = beta / se
        p_t = _t_tail(t_stat, df_resid)
        f_stat = t_stat**2
        p_f = p_t  # F(1, d)'s upper tail at t**2 is the two-sided t tail
        sigma2 = ssr / n
        loglik = -0.5 * n * (math.log(2.0 * math.pi) + math.log(sigma2) + 1.0)
        dw = durbin_watson(resid)
        try:
            jb = jarque_bera(resid)
            jb_stat, p_jb, skew, kurt = jb
        except (ZeroVariance, SeriesTooShort):
            jb_stat = p_jb = skew = kurt = math.nan
        try:
            omni = omnibus_k2(resid)
            omni_stat, p_omni = omni.statistic, omni.p_value
        except (ZeroVariance, SampleTooSmall):
            omni_stat = p_omni = math.nan
    else:
        # Exact fit: t and F diverge, residual diagnostics are undefined.
        se = 0.0
        t_stat = math.copysign(math.inf, beta) if beta != 0.0 else math.nan
        p_t = 0.0 if beta != 0.0 else math.nan
        f_stat = math.inf if beta != 0.0 else math.nan
        p_f = p_t
        loglik = math.inf
        dw = jb_stat = p_jb = skew = kurt = omni_stat = p_omni = math.nan

    r2 = 1.0 - ssr / syy if syy > 0.0 else math.nan
    adj_r2 = 1.0 - (1.0 - r2) * n / df_resid if syy > 0.0 else math.nan

    return OlsOriginReport(
        hedge_ratio=beta,
        se_beta=se,
        t_stat=t_stat,
        p_t=p_t,
        f_stat=f_stat,
        p_f=p_f,
        r2_uncentered=r2,
        adj_r2_uncentered=adj_r2,
        log_likelihood=loglik,
        aic=2.0 - 2.0 * loglik,
        bic=math.log(n) - 2.0 * loglik,
        durbin_watson=dw,
        jarque_bera=jb_stat,
        p_jb=p_jb,
        skew=skew,
        kurtosis=kurt,
        omnibus_k2=omni_stat,
        p_omnibus=p_omni,
        cond_no=1.0,
        n_obs=n,
        residuals=readonly_copy(resid),
    )
