"""Augmented Dickey-Fuller and Engle-Granger tests with MacKinnon surfaces.

The ADF regression is

    dy_t = [alpha] + gamma * y_{t-1} + sum_{i=1..k} delta_i * dy_{t-i} + eps_t

with the lag order k chosen by AIC over a common truncated sample (all
candidate regressions see the observations available at ``max_lag``, so their
AICs are comparable), followed by a refit at the chosen k on the longest
sample that lag permits.  The unit-root null is rejected when the t-ratio on
the lagged level is below (more negative than) the critical value.

The lag search scores every nested candidate from one upper-triangular
factor of the widest design with the dependent column appended, ``[X |
dy]``: its last column holds ``Q'dy``.  The lag and the search's faults are
those of a Householder QR in numpy's own arithmetic
(``_householder_lag_search``), the same on every BLAS kernel.  Most rows
skip it: the Gram search (``_gram_lag_search``) factors the Gram matrix
``D'D`` by Cholesky, and keeps its choice only when a rounding-error bound
proves the Householder search would make it and raise no fault.  It forms
that matrix from lagged sums of the row's differences
(``_lag_grams``) and never builds the design, which only the rows it
cannot decide get.  Its LAPACK calls are a test's only ones, and they only
prove a lag.

Every number a test reports comes from the refit at the chosen lag, on the
longest sample that lag permits, in numpy's own elementwise operations and
``einsum`` reductions, which add in an order fixed by the data's shape and
not by the BLAS kernel of the host (``_refit_taus``).  The refit runs once
per lag over all the rows that chose it.  It orders the level ``y_{t-1}``
last among the regressors, so tau is read off the last two rows of a
triangular factor of ``[X | dy]``: the Cholesky factor of its Gram matrix
where the columns are far enough from collinear for that to be as accurate
(``_gram_factor``), elsewhere the Householder factor the search uses
(``_householder_factor``), and at lag 0 without a constant a closed form.
A refit never depends on which search chose the lag.  One builder,
``_adf_designs``, fills the Householder search's stacks and the refit's.

Every test takes each series at unit scale (``unit_rows``), so a series
and its power-of-two multiples get the same lags, taus and faults, and no
sum overflows.

Every ADF test runs as a row of one stack (``_adf_stack``): the rows go
to the Gram search in chunks of ``_search_rows``, the rows it cannot decide
go on, in design stacks of ``block_rows``, to the Householder search, and
the rows are then refit grouped by their lag.  ``adf_test`` runs a stack of
one; ``engle_granger_block`` tests a block of pairs of one panel at once,
with each series' stage-1 terms (``Stage1Terms``) computed once and the
block's residuals built as one array.  Every number it reports is the one
the pair's own ``engle_granger`` gives, bit for bit, since no row's
arithmetic depends on the other rows.

From the lag search to the scan, a stack's outcome is three columns: each
row's used lag, tau and fault code (``FAULTS``; ``_faults`` is the one rule
of both searches and the refit).  Only ``adf_test`` and ``engle_granger``
make an ``AdfResult`` or raise a row's fault (``_one_result``).

Critical values and approximate p-values come from MacKinnon's published
response surfaces, held as module constants (``CRIT``, ``PVAL_SMALL``,
``PVAL_LARGE``, ``BOUNDS``).  An ``AdfResult`` evaluates its surface only
when its critical values or p-value are first read; the sector scan reads
a block's p-values off its taus (``engle_granger_pvalues``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    ConstantSeries,
    DegenerateRegressor,
    ExactlyConstant,
    LengthMismatch,
    PairTraderError,
    SeriesTooShort,
    UnknownSurface,
)

LEVELS = ("1%", "5%", "10%")

#: The fewest observations an Engle-Granger test takes.
EG_MIN_N = 30

_DETERMINISTICS = ("none", "constant")

#: Each fault code's exception and message; code 0 is no fault.
FAULTS = (None, (ConstantSeries, "unit-root regression is singular"),
          (ConstantSeries, "unit-root regression fits exactly"),
          (ExactlyConstant, "series is constant"), (DegenerateRegressor, "regressor is constant"))
SINGULAR, FITS_EXACTLY, CONSTANT, DEGENERATE = range(1, len(FAULTS))


def fault(code: int, prefix: str = "") -> PairTraderError:
    """The exception of fault ``code``, its message after ``prefix``."""
    kind, message = FAULTS[code]
    return kind(prefix + message)


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
    above it.  A NaN statistic has a NaN p-value, which no threshold admits.
    """
    _check_deterministic(deterministic)
    key = (n_series, deterministic)
    try:
        tau_min, tau_star, tau_max = BOUNDS[key]
    except KeyError:
        raise UnknownSurface(
            f"no p-value surface for (n_series={n_series}, {deterministic!r})"
        ) from None
    if math.isnan(tau):
        return math.nan
    if tau > tau_max:
        return 1.0
    if tau < tau_min:
        return 0.0
    coeffs = PVAL_SMALL[key] if tau <= tau_star else PVAL_LARGE[key]
    poly = 0.0
    for c in reversed(coeffs):
        poly = poly * tau + c
    return min(1.0, max(0.0, _norm_cdf(poly)))


def engle_granger_pvalues(taus: np.ndarray) -> np.ndarray:
    """The p-value of each Engle-Granger tau of ``taus``, on the ``(2, "constant")`` surface."""
    return np.array([mackinnon_pvalue(tau, 2, "constant") for tau in taus.tolist()])


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


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` times the power of two that puts its largest magnitude in [0.5, 1).

    That changes no bit of a value that stays normal (Higham, 2nd ed., Sec.
    2.1) and bounds a test's sums by its length.  A row of zeros stays.
    """
    return np.ldexp(rows, -np.frexp(abs(rows).max(axis=-1, keepdims=True, initial=0.0))[1])


def _as_1d(series) -> np.ndarray:
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.isfinite(values).all():
        raise ValueError("series must be finite")
    return unit_rows(values)


def _adf_designs(ys: np.ndarray, lag: int, constant: bool, level_last: bool = False
                 ) -> np.ndarray:
    """The ADF designs of the rows of ``ys``, one ``(c, m)`` slab per row.

    Slab b holds, as rows, the columns [const?, y_{t-1}, dy_{t-1}, ...,
    dy_{t-lag}, dy_t] of ``ys[b]``'s regression over t = lag+2 .. n: the
    regressors first and the dependent ``dy_t`` last.  So ``designs[b].T``
    is that design in column-major order, and each lag column of the whole
    stack is filled by one slice copy of the differences.  With
    ``level_last`` the level ``y_{t-1}`` comes after the lags instead, just
    before ``dy_t``, as the refit takes it.  A 1-D ``ys`` is one series.
    """
    dys = ys[..., 1:] - ys[..., :-1]
    m = dys.shape[-1]
    ntrend = 1 if constant else 0
    out = np.empty(ys.shape[:-1] + (ntrend + lag + 2, m - lag))
    if constant:
        out[..., 0, :] = 1.0
    first_lag = ntrend if level_last else ntrend + 1
    out[..., ntrend + lag if level_last else ntrend, :] = ys[..., lag:-1]
    for i in range(1, lag + 1):
        out[..., first_lag + i - 1, :] = dys[..., lag - i : m - i]
    out[..., -1, :] = dys[..., lag:]
    return out


#: A regression is singular when its smallest pivot is at most
#: ``_SINGULAR_RATIO`` of its largest.  The Gram search defers to the
#: Householder search when a pivot of its Cholesky factor is at most
#: ``_GRAM_MIN_PIVOT`` of its column's norm (the sine of the angle between
#: that column and the span of the ones before it), or at most
#: ``_GRAM_MIN_PIVOT_SPREAD`` of the largest pivot, when the SSR at
#: ``max_lag`` is at most ``_GRAM_MIN_SSR`` of ``dy'dy`` or 4 times ``_TINY``,
#: or when its error bound does not separate the best AIC from the others.
#: ``_TINY`` floors the SSR there and in "fits exactly": at ``unit_rows``'
#: scale, values that span more than about 2^1000, or a sample without the
#: row's largest value, can still give subnormal sums.
_GRAM_MIN_PIVOT = 1e-6
_SINGULAR_RATIO = 1e-12
_GRAM_MIN_PIVOT_SPREAD = 100.0 * _SINGULAR_RATIO
_GRAM_MIN_SSR = 1e-8
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _aic(ssr: np.ndarray, ntrend: int, nobs: int) -> np.ndarray:
    """AIC ``2p + m log(SSR_k / m)``, p = ntrend+1+k, of each row's SSR_k, for both searches."""
    return 2.0 * np.arange(ntrend + 1, ntrend + 1 + ssr.shape[1]) + nobs * np.log(ssr / nobs)


def _lag_grams(ys: np.ndarray, lag: int, constant: bool) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix ``D'D`` of each row's ``_adf_designs`` at ``lag``, and its ``rho^2``.

    No design is built.  With w = dy the row's differences, M of them, and
    m = M - lag observations, the lag columns dy_{t-j} (j = 0..lag, the
    dependent dy_t being j = 0) are windows of w, so their block is
    Toeplitz up to its edge terms: the sums ``w_t w_{t-d}`` over the sample
    (one ``einsum`` over views of w) give its first row, and each step down
    a diagonal adds the product entering the sample at its start and drops
    the one leaving it at its end.  The level and constant columns are
    summed against every column directly.  ``rho^2`` is ``w'w`` over the smallest
    squared norm of a lag column, at least 1: ``_gram_lag_search`` bounds
    the rounding of the lag block by it.
    """
    dys = ys[:, 1:] - ys[:, :-1]
    nrow, ndiff = dys.shape
    ntrend = int(constant)
    ncol = ntrend + lag + 2
    # lagged[:, j] is the column dy_{t-j}, a view of dys.
    lagged = np.lib.stride_tricks.sliding_window_view(dys, ndiff - lag, axis=1)[:, ::-1]
    level = ys[:, lag:-1]
    # The design position of dy_{t-j}: the dependent last, the lags after the level.
    at = np.array([ncol - 1, *range(ntrend + 1, ntrend + lag + 1)])

    block = np.empty((nrow, lag + 1, lag + 1))
    block[:, 0] = np.einsum("gm,gjm->gj", lagged[:, 0], lagged)
    head, tail = dys[:, :lag][:, ::-1], dys[:, ndiff - lag:][:, ::-1]
    steps = (head[:, :, np.newaxis] * head[:, np.newaxis, :]
             - tail[:, :, np.newaxis] * tail[:, np.newaxis, :])
    for k in range(1, lag + 1):
        block[:, k, k:] = block[:, k - 1, k - 1:lag] + steps[:, k - 1, k - 1:]
    upper = np.triu_indices(lag + 1, 1)
    block[:, upper[1], upper[0]] = block[:, upper[0], upper[1]]

    grams = np.empty((nrow, ncol, ncol))
    grams[:, at[:, np.newaxis], at] = block
    grams[:, ntrend, ntrend] = np.einsum("gm,gm->g", level, level)
    grams[:, ntrend, at] = grams[:, at, ntrend] = np.einsum("gm,gjm->gj", level, lagged)
    if constant:
        grams[:, 0, 0] = ndiff - lag
        grams[:, 0, 1] = grams[:, 1, 0] = level.sum(axis=1)
        grams[:, 0, at] = grams[:, at, 0] = lagged.sum(axis=2)
    norms2 = np.diagonal(block, axis1=1, axis2=2)
    rho2 = np.maximum(np.einsum("gm,gm->g", dys, dys) / norms2.min(axis=1), 1.0)
    return grams, rho2


def _gram_lag_search(ys: np.ndarray, max_lag: int, constant: bool) -> np.ndarray:
    """The AIC lag order of each row of ``ys``, from Cholesky factors of Gram matrices.

    For each row, returns the k that ``_householder_lag_search`` would
    return on its ``_adf_designs`` at ``max_lag``, or -1 when this search
    cannot prove it does: the Cholesky factorisation of any Gram matrix of
    the stack fails (then every row gets -1), a pivot or the smallest SSR
    is tiny (where the Householder search may raise instead), or the AIC
    gap between the best lag and the runner-up is within the error bound
    below.  The Gram matrices come from lagged sums (``_lag_grams``), and
    the factorisations are one LAPACK call.

    The bound, to first order in eps = 2^-52.  Take m rows, c columns, L =
    ``max_lag``, column norms s, G = D'D = LL', its correlation matrix C =
    S^-1 G S^-1 and kappa = tr(C^-1) >= 1 / lambda_min(C).  A candidate with
    coefficients beta has v = [-beta; 1] and SSR_k = v'Gv >= SSR_min, so
    (sum |v_i| s_i)^2 <= c ||Sv||^2 <= c kappa SSR_k.  kappa is
    ||L_c^-1||_F^2 for L_c = S^-1 L = P (I + M), P = diag(L_ii / s_i) and M
    strictly lower with ||M||_F^2 = f^2 = sum_i (s_i^2 / L_ii^2 - 1), as
    L's rows have norms s_i.  When f < 1 the Neumann series of (I + M)^-1
    gives kappa <= (sqrt(c) + f / (1 - f))^2 max_i s_i^2 / L_ii^2, which
    stands for kappa unless it fails the test below; then kappa is computed
    from L^-1.  Then:

    * forming G (Higham, *Accuracy and Stability of Numerical Algorithms*,
      2nd ed., Sec. 3.1 and 4.2: a sum of N rounded products, added in any
      order, is within gamma_N of the sum of their magnitudes) misses it by
      E0.  An entry of two lag columns is its diagonal's first sum of m
      products plus at most 2L edge products, one sum of N <= m + 2L terms,
      each a product w_s w_{s-d} of the differences w.  The first sum and
      the entering products run over distinct s, as do the leaving ones,
      so by Cauchy-Schwarz their magnitudes add to at most 2 w'w, and
      |E0_kl| <= 2 (m + 2L + 1) eps w'w <= 2 (m + 2L + 1) rho^2 eps s_k s_l
      for rho^2 = w'w / min_k s_k^2 over the lag columns.  An entry of the
      level or the constant is a direct sum of m products, |E0_ij| <= m eps
      s_i s_j, within the same bound as rho >= 1;
    * factoring G (Thm 10.3) makes L the exact factor of G + E0 + E1 with
      |E1_ij| <= (c + 1) eps s_i s_j.  So with K = 2 (m + 2L + 1) rho^2 +
      c + 1, |E_ij| <= K eps s_i s_j for E = E0 + E1, which moves SSR_k by
      |v'Ev| <= K eps c kappa SSR_k;
    * Householder QR (Thm 19.4, its constant taken as 4, in any order of
      sums) is exact for D + dD with ||dd_j|| <= 2mc eps ||d_j||, which
      moves the residual sum of squares by 4mc eps sqrt(c kappa) SSR_k;
    * b'b less a prefix sum of squares, this search's SSR_k, rounds by
      (m + 2c + 2) eps b'b; the Householder search's sum of at most m
      squares by (m + 1) eps SSR_k.

    K exceeds m + c + 1, so each search's SSR_k is within delta = 4 eps K c
    (kappa + sqrt(c kappa) + 2 b'b / SSR_min) of the exact SSR_k, relative,
    the two errors summed.  With delta < 1/2, the searches' AICs for one k
    differ by at most e = 2m delta, plus at most 8 eps m (|log(SSR_k / m)|
    + 4) from evaluating them.  A Gram choice that beats every other lag by
    more than 2e is the Householder choice, and the exact-arithmetic one
    too.  The Householder search raises no fault on it: each pivot is
    within a factor of 2 of L_ii (L_ii^2 is the SSR of column i on the
    columns before it, held by the same bound), so above 25 times
    ``_SINGULAR_RATIO`` of the largest; each SSR_k is within a factor 3 of
    this search's, clear of the "fits exactly" bound.  At ``unit_rows``'
    scale no check depends on a series' unit, a constant's pivot spread
    included.
    """
    ntrend = int(constant)
    nobs = ys.shape[1] - 1 - max_lag
    # Each check is written to fail on NaN and infinity, which leaves the
    # decision to the Householder search; the warnings of the rows that
    # fail them are moot.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        grams, rho2 = _lag_grams(ys, max_lag, constant)
        nblock, ncol, _ = grams.shape
        nx = ncol - 1
        try:
            chols = np.linalg.cholesky(grams)
        except np.linalg.LinAlgError:
            # A NaN factor fails every check below, so one row that fails
            # the factorisation sends the whole stack to the Householder
            # search.
            chols = np.full_like(grams, math.nan)
        norms2 = np.diagonal(grams, axis1=1, axis2=2)
        diag = np.diagonal(chols, axis1=1, axis2=2)
        pivots = diag[:, :nx]
        total = grams[:, -1, -1]
        ssr = total[:, None] - np.cumsum(chols[:, -1, :nx] ** 2, axis=1)[:, ntrend:]
        ssr_min = ssr.min(axis=1)
        usable = ((pivots * pivots > _GRAM_MIN_PIVOT**2 * norms2[:, :nx]).all(axis=1)
                  & (pivots.min(axis=1) > _GRAM_MIN_PIVOT_SPREAD * pivots.max(axis=1))
                  & (ssr_min > np.maximum(_GRAM_MIN_SSR * total, 4.0 * _TINY)))
        aic = _aic(ssr, ntrend, nobs)
        best = aic.argmin(axis=1)
        if aic.shape[1] > 1:
            gap = np.partition(aic, 1, axis=1)[:, 1] - aic[np.arange(nblock), best]
        else:
            gap = np.full(nblock, math.inf)
        # ssr_min <= SSR_k <= total bounds every |log(SSR_k / m)|.
        log_range = np.maximum(abs(np.log(ssr_min / nobs)), abs(np.log(total / nobs)))
        slack = 2.0 * total / ssr_min
        noise = 8.0 * _EPS * nobs * (log_range + 4.0)
        formation = 2.0 * (nobs + 2 * max_lag + 1) * rho2 + ncol + 1

        def separated(kappa: np.ndarray) -> np.ndarray:
            delta = 4.0 * _EPS * formation * ncol * (kappa + np.sqrt(ncol * kappa) + slack)
            return usable & (delta < 0.5) & (gap > 2.0 * (2.0 * nobs * delta + noise))

        # kappa from the pivots alone, when the columns are near orthogonal as
        # in most of a sector scan's residual designs; from L^-1, which costs
        # more than the rest of these checks together, only for the rows
        # where that bound is not enough.
        cot2 = norms2 / (diag * diag)
        f = np.sqrt(np.maximum(cot2.sum(axis=1) - ncol, 0.0))
        proven = (f < 1.0) & separated((math.sqrt(ncol) + f / (1.0 - f)) ** 2 * cot2.max(axis=1))
        rest = np.flatnonzero(usable & ~proven)
        if rest.size:
            kappa = np.full(nblock, math.inf)
            try:
                scaled_inv = np.linalg.inv(chols[rest]) * np.sqrt(norms2[rest])[:, np.newaxis]
                kappa[rest] = np.sum(scaled_inv * scaled_inv, axis=(1, 2))
            except np.linalg.LinAlgError:
                pass
            proven |= separated(kappa)
    return np.where(proven, best, -1)


def _householder_factor(designs: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(pivots, rb, ssr, total)`` of each slab's ``[X | b]``, by Householder reflections.

    For R the factor with a positive diagonal: its diagonal and its last
    column over X, ``R[-1, -1]^2``, the SSR of b on X, and ``b'b``, summed
    before the reflections.  One reflection per regressor, each applied to
    every slab at once; the slabs are overwritten.
    """
    nrow, ncol, _ = designs.shape
    total = np.einsum("gm,gm->g", designs[:, -1], designs[:, -1])
    pivots = np.empty((nrow, ncol - 1))
    signs = np.empty((nrow, ncol - 1))
    for j in range(ncol - 1):
        # Reflect column j's entries j.. onto R[j, j] e_1, turning them into
        # the Householder vector v; each later column c becomes
        # c - v (v'c) / (|x| (|x| + |x_0|)).
        v = designs[:, j, j:]
        norm = np.sqrt(np.einsum("gm,gm->g", v, v))
        head = v[:, 0].copy()
        r_jj = np.where(head < 0.0, norm, -norm)
        v[:, 0] = head - r_jj
        pivots[:, j] = norm
        signs[:, j] = np.sign(r_jj)
        rest = designs[:, j + 1:, j:]
        scale = np.einsum("gm,gkm->gk", v, rest) / (norm * (norm + abs(head)))[:, np.newaxis]
        rest -= scale[:, :, np.newaxis] * v[:, np.newaxis, :]
    tail = designs[:, -1, ncol - 1:]
    return pivots, signs * designs[:, -1, :ncol - 1], np.einsum("gm,gm->g", tail, tail), total


def _faults(pivots: np.ndarray, total: np.ndarray, ssr: np.ndarray) -> np.ndarray:
    """The fault code of each row's ADF regression of b on X, 0 for none.

    In this order, on each row's pivots (R's diagonal over X), ``total``
    (b'b) and ``ssr``: ``SINGULAR`` where the smallest pivot is at most
    ``_SINGULAR_RATIO`` of the largest; ``FITS_EXACTLY`` where ``ssr`` is at
    most ``_SINGULAR_RATIO`` squared of b'b or below ``_TINY``, the smallest
    normal double, where its precision is lost.  NaN fails both rules.
    """
    singular = ~(pivots.min(axis=1) > _SINGULAR_RATIO * pivots.max(axis=1))
    exact = ~(ssr > np.maximum(_SINGULAR_RATIO**2 * total, _TINY))
    return np.where(singular, SINGULAR, np.where(exact, FITS_EXACTLY, 0))


def _householder_lag_search(designs: np.ndarray, ntrend: int) -> tuple[np.ndarray, np.ndarray]:
    """The AIC lag order and the fault code of each design of a stack, by Householder QR.

    ``designs`` is a ``(B, c, m)`` stack from ``_adf_designs`` at
    ``max_lag``: slab b transposed is ``[X | b]``, its dependent column
    last.  It is overwritten.  The candidate with k lags has p = ntrend+1+k
    regressors, SSR_k the factor's tail sum of squares plus R's last column
    squared from row p on, with no cancellation, and AIC by ``_aic``; ties
    go to the smaller k.  The faults are ``_faults``' on the widest
    design's pivots and the smallest SSR_k.
    """
    nobs = designs.shape[2]
    # NaN and infinity from the faulty designs are set aside below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pivots, rb, tail, total = _householder_factor(designs)
        ssr = np.cumsum(np.column_stack([tail, rb[:, :ntrend:-1] ** 2]), axis=1)[:, ::-1]
        aic = _aic(ssr, ntrend, nobs)
    return aic.argmin(axis=1), _faults(pivots, total, ssr.min(axis=1))


def _lag_bound(n: int, max_lag: int | None, ntrend: int) -> int:
    """``max_lag``, or the default for ``n`` observations, checked against ``n``."""
    if max_lag is None:
        max_lag = default_max_lag(n)
        if n < 10 + max_lag:
            raise SeriesTooShort(f"need >= {10 + max_lag} observations, have {n}")
    elif max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    elif n - 1 - max_lag < ntrend + 2 + max_lag:
        raise SeriesTooShort(f"{n} observations leave no degrees of freedom at max_lag={max_lag}")
    return max_lag


#: The memory budget of a stack of ADF tests (``block_rows``).
_DESIGN_BYTES = 2 * 1024 * 1024


def block_rows(n: int, lag: int = 0, constant: bool = False) -> int:
    """Rows of n observations whose ``_adf_designs`` at ``lag`` fit in ``_DESIGN_BYTES``.

    At least one.  ``_adf_stack`` builds its designs in chunks of this many
    rows: 17 Engle-Granger residuals of 750 dates at ``max_lag``, for the
    rows the Gram search leaves to the Householder search, and as many rows
    as fit at each refit's lag.  Called with
    n alone, it is the number of pairs of n dates an ``engle_granger_block``
    call should test at once: those whose lag-0 design ``[y_{t-1} | dy_t]``
    fits, 174 pairs of 750 dates, 34 of 3,750.  That is the most common
    refit, and it runs over the whole block at once; the block's residuals
    take half as many bytes, and its wider designs are built in chunks of
    the same budget.  Blocks must be large for the refit's grouping by lag
    to pay, and bounded, since a design of a scan worker's whole span of
    pairs would grow it by tens of MB.
    """
    return max(1, _DESIGN_BYTES // (8 * (int(constant) + lag + 2) * max(n - 1 - lag, 0)))


def _search_rows(lag: int, constant: bool) -> int:
    """Rows whose Gram search at ``lag`` adds at most ``_DESIGN_BYTES`` to their differences.

    At least one.  Beyond its differences, a row of the search holds some
    three arrays of c^2 doubles, c = ``constant + lag + 2``: its Gram
    matrix, its Cholesky factor and the lag block's edge products.  That
    is 90 rows at lag 29 and 198 at lag 19, more than an
    ``engle_granger_block`` call should take at once of a scan's 3,750 or
    750 dates, so a block's search is one call.
    """
    ncol = int(constant) + lag + 2
    return max(1, _DESIGN_BYTES // (8 * 3 * ncol * ncol))


#: A refit takes its triangular factor from the Gram matrix only where each
#: column of ``[X | dy]`` keeps more than this share of its norm off the span
#: of the columns before it (the sine of ``_gram_lag_search``'s pivot checks,
#: which there bound the search's rounding error), and where the pivots
#: spread no more than the Gram search allows; elsewhere from Householder
#: reflections.  A Gram factor's pivots and SSR then lose at most about
#: ``sqrt(m) eps / sine^2`` relative to a Householder one's: 6e-11 at 750
#: observations.  The Gram factor is there for speed alone.  On perfbench's
#: workloads (seeds 1-3) it takes every refit row the lag-0 closed form does
#: not: 28-37% of a wide scan's rows and all of ``analyze``'s; Householder
#: takes none.  With Householder for every row, a serial scan of
#: ``sector_scan_wide`` seed 1 took 0.54-0.60 s against 0.40-0.44 s on a
#: 2-vCPU x86-64 host.
_GRAM_REFIT_MIN_SINE = 1e-2


def _gram_factor(designs: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(pivots, cross, ssr, total, trusted)`` of each slab's ``[X | dy]``, from Cholesky.

    ``pivots`` are the diagonal of R over X, ``cross`` is ``R[p-1, p]``
    with R's diagonal positive, ``ssr`` is ``R[p, p]^2`` and ``total`` is
    ``dy'dy``, the Gram matrix's last diagonal entry.  The Gram
    matrix is one ``einsum``, and each step of its outer-product Cholesky
    factorisation runs over all slabs at once, leaving the SSR as the last
    Schur complement.  ``trusted`` marks the slabs that pass the
    ``_GRAM_REFIT_MIN_SINE`` and pivot-spread checks.
    """
    grams = np.einsum("gim,gjm->gij", designs, designs)
    norms2 = np.diagonal(grams, axis1=1, axis2=2).copy()
    nx = grams.shape[1] - 1
    pivots = np.empty((grams.shape[0], nx))
    for j in range(nx):
        pivots[:, j] = np.sqrt(grams[:, j, j])
        column = grams[:, j + 1:, j] / pivots[:, j, np.newaxis]
        grams[:, j + 1:, j + 1:] -= column[:, :, np.newaxis] * column[:, np.newaxis, :]
    ssr = grams[:, nx, nx]
    trusted = ((pivots * pivots > _GRAM_REFIT_MIN_SINE**2 * norms2[:, :nx]).all(axis=1)
               & (ssr > _GRAM_REFIT_MIN_SINE**2 * norms2[:, nx])
               & (pivots.min(axis=1) > _GRAM_MIN_PIVOT_SPREAD * pivots.max(axis=1)))
    return pivots, column[:, -1], ssr, norms2[:, nx], trusted


def _refit_taus(ys: np.ndarray, lag: int, constant: bool) -> tuple[np.ndarray, np.ndarray]:
    """tau and the fault code of the ADF regression of each row of ``ys`` at ``lag``.

    Each row is refit on its longest sample, ``n - lag - 1`` observations,
    with the level ``y_{t-1}`` last among the regressors.  tau is then read
    off the last two rows of an upper-triangular factor R of ``[X | dy]``:
    the level's coefficient is ``R[p-1, p] / R[p-1, p-1]``, its standard
    error ``sqrt(SSR / dof) / R[p-1, p-1]`` and SSR ``R[p, p]^2``, so
    ``tau = R[p-1, p] / sqrt(SSR / dof)`` for R with a positive diagonal.  R
    comes from the Cholesky factor of the Gram matrix where that is as
    accurate (``_GRAM_REFIT_MIN_SINE``), and otherwise from the Householder
    factor the lag search uses.  At lag 0 without a constant the level is
    the only regressor, and the closed form ``g = sum(y dy) / sum(y^2)``
    takes its place, with SSR summed from the residuals ``dy - g y`` rather
    than from the cancelling ``sum(dy^2) - g sum(y dy)``.

    Every sum is an ``einsum`` over one row, so that a row's tau does not
    depend on the other rows nor on the BLAS kernel.  A row's faults are
    ``_faults``' on its pivots, SSR and ``dy'dy``: the closed form's
    ``sum(dy^2)``, the Gram diagonal or the Householder factor's ``b'b``.
    A row the Gram factor keeps passes both ratio rules.
    """
    # dof >= 1: ``_lag_bound`` leaves the widest candidate at least one
    # residual degree of freedom, and a narrower one on a longer sample more.
    dof = (ys.shape[1] - 1 - lag) - (int(constant) + lag + 1)
    # NaN and infinity from the faulty rows are set aside below.
    with np.errstate(divide="ignore", invalid="ignore"):
        if lag == 0 and not constant:
            level, resid = ys[:, :-1], ys[:, 1:] - ys[:, :-1]
            syy = np.einsum("gm,gm->g", level, level)
            total = np.einsum("gm,gm->g", resid, resid)
            gamma = np.einsum("gm,gm->g", level, resid) / syy
            resid -= gamma[:, np.newaxis] * level
            ssr = np.einsum("gm,gm->g", resid, resid)
            pivots = np.sqrt(syy)[:, np.newaxis]
            tau = gamma / np.sqrt(ssr / dof / syy)
        else:
            designs = _adf_designs(ys, lag, constant, level_last=True)
            pivots, cross, ssr, total, trusted = _gram_factor(designs)
            rough = np.flatnonzero(~trusted)
            if rough.size:
                pivots[rough], rb, ssr[rough], total[rough] = _householder_factor(designs[rough])
                cross[rough] = rb[:, -1]
            tau = cross / np.sqrt(ssr / dof)
    return tau, _faults(pivots, total, ssr)


def _search_lags(ys: np.ndarray, max_lag: int, constant: bool) -> tuple[np.ndarray, np.ndarray]:
    """The AIC lag order and the search's fault code of each row of the non-empty ``ys``.

    The rows go to ``_gram_lag_search`` in chunks of ``_search_rows``; only
    the rows it cannot decide get their widest designs, built in stacks of
    ``block_rows`` rows for ``_householder_lag_search``, whose lags and
    faults the Gram search only ever proves.
    """
    step = _search_rows(max_lag, constant)
    lags = np.concatenate([_gram_lag_search(ys[start:start + step], max_lag, constant)
                           for start in range(0, len(ys), step)])
    codes = np.zeros_like(lags)
    undecided = np.flatnonzero(lags < 0)
    step = block_rows(ys.shape[1], max_lag, constant)
    for start in range(0, undecided.size, step):
        rows = undecided[start:start + step]
        designs = _adf_designs(ys[rows], max_lag, constant)
        lags[rows], codes[rows] = _householder_lag_search(designs, int(constant))
    return lags, codes


def _adf_stack(ys: np.ndarray, max_lag: int, constant: bool
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The used lag, tau and fault code of the ADF test of each row of ``ys``.

    The rows' lags come from ``_search_lags`` at ``max_lag``.  The rows it
    leaves without a fault are then grouped by chosen lag, and each group is
    refit by ``_refit_taus``, in chunks of ``block_rows`` rows at that lag.
    A row whose search or refit faults (``_faults``) gets lag -1 and tau NaN.
    """
    nrows, n = ys.shape
    lags, codes = _search_lags(ys, max_lag, constant)
    taus = np.full(nrows, math.nan)
    searched = codes == 0
    # Not np.unique: its first call imports numpy.ma, 10 ms of a cold scan.
    for lag in sorted(set(lags[searched].tolist())):
        rows = np.flatnonzero(searched & (lags == lag))
        step = block_rows(n, lag, constant)
        for start in range(0, rows.size, step):
            chunk = rows[start:start + step]
            taus[chunk], codes[chunk] = _refit_taus(ys[chunk], lag, constant)
    faulted = codes != 0
    lags[faulted], taus[faulted] = -1, math.nan
    return lags, taus, codes


def _one_result(outcome: tuple[np.ndarray, ...], n: int, n_series: int, deterministic: str
                ) -> AdfResult:
    """The ``AdfResult`` of a one-row outcome of ``n`` observations, or its fault raised."""
    (lag,), (tau,), (code,) = (column.tolist() for column in outcome)
    if code:
        raise fault(code)
    return AdfResult(tau=tau, used_lags=lag, n_eff=n - lag - 1, n_series=n_series,
                     deterministic=deterministic)


def adf_test(series, deterministic: str = "constant", max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test with AIC lag selection.

    The series, at ``unit_rows``' scale, is a stack of one for
    ``_adf_stack``: AIC picks k in 0..max_lag on the sample truncated at
    max_lag, and the winning k is refit on its own longest sample, giving
    ``n_eff = n - used_lags - 1`` observations.  The result is read against
    the single-series MacKinnon surface ``(1, deterministic)``.  A singular
    or exactly fitting regression raises ``ConstantSeries``, a series that
    is not finite ``ValueError``, and one of range 0 ``ExactlyConstant``.
    """
    _check_deterministic(deterministic)
    y = _as_1d(series)
    n = y.size
    if n >= 1 and np.ptp(y) == 0.0:
        raise fault(CONSTANT)
    constant = deterministic == "constant"
    outcome = _adf_stack(y[np.newaxis], _lag_bound(n, max_lag, int(constant)), constant)
    return _one_result(outcome, n, 1, deterministic)


@dataclass(frozen=True)
class Stage1Terms:
    """What an Engle-Granger stage-1 regression takes from each of its series.

    ``rows`` is an ``(S, n)`` array of S series; ``means``, ``devs`` (each
    series less its mean, as an ``(S, n)`` array) and ``sxx`` (each
    deviation's sum of squares) are computed once per series, so that a scan
    of every pair of S series computes them S times rather than once per
    pair.  ``correlation_matrix`` takes its return deviations from here too.
    """

    rows: np.ndarray
    means: np.ndarray
    devs: np.ndarray
    sxx: np.ndarray


def stage1_terms(rows: np.ndarray) -> Stage1Terms:
    """The ``Stage1Terms`` of each row of the 2-D array ``rows``."""
    means = rows.mean(axis=1)
    devs = rows - means[:, np.newaxis]
    return Stage1Terms(rows, means, devs, np.einsum("ij,ij->i", devs, devs))


def stage1_fit(terms: Stage1Terms, targets: np.ndarray, predictors: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Slope and intercept of each stage-1 regression ``rows[t] = c + b rows[p] + u``.

    ``targets`` and ``predictors`` index ``terms.rows``, one pair per
    position.  Each slope is the pair's sum of deviation products, one
    ``einsum`` row, over the predictor's ``sxx``; a constant predictor gets
    slope 0.  Each intercept is ``mean[t] - b mean[p]``.
    """
    sxx = terms.sxx[predictors]
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.einsum("ij,ij->i", terms.devs[predictors], terms.devs[targets]) / sxx
    slopes[sxx == 0.0] = 0.0
    return slopes, terms.means[targets] - slopes * terms.means[predictors]


def engle_granger_block(terms: Stage1Terms, pairs, max_lag: int | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Engle-Granger tests of ``rows[t]`` on ``rows[p]`` for each ``(t, p)`` in ``pairs``.

    Returns each pair's used lag, tau and fault code, as ``_adf_stack``
    does: bit for bit those of the pair's own block of one, which
    ``engle_granger(rows[t], rows[p], max_lag)`` reads.  ``terms`` must be
    the ``stage1_terms`` of rows at ``unit_rows``' scale (else
    ``ValueError``).  A constant regressor is ``DEGENERATE`` and residuals
    of range 0 ``CONSTANT``.  Faults that hold for every pair alike (too few
    observations, a ``max_lag`` they leave no room for) are raised.

    The block shares what its pairs share: stage 1 uses the per-series
    ``terms``, so only the slope's sum of products is per pair, and the
    block's slopes are one ``einsum`` (``stage1_fit``); the residuals are
    one 2-D expression, and their ADF tests one ``_adf_stack``.  Each sum
    runs over one pair's row in an order fixed by its length, and the rest
    is elementwise, so nothing rounds differently from a block of one.
    """
    n = terms.rows.shape[1]
    if n < EG_MIN_N:
        raise SeriesTooShort(f"need >= {EG_MIN_N} observations, have {n}")
    if np.frexp(abs(terms.rows).max(axis=1, initial=0.0))[1].any():
        raise ValueError("stage-1 terms must be of rows at unit_rows' scale")
    targets, predictors = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    slopes, intercepts = stage1_fit(terms, targets, predictors)
    # rows[t] - c - b rows[p], in place.  The residuals are a block's largest
    # array besides one design stack; each further temporary of their size
    # made the heap grow past glibc's trim threshold and re-fault its pages
    # on every block: 27,000 minor faults in a serial scan of 4,950 pairs of
    # 745 dates, against 1,000 without.
    resids = terms.rows[targets]
    resids -= intercepts[:, np.newaxis]
    fitted = terms.rows[predictors]
    fitted *= slopes[:, np.newaxis]
    resids -= fitted
    del fitted
    codes = np.where(terms.sxx[predictors] == 0.0, DEGENERATE,
                     np.where(np.ptp(resids, axis=1) == 0.0, CONSTANT, 0))
    lags, taus = np.full(codes.size, -1), np.full(codes.size, math.nan)
    live = np.flatnonzero(codes == 0)
    if live.size:
        if live.size < codes.size:
            resids = resids[live]
        lags[live], taus[live], codes[live] = _adf_stack(resids, _lag_bound(n, max_lag, 0), False)
    return lags, taus, codes


def engle_granger(y, x, max_lag: int | None = None) -> AdfResult:
    """Two-step Engle-Granger cointegration test of y on x.

    Stage 1 regresses ``y = c + b*x + u`` (with constant); stage 2 runs the
    ADF test on the residuals with no deterministic term, since the constant
    already lives in stage 1.  The result is stage 2's, read against the
    two-series MacKinnon surface with a constant, ``(2, "constant")``, which
    its p-value and critical values then come from.  This is a block of one
    for ``engle_granger_block``, of each series at ``unit_rows``' scale.
    """
    yv, xv = _as_1d(y), _as_1d(x)
    if yv.size != xv.size:
        raise LengthMismatch(f"lengths {yv.size} vs {xv.size}")
    outcome = engle_granger_block(stage1_terms(np.stack([yv, xv])), [(0, 1)], max_lag)
    return _one_result(outcome, yv.size, 2, "constant")
