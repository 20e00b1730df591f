"""Augmented Dickey-Fuller and Engle-Granger tests with MacKinnon surfaces.

The ADF regression is

    dy_t = [alpha] + gamma * y_{t-1} + sum_{i=1..k} delta_i * dy_{t-i} + eps_t

with the lag order k chosen by AIC over a common truncated sample (all
candidate regressions see the observations available at ``max_lag``, so their
AICs are comparable), followed by a refit at the chosen k on the longest
sample that lag permits.  The unit-root null is rejected when the t-ratio on
the lagged level is below (more negative than) the critical value.

The lag search builds the widest design once with the dependent column
appended, ``[X | dy]``, column-major so each lag column is one contiguous
copy of ``dy``.  Any upper-triangular factor of that design scores every
nested candidate: its last column holds ``Q'dy``, so each candidate's SSR is
``dy'dy`` less a prefix sum of squares.  The search takes that factor from
the Cholesky factorisation of the small Gram matrix ``D'D``, and keeps the
choice only when a first-order rounding-error bound proves that the R-only
QR factorisation of the design would choose the same lag and raise no fault
(see ``_gram_lag_search``).  Otherwise the QR search runs, and its choice
and faults are the test's.  These two searches are the only BLAS and LAPACK
calls of a test, and they only decide the lag.

Every number a test reports comes from the refit at the chosen lag, on the
longest sample that lag permits, in numpy's own elementwise operations and
``einsum`` reductions, which add in an order fixed by the data's shape and
not by the BLAS kernel of the host (``_refit_taus``).  The refit runs once
per lag over all the rows that chose it.  It orders the level ``y_{t-1}``
last among the regressors, so tau is read off the last two rows of a
triangular factor of ``[X | dy]``: the Cholesky factor of its Gram matrix
where the columns are far enough from collinear for that to be as accurate
(``_gram_factor``), Householder reflections elsewhere
(``_householder_factor``), which also decide the refit's two faults, and
at lag 0 without a constant a closed form.  A refit never depends on which
search chose the lag.  One builder, ``_adf_designs``, fills the search's
stacks and the refit's.

Every ADF test runs as a row of one stack (``_adf_stack``): the rows'
designs go to the Gram search in chunks of ``_DESIGN_BYTES``, a row it
cannot decide is searched by QR, and the rows are then refit grouped by
their lag.  ``adf_test`` runs a stack of one; ``engle_granger_block`` tests a
block of pairs of one panel at once, with each series' stage-1 terms
(``Stage1Terms``) computed once and the block's residuals built as one
array.  Every number it reports is the one the pair's own ``engle_granger``
gives, bit for bit, since no row's arithmetic depends on the other rows.

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
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    ConstantSeries,
    DegenerateRegressor,
    LengthMismatch,
    PairTraderError,
    SeriesTooShort,
    SumOverflow,
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


def _design_bytes(n: int, lag: int, constant: bool = False) -> int:
    """Bytes of one ``_adf_designs`` slab at ``lag`` for a series of n observations."""
    return 8 * (int(constant) + lag + 2) * max(n - 1 - lag, 0)


#: The Gram search defers to the QR search when a pivot of its Cholesky
#: factor is at most ``_GRAM_MIN_PIVOT`` of its column's norm (the sine of
#: the angle between that column and the span of the ones before it), or at
#: most ``_GRAM_MIN_PIVOT_SPREAD`` of the largest pivot (100 times the QR
#: search's singularity ratio ``_QR_MIN_PIVOT``), when the SSR at ``max_lag``
#: is at most ``_GRAM_MIN_SSR`` of ``dy'dy``, or when its error bound does
#: not separate the best AIC from the others.
_GRAM_MIN_PIVOT = 1e-6
_QR_MIN_PIVOT = 1e-12
_GRAM_MIN_PIVOT_SPREAD = 100.0 * _QR_MIN_PIVOT
_GRAM_MIN_SSR = 1e-8
_EPS = float(np.finfo(float).eps)


def _gram_lag_search(designs: np.ndarray, ntrend: int) -> list[int | None]:
    """The AIC lag order of each design of a stack, from Cholesky factors.

    ``designs`` is a ``(B, c, m)`` stack from ``_adf_designs``: slab b
    transposed is ``[X | b]`` at ``max_lag``, its dependent column last.
    For each slab, returns the k that ``_qr_lag_search`` would return, or
    None when this search cannot prove it does: the Cholesky factorisation
    of ``D'D`` fails, a pivot or the smallest SSR is tiny (where the QR
    search may raise instead), or the AIC gap between the best lag and the
    runner-up is within the error bound below.  Each Gram matrix is one
    BLAS product of a column-major design, and the factorisations and every
    check run once over the stack.

    The bound, to first order in eps = 2^-52.  Take m rows, c columns,
    column norms s, G = D'D = LL', its correlation matrix C = S^-1 G S^-1
    and kappa = tr(C^-1) >= 1 / lambda_min(C).  A candidate with
    coefficients beta has v = [-beta; 1] and SSR_k = v'Gv >= SSR_min, so
    (sum |v_i| s_i)^2 <= c ||Sv||^2 <= c kappa SSR_k.  kappa is
    ||L_c^-1||_F^2 for L_c = S^-1 L = P (I + M), P = diag(L_ii / s_i) and M
    strictly lower with ||M||_F^2 = f^2 = sum_i (s_i^2 / L_ii^2 - 1), as
    L's rows have norms s_i.  When f < 1 the Neumann series of (I + M)^-1
    gives kappa <= (sqrt(c) + f / (1 - f))^2 max_i s_i^2 / L_ii^2, which
    stands for kappa unless it fails the test below; then kappa is computed
    from L^-1.  Then:

    * forming G and factoring it (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., Thm 10.3) makes L the exact factor of
      G + E with |E_ij| <= (m + c + 1) eps s_i s_j, which moves SSR_k by
      |v'Ev| <= (m + c + 1) eps c kappa SSR_k;
    * Householder QR (Thm 19.4, its constant taken as 4) is exact for
      D + dD with ||dd_j|| <= 2mc eps ||d_j||, which moves the residual sum
      of squares by at most 4mc eps sqrt(c kappa) SSR_k and
      ``||b + db||^2`` by 4mc eps b'b;
    * rounding ``b @ b`` and the two prefix sums of squares costs
      (m + 2c + 2) eps b'b.

    So each search's SSR_k is within delta = 4 eps (m + c + 1) c (kappa +
    sqrt(c kappa) + 2 b'b / SSR_min) of the exact SSR_k, relative, the two
    errors summed.  With delta < 1/2, the searches' AICs for one k differ by
    at most e = 2m delta, plus at most 8 eps m (|log(SSR_k / m)| + 4) from
    evaluating them.  A Gram choice that beats every other lag by more than
    2e is the QR choice, and the QR search raises no fault on it: every SSR
    it computes is positive, and each pivot is within a factor of 2 of its
    R diagonal (L_ii^2 is the SSR of column i on the columns before it, held
    by the same bound), so the smallest R diagonal is above 25 times the QR
    search's singularity ratio of the largest.  The pivot checks themselves
    are scale-free but for that spread: the sine L_ii / s_i does not change
    when a column is scaled.
    """
    nblock, ncol, nobs = designs.shape
    nx = ncol - 1
    grams = np.empty((nblock, ncol, ncol))
    for design, gram in zip(designs, grams):
        design = design.T
        np.matmul(design.T, design, out=gram)
    try:
        chols = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        # One factorisation per design, so that one failure fails only its
        # own; a NaN factor fails every check below.
        chols = np.full_like(grams, math.nan)
        for gram, chol in zip(grams, chols):
            try:
                chol[...] = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                pass
    # Each check is written to fail on NaN, which leaves the decision to the
    # QR search; the warnings of the designs that fail them are moot.
    with np.errstate(divide="ignore", invalid="ignore"):
        norms2 = np.diagonal(grams, axis1=1, axis2=2)
        diag = np.diagonal(chols, axis1=1, axis2=2)
        pivots = diag[:, :nx]
        total = grams[:, -1, -1]
        ssr = total[:, None] - np.cumsum(chols[:, -1, :nx] ** 2, axis=1)[:, ntrend:]
        ssr_min = ssr.min(axis=1)
        usable = ((pivots * pivots > _GRAM_MIN_PIVOT**2 * norms2[:, :nx]).all(axis=1)
                  & (pivots.min(axis=1) > _GRAM_MIN_PIVOT_SPREAD * pivots.max(axis=1))
                  & (ssr_min > _GRAM_MIN_SSR * total))
        aic = 2.0 * np.arange(ntrend + 1, ncol) + nobs * np.log(ssr / nobs)
        best = aic.argmin(axis=1)
        if aic.shape[1] > 1:
            gap = np.partition(aic, 1, axis=1)[:, 1] - aic[np.arange(nblock), best]
        else:
            gap = np.full(nblock, math.inf)
        # ssr_min <= SSR_k <= total bounds every |log(SSR_k / m)|.
        log_range = np.maximum(abs(np.log(ssr_min / nobs)), abs(np.log(total / nobs)))
        slack = 2.0 * total / ssr_min
        noise = 8.0 * _EPS * nobs * (log_range + 4.0)

        def separated(kappa: np.ndarray) -> np.ndarray:
            delta = 4.0 * _EPS * (nobs + ncol + 1) * ncol * (
                kappa + np.sqrt(ncol * kappa) + slack)
            return usable & (delta < 0.5) & (gap > 2.0 * (2.0 * nobs * delta + noise))

        # kappa from the pivots alone, when the columns are near orthogonal as
        # in most of a sector scan's residual designs; from L^-1, which costs
        # more than the rest of these checks together, only for the designs
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
    return [int(k) if ok else None for k, ok in zip(best, proven)]


def _qr_lag_search(design: np.ndarray, ntrend: int) -> int:
    """The AIC lag order from one R-only QR of the C-contiguous ``design``.

    One QR of the widest design [X | b] scores every nested candidate: the
    model with k lags uses the first ntrend+1+k columns of X, so its SSR
    falls out of the prefix sums of (Q'b)^2, and Q'b is the last column of
    R.  Raises ``ConstantSeries`` when R is singular or a candidate fits
    exactly.
    """
    # Q itself is never formed, and R is read in place from the upper
    # triangle of h.T (mode "r" would copy it out with triu).  b is copied
    # out of the design because a dot product over a strided view rounds
    # differently.
    max_lag = design.shape[1] - ntrend - 2
    b = np.ascontiguousarray(design[:, -1])
    nobs_common = b.size
    h, _ = np.linalg.qr(design, mode="raw")
    nx = h.shape[0] - 1
    diag_r = abs(np.diagonal(h)[:nx])
    if diag_r.min() <= _QR_MIN_PIVOT * diag_r.max():
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
    return best_k


def _lag_bound(n: int, max_lag: int | None, ntrend: int) -> int:
    """``max_lag``, or the default for ``n`` observations, checked against ``n``."""
    if max_lag is None:
        max_lag = default_max_lag(n)
        if n < 10 + max_lag:
            raise SeriesTooShort(f"need >= {10 + max_lag} observations, have {n}")
    else:
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        if n - 1 - max_lag < ntrend + 2 + max_lag:
            raise SeriesTooShort(
                f"{n} observations leave no degrees of freedom at max_lag={max_lag}"
            )
    return max_lag


#: The memory budget of a stack of ADF tests.  ``_adf_stack`` builds its
#: designs in chunks of rows of at most this many bytes, and at least one
#: row: 17 Engle-Granger residuals of 750 dates for the Gram search, and as
#: many rows as fit for each refit.  A scan block holds the rows whose lag-0
#: design takes this many bytes (``block_rows``).
_DESIGN_BYTES = 2 * 1024 * 1024


def block_rows(n: int) -> int:
    """Pairs of n dates an ``engle_granger_block`` call should test at once.

    As many as have at most ``_DESIGN_BYTES`` of lag-0 ADF design ``[y_{t-1}
    | dy_t]`` between them, and at least one: 174 pairs of 750 dates, 34 of
    3,750.  That is the most common refit, and it runs over the whole block
    at once; the block's residuals take half as many bytes, and its wider
    designs are built in chunks of the same budget.  Blocks must be large
    for the refit's grouping by lag to pay, and bounded, since a design of a
    pool worker's whole span of pairs would grow it by tens of MB.
    """
    return max(1, _DESIGN_BYTES // _design_bytes(n, 0))


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
#: takes none.  With Householder for every row, on a 2-vCPU x86-64 host: a
#: serial scan of ``sector_scan_wide`` seed 1 took 0.54-0.60 s against
#: 0.40-0.44 s; its pooled ``scan`` command 0.98 s against 0.89 s (seed 1)
#: and 0.99 s against 0.92 s (seed 2), medians of 20 alternating runs,
#: slower in 15 and 17 of them; perfbench's ``scan_pairs_per_s`` (8 s runs)
#: lower in 8 of 10 rounds at seed 11 (medians 5,104 against 5,592) and in
#: 6 of 10 at seed 1, where its median was higher (5,848 against 5,734).
_GRAM_REFIT_MIN_SINE = 1e-2


def _gram_factor(designs: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(pivots, cross, ssr, trusted)`` of each slab's ``[X | dy]``, from Cholesky.

    ``pivots`` are the diagonal of R over X, ``cross`` is ``R[p-1, p]``
    with R's diagonal positive, and ``ssr`` is ``R[p, p]^2``.  The Gram
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
    return pivots, column[:, -1], ssr, trusted


def _householder_factor(designs: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(pivots, cross, ssr)`` as ``_gram_factor``'s, by Householder reflections.

    One reflection per regressor, each applied to every slab at once; the
    slabs are overwritten.
    """
    nrow, ncol, _ = designs.shape
    pivots = np.empty((nrow, ncol - 1))
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
        rest = designs[:, j + 1:, j:]
        scale = np.einsum("gm,gkm->gk", v, rest) / (norm * (norm + abs(head)))[:, np.newaxis]
        rest -= scale[:, :, np.newaxis] * v[:, np.newaxis, :]
    tail = designs[:, -1, ncol - 1:]
    return pivots, np.sign(r_jj) * designs[:, -1, ncol - 2], np.einsum("gm,gm->g", tail, tail)


def _refit_taus(ys: np.ndarray, lag: int, constant: bool) -> list[float | PairTraderError]:
    """tau of the ADF regression of each row of ``ys`` at ``lag``, or its fault.

    Each row is refit on its longest sample, ``n - lag - 1`` observations,
    with the level ``y_{t-1}`` last among the regressors.  tau is then read
    off the last two rows of an upper-triangular factor R of ``[X | dy]``:
    the level's coefficient is ``R[p-1, p] / R[p-1, p-1]``, its standard
    error ``sqrt(SSR / dof) / R[p-1, p-1]`` and SSR ``R[p, p]^2``, so
    ``tau = R[p-1, p] / sqrt(SSR / dof)`` for R with a positive diagonal.  R
    comes from the Cholesky factor of the Gram matrix where that is as
    accurate (``_GRAM_REFIT_MIN_SINE``), and otherwise from Householder
    reflections.  At lag 0 without a constant the level is the only
    regressor, and the closed form ``g = sum(y dy) / sum(y^2)`` takes its
    place, with SSR summed from the residuals ``dy - g y`` rather than from
    the cancelling ``sum(dy^2) - g sum(y dy)``.

    Every sum is an ``einsum`` over one row, so that a row's tau does not
    depend on the other rows nor on the BLAS kernel.  A row whose sums of
    squares overflow gets ``SumOverflow``.  A row whose smallest pivot is at
    most ``_QR_MIN_PIVOT`` of its largest (the QR search's rule) is
    "singular", and one left with no positive SSR or degree of freedom has
    "no residual variance".  A Gram factor decides neither: a row it does
    not pass to the Householder factor holds neither fault.
    """
    dof = (ys.shape[1] - 1 - lag) - (int(constant) + lag + 1)
    # NaN and infinity from the faulty rows are set aside below.
    with np.errstate(divide="ignore", invalid="ignore"):
        if lag == 0 and not constant:
            level, resid = ys[:, :-1], ys[:, 1:] - ys[:, :-1]
            syy = np.einsum("gm,gm->g", level, level)
            gamma = np.einsum("gm,gm->g", level, resid) / syy
            resid -= gamma[:, np.newaxis] * level
            ssr = np.einsum("gm,gm->g", resid, resid)
            pivots = np.sqrt(syy)[:, np.newaxis]
            tau = gamma / np.sqrt(ssr / dof / syy)
        else:
            designs = _adf_designs(ys, lag, constant, level_last=True)
            pivots, cross, ssr, trusted = _gram_factor(designs)
            rough = np.flatnonzero(~trusted)
            if rough.size:
                pivots[rough], cross[rough], ssr[rough] = _householder_factor(designs[rough])
            tau = cross / np.sqrt(ssr / dof)
        overflow = np.isinf(pivots).any(axis=1) | np.isinf(ssr)
        singular = ~(pivots.min(axis=1) > _QR_MIN_PIVOT * pivots.max(axis=1))
        no_variance = ~(ssr > 0.0) | (dof <= 0)
    return [SumOverflow("sums of squares overflow: values too large") if huge
            else ConstantSeries("unit-root regression is singular") if bad_pivot
            else ConstantSeries("unit-root regression has no residual variance") if flat
            else t
            for t, huge, bad_pivot, flat in zip(tau.tolist(), overflow, singular, no_variance)]


def _search_lags(ys: np.ndarray, max_lag: int, constant: bool) -> list[int | ConstantSeries]:
    """The AIC lag order of each row of ``ys``, or the fault its QR search raised.

    The rows' widest designs are one stack for ``_gram_lag_search``; a row it
    cannot decide takes the QR search.  The stack lives only for the call,
    so that a block never holds two of them at once.
    """
    ntrend = 1 if constant else 0
    designs = _adf_designs(ys, max_lag, constant)
    lags: list = []
    for design, lag in zip(designs, _gram_lag_search(designs, ntrend)):
        if lag is None:
            try:
                lag = _qr_lag_search(np.ascontiguousarray(design.T), ntrend)
            except ConstantSeries as exc:
                lag = exc
        lags.append(lag)
    return lags


def _adf_stack(ys: np.ndarray, max_lag: int, constant: bool
               ) -> list[tuple[int, float, int] | PairTraderError]:
    """``(used_lags, tau, n_eff)`` of the ADF test of each row of ``ys``.

    The rows' lags come from ``_search_lags`` in chunks of at most
    ``_DESIGN_BYTES`` of design.  The rows are then grouped by chosen lag,
    and each group is refit by ``_refit_taus``, again in chunks of at most
    ``_DESIGN_BYTES``.  A row that raises ``ConstantSeries`` (a singular or
    exactly fitting regression) or ``SumOverflow`` gets that exception in
    its place.
    """
    nrows, n = ys.shape
    outcomes: list = [None] * nrows
    by_lag: dict[int, list[int]] = {}
    step = max(1, _DESIGN_BYTES // _design_bytes(n, max_lag, constant))
    for start in range(0, nrows, step):
        for row, lag in enumerate(_search_lags(ys[start:start + step], max_lag, constant), start):
            if isinstance(lag, ConstantSeries):
                outcomes[row] = lag
            else:
                by_lag.setdefault(lag, []).append(row)
    for lag, rows in sorted(by_lag.items()):
        step = max(1, _DESIGN_BYTES // _design_bytes(n, lag, constant))
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            for row, tau in zip(chunk, _refit_taus(ys[chunk], lag, constant)):
                outcomes[row] = tau if isinstance(tau, PairTraderError) else (lag, tau, n - lag - 1)
    return outcomes


def adf_test(series, deterministic: str = "constant", max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test with AIC lag selection.

    AIC is evaluated for every k in 0..max_lag on the sample truncated at
    max_lag, all from one triangular factor of ``[X | b]`` (the widest
    design with the dependent column appended).  The factor comes from the
    Cholesky factorisation of its Gram matrix; the choice stands only when
    a rounding-error bound shows an R-only QR of the design would make it
    too, and otherwise that QR search decides the lag, or raises
    ``ConstantSeries`` for a singular or exactly fitting regression (see
    ``_gram_lag_search``, here run on a stack of one design).  The winning k
    is then refit by least squares on its own longest sample, giving
    ``n_eff = n - used_lags - 1`` regression observations, in numpy's fixed
    order arithmetic (``_refit_taus``, on a group of one).  The result is
    read against the single-series MacKinnon surface ``(1, deterministic)``.
    """
    _check_deterministic(deterministic)
    y = _as_1d(series)
    n = y.size
    if n >= 1 and np.ptp(y) == 0.0:
        raise ConstantSeries("series is constant")
    constant = deterministic == "constant"
    (outcome,) = _adf_stack(y[np.newaxis], _lag_bound(n, max_lag, int(constant)), constant)
    if isinstance(outcome, PairTraderError):
        raise outcome
    used_lags, tau, n_eff = outcome
    return AdfResult(tau=tau, used_lags=used_lags, n_eff=n_eff, n_series=1,
                     deterministic=deterministic)


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
                        ) -> list[AdfResult | PairTraderError]:
    """Engle-Granger tests of ``rows[t]`` on ``rows[p]`` for each ``(t, p)`` in ``pairs``.

    A pair's result does not depend on the rest of the block: bit for bit,
    it is what ``engle_granger(rows[t], rows[p], max_lag)``, a block of one,
    returns.  A pair's fault is what that raises, returned in the pair's
    place: ``DegenerateRegressor`` for a constant regressor,
    ``ConstantSeries`` for exactly constant residuals or a singular or
    exactly fitting ADF regression, ``SumOverflow`` for a series whose sums
    of squares overflow.  Faults that hold for every pair alike
    (too few observations, a ``max_lag`` they leave no room for) are raised.

    The block shares what its pairs share: stage 1 uses the per-series
    ``terms``, so only the slope's sum of products is per pair, and the
    block's slopes are one ``einsum`` (``stage1_fit``); the residuals are
    one 2-D expression;
    and their ADF tests are one ``_adf_stack``.  Each sum runs over one pair's
    row in an order fixed by its length, and the rest is elementwise, so
    nothing rounds differently from a block of one.
    """
    n = terms.rows.shape[1]
    if n < 30:
        raise SeriesTooShort(f"need >= 30 observations, have {n}")
    targets, predictors = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    slopes, intercepts = stage1_fit(terms, targets, predictors)
    finite = np.isfinite(terms.sxx[targets]) & np.isfinite(terms.sxx[predictors])
    outcomes: list = [DegenerateRegressor("regressor is constant") if flat
                      else None if ok else SumOverflow("sums of squares overflow: values too large")
                      for flat, ok in zip(terms.sxx[predictors] == 0.0, finite & np.isfinite(slopes))]
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
    for k in np.flatnonzero(np.ptp(resids, axis=1) == 0.0):
        if outcomes[k] is None:
            outcomes[k] = ConstantSeries("series is constant")
    live = [k for k, outcome in enumerate(outcomes) if outcome is None]
    if not live:
        return outcomes

    if len(live) < len(outcomes):
        resids = resids[live]
    for k, outcome in zip(live, _adf_stack(resids, _lag_bound(n, max_lag, 0), False)):
        if isinstance(outcome, PairTraderError):
            outcomes[k] = outcome
        else:
            used_lags, tau, n_eff = outcome
            outcomes[k] = AdfResult(tau=tau, used_lags=used_lags, n_eff=n_eff, n_series=2,
                                    deterministic="constant")
    return outcomes


def engle_granger(y, x, max_lag: int | None = None) -> AdfResult:
    """Two-step Engle-Granger cointegration test of y on x.

    Stage 1 regresses ``y = c + b*x + u`` (with constant); stage 2 runs the
    ADF test on the residuals with no deterministic term, since the constant
    already lives in stage 1.  The result is stage 2's, read against the
    two-series MacKinnon surface with a constant, ``(2, "constant")``, which
    its p-value and critical values then come from.  This is a block of one
    for ``engle_granger_block``.
    """
    yv = _as_1d(y)
    xv = _as_1d(x)
    if yv.size != xv.size:
        raise LengthMismatch(f"lengths {yv.size} vs {xv.size}")
    (outcome,) = engle_granger_block(stage1_terms(np.stack([yv, xv])), [(0, 1)], max_lag)
    if isinstance(outcome, PairTraderError):
        raise outcome
    return outcome
