"""ADF tests whose lag order the Gram search leaves to the Householder search.

``cases()`` lists them as ``(name, series, deterministic, max_lag)``.  The
near ties are MA(1) walks whose no-constant AICs at lags 0 and 1 are
bisected to a tie in ``einsum`` sums alone, so that every BLAS kernel builds
the same series.  The rest have a small pivot, a tiny SSR, an exact fit, a
singular design or a pivot spread past the Gram search's.

Run as a script, it prints each test's lag order and tau, or its fault, one
line each, for the BLAS-kernel checks to compare between kernels::

    OPENBLAS_CORETYPE=Haswell python tests/fallback_cases.py
"""

import numpy as np

from pairtrader.errors import PairTraderError
from pairtrader.unitroot import adf_test

NEAR_TIE_SEEDS = range(150)


def aic_gap(y):
    """AIC(0) - AIC(1) of ``y``'s no-constant ADF lag search at max_lag 1,
    from the normal equations in ``einsum`` sums."""
    dy = np.diff(y)
    cols, b = np.stack([y[1:-1], dy[:-1]]), dy[1:]
    g, r = np.einsum("im,jm->ij", cols, cols), np.einsum("im,m->i", cols, b)
    sbb = np.einsum("m,m->", b, b)
    ssr0 = sbb - r[0] * r[0] / g[0, 0]
    ssr1 = sbb - (g[1, 1] * r[0] * r[0] - 2.0 * g[0, 1] * r[0] * r[1]
                  + g[0, 0] * r[1] * r[1]) / (g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1])
    return b.size * np.log(ssr0 / ssr1) - 2.0


def near_tie(seed):
    """The walk of dy_t = e_t + theta e_{t-1} whose AICs at lags 0 and 1 tie,
    theta bisected on [0, 0.9]; None when that interval brackets no tie."""
    e = np.random.default_rng(seed).normal(size=301)

    def series(theta):
        return np.cumsum(e[1:] + theta * e[:-1])

    low, high = 0.0, 0.9
    if not aic_gap(series(low)) < 0.0 < aic_gap(series(high)):
        return None
    for _ in range(80):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if aic_gap(series(mid)) < 0.0 else (low, mid)
    return series(low)


def near_ties():
    """``(seed, series)`` of each seed whose MA(1) walk brackets a tie."""
    return [(seed, y) for seed, y in ((seed, near_tie(seed)) for seed in NEAR_TIE_SEEDS)
            if y is not None]


def cases():
    t = np.arange(200.0)
    alternating = np.tile([0.0, 1.0], 100)
    noise = np.random.default_rng(3).normal(size=200)
    return [(f"near tie {seed}", y, "none", 1) for seed, y in near_ties()] + [
        ("small pivot", alternating + 1e-7 * noise, "none", 3),
        ("small pivot", alternating + 1e-7 * noise, "constant", 3),
        ("tiny ssr", np.sin(t / 7.0) + 1e-6 * noise, "none", 2),
        ("fits exactly", 1.01**t, "none", 0),
        ("fits exactly", 1.01**t, "constant", 0),
        ("fits exactly", t, "none", 1),
        ("singular", alternating, "none", 3),
        ("singular", alternating, "constant", 3),
        ("pivot spread", 1e13 + np.cumsum(np.random.default_rng(6).normal(size=300)),
         "none", 2),
    ]


def main():
    for name, y, deterministic, max_lag in cases():
        try:
            result = adf_test(y, deterministic, max_lag=max_lag)
            outcome = f"{result.used_lags} {result.tau.hex()}"
        except PairTraderError as exc:
            outcome = str(exc)
        print(f"{name} {deterministic}: {outcome}")


if __name__ == "__main__":
    main()
