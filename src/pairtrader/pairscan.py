"""Sector-wide cointegration scanning and pair-model fitting.

Every unordered ticker pair in a panel gets one Engle-Granger p-value; the
stock with the higher mean close acts as the regressor (it later becomes
asset1, the predictor of the pair model).  Pairs beat the significance
threshold outright or squeak in within a configurable near-threshold margin.
A pair whose residuals are exactly zero (say, two share classes of one
company) gets p = 0 and a recorded reason instead of aborting the scan.
The module only computes: ``cli`` writes the matrix and the selection.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import date
from types import MappingProxyType

import numpy as np

from .econometrics import OlsOriginReport, ols_through_origin
from .errors import ConstantSeries, PairTraderError, SeriesTooShort
from .marketdata import AlignedPanel, check_pair, readonly_copy, slice_window
from .unitroot import AdfResult, adf_test, engle_granger

DEFAULT_THRESHOLD = 0.05
DEFAULT_NEAR_EPS = 0.02

#: Why a pair's p-value is 0: its Engle-Granger residuals are exactly constant.
EXACT_DEPENDENCE = "exact linear dependence"


@dataclass(frozen=True, eq=False)
class PValueMatrix:
    """Engle-Granger p-values for every unordered pair in a panel.

    ``values`` is an (n, n) array with the upper triangle populated and NaN
    elsewhere; ``orderings`` records, cell by cell in row-major upper-triangle
    order, which ticker served as predictor (regressor) and which as target.
    ``reasons`` maps a cell ``(tickers[i], tickers[j])``, i < j, whose p-value
    the test did not produce to why; healthy cells have no entry.  A matrix
    whose values are not (n, n) or whose orderings do not cover the n(n-1)/2
    cells raises ``ValueError``.  Matrices compare by identity: the values
    are an array.
    """

    tickers: tuple[str, ...]
    values: np.ndarray
    orderings: tuple[tuple[str, str], ...]
    reasons: Mapping[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = readonly_copy(self.values)
        n = len(self.tickers)
        if values.shape != (n, n):
            raise ValueError(f"values of shape {values.shape} do not match {n} tickers")
        if len(self.orderings) != n * (n - 1) // 2:
            raise ValueError(f"{len(self.orderings)} orderings for {n * (n - 1) // 2} cells")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "reasons", MappingProxyType(dict(self.reasons)))

    def pvalue(self, a: str, b: str) -> float:
        i, j = self.tickers.index(a), self.tickers.index(b)
        if i > j:
            i, j = j, i
        return float(self.values[i, j])

    def cells(self):
        """Yield (ticker_i, ticker_j, p, predictor, target) per populated cell."""
        n = len(self.tickers)
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                predictor, target = self.orderings[k]
                yield self.tickers[i], self.tickers[j], float(self.values[i, j]), predictor, target
                k += 1


@dataclass(frozen=True)
class SelectedPair:
    """One pair admitted to trading: asset1 (predictor) and asset2 (target)."""

    predictor_ticker: str
    target_ticker: str
    coint_p: float
    near_threshold: bool


@dataclass(frozen=True)
class PairModel:
    """Fitted hedge-ratio model plus the residual stationarity check.

    ``residual_adf`` is None when the residuals are exactly constant.
    """

    report: OlsOriginReport
    residual_adf: AdfResult | None
    verdict: str


def _a_predicts(ticker_a: str, mean_a: float, ticker_b: str, mean_b: float) -> bool:
    """The pair-ordering rule: higher mean close predicts, ties break by ticker."""
    if mean_a != mean_b:
        return mean_a > mean_b
    return ticker_a <= ticker_b


def order_pair(pair: AlignedPanel, train: tuple[date, date]) -> AlignedPanel:
    """Put the predictor column of a two-ticker panel first.

    The predictor has the higher mean close over the training window, ties
    broken by ticker, as in ``coint_matrix``.  The whole panel is returned,
    so later windows of it keep the same order.
    """
    check_pair(pair)
    closes = slice_window(pair, *train).closes_by_ticker()
    a, b = pair.tickers
    if _a_predicts(a, float(np.mean(closes[0])), b, float(np.mean(closes[1]))):
        return pair
    return AlignedPanel(tickers=(b, a), dates=pair.dates, closes=pair.closes[:, [1, 0]])


def coint_matrix(panel: AlignedPanel) -> PValueMatrix:
    """Engle-Granger p-value for every unordered pair of panel tickers.

    Within each pair the higher-mean-close ticker is the regressor and the
    other the dependent series, matching the predictor/target convention of
    the pair model; the ordering used is recorded per cell.  A pair whose
    residuals are exactly constant gets p = 0 and the reason
    ``EXACT_DEPENDENCE``; any other per-pair fault aborts the scan, and so
    does a ticker whose closes never move.
    """
    tickers = panel.tickers
    n = len(tickers)
    if n < 2:
        raise ValueError("panel must hold at least 2 tickers")
    if len(panel.dates) < 30:
        raise SeriesTooShort(f"need >= 30 common dates, have {len(panel.dates)}")

    closes = panel.closes_by_ticker()
    for ticker, row in zip(tickers, closes):
        # A flat target would leave exactly constant residuals against any
        # regressor; that is no evidence of dependence.
        if np.ptp(row) == 0.0:
            raise ConstantSeries(f"{ticker}: closes are constant")
    means = [float(np.mean(row)) for row in closes]
    values = np.full((n, n), math.nan)
    orderings: list[tuple[str, str]] = []
    reasons: dict[tuple[str, str], str] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if _a_predicts(tickers[i], means[i], tickers[j], means[j]):
                pred, targ = i, j
            else:
                pred, targ = j, i
            try:
                values[i, j] = engle_granger(closes[targ], closes[pred]).p_value
            except ConstantSeries:
                values[i, j] = 0.0
                reasons[(tickers[i], tickers[j])] = EXACT_DEPENDENCE
            except PairTraderError as exc:
                raise type(exc)(f"pair ({tickers[i]}, {tickers[j]}): {exc}") from exc
            orderings.append((tickers[pred], tickers[targ]))
    return PValueMatrix(tickers=tickers, values=values, orderings=tuple(orderings),
                        reasons=reasons)


def select_pairs(
    m: PValueMatrix,
    threshold: float = DEFAULT_THRESHOLD,
    near_eps: float = DEFAULT_NEAR_EPS,
) -> list[SelectedPair]:
    """Pairs with p below the threshold, plus near-misses within ``near_eps``.

    Output is sorted by ascending p-value (ties by ticker pair); an empty
    list is a valid outcome.  A zero threshold disables selection entirely,
    near-misses included.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    if near_eps < 0.0:
        raise ValueError(f"near_eps must be >= 0, got {near_eps}")
    if threshold == 0.0:
        return []
    selected = []
    for _, _, p, predictor, target in m.cells():
        if p < threshold:
            selected.append(SelectedPair(predictor, target, p, near_threshold=False))
        elif p < threshold + near_eps:
            selected.append(SelectedPair(predictor, target, p, near_threshold=True))
    selected.sort(key=lambda sp: (sp.coint_p, sp.predictor_ticker, sp.target_ticker))
    return selected


def _stationarity_verdict(result: AdfResult) -> str:
    if result.tau < result.crit["1%"]:
        return "stationary at 1%"
    if result.tau < result.crit["5%"]:
        return "stationary at 5%"
    if result.tau < result.crit["10%"]:
        return "stationary at 10%"
    return "not stationary"


def fit_pair(train: AlignedPanel) -> PairModel:
    """Fit the no-intercept pair model on a training window.

    ``train`` is the training window of a two-ticker pair panel with the
    predictor column first (see ``order_pair``), as ``fit_ratio_stats``
    takes it.  Runs the through-origin regression of target on predictor,
    then the ADF test (with constant) on its residuals.  The model is
    produced even when the residuals fail the stationarity check; the
    verdict is recorded.
    """
    if len(train) < 30:
        raise SeriesTooShort(
            f"{'/'.join(train.tickers)}: only {len(train)} common training dates"
        )
    predictor, target = train.closes_by_ticker()
    report = ols_through_origin(predictor, target)

    try:
        residual_adf = adf_test(report.residuals, deterministic="constant")
        verdict = _stationarity_verdict(residual_adf)
    except ConstantSeries:
        residual_adf = None
        verdict = "degenerate (constant residuals)"

    return PairModel(report=report, residual_adf=residual_adf, verdict=verdict)
