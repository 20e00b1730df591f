"""Sector-wide cointegration scanning and pair-model fitting.

Every unordered ticker pair in a panel gets one Engle-Granger test, kept
whole in one ``ScanCell``; the stock with the higher mean close acts as the
regressor (it later becomes asset1, the predictor of the pair model).  Pairs
beat the significance threshold outright or squeak in within a configurable
near-threshold margin.  A pair whose residuals are exactly zero (say, two
share classes of one company) gets p = 0 and a recorded reason instead of
aborting the scan.  The pairs are tested in blocks that share their
stage-1 terms, lag-order checks and refits, and a large scan runs them on a
forked worker pool, one contiguous span of pairs per worker; the cells are
the same whatever the blocks and the workers.  The module only computes: ``cli`` writes the matrix and the
selection.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass
from datetime import date

import numpy as np

from .econometrics import OlsOriginReport, ols_through_origin
from .errors import ConstantSeries, PairTraderError, SeriesTooShort, SumOverflow
from .marketdata import AlignedPanel, check_pair, slice_window
# engle_granger, which the scan no longer calls pair by pair, stays importable
# from here with adf_test: perfbench's tracer wraps both where this module
# refers to them.
from .unitroot import (AdfResult, Stage1Terms, adf_test, block_rows, engle_granger,  # noqa: F401
                       engle_granger_block, stage1_terms)

DEFAULT_THRESHOLD = 0.05
DEFAULT_NEAR_EPS = 0.02

#: Why a pair's p-value is 0: its Engle-Granger residuals are exactly constant.
EXACT_DEPENDENCE = "exact linear dependence"


@dataclass(frozen=True, slots=True)
class ScanCell:
    """The Engle-Granger test of one unordered pair of a scanned panel.

    ``ticker_a`` and ``ticker_b`` are in panel order; ``predictor`` (the
    regressor) and ``target`` are the same two tickers in the roles the test
    gave them.  ``adf`` is the test's result, or None when the test produced
    no statistic, and then ``reason`` says why.
    """

    ticker_a: str
    ticker_b: str
    predictor: str
    target: str
    adf: AdfResult | None
    reason: str | None

    @property
    def p_value(self) -> float:
        """The test's p-value; 0 for a pair without a statistic (``EXACT_DEPENDENCE``)."""
        return 0.0 if self.adf is None else self.adf.p_value

    def __reduce__(self):
        # A pool worker sends its cells to the scan by pickle.  This is three
        # times faster both ways than the per-field state functions that
        # dataclasses gives a frozen class with slots.
        return ScanCell, (self.ticker_a, self.ticker_b, self.predictor, self.target,
                          self.adf, self.reason)


@dataclass(frozen=True)
class PValueMatrix:
    """Engle-Granger tests of every unordered pair in a panel.

    ``cells`` holds one ``ScanCell`` per pair ``(tickers[i], tickers[j])``,
    i < j, in row-major upper-triangle order: the order of
    ``numpy.triu_indices(len(tickers), 1)``.
    """

    tickers: tuple[str, ...]
    cells: tuple[ScanCell, ...]


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
    closes = slice_window(pair, *train).closes
    a, b = pair.tickers
    if _a_predicts(a, float(np.mean(closes[0])), b, float(np.mean(closes[1]))):
        return pair
    return AlignedPanel(tickers=(b, a), dates=pair.dates, closes=pair.closes[[1, 0]])


#: A scan forks a worker pool only when every worker gets at least this many
#: pair-dates (pairs x common dates).  Measured in-process on a 2-vCPU x86-64
#: host with one BLAS thread, pairs tested in blocks: an Engle-Granger test
#: costs 0.24-0.35 us per date, starting and stopping a pool of two costs
#: 7-11 ms (up to 28), and that pool broke even with one process at 200k-280k
#: pair-dates in all, 100k-140k a worker (it lost 14-23 ms on 21k and 8-23 ms
#: on 142k, and saved 41-43 ms on 585k).  The floor, just above that
#: crossover, keeps scans of a few tens of pairs (the paper's sectors) in one
#: process.
_POOL_MIN_PAIR_DATES = 150_000

#: The scan a pool worker serves, ``(tickers, terms, pairs, parent pid)``:
#: set in each forked worker by ``_init_worker`` from memory it inherits,
#: never pickled.
_worker_scan: tuple | None = None


def _pool_size(n_pairs: int, n_dates: int) -> int:
    """Worker processes for a scan of ``n_pairs`` pairs over ``n_dates`` dates.

    One per CPU this process may run on, but no more than leaves each worker
    ``_POOL_MIN_PAIR_DATES``; 1 means the scan runs in this process.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_pairs * n_dates // _POOL_MIN_PAIR_DATES))


def _scan_block(tickers, terms: Stage1Terms, pairs) -> list[ScanCell]:
    """One ``ScanCell`` per ``(i, j, predictor, target)`` index tuple of ``pairs``.

    The pairs are tested as one ``engle_granger_block``.  A pair whose
    residuals are exactly constant gets ``EXACT_DEPENDENCE``; the first
    other per-pair fault is re-raised with the pair's tickers named.
    """
    outcomes = engle_granger_block(terms, [(targ, pred) for _, _, pred, targ in pairs])
    cells = []
    for (i, j, pred, targ), outcome in zip(pairs, outcomes):
        if isinstance(outcome, ConstantSeries):
            adf, reason = None, EXACT_DEPENDENCE
        elif isinstance(outcome, PairTraderError):
            raise type(outcome)(f"pair ({tickers[i]}, {tickers[j]}): {outcome}") from outcome
        else:
            adf, reason = outcome, None
        cells.append(ScanCell(tickers[i], tickers[j], tickers[pred], tickers[targ],
                              adf, reason))
    return cells


def _scan_span(tickers, terms: Stage1Terms, pairs, parent: int | None = None) -> list[ScanCell]:
    """``_scan_block`` over ``pairs``, one block of ``block_rows`` pairs at a time.

    With a ``parent`` pid, as in a pool worker, the process first leaves
    quietly if that parent is gone, before each block.
    """
    size = block_rows(terms.rows.shape[1])
    cells = []
    for start in range(0, len(pairs), size):
        if parent is not None:
            _exit_if_orphaned(parent)
        cells.extend(_scan_block(tickers, terms, pairs[start:start + size]))
    return cells


def _init_worker(tickers, terms: Stage1Terms, pairs) -> None:
    # Ctrl-C reaches the whole process group; the parent alone handles it,
    # by leaving its pool block, which terminates the workers.  That is a
    # SIGTERM to each, which must keep its default action here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    global _worker_scan
    _worker_scan = (tickers, terms, pairs, os.getppid())


def _exit_if_orphaned(parent: int) -> None:
    # A parent killed outright never terminates its pool, and no one is
    # left to read this worker's cells: leave without a word, rather than
    # finish the span and fail to send it.
    if os.getppid() != parent:
        os._exit(0)


def _run_span(span: tuple[int, int]) -> list[ScanCell]:
    tickers, terms, pairs, parent = _worker_scan
    cells = _scan_span(tickers, terms, pairs[span[0]:span[1]], parent)
    _exit_if_orphaned(parent)
    return cells


def _scan_pairs(tickers, terms: Stage1Terms, pairs, workers: int) -> list[ScanCell]:
    """``_scan_span`` over all ``pairs``, split across ``workers`` forked processes.

    Each worker takes one contiguous span of ``pairs`` and the cells come
    back in span order, so the result does not depend on ``workers``; a
    fault is the one the first failing pair raises, as in one process.
    With fewer than 2 workers, or no ``fork`` on this platform, the whole
    range is one span run here.  An exception that leaves the pool block,
    such as the ``SystemExit`` the CLI turns SIGTERM into, terminates the
    workers.
    """
    # Fork, not spawn: a forked worker starts with numpy, this package and
    # the closes already in memory, where a spawned one would import them
    # again (about 0.2 s) and be sent the closes.  The CLI forks from one
    # thread, since it runs BLAS on one.
    if workers >= 2:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            n = len(pairs)
            spans = [(n * k // workers, n * (k + 1) // workers) for k in range(workers)]
            with multiprocessing.get_context("fork").Pool(
                    workers, initializer=_init_worker,
                    initargs=(tickers, terms, pairs)) as pool:
                return [cell for cells in pool.imap(_run_span, spans) for cell in cells]
    return _scan_span(tickers, terms, pairs)


def coint_matrix(panel: AlignedPanel) -> PValueMatrix:
    """Engle-Granger test of every unordered pair of panel tickers.

    Within each pair the higher-mean-close ticker is the regressor and the
    other the dependent series, matching the predictor/target convention of
    the pair model.  Each pair's result is kept in a ``ScanCell``, in
    row-major upper-triangle order.  A pair whose residuals are exactly
    constant gets no result and the reason ``EXACT_DEPENDENCE`` (so p = 0);
    any other per-pair fault aborts the scan, and so does a ticker whose
    closes never move.  A scan with enough work runs on a worker pool (see
    ``_pool_size``); its cells are the same either way.
    """
    tickers = panel.tickers
    n = len(tickers)
    if n < 2:
        raise ValueError("panel must hold at least 2 tickers")
    if len(panel.dates) < 30:
        raise SeriesTooShort(f"need >= 30 common dates, have {len(panel.dates)}")

    for ticker, row in zip(tickers, panel.closes):
        # A flat target would leave exactly constant residuals against any
        # regressor; that is no evidence of dependence.
        if np.ptp(row) == 0.0:
            raise ConstantSeries(f"{ticker}: closes are constant")
    terms = stage1_terms(panel.closes)
    means = terms.means.tolist()
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if _a_predicts(tickers[i], means[i], tickers[j], means[j]):
                pairs.append((i, j, i, j))
            else:
                pairs.append((i, j, j, i))
    cells = _scan_pairs(tickers, terms, pairs, _pool_size(len(pairs), len(panel.dates)))
    return PValueMatrix(tickers=tickers, cells=tuple(cells))


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
    if not 0.0 <= near_eps < math.inf:
        raise ValueError(f"near_eps must be finite and >= 0, got {near_eps}")
    if threshold == 0.0:
        return []
    selected = []
    for cell in m.cells:
        p = cell.p_value
        if p < threshold + near_eps:
            selected.append(SelectedPair(cell.predictor, cell.target, p,
                                         near_threshold=p >= threshold))
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
    verdict is recorded.  Closes too large for the fit's sums of squares
    raise ``SumOverflow``, naming the pair.
    """
    if len(train) < 30:
        raise SeriesTooShort(
            f"{'/'.join(train.tickers)}: only {len(train)} common training dates"
        )
    predictor, target = train.closes
    try:
        report = ols_through_origin(predictor, target)
    except SumOverflow as exc:
        raise SumOverflow(f"{'/'.join(train.tickers)}: {exc}") from exc

    try:
        residual_adf = adf_test(report.residuals, deterministic="constant")
        verdict = _stationarity_verdict(residual_adf)
    except ConstantSeries:
        residual_adf = None
        verdict = "degenerate (constant residuals)"

    return PairModel(report=report, residual_adf=residual_adf, verdict=verdict)
