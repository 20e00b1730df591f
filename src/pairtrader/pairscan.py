"""Sector-wide cointegration scanning and pair-model fitting.

Every unordered ticker pair in a panel gets one Engle-Granger test, whose
p-value is one entry of ``PValueMatrix``'s columns.  A pair's roles are
decided before any join, by one number per ticker (``training_mean``, its
mean close over its own rows in the training window): the higher one is the
regressor, which later becomes asset1, the predictor of the pair model, and
ties break by ticker.  ``coint_matrix`` and ``order_pair`` both apply that
rule, so the scan, on the sector-wide join, and the pair commands, on the
pair's own, give a pair the same roles.  Pairs beat the significance
threshold outright or squeak in within a configurable near-threshold
margin.  A pair whose residuals are exactly zero (say, two share classes of
one company) gets p = 0 and a recorded reason instead of aborting the scan.
The pairs are tested in blocks that share their stage-1 terms, lag-order
checks and refits, and whose outcome is columns: no object is built per
pair.  A large scan also forks workers, each of which sends its p-values
back down a pipe as two arrays (see ``_scan_pairs``).  The columns are the
same whatever the blocks and the processes.  The module only computes:
``cli`` writes the artifacts.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from datetime import date
from typing import NoReturn

import numpy as np

from .econometrics import OlsOriginReport, ols_through_origin
from .errors import ExactlyConstant, SeriesTooShort
from .marketdata import AlignedPanel, align_panel, slice_window
# engle_granger, which the scan no longer calls pair by pair, stays importable
# from here with adf_test: perfbench's tracer wraps both where this module
# refers to them.
from .unitroot import (CONSTANT, AdfResult, Stage1Terms, adf_test,  # noqa: F401
                       block_rows, engle_granger, EG_MIN_N, engle_granger_block,
                       engle_granger_pvalues, fault, stage1_terms, unit_rows)

DEFAULT_THRESHOLD = 0.05
DEFAULT_NEAR_EPS = 0.02

#: Why a pair's p-value is 0: its Engle-Granger residuals are exactly constant.
EXACT_DEPENDENCE = "exact linear dependence"


@dataclass(frozen=True, eq=False)
class PValueMatrix:
    """Engle-Granger tests of every unordered pair in a panel, as read-only columns.

    Entry k of each column is the pair ``(tickers[i], tickers[j])``, i < j,
    of the k-th index pair of ``numpy.triu_indices(len(tickers), 1)``, the
    order ``cli`` labels the records by.  ``predictors`` and ``targets`` are
    the pair's roles as ticker indices, ``p_values`` its p-value and
    ``exact`` whether its residuals are exactly constant, which gives p = 0
    and the reason ``EXACT_DEPENDENCE``.
    """

    tickers: tuple[str, ...]
    predictors: np.ndarray
    targets: np.ndarray
    p_values: np.ndarray
    exact: np.ndarray


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


def training_mean(series: AlignedPanel, train: tuple[date, date]) -> float:
    """A ticker's ordering key: its mean close over its own rows in the ``train`` window.

    ``series`` is the ticker's one-ticker panel, as ``load_csv`` gives it,
    so the key does not depend on which other tickers it is joined with.
    """
    if len(series.tickers) != 1:
        raise ValueError(f"a ticker's key comes from a one-ticker panel, "
                         f"not {'/'.join(series.tickers)}")
    return float(np.mean(slice_window(series, *train).closes[0]))


def _a_predicts(ticker_a: str, mean_a: float, ticker_b: str, mean_b: float) -> bool:
    """The pair-ordering rule on two ``training_mean`` keys: higher predicts, ties by ticker."""
    if mean_a != mean_b:
        return mean_a > mean_b
    return ticker_a <= ticker_b


def order_pair(a: AlignedPanel, b: AlignedPanel, train: tuple[date, date]) -> AlignedPanel:
    """The pair panel of one-ticker panels ``a`` and ``b``: their inner join, predictor first.

    The predictor has the higher ``training_mean`` over ``train``, ties
    broken by ticker: the roles ``coint_matrix`` gives the pair.  The whole
    join is returned, so each window of it keeps that order.
    """
    if _a_predicts(a.tickers[0], training_mean(a, train), b.tickers[0], training_mean(b, train)):
        return align_panel([a, b])
    return align_panel([b, a])


#: A scan forks workers only when each process that scans, this one among
#: them, gets at least this many pair-dates (pairs x common dates).
#: Measured in-process on a 2-vCPU x86-64 host with one BLAS thread: a scan
#: costs 0.06-0.09 us a pair-date, and forking a worker, reading its results
#: and reaping it costs 1.8-2.4 ms.  Two processes broke even at about 110k
#: pair-dates in all: they lost 2 ms on 21k and saved 1 ms on 142k, 5 ms on
#: 284k and 13 ms on 585k.  The floor, above that crossover, keeps scans of
#: a few tens of pairs (the paper's sectors) in one process.
_POOL_MIN_PAIR_DATES = 150_000


def _pool_size(n_pairs: int, n_dates: int) -> int:
    """Processes that scan ``n_pairs`` pairs over ``n_dates`` dates, this one among them.

    One per CPU this process may run on, but no more than leaves each
    ``_POOL_MIN_PAIR_DATES``; 1 means the scan runs in this process alone.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_pairs * n_dates // _POOL_MIN_PAIR_DATES))


def _scan_span(tickers, terms: Stage1Terms, pairs, parent: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """The p-values of the ``(target, predictor)`` index pairs of ``pairs``, and which are exact.

    The pairs are tested as ``engle_granger_block``s of ``block_rows`` pairs.
    A pair whose residuals are exactly constant (fault code ``CONSTANT``)
    gets p = 0 and an exact flag; the first pair with any other fault, a
    singular or exactly fitting residual regression, raises it with the
    pair's tickers named in panel order.  With a ``parent`` pid, as in a
    forked worker, the process first leaves quietly if that parent is gone,
    before each block.
    """
    size = block_rows(terms.rows.shape[1])
    p_values, exact = np.zeros(len(pairs)), np.zeros(len(pairs), dtype=bool)
    for start in range(0, len(pairs), size):
        if parent is not None and os.getppid() != parent:
            os._exit(0)  # the parent was killed outright: no one reads these results
        block = slice(start, start + size)
        _, taus, codes = engle_granger_block(terms, pairs[block])
        if (faulty := np.flatnonzero((codes != 0) & (codes != CONSTANT))).size:
            i, j = sorted(pairs[start + faulty[0]])
            raise fault(codes[faulty[0]], f"pair ({tickers[i]}, {tickers[j]}): ")
        exact[block] = codes == CONSTANT
        p_values[block][codes == 0] = engle_granger_pvalues(taus[codes == 0])
    return p_values, exact


def _serve_span(tickers, terms: Stage1Terms, pairs, parent: int, fds: list[int], mask) -> NoReturn:
    """A forked worker: scan ``pairs``, pickle the outcome down the write end ``fds[-1]``, exit."""
    status = 1
    try:
        # Ctrl-C reaches the whole process group; the parent alone handles it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in fds[:-1]:  # held here, a read end keeps an orphaned sibling's write blocked
            os.close(fd)
        try:
            outcome = _scan_span(tickers, terms, pairs, parent)
        except Exception as exc:
            outcome = exc
        with open(fds[-1], "wb") as pipe:
            pickle.dump(outcome, pipe)
        status = 0
    finally:
        os._exit(status)  # no parent code, no exit handlers


def _scan_pairs(tickers, terms: Stage1Terms, pairs, workers: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """``_scan_span`` over all ``pairs``, split into ``workers`` contiguous spans.

    A forked worker scans each span but the first, which this process
    scans.  The outcomes are read, and each worker reaped, in span order;
    the first fault is raised at once, as in one process.  Any exception
    that leaves the scan (that fault, Ctrl-C or the CLI's ``SystemExit`` on
    SIGTERM) first kills and reaps every worker not yet read.  With fewer
    than 2 workers, or no ``fork`` on this platform, the scan runs here alone.
    """
    # Fork, not spawn: a forked worker starts with numpy, this package and
    # the closes in memory.  The CLI forks from one thread, as it runs BLAS on one.
    if workers < 2 or not hasattr(os, "fork"):
        return _scan_span(tickers, terms, pairs)
    n = len(pairs)
    spans = [pairs[n * k // workers:n * (k + 1) // workers] for k in range(workers)]
    parent, fds, pids, reaped = os.getpid(), [], [], 0
    # SIGINT and SIGTERM wait while forking and reaping: no handler runs in a
    # worker before it sets its own, nor between a fork or a wait and its
    # record, so an interrupted scan kills and reaps every worker it has.
    stop = (signal.SIGINT, signal.SIGTERM)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, stop)
    try:
        for span in spans[1:]:
            fds.extend(os.pipe())
            if (pid := os.fork()) == 0:
                _serve_span(tickers, terms, span, parent, fds, mask)
            pids.append(pid)
            os.close(fds.pop())  # the write end; the worker's read end stays
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = [_scan_span(tickers, terms, spans[0])]
        for k, (pid, fd) in enumerate(zip(pids, fds), 1):
            data = open(fd, "rb", closefd=False).read()
            signal.pthread_sigmask(signal.SIG_BLOCK, stop)
            code, reaped = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), k
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"scan worker {k} (pid {pid}) {how} before sending its p-values")
            outcomes.append(pickle.loads(data))
            if isinstance(outcomes[-1], Exception):
                raise outcomes[-1]
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, stop)
        for fd in fds:
            os.close(fd)
        for pid in pids[reaped:]:  # a pipe no one reads any more harms nothing
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return tuple(map(np.concatenate, zip(*outcomes)))


def check_training_window(train: AlignedPanel) -> None:
    """Refuse a sector's or a pair's training window of fewer than ``EG_MIN_N`` dates."""
    if len(train) < EG_MIN_N:
        raise SeriesTooShort(f"need >= {EG_MIN_N} common training dates, have {len(train)}")


def coint_matrix(panel: AlignedPanel, means: list[float]) -> PValueMatrix:
    """Engle-Granger test of every unordered pair of panel tickers.

    ``panel`` is the joined training window the pairs are tested on, and
    ``means`` holds each ticker's ``training_mean``, in panel order: the
    keys that decide every pair's roles, as ``order_pair`` decides them.
    Within each pair the ticker with the higher key is the regressor and the
    other the dependent series, matching the predictor/target convention of
    the pair model.  The roles and the p-values are columns in the order
    ``PValueMatrix`` fixes.  A pair whose residuals are exactly constant gets
    p = 0 and an ``exact`` flag (``EXACT_DEPENDENCE``); any other per-pair
    fault aborts the scan, and so does a ticker whose closes never move, or
    a window that ``check_training_window`` refuses.  A scan with enough
    work runs on forked workers (see ``_pool_size``); its columns are the
    same either way.
    """
    tickers = panel.tickers
    n = len(tickers)
    if n < 2:
        raise ValueError("panel must hold at least 2 tickers")
    if len(means) != n:
        raise ValueError(f"need one key per ticker, got {len(means)} for {n} tickers")
    check_training_window(panel)

    for ticker, row in zip(tickers, panel.closes):
        # A flat target would leave exactly constant residuals against any
        # regressor; that is no evidence of dependence.
        if np.ptp(row) == 0.0:
            raise ExactlyConstant(f"{ticker}: closes are constant")
    terms = stage1_terms(unit_rows(panel.closes))
    pairs = [(j, i) if _a_predicts(tickers[i], means[i], tickers[j], means[j]) else (i, j)
             for i in range(n) for j in range(i + 1, n)]
    p_values, exact = _scan_pairs(tickers, terms, pairs, _pool_size(len(pairs), len(panel.dates)))
    targets, predictors = np.array(pairs, dtype=np.intp).T
    for column in (predictors, targets, p_values, exact):
        column.setflags(write=False)
    return PValueMatrix(tickers, predictors, targets, p_values, exact)


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
    selected = [SelectedPair(m.tickers[pred], m.tickers[targ], p, near_threshold=p >= threshold)
                for pred, targ, p in zip(m.predictors, m.targets, m.p_values.tolist())
                if p < threshold + near_eps]
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
    verdict is recorded; residuals of range 0 are "degenerate (constant
    residuals)".  A window too short for ``check_training_window`` raises
    ``SeriesTooShort``, closes too large for the fit's sums of squares
    ``SumOverflow``, and a singular or exactly fitting ADF regression of
    residuals that do move ``ConstantSeries``.
    """
    check_training_window(train)
    predictor, target = train.closes
    try:
        report = ols_through_origin(predictor, target)
        residual_adf = adf_test(report.residuals, deterministic="constant")
    except ExactlyConstant:
        return PairModel(report=report, residual_adf=None,
                         verdict="degenerate (constant residuals)")
    return PairModel(report=report, residual_adf=residual_adf,
                     verdict=_stationarity_verdict(residual_adf))
