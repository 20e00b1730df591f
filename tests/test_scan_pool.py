"""The sector scan's forked workers: same columns, same faults, no process left behind."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrader import pairscan, unitroot
from pairtrader.cli import RunConfig, _scan_input, main
from pairtrader.errors import SeriesTooShort
from pairtrader.marketdata import AlignedPanel
from pairtrader.synthetic import weekday_calendar

from conftest import assert_no_child_left, blas_env, row_means, tree_bytes

# Every warning is an error, but one: the in-process tests fork the test
# runner, which loaded numpy before ``pairtrader.cli`` and so runs OpenBLAS
# on several threads, and Python 3.12+ warns about that fork.  The CLI runs
# one thread and forks without the warning, which
# ``test_pooled_scan_writes_the_bytes_of_a_one_cpu_scan`` checks with every
# warning an error.  Of two marks, the later takes precedence.
pytestmark = [pytest.mark.filterwarnings("error"),
              pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:"
                                         "DeprecationWarning")]

def write_wide_sector(out, n_tickers=40, train_days=750, test_days=30, seed=11):
    """Random-walk tickers on a weekday calendar, and a config for sector 'wide'."""
    rng = np.random.default_rng(seed)
    calendar = weekday_calendar(date(2015, 1, 1), train_days + test_days)
    steps = rng.normal(0.0, 0.02, size=(len(calendar), n_tickers))
    closes = rng.uniform(20.0, 500.0, size=n_tickers) * np.exp(np.cumsum(steps, axis=0))
    members = []
    for k in range(n_tickers):
        ticker = f"T{k:02d}"
        path = out / f"{ticker}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Date", "Close"])
            writer.writerows((day.isoformat(), f"{close:.2f}")
                             for day, close in zip(calendar, closes[:, k]))
        members.append({"ticker": ticker, "csv": path.name})
    config = out / "config.json"
    config.write_text(json.dumps({
        "sectors": {"wide": members},
        "train_window": [calendar[0].isoformat(), calendar[train_days - 1].isoformat()],
        "test_window": [calendar[train_days].isoformat(), calendar[-1].isoformat()],
    }))
    return config


# Scans sector 'wide' as the CLI does, optionally pinned to one CPU first,
# and prints the worker count the scan used and whether a child is left.
PINNED_SCAN = """
import json, os, sys
if {pin}:
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
import pairtrader.cli
from pairtrader import pairscan
workers = []
real_scan_pairs = pairscan._scan_pairs
def scan_pairs(tickers, closes, pairs, n):
    workers.append(n)
    return real_scan_pairs(tickers, closes, pairs, n)
pairscan._scan_pairs = scan_pairs
code = pairtrader.cli.main(["scan", "--config", {config!r}, "--sector", "wide",
                            "--out", {out!r}])
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({{"code": code, "workers": workers, "children": children}}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and 2 or more CPUs")
def test_pooled_scan_writes_the_bytes_of_a_one_cpu_scan(tmp_path):
    config = write_wide_sector(tmp_path)
    runs = {}
    for pin in (False, True):
        out = tmp_path / f"pinned_{pin}"
        script = PINNED_SCAN.format(pin=pin, config=str(config), out=str(out))
        # A fork from a process running threads warns on Python 3.12+; the
        # CLI runs one BLAS thread, so its fork must not, nor may anything
        # else in the scan warn.
        done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              env=blas_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs[pin] = json.loads(done.stdout.splitlines()[-1]), tree_bytes(out)
    # 780 pairs x 750 dates is work for 3 workers above the floor.
    workers = min(len(os.sched_getaffinity(0)), 3)
    assert runs[False][0] == {"code": 0, "workers": [workers], "children": False}
    assert runs[True][0] == {"code": 0, "workers": [1], "children": False}
    assert runs[False][1] == runs[True][1]
    assert len(runs[False][1]) == 4


def columns(matrix):
    """A scan's tickers and the bytes of each of its four columns."""
    return matrix.tickers, [getattr(matrix, name).tobytes()
                            for name in ("predictors", "targets", "p_values", "exact")]


@pytest.fixture
def forced_workers(monkeypatch):
    """Set the worker count every scan uses, whatever its size and the CPU count."""
    def force(workers):
        monkeypatch.setattr(pairscan, "_pool_size", lambda n_pairs, n_dates: workers)
    return force


@pytest.fixture(scope="module")
def train_panel(synth_dir):
    """The demo sector's training window, as ``scan`` tests it: 45 pairs."""
    config = RunConfig.from_json(synth_dir / "config.json")
    panel, _ = _scan_input(config, "metals")
    return panel


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_cells_equal_serial_cells(train_panel, forced_workers, workers):
    forced_workers(1)
    serial = pairscan.coint_matrix(train_panel, row_means(train_panel))
    forced_workers(workers)
    pooled = pairscan.coint_matrix(train_panel, row_means(train_panel))
    assert columns(pooled) == columns(serial)
    assert_no_child_left()


def block_panel(n_tickers, n_dates, seed, twin, fallback):
    """Random-walk tickers, two of them replaced to make awkward pairs.

    Ticker ``twin`` is exactly twice the one before it, a share-class pair
    whose residuals are exactly constant (``EXACT_DEPENDENCE``).  Ticker
    ``fallback`` is the one before it less 10, plus +-1 on alternate days
    and noise of 1e-5: the one before it holds each close for two days (over
    an even number of dates), so the residuals are +-1 and the noise.  Each
    residual difference is then almost minus the one before, an almost exact
    fit that the Gram search leaves to the Householder search.
    """
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=(n_dates, n_tickers)), axis=0))
    held = np.repeat(closes[::2, fallback - 1], 2)[:n_dates]
    closes[:, fallback - 1] = held
    closes[:, fallback] = (held - 10.0 + np.where(np.arange(n_dates) % 2, 1.0, -1.0)
                           + 1e-5 * rng.normal(size=n_dates))
    closes[:, twin] = 2.0 * closes[:, twin - 1]
    return AlignedPanel(tuple(f"T{k}" for k in range(n_tickers)),
                        tuple(weekday_calendar(date(2015, 1, 1), n_dates)), closes.T)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n_tickers=st.integers(min_value=6, max_value=11),
       n_dates=st.integers(min_value=20, max_value=200).map(lambda k: 2 * k),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cells_do_not_depend_on_block_boundaries(data, n_tickers, n_dates, seed):
    # The twin and the fallback pair sit among the other pairs, so that each
    # is inside a block of the default budget (38 or more pairs of up to 400
    # dates, against at most 55 pairs here) and of a pooled scan's spans.
    twin, fallback = data.draw(st.lists(st.integers(min_value=2, max_value=n_tickers - 2),
                                        min_size=2, max_size=2, unique=True)
                               .filter(lambda ks: abs(ks[0] - ks[1]) > 1))
    panel = block_panel(n_tickers, n_dates, seed, twin, fallback)
    real = unitroot._householder_lag_search
    qr_searches = []
    scans = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unitroot, "_householder_lag_search",
                      lambda designs, ntrend: qr_searches.append(1) or real(designs, ntrend))
        for name, rows, workers in [("one pair", lambda n: 1, 1), ("default", unitroot.block_rows, 1),
                                    ("pooled", unitroot.block_rows, 2)]:
            patch.setattr(pairscan, "block_rows", rows)
            patch.setattr(pairscan, "_pool_size", lambda n_pairs, n_dates: workers)
            del qr_searches[:]
            scans[name] = pairscan.coint_matrix(panel, row_means(panel))
            # The pooled scan runs some Householder searches in its worker,
            # where this list does not see them.
            assert workers > 1 or qr_searches, name
    assert columns(scans["one pair"]) == columns(scans["default"]) == columns(scans["pooled"])
    scan = scans["default"]
    exact = [{scan.tickers[pred], scan.tickers[targ]}
             for pred, targ in zip(scan.predictors[scan.exact], scan.targets[scan.exact])]
    assert exact == [{f"T{twin - 1}", f"T{twin}"}]
    assert scan.p_values[scan.exact].tolist() == [0.0]
    # Each pair's statistic, lag order and sample size, bit for bit, whatever
    # the block: the whole scan as one block against a block of one a pair.
    pairs = list(zip(scan.targets.tolist(), scan.predictors.tolist()))
    terms = unitroot.stage1_terms(unitroot.unit_rows(panel.closes))

    def outcome(result):
        if isinstance(result, Exception):
            return type(result), str(result)
        return result.tau.hex(), result.used_lags, result.n_eff

    assert [outcome(r) for r in unitroot.engle_granger_block(terms, pairs)] == [
        outcome(unitroot.engle_granger_block(terms, [pair])[0]) for pair in pairs]
    assert_no_child_left()


def fail_on_pairs(monkeypatch, panel, *pairs):
    """Make the scan's block test give ``SeriesTooShort`` for each pair of tickers in ``pairs``.

    The fault takes the pair's place among the block's outcomes, as a real
    per-pair fault does, and ``pairscan`` names the pair.  The pairs are
    told by their tickers' indices in ``panel``, the scan's own.
    """
    bad = [{panel.tickers.index(a), panel.tickers.index(b)} for a, b in pairs]
    real = pairscan.engle_granger_block

    def engle_granger_block(terms, block, max_lag=None):
        outcomes = real(terms, block, max_lag)
        return [SeriesTooShort("injected fault") if {t, p} in bad
                else outcome for (t, p), outcome in zip(block, outcomes)]

    monkeypatch.setattr(pairscan, "engle_granger_block", engle_granger_block)


@pytest.mark.parametrize("workers", [2, 3])
def test_per_pair_fault_is_the_serial_fault(train_panel, forced_workers, monkeypatch,
                                            workers):
    fail_on_pairs(monkeypatch, train_panel, ("DUNE", "HOLLY"))
    faults = {}
    for n in (1, workers):
        forced_workers(n)
        with pytest.raises(SeriesTooShort) as caught:
            pairscan.coint_matrix(train_panel, row_means(train_panel))
        faults[n] = type(caught.value), str(caught.value)
        assert_no_child_left()
    assert faults[workers] == faults[1] == (SeriesTooShort,
                                            "pair (DUNE, HOLLY): injected fault")


def test_first_failing_pair_wins_as_in_one_process(train_panel, forced_workers, monkeypatch):
    # Faults in the first and the last span, two of them in the first span's
    # one block: the scan reports the first.
    fail_on_pairs(monkeypatch, train_panel, ("AMBER", "DUNE"), ("HOLLY", "IRON"),
                  ("AMBER", "BASALT"))
    forced_workers(3)
    with pytest.raises(SeriesTooShort, match=r"^pair \(AMBER, BASALT\): injected fault$"):
        pairscan.coint_matrix(train_panel, row_means(train_panel))
    assert_no_child_left()


def stall_workers(monkeypatch):
    """Make each block a forked worker scans wait 60 s first."""
    parent, real = os.getpid(), pairscan.engle_granger_block

    def engle_granger_block(terms, block, max_lag=None):
        if os.getpid() != parent:
            time.sleep(60)
        return real(terms, block, max_lag)

    monkeypatch.setattr(pairscan, "engle_granger_block", engle_granger_block)


@pytest.mark.parametrize("workers", [2, 3])
def test_first_span_fault_stops_the_scan(train_panel, forced_workers, monkeypatch, workers):
    # The first span's first pair faults while every other span's worker
    # still has a minute of work: the scan raises at once, as in one
    # process, and leaves no worker behind.
    fail_on_pairs(monkeypatch, train_panel, ("AMBER", "BASALT"))
    stall_workers(monkeypatch)
    forced_workers(workers)
    start = time.monotonic()
    with pytest.raises(SeriesTooShort, match=r"^pair \(AMBER, BASALT\): injected fault$"):
        pairscan.coint_matrix(train_panel, row_means(train_panel))
    assert time.monotonic() - start < 10
    assert_no_child_left()


@pytest.mark.parametrize("faults", [(), (("AMBER", "BASALT"),)], ids=["cells", "fault"])
def test_workers_exit_on_their_own(train_panel, forced_workers, monkeypatch, faults):
    # A scan that reads every span signals no worker: each sends its outcome
    # and exits with status 0.  The first span's fault leaves the other
    # spans unread, and their workers, still at work, are killed and reaped.
    fail_on_pairs(monkeypatch, train_panel, *faults)
    if faults:
        stall_workers(monkeypatch)
    signalled, reaped = [], []
    real_kill, real_waitpid = os.kill, os.waitpid
    monkeypatch.setattr(os, "kill", lambda pid, signum: (
        signalled.append((pid, signum)) or real_kill(pid, signum)))
    monkeypatch.setattr(os, "waitpid", lambda pid, options: (
        reaped.append(real_waitpid(pid, options)) or reaped[-1]))
    forced_workers(3)
    if faults:
        with pytest.raises(SeriesTooShort):
            pairscan.coint_matrix(train_panel, row_means(train_panel))
    else:
        assert len(pairscan.coint_matrix(train_panel, row_means(train_panel)).p_values) == 45
    assert signalled == [(pid, signal.SIGKILL) for pid, _ in reaped if faults]
    assert [os.waitstatus_to_exitcode(status) for _, status in reaped] == (
        [-signal.SIGKILL] * 2 if faults else [0, 0])
    assert_no_child_left()


def test_a_worker_that_dies_is_named(train_panel, forced_workers, monkeypatch):
    # The last span's worker is killed outright, as the OOM killer would,
    # at the last pair.
    last = {len(train_panel.tickers) - 2, len(train_panel.tickers) - 1}
    real = pairscan.engle_granger_block

    def engle_granger_block(terms, block, max_lag=None):
        if set(block[0]) == last:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(terms, block, max_lag)

    monkeypatch.setattr(pairscan, "engle_granger_block", engle_granger_block)
    monkeypatch.setattr(pairscan, "block_rows", lambda n: 1)
    forced_workers(3)
    with pytest.raises(RuntimeError, match=r"^scan worker 2 \(pid \d+\) was killed by signal 9 "
                                           r"before sending its p-values$"):
        pairscan.coint_matrix(train_panel, row_means(train_panel))
    assert_no_child_left()


def test_cli_reports_a_pooled_fault_as_the_serial_one(synth_dir, tmp_path, capsys,
                                                      train_panel, forced_workers,
                                                      monkeypatch):
    fail_on_pairs(monkeypatch, train_panel, ("CEDAR", "EMBER"))
    results = {}
    for n in (1, 3):
        forced_workers(n)
        out = tmp_path / f"workers_{n}"
        code = main(["scan", "--config", str(synth_dir / "config.json"), "--sector", "metals",
                     "--out", str(out)])
        results[n] = code, capsys.readouterr().err, out.exists()
        assert_no_child_left()
    assert results[3] == results[1]
    code, err, written = results[1]
    assert code == SeriesTooShort.exit_code
    assert err.endswith("pairtrader: error: metals: pair (CEDAR, EMBER): injected fault\n")
    assert not written


def test_cli_scan_bytes_do_not_depend_on_worker_count(synth_dir, tmp_path, forced_workers):
    trees = {}
    for n in (1, 2, 3):
        forced_workers(n)
        out = tmp_path / f"workers_{n}"
        assert main(["scan", "--config", str(synth_dir / "config.json"), "--sector", "metals",
                     "--out", str(out)]) == 0
        trees[n] = tree_bytes(out)
        assert_no_child_left()
    assert trees[1] == trees[2] == trees[3]


# A pooled scan whose pairs each take 50 ms, one pair to a block, interrupted
# by SIGINT to the process group 0.3 s in, as Ctrl-C in a terminal does.  It
# takes SIGINT even when started with SIGINT ignored.
INTERRUPTED_SCAN = """
import json, os, signal, time
signal.signal(signal.SIGINT, signal.default_int_handler)
import pairtrader.cli
from pairtrader import pairscan
real = pairscan.engle_granger_block
def slow(terms, block, max_lag=None):
    time.sleep(0.05 * len(block))
    return real(terms, block, max_lag)
pairscan.engle_granger_block = slow
pairscan.block_rows = lambda n: 1
pairscan._pool_size = lambda n_pairs, n_dates: 2
signal.signal(signal.SIGALRM, lambda *_: os.killpg(0, signal.SIGINT))
signal.setitimer(signal.ITIMER_REAL, 0.3)
code = pairtrader.cli.main(["scan", "--config", {config!r}, "--sector", "metals",
                            "--out", {out!r}])
outcome = "interrupted" if code == 130 else f"exit {{code}}"
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({{"outcome": outcome, "children": children}}))
"""


def test_interrupted_pooled_scan_leaves_no_worker(synth_dir, tmp_path):
    out = tmp_path / "out"
    script = INTERRUPTED_SCAN.format(config=str(synth_dir / "config.json"), out=str(out))
    # A process group of its own, so the SIGINT reaches it and no other process.
    done = subprocess.run([sys.executable, "-c", script], env=blas_env(),
                          capture_output=True, text=True, start_new_session=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "outcome": "interrupted", "children": False}
    assert not out.exists()
    # The workers ignore SIGINT: only the parent reports the interrupt, in one line.
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["pairtrader: error: interrupted"]


def test_workers_leave_ctrl_c_to_the_parent(train_panel, forced_workers, monkeypatch):
    # A worker that took SIGINT would print its own traceback beside the
    # parent's; every block a worker runs sees SIGINT ignored, and SIGTERM
    # left to its default action, which kills the worker.  The parent scans
    # its own span with its own handler.
    parent = os.getpid()
    real = pairscan.engle_granger_block

    def engle_granger_block(terms, block, max_lag=None):
        handlers = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        if os.getpid() == parent:
            if handlers[0] is not signal.default_int_handler:
                raise SeriesTooShort("the parent's span lost its SIGINT handler")
        elif handlers != (signal.SIG_IGN, signal.SIG_DFL):
            raise SeriesTooShort("a worker takes SIGINT or handles SIGTERM")
        return real(terms, block, max_lag)

    monkeypatch.setattr(pairscan, "engle_granger_block", engle_granger_block)
    forced_workers(2)
    # The test runner may have started with SIGINT ignored; the scan takes
    # Ctrl-C as Python's default handler does.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        assert len(pairscan.coint_matrix(train_panel, row_means(train_panel)).p_values) == 45
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    finally:
        signal.signal(signal.SIGINT, previous)


def test_ctrl_c_while_reaping_still_reaps_every_worker(train_panel, forced_workers, monkeypatch):
    # Ctrl-C as each worker is reaped waits until the last one is.
    real_waitpid = os.waitpid

    def waitpid(pid, options):
        os.kill(os.getpid(), signal.SIGINT)
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    forced_workers(3)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            pairscan.coint_matrix(train_panel, row_means(train_panel))
    finally:
        signal.signal(signal.SIGINT, previous)
        monkeypatch.undo()
    assert_no_child_left()


def test_no_fork_start_method_scans_in_process(train_panel, forced_workers, monkeypatch):
    forced_workers(1)
    serial = pairscan.coint_matrix(train_panel, row_means(train_panel))
    monkeypatch.delattr(os, "fork")
    forced_workers(3)
    assert columns(pairscan.coint_matrix(train_panel, row_means(train_panel))) == columns(serial)


class TestPoolSize:
    def test_one_worker_per_available_cpu_above_the_floor(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        floor = pairscan._POOL_MIN_PAIR_DATES
        assert pairscan._pool_size(4950, 731) == 4
        assert pairscan._pool_size(190, 3750) == 4
        assert pairscan._pool_size(45, 783) == 1
        assert pairscan._pool_size(1, 2 * floor) == 2
        assert pairscan._pool_size(1, 2 * floor - 1) == 1
        assert pairscan._pool_size(1, 0) == 1

    def test_pinned_to_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert pairscan._pool_size(4950, 731) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pairscan._pool_size(4950, 731) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pairscan._pool_size(4950, 731) == 1


# Imports the CLI, then runs a scan of the demo sector on two processes.
POOLED_PROBE = """
import json, sys
import pairtrader.cli
from pairtrader import pairscan
imported = 'multiprocessing' in sys.modules
pairscan._pool_size = lambda n_pairs, n_dates: 2
code = pairtrader.cli.main(["scan", "--config", {config!r}, "--sector", "metals",
                            "--out", {out!r}])
print(json.dumps([imported, code, 'multiprocessing' in sys.modules]))
"""


def test_cli_import_loads_no_multiprocessing(synth_dir, tmp_path):
    probe = POOLED_PROBE.format(config=str(synth_dir / "config.json"), out=str(tmp_path / "out"))
    done = subprocess.run([sys.executable, "-c", probe], env=blas_env(),
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [False, 0, False]


# A pooled scan whose pairs each take 0.5 s, one pair to a block; each of
# its two processes appends its pid to a file as it starts a block, so the
# test knows when both are at work.
KILLED_SCAN = """
import os, time
import pairtrader.cli
from pairtrader import pairscan
real = pairscan.engle_granger_block
def slow(terms, block, max_lag=None):
    with open({pids!r}, "a") as handle:
        handle.write(f"{{os.getpid()}}\\n")
    time.sleep(0.5 * len(block))
    return real(terms, block, max_lag)
pairscan.engle_granger_block = slow
pairscan.block_rows = lambda n: 1
pairscan._pool_size = lambda n_pairs, n_dates: 2
pairtrader.cli.main(["scan", "--config", {config!r}, "--sector", "metals",
                     "--out", {out!r}])
"""


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=lambda s: s.name)
def test_killed_pooled_scan_leaves_no_worker(synth_dir, tmp_path, signum):
    pids, out = tmp_path / "pids", tmp_path / "out"
    script = KILLED_SCAN.format(pids=str(pids), config=str(synth_dir / "config.json"),
                                out=str(out))
    scan = subprocess.Popen([sys.executable, "-c", script], env=blas_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (pids.exists() and len(set(pids.read_text().split())) == 2):
            assert scan.poll() is None and time.monotonic() < deadline, "no worker at work"
            time.sleep(0.05)
        os.kill(scan.pid, signum)
        killed = time.monotonic()
        # The pipes close once the parent and its worker have exited; each
        # span holds 22 or 23 pairs, over 10 s of work.
        _, err = scan.communicate(timeout=10)
        assert time.monotonic() - killed < 3.0
    finally:
        try:
            os.killpg(scan.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        scan.communicate()
    # SIGTERM ends the scan as the shell reports a SIGTERM death.
    assert scan.returncode == (143 if signum == signal.SIGTERM else -signum)
    assert "Traceback" not in err and "Error" not in err, err
    assert not out.exists()
