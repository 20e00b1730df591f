"""The sector scan's worker pool: same cells, same faults, no process left behind."""

import csv
import json
import multiprocessing
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
from pairtrader.cli import RunConfig, _sector_panel, main
from pairtrader.errors import SeriesTooShort
from pairtrader.marketdata import AlignedPanel, slice_window
from pairtrader.synthetic import weekday_calendar

from conftest import blas_env, tree_bytes

# The in-process tests fork the test runner, which loaded numpy before
# ``pairtrader.cli`` and so runs OpenBLAS on several threads; Python 3.12+
# warns about that fork.  The CLI runs one thread and forks without the
# warning, which ``test_pooled_scan_writes_the_bytes_of_a_one_cpu_scan``
# checks with the warning turned into an error.
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")

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
        # CLI runs one BLAS thread, so its fork must not.
        done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", script],
                              env=blas_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs[pin] = json.loads(done.stdout.splitlines()[-1]), tree_bytes(out)
    # 780 pairs x 750 dates is work for 3 workers above the floor.
    workers = min(len(os.sched_getaffinity(0)), 3)
    assert runs[False][0] == {"code": 0, "workers": [workers], "children": False}
    assert runs[True][0] == {"code": 0, "workers": [1], "children": False}
    assert runs[False][1] == runs[True][1]
    assert len(runs[False][1]) == 4


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
    return slice_window(_sector_panel(config, "metals"), *config.train_window)


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_cells_equal_serial_cells(train_panel, forced_workers, workers):
    forced_workers(1)
    serial = pairscan.coint_matrix(train_panel)
    forced_workers(workers)
    pooled = pairscan.coint_matrix(train_panel)
    assert pooled.cells == serial.cells
    assert [c.p_value for c in pooled.cells] == [c.p_value for c in serial.cells]
    assert multiprocessing.active_children() == []


def block_panel(n_tickers, n_dates, seed, twin, fallback):
    """Random-walk tickers, two of them replaced to make awkward pairs.

    Ticker ``twin`` is exactly twice the one before it, a share-class pair
    whose residuals are exactly constant (``EXACT_DEPENDENCE``).  Ticker
    ``fallback`` is the one before it less 10, plus +-1 on alternate days
    and noise of 1e-5: the one before it holds each close for two days (over
    an even number of dates), so the residuals are +-1 and the noise.  Each
    residual difference is then almost minus the one before, an almost exact
    fit that the Gram search leaves to the QR search.
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
    real = unitroot._qr_lag_search
    qr_searches = []
    scans = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unitroot, "_qr_lag_search",
                      lambda design, ntrend: qr_searches.append(1) or real(design, ntrend))
        for name, rows, workers in [("one pair", lambda n: 1, 1), ("default", unitroot.block_rows, 1),
                                    ("pooled", unitroot.block_rows, 2)]:
            patch.setattr(pairscan, "block_rows", rows)
            patch.setattr(pairscan, "_pool_size", lambda n_pairs, n_dates: workers)
            del qr_searches[:]
            cells = pairscan.coint_matrix(panel).cells
            scans[name] = cells, [c.adf and c.adf.tau.hex() for c in cells]
            # The pooled scan's QR searches run in its workers.
            assert workers > 1 or qr_searches, name
    assert scans["one pair"] == scans["default"] == scans["pooled"]
    cells = scans["default"][0]
    exact = [(c.ticker_a, c.ticker_b) for c in cells if c.reason == pairscan.EXACT_DEPENDENCE]
    assert exact == [(f"T{twin - 1}", f"T{twin}")]
    assert multiprocessing.active_children() == []


def fail_on_pairs(monkeypatch, panel, *pairs):
    """Make the scan's block test give ``SeriesTooShort`` for each pair of tickers in ``pairs``.

    The fault takes the pair's place among the block's outcomes, as a real
    per-pair fault does, and ``pairscan`` names the pair.
    """
    closes = dict(zip(panel.tickers, panel.closes))
    bad = [{closes[a][0], closes[b][0]} for a, b in pairs]
    real = pairscan.engle_granger_block

    def engle_granger_block(terms, block, max_lag=None):
        outcomes = real(terms, block, max_lag)
        return [SeriesTooShort("injected fault") if {terms.rows[t][0], terms.rows[p][0]} in bad
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
            pairscan.coint_matrix(train_panel)
        faults[n] = type(caught.value), str(caught.value)
        assert multiprocessing.active_children() == []
    assert faults[workers] == faults[1] == (SeriesTooShort,
                                            "pair (DUNE, HOLLY): injected fault")


def test_first_failing_pair_wins_as_in_one_process(train_panel, forced_workers, monkeypatch):
    # Faults in the first and the last span, two of them in the first span's
    # one block: the scan reports the first.
    fail_on_pairs(monkeypatch, train_panel, ("AMBER", "DUNE"), ("HOLLY", "IRON"),
                  ("AMBER", "BASALT"))
    forced_workers(3)
    with pytest.raises(SeriesTooShort, match=r"^pair \(AMBER, BASALT\): injected fault$"):
        pairscan.coint_matrix(train_panel)
    assert multiprocessing.active_children() == []


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
        assert multiprocessing.active_children() == []
    assert results[3] == results[1]
    code, err, written = results[1]
    assert code == SeriesTooShort.exit_code
    assert err.endswith("pairtrader: error: pair (CEDAR, EMBER): injected fault\n")
    assert not written


def test_cli_scan_bytes_do_not_depend_on_worker_count(synth_dir, tmp_path, forced_workers):
    trees = {}
    for n in (1, 2, 3):
        forced_workers(n)
        out = tmp_path / f"workers_{n}"
        assert main(["scan", "--config", str(synth_dir / "config.json"), "--sector", "metals",
                     "--out", str(out)]) == 0
        trees[n] = tree_bytes(out)
        assert multiprocessing.active_children() == []
    assert trees[1] == trees[2] == trees[3]


# A pooled scan whose pairs each take 50 ms, one pair to a block, interrupted
# by SIGINT to the process group 0.3 s in, as Ctrl-C in a terminal does.
INTERRUPTED_SCAN = """
import json, os, signal, time
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
import multiprocessing
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({{"outcome": outcome, "active": len(multiprocessing.active_children()),
                  "children": children}}))
"""


def test_interrupted_pooled_scan_leaves_no_worker(synth_dir, tmp_path):
    out = tmp_path / "out"
    script = INTERRUPTED_SCAN.format(config=str(synth_dir / "config.json"), out=str(out))
    # A process group of its own, so the SIGINT reaches it and no other process.
    done = subprocess.run([sys.executable, "-c", script], env=blas_env(),
                          capture_output=True, text=True, start_new_session=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "outcome": "interrupted", "active": 0, "children": False}
    assert not out.exists()
    # The workers ignore SIGINT: only the parent reports the interrupt, in one line.
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["pairtrader: error: interrupted"]


def test_workers_leave_ctrl_c_to_the_parent(train_panel, forced_workers, monkeypatch):
    # A worker that took SIGINT would print its own traceback beside the
    # parent's; every block of a pooled scan runs in a worker that ignores it.
    real = pairscan.engle_granger_block

    def engle_granger_block(terms, block, max_lag=None):
        if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
            raise SeriesTooShort("this process takes SIGINT")
        return real(terms, block, max_lag)

    monkeypatch.setattr(pairscan, "engle_granger_block", engle_granger_block)
    forced_workers(2)
    assert len(pairscan.coint_matrix(train_panel).cells) == 45
    assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN


def test_no_fork_start_method_scans_in_process(train_panel, forced_workers, monkeypatch):
    forced_workers(1)
    serial = pairscan.coint_matrix(train_panel)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: pytest.fail("a pool was started"))
    forced_workers(3)
    assert pairscan.coint_matrix(train_panel).cells == serial.cells


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


def test_cli_import_loads_no_multiprocessing():
    probe = "import json, sys, pairtrader.cli\nprint(json.dumps('multiprocessing' in sys.modules))\n"
    done = subprocess.run([sys.executable, "-c", probe], env=blas_env(),
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) is False


# A pooled scan whose pairs each take 0.5 s, one pair to a block; each worker
# appends its pid to a file as it starts a block, so the test knows when both
# are at work.
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
            assert scan.poll() is None and time.monotonic() < deadline, "no pool at work"
            time.sleep(0.05)
        os.kill(scan.pid, signum)
        killed = time.monotonic()
        # The pipes close once the parent and both workers have exited; each
        # worker's span holds 22 or 23 pairs, over 10 s of work.
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
