"""The sector scan's worker pool: same cells, same faults, no process left behind."""

import csv
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from datetime import date

import numpy as np
import pytest

from pairtrader import pairscan
from pairtrader.cli import RunConfig, _sector_panel, main
from pairtrader.errors import SeriesTooShort
from pairtrader.marketdata import slice_window
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


def fail_on_pairs(monkeypatch, panel, *pairs):
    """Make ``engle_granger`` raise ``SeriesTooShort`` for each pair of tickers in ``pairs``."""
    closes = dict(zip(panel.tickers, panel.closes_by_ticker()))
    bad = [{closes[a][0], closes[b][0]} for a, b in pairs]
    real = pairscan.engle_granger

    def engle_granger(y, x, max_lag=None):
        if {y[0], x[0]} in bad:
            raise SeriesTooShort("injected fault")
        return real(y, x, max_lag)

    monkeypatch.setattr(pairscan, "engle_granger", engle_granger)


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
    # Faults in the first and the last span: the scan reports the first.
    fail_on_pairs(monkeypatch, train_panel, ("AMBER", "BASALT"), ("HOLLY", "IRON"))
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


# A pooled scan whose pairs each take 50 ms, interrupted by SIGINT to the
# process group 0.3 s in, as Ctrl-C in a terminal does.
INTERRUPTED_SCAN = """
import json, os, signal, time
import pairtrader.cli
from pairtrader import pairscan
real = pairscan.engle_granger
def slow(y, x, max_lag=None):
    time.sleep(0.05)
    return real(y, x, max_lag)
pairscan.engle_granger = slow
pairscan._pool_size = lambda n_pairs, n_dates: 2
signal.signal(signal.SIGALRM, lambda *_: os.killpg(0, signal.SIGINT))
signal.setitimer(signal.ITIMER_REAL, 0.3)
try:
    pairtrader.cli.main(["scan", "--config", {config!r}, "--sector", "metals",
                         "--out", {out!r}])
    outcome = "finished"
except KeyboardInterrupt:
    outcome = "interrupted"
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
    # The workers ignore SIGINT: only the parent reports the interrupt.
    assert "Traceback" not in done.stderr


def test_workers_leave_ctrl_c_to_the_parent(train_panel, forced_workers, monkeypatch):
    # A worker that took SIGINT would print its own traceback beside the
    # parent's; every pair of a pooled scan runs in a worker that ignores it.
    real = pairscan.engle_granger

    def engle_granger(y, x, max_lag=None):
        if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
            raise SeriesTooShort("this process takes SIGINT")
        return real(y, x, max_lag)

    monkeypatch.setattr(pairscan, "engle_granger", engle_granger)
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
