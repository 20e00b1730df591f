import csv
import inspect
import io
import json
import math
from dataclasses import fields, replace
from datetime import date
from typing import NamedTuple

import numpy as np
import pytest

from pairtrader import unitroot
from pairtrader.cli import RunConfig, _scan_input, cmd_scan
from pairtrader.econometrics import correlation_matrix
from pairtrader.errors import ConstantSeries, EmptyIntersection, EmptyWindow, SeriesTooShort
from pairtrader.marketdata import AlignedPanel, align_panel, slice_window
from pairtrader.pairscan import (
    PairModel,
    PValueMatrix,
    coint_matrix,
    fit_pair,
    order_pair,
    select_pairs,
    training_mean,
)
from pairtrader.synthetic import PAIR_TICKERS, TRAIN_DAYS, build_sector, weekday_calendar
from pairtrader.unitroot import LEVELS, engle_granger, mackinnon_crit, mackinnon_pvalue

from conftest import make_series, row_means


@pytest.fixture(scope="module")
def synth_series():
    calendar = weekday_calendar(date(2018, 1, 1), TRAIN_DAYS)
    prices = build_sector()
    return {
        t: AlignedPanel((t,), calendar, prices[t][np.newaxis, :TRAIN_DAYS])
        for t in sorted(prices)
    }


@pytest.fixture(scope="module")
def synth_panel(synth_series):
    return align_panel(list(synth_series.values()))


@pytest.fixture(scope="module")
def synth_matrix(synth_panel):
    return coint_matrix(synth_panel, row_means(synth_panel))


def whole(series):
    """The full date span of a series, as a window."""
    return (series.dates[0], series.dates[-1])


class Cell(NamedTuple):
    """One pair's entry of a ``PValueMatrix``: its tickers in panel order, roles, p, exact flag."""

    ticker_a: str
    ticker_b: str
    predictor: str
    target: str
    p_value: float
    exact: bool


def cells(matrix):
    """Each pair's ``Cell``, in column order, where ``numpy.triu_indices`` gives its panel order."""
    names = matrix.tickers
    rows, cols = np.triu_indices(len(names), 1)
    return [Cell(names[i], names[j], names[pred], names[targ], p, exact)
            for i, j, pred, targ, p, exact in zip(rows, cols, matrix.predictors, matrix.targets,
                                                  matrix.p_values.tolist(), matrix.exact.tolist())]


def cell_of(matrix, a, b):
    """The cell of the unordered pair {a, b}."""
    return next(c for c in cells(matrix) if {c.predictor, c.target} == {a, b})


def by_panel_pair(matrix):
    """Each cell by its pair in panel order."""
    return {(c.ticker_a, c.ticker_b): c for c in cells(matrix)}


COLUMNS = ("predictors", "targets", "p_values", "exact")


def pair_panel(a, b, train=None):
    """The pair commands' pair: ``a`` and ``b`` inner-joined, predictor first."""
    return order_pair(a, b, train or whole(a))


class TestOrderPair:
    def test_higher_mean_becomes_predictor(self):
        a = make_series("A", [100, 100, 100])
        b = make_series("B", [50, 50, 50])
        assert pair_panel(a, b).tickers == ("A", "B")
        flipped = pair_panel(b, a)
        assert flipped.tickers == ("A", "B")
        assert flipped.closes.tolist() == [[100.0] * 3, [50.0] * 3]

    def test_tie_breaks_lexicographically(self):
        aa = make_series("AA", [10, 20])
        ab = make_series("AB", [20, 10])
        assert pair_panel(ab, aa).tickers == ("AA", "AB")

    def test_orders_on_training_window_only(self):
        # A's mean is higher over all dates, B's over the first two.
        a = make_series("A", [1, 1, 100])
        b = make_series("B", [5, 5, 5])
        ordered = pair_panel(a, b, train=(a.dates[0], a.dates[1]))
        assert ordered.tickers == ("B", "A")
        assert ordered.dates.tolist() == a.dates.tolist()

    def test_orders_on_each_tickers_own_rows(self):
        # B lacks A's third date.  Over the pair's common dates B's mean is
        # the higher; over its own rows A's is (40 against 20).
        a = make_series("A", [10, 10, 100])
        b = make_series("B", [20, 20])
        for first, second in ((a, b), (b, a)):
            ordered = pair_panel(first, second, train=whole(a))
            assert ordered.tickers == ("A", "B")
            assert ordered.dates.tolist() == b.dates.tolist()
            assert ordered.closes.tolist() == [[10.0, 10.0], [20.0, 20.0]]

    def test_key_is_the_mean_over_own_training_rows(self):
        a = make_series("A", [1, 2, 3, 10])
        assert training_mean(a, (a.dates[1], a.dates[2])) == 2.5
        assert training_mean(a, whole(a)) == 4.0

    def test_mismatched_calendars_rejected(self):
        a = make_series("A", [1, 2, 3])
        b = make_series("B", [1, 2, 3], start=date(2022, 1, 1))
        with pytest.raises(EmptyIntersection):
            pair_panel(a, b, train=(a.dates[0], b.dates[-1]))
        # A ticker without training rows has no key.
        with pytest.raises(EmptyWindow, match=r"^no observations in "):
            pair_panel(a, b)

    def test_pair_panel_keeps_shared_dates_only(self):
        a = make_series("A", [1, 2, 3, 4])
        b = make_series("B", [5, 6, 7], start=a.dates[1])
        ordered = pair_panel(a, b, train=whole(b))
        assert ordered.tickers == ("B", "A")
        assert ordered.dates.tolist() == a.dates[1:].tolist()
        assert ordered.closes[1].tolist() == [2.0, 3.0, 4.0]

    def test_needs_two_tickers(self):
        panel = align_panel([make_series(t, [1, 2, 3]) for t in "AB"])
        c = make_series("C", [1, 2, 3])
        for a, b in ((panel, c), (c, panel)):
            with pytest.raises(ValueError, match="one-ticker panel"):
                order_pair(a, b, whole(panel))


class TestCointMatrix:
    def test_two_ticker_panel_has_one_cell(self):
        rng = np.random.default_rng(1)
        base = np.abs(np.cumsum(rng.normal(size=60))) + 100.0
        panel = align_panel([
            make_series("A", base),
            make_series("B", 2 * base + rng.normal(0, 0.5, size=60)),
        ])
        (cell,) = cells(coint_matrix(panel, row_means(panel)))
        assert (cell.predictor, cell.target, cell.exact) == ("B", "A", False)
        # The p-value is the one-pair test's, computed where the pair was tested.
        target, predictor = panel.closes
        assert math.isfinite(cell.p_value)
        assert cell.p_value == engle_granger(target, predictor).p_value

    def test_synthetic_sector_covers_45_cells(self, synth_panel, synth_matrix):
        assert [len(getattr(synth_matrix, name)) for name in COLUMNS] == [45] * 4
        # Row-major upper-triangle order, the order of numpy.triu_indices.
        assert synth_matrix.tickers == synth_panel.tickers
        assert [{pred, targ} for pred, targ in zip(synth_matrix.predictors.tolist(),
                                                   synth_matrix.targets.tolist())] == [
            {i, j} for i, j in zip(*np.triu_indices(10, 1))
        ]

    def test_columns_are_typed_and_read_only(self, synth_matrix):
        assert [getattr(synth_matrix, name).dtype for name in COLUMNS] == [
            np.intp, np.intp, np.float64, np.bool_]
        for name in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(synth_matrix, name)[0] = 0

    def test_engineered_pair_detected_others_behave(self, synth_matrix):
        engineered = cell_of(synth_matrix, *PAIR_TICKERS).p_value
        assert engineered < 0.05
        others = [
            c.p_value for c in cells(synth_matrix)
            if {c.predictor, c.target} != set(PAIR_TICKERS)
        ]
        assert len(others) == 44
        # Null pairs reject at roughly the nominal rate; a handful of false
        # positives would still be consistent with 5% size.
        assert sum(1 for p in others if p < 0.05) <= 6

    def test_predictor_has_higher_mean_in_every_cell(self, synth_panel, synth_matrix):
        column = dict(zip(synth_panel.tickers, synth_panel.closes))
        for cell in cells(synth_matrix):
            assert np.mean(column[cell.predictor]) >= np.mean(column[cell.target])

    def test_permutation_stability(self, synth_series):
        rng = np.random.default_rng(31)
        walks = {t: np.abs(np.cumsum(rng.normal(size=80))) + 50 for t in "ABC"}
        # Three random walks, and the ten-ticker synthetic sector.
        for series in ([make_series(t, walks[t]) for t in "ABC"], list(synth_series.values())):
            m1 = coint_matrix(align_panel(series), row_means(align_panel(series)))
            m2 = coint_matrix(align_panel(series[::-1]), row_means(align_panel(series[::-1])))
            assert m2.tickers == m1.tickers[::-1]
            reversed_cells = by_panel_pair(m2)
            for (a, b), cell in by_panel_pair(m1).items():
                other = reversed_cells[b, a]
                assert (other.predictor, other.target) == (cell.predictor, cell.target)
                assert np.float64(other.p_value).tobytes() == np.float64(cell.p_value).tobytes()

    @pytest.mark.parametrize("factor", [0.5, 2.0, 1024.0])
    def test_power_of_two_price_scaling_is_bit_exact(self, synth_panel, synth_matrix, factor):
        # Scaling by a power of two is exact in binary floating point, and
        # both tests are scale-free, so every bit of every result must hold.
        scaled = AlignedPanel(synth_panel.tickers, synth_panel.dates, synth_panel.closes * factor)
        got = coint_matrix(scaled, row_means(scaled))
        for name in COLUMNS:
            assert getattr(got, name).tobytes() == getattr(synth_matrix, name).tobytes(), name
        assert correlation_matrix(scaled).tobytes() == correlation_matrix(synth_panel).tobytes()

    def test_reads_one_pvalue_per_pair_and_no_critical_value(self, synth_panel, monkeypatch):
        calls = {"crit": 0, "pvalue": 0}

        def counted(key, surface):
            def wrapper(*args):
                calls[key] += 1
                return surface(*args)
            return wrapper

        monkeypatch.setattr(unitroot, "mackinnon_crit", counted("crit", mackinnon_crit))
        monkeypatch.setattr(unitroot, "mackinnon_pvalue", counted("pvalue", mackinnon_pvalue))
        p_values = coint_matrix(synth_panel, row_means(synth_panel)).p_values
        assert len(p_values) == 45
        # Each pair evaluates its surface once, in the scan, however often it is read.
        for _ in range(2):
            assert all(0.0 <= p <= 1.0 for p in p_values.tolist())
        assert calls == {"crit": 0, "pvalue": 45}

        # Read on demand, an Engle-Granger result still gives the two-series
        # constant surface's critical values at its effective sample size.
        target, predictor = synth_panel.closes[:2]
        result = engle_granger(target, predictor)
        assert (result.n_series, result.deterministic) == (2, "constant")
        assert dict(result.crit) == {
            lvl: mackinnon_crit(2, "constant", lvl, result.n_eff) for lvl in LEVELS
        }
        assert calls == {"crit": 3, "pvalue": 45}

    def test_flat_ticker_aborts_instead_of_scoring_exact_dependence(self):
        # FLAT has the lower mean, so it is the target of every pair: its
        # residuals are exactly constant, yet it depends on nothing.
        rng = np.random.default_rng(3)
        walk = np.abs(np.cumsum(rng.normal(size=60))) + 100.0
        panel = align_panel([make_series("A", walk), make_series("FLAT", np.full(60, 5.0))])
        with pytest.raises(ConstantSeries, match="FLAT"):
            coint_matrix(panel, row_means(panel))

    def test_too_few_dates(self):
        panel = align_panel([make_series("A", range(1, 11)), make_series("B", range(2, 12))])
        with pytest.raises(SeriesTooShort):
            coint_matrix(panel, row_means(panel))


def matrix_from_pvalues(pvalues):
    """Upper-triangle matrix over synthetic tickers T0, T1, ... .

    In each pair the ticker first in panel order is the predictor.
    """
    count = len(pvalues)
    n = int((1 + math.isqrt(1 + 8 * count)) // 2)
    rows, cols = np.triu_indices(n, 1)
    return PValueMatrix(tickers=tuple(f"T{i}" for i in range(n)), predictors=rows, targets=cols,
                        p_values=np.array(pvalues, dtype=float),
                        exact=np.zeros(count, dtype=bool))


class TestSelectPairs:
    def test_rule_application(self):
        # A p-value equal to the threshold is a near-miss, not a pass.
        matrix = matrix_from_pvalues([0.01, 0.049, 0.05, 0.06, 0.5, 0.9])
        selected = select_pairs(matrix, threshold=0.05, near_eps=0.02)
        assert [s.coint_p for s in selected] == [0.01, 0.049, 0.05, 0.06]
        assert [s.near_threshold for s in selected] == [False, False, True, True]

    def test_zero_threshold_selects_nothing(self):
        matrix = matrix_from_pvalues([0.001, 0.01, 0.02])
        assert select_pairs(matrix, threshold=0.0) == []

    def test_sorted_ascending_with_ticker_tie_break(self):
        matrix = matrix_from_pvalues([0.04, 0.01, 0.04])
        selected = select_pairs(matrix)
        assert [s.coint_p for s in selected] == [0.01, 0.04, 0.04]
        assert selected[1].target_ticker < selected[2].target_ticker or (
            selected[1].predictor_ticker < selected[2].predictor_ticker
        )

    def test_bad_threshold(self):
        matrix = matrix_from_pvalues([0.04])
        with pytest.raises(ValueError):
            select_pairs(matrix, threshold=1.0)
        for near_eps in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="near_eps"):
                select_pairs(matrix, near_eps=near_eps)

    def test_cell_without_statistic_reads_zero(self):
        # B is exactly twice A: the residuals are exactly 0, and the test
        # gives no statistic.
        walk = np.abs(np.cumsum(np.random.default_rng(5).normal(size=60))) + 100.0
        panel = align_panel([make_series("A", walk), make_series("B", 2.0 * walk)])
        matrix = coint_matrix(panel, row_means(panel))
        assert (matrix.p_values.tolist(), matrix.exact.tolist()) == ([0.0], [True])
        selected = select_pairs(matrix)
        assert [(s.predictor_ticker, s.target_ticker, s.coint_p) for s in selected] == [
            ("B", "A", 0.0)
        ]

    def test_selection_from_scan_respects_order_pair(self, synth_series, synth_matrix):
        for pair in select_pairs(synth_matrix):
            ordered = pair_panel(
                synth_series[pair.target_ticker],
                synth_series[pair.predictor_ticker],
            )
            assert ordered.tickers == (pair.predictor_ticker, pair.target_ticker)


def same_report(r1, r2):
    """Every report field equal, the residual arrays element for element."""
    return all(
        np.array_equal(getattr(r1, f.name), getattr(r2, f.name))
        if f.name == "residuals" else getattr(r1, f.name) == getattr(r2, f.name)
        for f in fields(r1)
    )


class TestFitPair:
    def test_engineered_beta_two(self):
        rng = np.random.default_rng(41)
        base = np.abs(np.cumsum(rng.normal(size=200))) + 100.0
        predictor = make_series("P", base)
        target = make_series("T", 2.0 * base + rng.normal(0, 0.1, size=200))
        model = fit_pair(slice_window(align_panel([predictor, target]), *whole(predictor)))
        assert model.report.hedge_ratio == pytest.approx(2.0, abs=0.01)
        assert len(model.report.residuals) == len(predictor.dates)
        assert model.verdict == "stationary at 1%"

    def test_model_keeps_only_what_it_computes(self):
        assert [f.name for f in fields(PairModel)] == ["report", "residual_adf", "verdict"]
        assert list(inspect.signature(fit_pair).parameters) == ["train"]

    def test_exact_proportionality_is_degenerate(self):
        rng = np.random.default_rng(43)
        base = np.abs(np.cumsum(rng.normal(size=120))) + 50.0
        predictor = make_series("P", base)
        target = make_series("T", 2.0 * base)
        model = fit_pair(slice_window(align_panel([predictor, target]), *whole(predictor)))
        assert model.report.hedge_ratio == pytest.approx(2.0, rel=1e-14)
        assert all(abs(e) < 1e-10 for e in model.report.residuals)
        assert model.residual_adf is None
        assert model.verdict.startswith("degenerate")

    def test_residual_adf_uses_constant_spec(self):
        rng = np.random.default_rng(47)
        base = np.abs(np.cumsum(rng.normal(size=150))) + 80.0
        predictor = make_series("P", base)
        target = make_series("T", 0.5 * base + np.sin(np.arange(150)) + rng.normal(0, 1, 150))
        model = fit_pair(slice_window(align_panel([predictor, target]), *whole(predictor)))
        assert model.residual_adf is not None
        assert model.residual_adf.deterministic == "constant"
        assert model.verdict in (
            "stationary at 1%", "stationary at 5%", "stationary at 10%", "not stationary",
        )

    def test_fits_training_window_only(self):
        rng = np.random.default_rng(59)
        base = np.abs(np.cumsum(rng.normal(size=120))) + 80.0
        predictor = make_series("P", base)
        target = make_series("T", 3.0 * base + rng.normal(0, 0.1, size=120))
        train = (predictor.dates[0], predictor.dates[99])
        whole_model = fit_pair(slice_window(align_panel([predictor, target]), *train))
        head = [make_series(s.tickers[0], s.closes[0, :100]) for s in (predictor, target)]
        head_model = fit_pair(align_panel(head))
        assert len(whole_model.report.residuals) == 100
        assert same_report(whole_model.report, head_model.report)

    def test_too_few_training_dates(self):
        predictor = make_series("P", range(10, 30))
        target = make_series("T", range(20, 40))
        with pytest.raises(SeriesTooShort):
            fit_pair(slice_window(align_panel([predictor, target]), *whole(predictor)))

    def test_intersects_mismatched_calendars(self):
        rng = np.random.default_rng(53)
        base = np.abs(np.cumsum(rng.normal(size=80))) + 60.0
        a = make_series("P", base)
        # Same series missing a few days in the middle.
        keep = [i for i in range(80) if i % 13 != 5]
        b = AlignedPanel(("T",), tuple(a.dates[i] for i in keep), 2.0 * a.closes[:, keep] + 1.0)
        model = fit_pair(slice_window(align_panel([a, b]), *whole(a)))
        assert len(model.report.residuals) == len(keep)


class TestPValueMatrixSerialization:
    @pytest.fixture
    def scanned(self, synth_dir, tmp_path):
        """The demo sector's scan files, by name, and the matrix they were rendered from."""
        config = replace(RunConfig.from_json(synth_dir / "config.json"), out_dir=tmp_path)
        matrix = coint_matrix(*_scan_input(config, "metals"))
        return cmd_scan(config, "metals")[1], matrix

    def test_csv_round_trip(self, scanned):
        files, matrix = scanned
        text = io.StringIO(files["pvalue_matrix.csv"].decode("utf-8"), newline="")
        header, *rows = csv.reader(text)
        assert tuple(header[1:]) == matrix.tickers
        assert tuple(row[0] for row in rows) == matrix.tickers
        back = np.array([[float(cell) if cell else math.nan for cell in row[1:]] for row in rows])
        n = len(matrix.tickers)
        upper = back[np.triu_indices(n, 1)]
        assert upper.tobytes() == matrix.p_values.tobytes()
        assert sum(cell == "" for row in rows for cell in row[1:]) == n * (n + 1) // 2

    def test_json_dict_lists_all_pairs(self, scanned):
        files, matrix = scanned
        payload = json.loads(files["pvalue_matrix.json"].decode("utf-8"))
        assert len(payload["pairs"]) == 45
        sample = payload["pairs"][0]
        assert set(sample) == {"ticker_a", "ticker_b", "p_value", "predictor", "target"}
        # The written p-values are the scan's, bit for bit, cell by cell.
        assert payload["tickers"] == list(matrix.tickers)
        assert [(c["ticker_a"], c["ticker_b"], c["p_value"], c["predictor"], c["target"])
                for c in payload["pairs"]] == [
            (a, b, c.p_value, c.predictor, c.target) for (a, b), c in by_panel_pair(matrix).items()
        ]
