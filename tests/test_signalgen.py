import dataclasses
import json
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrader.cli import RunConfig, _find_pair, _json, cmd_backtest
from pairtrader.errors import (
    EmptyIntersection,
    EmptySeries,
    EmptyWindow,
    InvariantViolation,
    ZeroVariance,
)
from pairtrader.marketdata import AlignedPanel, align_panel, slice_window
from pairtrader.signalgen import (
    RatioStats,
    TradingFrame,
    build_trading_frame,
    extract_triggers,
    fit_ratio_stats,
    gen_positions,
    gen_signals,
)

from conftest import make_pair, make_series, read_frame_csv

signal_lists = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=60)

#: Standardizing with mean 0 and std 1 leaves the ratio itself as the z-score.
IDENTITY = RatioStats(mean=0.0, std=1.0)


def pair_panel(ratios):
    """Two-ticker panel whose A/B close ratio runs through ``ratios`` (B = 1)."""
    return align_panel([make_series("A", ratios), make_series("B", [1.0] * len(ratios))])


def ratio_of(a, b):
    """The A/B close ratio, read back from a trading frame's z-score."""
    return build_trading_frame(align_panel([a, b]), IDENTITY).zscore.tolist()


@pytest.fixture(scope="module")
def demo_frame_csv(synth_dir, tmp_path_factory):
    """The demo pair's ``trading_frame.csv`` bytes and the frame they were rendered from."""
    config = dataclasses.replace(RunConfig.from_json(synth_dir / "config.json"),
                                 out_dir=tmp_path_factory.mktemp("run"))
    _, files = cmd_backtest(config, "IRON,COBALT")
    _, pair = _find_pair(config, "IRON,COBALT", None)
    frame = build_trading_frame(slice_window(pair, *config.test_window),
                                fit_ratio_stats(slice_window(pair, *config.train_window)))
    return files["trading_frame.csv"], frame


def frame_from_signals(signals1, close1=None, close2=None):
    """A TradingFrame whose z-scores (-2 per unit of signal) derive ``signals1``."""
    n = len(signals1)
    return TradingFrame(
        pair=make_pair(close1 or [10.0] * n, close2 or [5.0] * n),
        zscore=[-2.0 * s for s in signals1],
        upper_limit=1.0,
        lower_limit=-1.0,
    )


class TestRatioSeries:
    def test_identity_pair_gives_ones(self):
        a = make_series("A", [3, 4, 5])
        b = make_series("B", [3, 4, 5])
        assert ratio_of(a, b) == [1.0, 1.0, 1.0]

    def test_forced_arithmetic(self):
        a = make_series("A", [10])
        b = make_series("B", [4])
        assert ratio_of(a, b) == [2.5]

    def test_proportional_pair_feeds_zero_variance(self):
        a = make_series("A", [10, 20, 30])
        b = make_series("B", [5, 10, 15])
        assert ratio_of(a, b) == [2.0, 2.0, 2.0]
        with pytest.raises(ZeroVariance):
            fit_ratio_stats(align_panel([a, b]))

    def test_calendar_mismatch(self):
        # The ratio is taken on shared dates only, never by position.
        a = make_series("A", [1, 2, 3])
        b = make_series("B", [1, 2, 5], start=date(2020, 12, 31))
        assert ratio_of(a, b) == [1 / 2, 2 / 5]
        with pytest.raises(EmptyIntersection):
            ratio_of(a, make_series("B", [1, 2, 3], start=date(2020, 1, 1)))

    def test_rejects_non_pair_panel(self):
        panel = align_panel([make_series(t, [1, 2, 3]) for t in "ABC"])
        with pytest.raises(ValueError):
            fit_ratio_stats(panel)


class TestFitRatioStats:
    def test_population_moments_hand_computed(self):
        stats = fit_ratio_stats(pair_panel([1, 2, 3]))
        mean = math.fsum([1, 2, 3]) / 3
        var = math.fsum((v - mean) ** 2 for v in [1, 2, 3]) / 3
        assert stats.mean == pytest.approx(mean, abs=1e-15)
        assert stats.std == pytest.approx(math.sqrt(var), abs=1e-15)
        assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    def test_constant_ratio(self):
        with pytest.raises(ZeroVariance):
            fit_ratio_stats(pair_panel([2, 2, 2]))

    def test_window_excluding_all_dates(self):
        pair = pair_panel([1, 2, 3])
        with pytest.raises(EmptyWindow):
            slice_window(pair, date(1999, 1, 1), date(1999, 12, 31))

    def test_stats_use_window_only(self):
        pair = pair_panel([1, 2, 3, 100, 200])
        train = slice_window(pair, pair.dates[0], pair.dates[2])
        stats = fit_ratio_stats(train)
        assert stats.mean == pytest.approx(2.0)

    def test_empty_ratio(self):
        empty = AlignedPanel(tickers=("A", "B"), dates=(), closes=np.empty((2, 0)))
        with pytest.raises(EmptySeries):
            fit_ratio_stats(empty)


class TestZScore:
    def test_center_and_unit_deviation(self):
        stats = fit_ratio_stats(pair_panel([1, 2, 3]))
        frame = build_trading_frame(pair_panel([stats.mean, stats.mean + stats.std]), stats)
        assert frame.zscore[0] == pytest.approx(0.0, abs=1e-15)
        assert frame.zscore[1] == pytest.approx(1.0, abs=1e-15)

    def test_self_standardization_is_exact(self):
        rng = np.random.default_rng(3)
        pair = pair_panel(2.0 + rng.normal(0, 0.3, size=300))
        z = build_trading_frame(pair, fit_ratio_stats(pair)).zscore
        assert abs(z.mean()) < 1e-10
        assert abs(z.std() - 1.0) < 1e-10


class TestGenSignals:
    def test_rule_application(self):
        signals1, signals2 = gen_signals([0.5, 1.2, -1.3, 0.2])
        assert signals1.tolist() == [0, -1, 1, 0]
        assert signals2.tolist() == [0, 1, -1, 0]

    def test_boundary_is_strict(self):
        signals1, _ = gen_signals([1.0, -1.0])
        assert signals1.tolist() == [0, 0]

    @given(st.lists(st.floats(min_value=-5, max_value=5,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=100))
    def test_mirror_property(self, z):
        signals1, signals2 = gen_signals(z)
        assert signals2.tolist() == [-s for s in signals1.tolist()]

    def test_scale_free_in_prices(self):
        rng = np.random.default_rng(5)
        closes1 = 50 + np.abs(np.cumsum(rng.normal(size=60)))
        closes2 = 30 + np.abs(np.cumsum(rng.normal(size=60)))
        pair = align_panel([make_series("A", closes1), make_series("B", closes2)])
        scaled = align_panel([make_series("A", 3.7 * closes1),
                              make_series("B", 3.7 * closes2)])
        stats = fit_ratio_stats(pair)
        frame = build_trading_frame(pair, stats)
        scaled_frame = build_trading_frame(scaled, stats)
        assert scaled_frame.zscore.tolist() == pytest.approx(frame.zscore.tolist(), rel=1e-12)
        assert np.array_equal(scaled_frame.signals1, frame.signals1)


class TestGenPositions:
    def test_difference_arithmetic(self):
        assert gen_positions([0, -1, -1, 1]).tolist() == [0, -1, 0, 2]

    def test_constant_signals(self):
        assert gen_positions([1, 1, 1]).tolist() == [1, 0, 0]

    def test_opening_trade_on_day_one(self):
        assert gen_positions([1, 0])[0] == 1

    @given(signal_lists)
    def test_running_sum_reconstructs_signals(self, signals):
        positions = gen_positions(signals)
        running = 0
        rebuilt = []
        for p in positions.tolist():
            running += p
            rebuilt.append(running)
        assert rebuilt == signals

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gen_positions([0, 2])


FRAME_FIELDS = ("ticker1", "ticker2", "dates", "close1", "close2", "zscore",
                "upper_limit", "lower_limit", "signals1", "signals2",
                "positions1", "positions2")


def assert_frames_equal(got, expected):
    """Exact field-by-field equality, array fields compared element and dtype."""
    for name in FRAME_FIELDS:
        a, b = getattr(got, name), getattr(expected, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


class TestTradingFrame:
    def test_build_and_validate(self):
        rng = np.random.default_rng(7)
        closes1 = 100 + np.abs(np.cumsum(rng.normal(size=50)))
        closes2 = 50 + np.abs(np.cumsum(rng.normal(size=50)))
        pair = align_panel([make_series("A", closes1), make_series("B", closes2)])
        frame = build_trading_frame(pair, fit_ratio_stats(pair))
        assert frame.upper_limit == 1.0 and frame.lower_limit == -1.0
        assert np.array_equal(frame.signals2, -frame.signals1)
        assert frame.close1.tolist() == pair.closes[0].tolist()
        assert frame.close2.tolist() == pair.closes[1].tolist()

    def test_fields_are_pair_zscore_and_bands(self):
        names = [f.name for f in dataclasses.fields(TradingFrame)]
        assert names == ["pair", "zscore", "upper_limit", "lower_limit"]

    def test_columns_derive_from_zscore_and_bands(self):
        frame = TradingFrame(make_pair([10.0] * 5, [5.0] * 5),
                             [0.5, 1.5, 1.5, -3.0, 0.0], 1.0, -1.0)
        assert frame.signals1.tolist() == [0, -1, -1, 1, 0]
        assert frame.signals2.tolist() == [0, 1, 1, -1, 0]
        assert frame.positions1.tolist() == [0, -1, 0, 2, -1]
        assert frame.positions2.tolist() == [0, 1, 0, -2, 1]
        assert (frame.ticker1, frame.ticker2) == ("A", "B")
        assert frame.dates == frame.pair.dates

    def test_validate_catches_wrong_length(self):
        frame = frame_from_signals([0, 1, 0])
        with pytest.raises(InvariantViolation, match="zscore"):
            TradingFrame(frame.pair, (0.0, 1.0), 1.0, -1.0)

    def test_rejects_non_pair_panel(self):
        panel = align_panel([make_series(t, [1, 2, 3]) for t in "ABC"])
        with pytest.raises(ValueError):
            TradingFrame(panel, (0.0, 0.0, 0.0), 1.0, -1.0)

    def test_columns_are_read_only_copies(self):
        z = np.array([0.0, -2.0, 0.0])
        frame = TradingFrame(make_pair([10.0] * 3, [5.0] * 3), z, 1.0, -1.0)
        z[1] = 0.0
        assert frame.zscore.tolist() == [0.0, -2.0, 0.0]
        assert frame.signals1.tolist() == [0, 1, 0]
        for name in ("zscore", "close1", "signals1", "signals2", "positions1", "positions2"):
            with pytest.raises(ValueError):
                getattr(frame, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.signals1 = np.zeros(3, dtype=np.int64)

    def test_distinct_frames_compare_without_raising(self):
        f1, f2 = frame_from_signals([0, 1, 0]), frame_from_signals([0, 1, 0])
        assert f1 == f1 and f1 != f2

    def test_csv_round_trip_is_exact(self, demo_frame_csv):
        data, frame = demo_frame_csv
        back, rows = read_frame_csv(data, frame.ticker1, frame.ticker2)
        assert_frames_equal(back, frame)
        for name in ("signals1", "signals2", "positions1", "positions2"):
            assert [int(r[name]) for r in rows] == getattr(frame, name).tolist()

    def test_csv_column_order(self, demo_frame_csv):
        data, _ = demo_frame_csv
        header = data.decode("utf-8").splitlines()[0]
        assert header == ("date,asset1,asset2,z_score,upper_limit,lower_limit,"
                          "signals1,signals2,positions1,positions2")


class TestExtractTriggers:
    def test_worked_example(self):
        frame = frame_from_signals([0, -1, -1, 1])
        triggers = extract_triggers(frame)
        leg1 = [t for t in triggers if t.leg == "asset1"]
        assert [(t.date.day, t.action, t.lots) for t in leg1] == [
            (2, "open_short", 1),
            (4, "flip_to_long", 2),
        ]
        leg2 = [t for t in triggers if t.leg == "asset2"]
        assert [(t.date.day, t.action, t.lots) for t in leg2] == [
            (2, "open_long", 1),
            (4, "flip_to_short", 2),
        ]

    def test_trigger_fields_are_python_scalars(self):
        # The JSON renderer raises TypeError on a numpy integer.
        triggers = extract_triggers(frame_from_signals([0, -1, 1, 0]))
        written = json.loads(_json(triggers).decode("utf-8"))
        assert [t["lots"] for t in written] == [t.lots for t in triggers]
        assert all(type(t.lots) is int for t in triggers)

    def test_all_flat_means_no_triggers(self):
        assert extract_triggers(frame_from_signals([0, 0, 0, 0])) == []

    def test_close_actions(self):
        triggers = extract_triggers(frame_from_signals([1, 0, -1, 0]))
        leg1 = [t.action for t in triggers if t.leg == "asset1"]
        assert leg1 == ["open_long", "close", "open_short", "close"]

    @given(signal_lists)
    @settings(max_examples=200, deadline=None)
    def test_mirror_oracle(self, signals):
        triggers = extract_triggers(frame_from_signals(signals))
        by_leg = {"asset1": [], "asset2": []}
        for t in triggers:
            by_leg[t.leg].append(t)
        swap = {
            "open_long": "open_short", "open_short": "open_long",
            "flip_to_long": "flip_to_short", "flip_to_short": "flip_to_long",
            "close": "close",
        }
        assert len(by_leg["asset1"]) == len(by_leg["asset2"])
        for t1, t2 in zip(by_leg["asset1"], by_leg["asset2"]):
            assert t1.date == t2.date
            assert t1.lots == t2.lots
            assert swap[t1.action] == t2.action

    @given(signal_lists)
    @settings(max_examples=200, deadline=None)
    def test_lots_equal_position_magnitude(self, signals):
        frame = frame_from_signals(signals)
        triggers = extract_triggers(frame)
        leg1 = {t.date: t for t in triggers if t.leg == "asset1"}
        for day, pos in zip(frame.dates, frame.positions1):
            if pos != 0:
                assert leg1[day].lots == abs(pos)
            else:
                assert day not in leg1

    def test_no_trigger_inside_band_from_flat(self):
        z = [0.0, 0.5, -0.9, 0.99, -0.5]
        signals1, signals2 = gen_signals(z)
        positions1 = gen_positions(signals1)
        assert all(p == 0 for p in positions1)
