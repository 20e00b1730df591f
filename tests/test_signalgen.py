import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrader.errors import (
    EmptySeries,
    EmptyWindow,
    InvariantViolation,
    LengthMismatch,
    ZeroVariance,
)
from pairtrader.marketdata import align_panel, slice_window
from pairtrader.signalgen import (
    RatioSeries,
    TradingFrame,
    build_trading_frame,
    extract_triggers,
    fit_ratio_stats,
    gen_positions,
    gen_signals,
    ratio_series,
    zscore_series,
)

from conftest import make_series

signal_lists = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=60)


def mk_ratio(values, start=date(2021, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return RatioSeries(dates=dates, values=tuple(float(v) for v in values))


def pair_panel(ratios):
    """Two-ticker panel whose A/B close ratio runs through ``ratios`` (B = 1)."""
    return align_panel([make_series("A", ratios), make_series("B", [1.0] * len(ratios))])


def frame_from_signals(signals1, close1=None, close2=None):
    """Build a consistent TradingFrame directly from a signal column."""
    n = len(signals1)
    dates = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(n))
    positions1 = gen_positions(signals1)
    z = [2.0 * -s for s in signals1]  # any z consistent with the signals
    return TradingFrame(
        ticker1="A", ticker2="B",
        dates=dates,
        close1=tuple(close1 or [10.0] * n),
        close2=tuple(close2 or [5.0] * n),
        zscore=tuple(z),
        upper_limit=1.0,
        lower_limit=-1.0,
        signals1=tuple(signals1),
        signals2=tuple(-s for s in signals1),
        positions1=positions1,
        positions2=tuple(-p for p in positions1),
    )


class TestRatioSeries:
    def test_identity_pair_gives_ones(self):
        a = make_series("A", [3, 4, 5])
        b = make_series("B", [3, 4, 5])
        assert ratio_series(a, b).values == (1.0, 1.0, 1.0)

    def test_forced_arithmetic(self):
        a = make_series("A", [10])
        b = make_series("B", [4])
        assert ratio_series(a, b).values == (2.5,)

    def test_proportional_pair_feeds_zero_variance(self):
        a = make_series("A", [10, 20, 30])
        b = make_series("B", [5, 10, 15])
        ratio = ratio_series(a, b)
        assert ratio.values == (2.0, 2.0, 2.0)
        with pytest.raises(ZeroVariance):
            fit_ratio_stats(ratio)

    def test_calendar_mismatch(self):
        a = make_series("A", [1, 2, 3])
        b = make_series("B", [1, 2, 3], start=date(2020, 1, 1))
        with pytest.raises(LengthMismatch):
            ratio_series(a, b)


class TestFitRatioStats:
    def test_population_moments_hand_computed(self):
        ratio = mk_ratio([1, 2, 3])
        stats = fit_ratio_stats(ratio)
        mean = math.fsum([1, 2, 3]) / 3
        var = math.fsum((v - mean) ** 2 for v in [1, 2, 3]) / 3
        assert stats.mean == pytest.approx(mean, abs=1e-15)
        assert stats.std == pytest.approx(math.sqrt(var), abs=1e-15)
        assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    def test_constant_ratio(self):
        ratio = mk_ratio([2, 2, 2])
        with pytest.raises(ZeroVariance):
            fit_ratio_stats(ratio)

    def test_window_excluding_all_dates(self):
        pair = pair_panel([1, 2, 3])
        with pytest.raises(EmptyWindow):
            slice_window(pair, date(1999, 1, 1), date(1999, 12, 31))

    def test_stats_use_window_only(self):
        pair = pair_panel([1, 2, 3, 100, 200])
        train = slice_window(pair, pair.dates[0], pair.dates[2])
        stats = fit_ratio_stats(ratio_series(train.column("A"), train.column("B")))
        assert stats.mean == pytest.approx(2.0)

    def test_empty_ratio(self):
        with pytest.raises(EmptySeries):
            fit_ratio_stats(mk_ratio([]))


class TestZScore:
    def test_center_and_unit_deviation(self):
        ratio = mk_ratio([1, 2, 3])
        stats = fit_ratio_stats(ratio)
        z = zscore_series(mk_ratio([stats.mean, stats.mean + stats.std]), stats)
        assert z[0] == pytest.approx(0.0, abs=1e-15)
        assert z[1] == pytest.approx(1.0, abs=1e-15)

    def test_self_standardization_is_exact(self):
        rng = np.random.default_rng(3)
        ratio = mk_ratio(2.0 + rng.normal(0, 0.3, size=300))
        stats = fit_ratio_stats(ratio)
        z = np.asarray(zscore_series(ratio, stats))
        assert abs(z.mean()) < 1e-10
        assert abs(z.std() - 1.0) < 1e-10


class TestGenSignals:
    def test_rule_application(self):
        signals1, signals2 = gen_signals([0.5, 1.2, -1.3, 0.2])
        assert signals1 == (0, -1, 1, 0)
        assert signals2 == (0, 1, -1, 0)

    def test_boundary_is_strict(self):
        signals1, _ = gen_signals([1.0, -1.0])
        assert signals1 == (0, 0)

    @given(st.lists(st.floats(min_value=-5, max_value=5,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=100))
    def test_mirror_property(self, z):
        signals1, signals2 = gen_signals(z)
        assert signals2 == tuple(-s for s in signals1)

    def test_scale_free_in_prices(self):
        rng = np.random.default_rng(5)
        closes1 = 50 + np.abs(np.cumsum(rng.normal(size=60)))
        closes2 = 30 + np.abs(np.cumsum(rng.normal(size=60)))
        a1, a2 = make_series("A", closes1), make_series("B", closes2)
        s1 = make_series("A", 3.7 * closes1)
        s2 = make_series("B", 3.7 * closes2)
        ratio = ratio_series(a1, a2)
        scaled_ratio = ratio_series(s1, s2)
        assert scaled_ratio.values == pytest.approx(ratio.values, rel=1e-12)
        stats = fit_ratio_stats(ratio)
        assert gen_signals(zscore_series(ratio, stats)) == gen_signals(
            zscore_series(scaled_ratio, stats)
        )


class TestGenPositions:
    def test_difference_arithmetic(self):
        assert gen_positions([0, -1, -1, 1]) == (0, -1, 0, 2)

    def test_constant_signals(self):
        assert gen_positions([1, 1, 1]) == (1, 0, 0)

    def test_opening_trade_on_day_one(self):
        assert gen_positions([1, 0])[0] == 1

    @given(signal_lists)
    def test_running_sum_reconstructs_signals(self, signals):
        positions = gen_positions(signals)
        running = 0
        rebuilt = []
        for p in positions:
            running += p
            rebuilt.append(running)
        assert rebuilt == signals

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gen_positions([0, 2])


class TestTradingFrame:
    def test_build_and_validate(self):
        rng = np.random.default_rng(7)
        closes1 = 100 + np.abs(np.cumsum(rng.normal(size=50)))
        closes2 = 50 + np.abs(np.cumsum(rng.normal(size=50)))
        a1, a2 = make_series("A", closes1), make_series("B", closes2)
        ratio = ratio_series(a1, a2)
        stats = fit_ratio_stats(ratio)
        frame = build_trading_frame(a1, a2, stats)
        frame.validate()
        assert frame.upper_limit == 1.0 and frame.lower_limit == -1.0
        assert frame.signals2 == tuple(-s for s in frame.signals1)

    def test_validate_catches_broken_mirror(self):
        frame = frame_from_signals([0, 1, 0])
        broken = TradingFrame(
            **{**frame.__dict__, "signals2": (0, 1, 0)}
        )
        with pytest.raises(InvariantViolation):
            broken.validate()

    def test_validate_catches_broken_positions(self):
        frame = frame_from_signals([0, 1, 0])
        broken = TradingFrame(
            **{**frame.__dict__, "positions1": (0, 0, 0), "positions2": (0, 0, 0)}
        )
        with pytest.raises(InvariantViolation):
            broken.validate()

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        closes1 = 100 + np.abs(np.cumsum(rng.normal(size=30)))
        closes2 = 50 + np.abs(np.cumsum(rng.normal(size=30)))
        a1, a2 = make_series("A", closes1), make_series("B", closes2)
        ratio = ratio_series(a1, a2)
        stats = fit_ratio_stats(ratio)
        frame = build_trading_frame(a1, a2, stats)
        path = tmp_path / "frame.csv"
        frame.to_csv(path)
        back = TradingFrame.from_csv(path, ticker1="A", ticker2="B")
        assert back == frame

    def test_csv_column_order(self, tmp_path):
        frame = frame_from_signals([0, -1, 0])
        path = tmp_path / "frame.csv"
        frame.to_csv(path)
        header = path.read_text().splitlines()[0]
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
