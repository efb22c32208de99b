"""Tests for the individual value predictors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.base import run_trace
from repro.predictors.context import FiniteContextPredictor, TwoLevelPredictor
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.stride import StridePredictor


class TestLastValue:
    def test_no_prediction_initially(self):
        assert LastValuePredictor().predict() is None

    def test_predicts_previous(self):
        predictor = LastValuePredictor()
        predictor.update(5)
        assert predictor.predict() == 5

    def test_constant_stream_accuracy(self):
        stats = run_trace(LastValuePredictor(), [3] * 100)
        assert stats.hits == 99
        assert stats.no_prediction == 1

    def test_alternating_stream_zero_hits(self):
        stats = run_trace(LastValuePredictor(), [1, 2] * 50)
        assert stats.hits == 0

    def test_confidence_counter_suppresses_early_predictions(self):
        predictor = LastValuePredictor(confidence_bits=2, threshold=2)
        predictor.update(5)
        assert predictor.predict() is None  # confidence 0
        predictor.update(5)
        predictor.update(5)
        assert predictor.predict() == 5

    def test_confidence_decays_on_miss(self):
        predictor = LastValuePredictor(confidence_bits=2, threshold=1)
        for value in (5, 5, 5):
            predictor.update(value)
        assert predictor.predict() == 5
        predictor.update(9)
        predictor.update(8)
        predictor.update(7)
        assert predictor.predict() is None

    def test_rejects_threshold_above_counter_max(self):
        # A 1-bit counter tops out at 1: threshold 2 could never predict.
        with pytest.raises(ValueError):
            LastValuePredictor(confidence_bits=1, threshold=2)

    def test_threshold_at_counter_max_predicts(self):
        stats = run_trace(LastValuePredictor(confidence_bits=1, threshold=1), [3] * 100)
        assert stats.hits == 98

    def test_accuracy_matches_lvp_metric(self):
        # The LVP metric is by construction this predictor's hit rate.
        from repro.core.profile import SiteProfile, TNVConfig
        from repro.core.sites import load_site

        trace = [1, 1, 2, 2, 2, 3, 1, 1]
        profile = SiteProfile(load_site("prog", "main", 1), TNVConfig())
        profile.record_many(trace)
        predictor_stats = run_trace(LastValuePredictor(), trace)
        assert predictor_stats.hits / (len(trace) - 1) == pytest.approx(profile.lvp())


class TestStride:
    def test_detects_constant_stride(self):
        stats = run_trace(StridePredictor(), list(range(0, 100, 4)))
        # two-delta needs two identical deltas to commit; then perfect
        assert stats.hits >= 22

    def test_zero_stride_equals_lvp(self):
        trace = [7] * 50
        assert run_trace(StridePredictor(), trace).hits == run_trace(LastValuePredictor(), trace).hits

    def test_two_delta_ignores_glitch(self):
        predictor = StridePredictor(two_delta=True)
        for value in (0, 4, 8, 12):
            predictor.update(value)
        predictor.update(100)  # loop-exit glitch
        predictor.update(104)  # delta 4 seen once after glitch delta
        assert predictor.predict() == 108

    def test_plain_stride_follows_glitch(self):
        predictor = StridePredictor(two_delta=False)
        for value in (0, 4, 8):
            predictor.update(value)
        predictor.update(100)
        assert predictor.predict() == 192  # last + (100-8)

    def test_non_integer_values_fall_back_to_last_value(self):
        predictor = StridePredictor()
        predictor.update("a")
        predictor.update("a")
        assert predictor.predict() == "a"


class TestFiniteContext:
    def test_learns_repeating_pattern(self):
        trace = [1, 2, 3] * 40
        stats = run_trace(FiniteContextPredictor(order=2), trace)
        assert stats.accuracy > 0.9

    def test_pattern_lvp_cannot_learn(self):
        trace = [1, 2] * 100
        lvp_stats = run_trace(LastValuePredictor(), trace)
        fcm_stats = run_trace(FiniteContextPredictor(order=1), trace)
        assert lvp_stats.accuracy == 0.0
        assert fcm_stats.accuracy > 0.9

    def test_table_capacity_bound(self):
        predictor = FiniteContextPredictor(order=1, max_contexts=4)
        for value in range(100):
            predictor.update(value)
        assert len(predictor._table) <= 4

    def test_successor_replacement(self):
        predictor = FiniteContextPredictor(order=1, max_successors=2)
        # context (1,): successors cycle through many values
        for successor in (2, 3, 4, 5):
            predictor.update(1)
            predictor.update(successor)
        table_entry = predictor._table[(1,)]
        assert len(table_entry) <= 2

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            FiniteContextPredictor(order=0)

    def test_rejects_zero_successors(self):
        with pytest.raises(ValueError):
            FiniteContextPredictor(max_successors=0)

    def test_rejects_zero_contexts(self):
        with pytest.raises(ValueError):
            FiniteContextPredictor(max_contexts=0)


class TestTwoLevel:
    def test_learns_alternation(self):
        trace = [10, 20] * 100
        stats = run_trace(TwoLevelPredictor(history=2), trace)
        assert stats.accuracy > 0.8

    def test_learns_period_four_pattern(self):
        trace = [1, 2, 3, 4] * 80
        stats = run_trace(TwoLevelPredictor(vht_size=4, history=3), trace)
        assert stats.accuracy > 0.6

    def test_slots_are_stable(self):
        predictor = TwoLevelPredictor(vht_size=2)
        for value in (1, 2, 1, 2, 1, 2):
            predictor.update(value)
        assert predictor._values == [1, 2]

    def test_rejects_empty_value_history(self):
        with pytest.raises(ValueError):
            TwoLevelPredictor(vht_size=0)

    @pytest.mark.parametrize("settings", [dict(history=-1), dict(counter_max=0)])
    def test_rejects_unusable_settings(self, settings):
        with pytest.raises(ValueError):
            TwoLevelPredictor(**settings)

    def test_round_robin_replacement(self):
        predictor = TwoLevelPredictor(vht_size=2, history=1)
        for value in (1, 2, 3):
            predictor.update(value)
        assert 3 in predictor._values
        assert len(predictor._values) == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
def test_property_stats_accounting(trace):
    stats = run_trace(LastValuePredictor(), trace)
    assert stats.executions == len(trace)
    assert 0 <= stats.hits <= stats.executions
    assert stats.no_prediction >= 1  # the first execution at least


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-100, max_value=100), st.integers(min_value=-10, max_value=10))
def test_property_stride_perfect_on_arithmetic_sequences(start, stride):
    trace = [start + i * stride for i in range(50)]
    stats = run_trace(StridePredictor(), trace)
    assert stats.hits >= 46  # warmup of at most a few executions
