"""Tests for the predictor evaluation harness."""

import pytest

from repro.core.metrics import SiteMetrics
from repro.core.sites import load_site
from repro.predictors.harness import (
    STANDARD_BANK,
    evaluate_bank,
    evaluate_filtered,
)
from repro.predictors.base import run_trace
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.stride import StridePredictor

SITE_CONST = load_site("p", "m", 1)  # constant trace: LVP-friendly
SITE_NOISE = load_site("p", "m", 2)  # never-repeating trace

TRACES = {
    SITE_CONST: [7] * 100,
    SITE_NOISE: list(range(100)),
}


def metrics_for(lvp):
    return SiteMetrics(
        executions=100, lvp=lvp, inv_top1=lvp, inv_top_n=lvp, distinct=1, pct_zeros=0.0
    )


class TestEvaluateBank:
    def test_all_standard_predictors_evaluated(self):
        results = evaluate_bank(TRACES)
        assert {r.predictor for r in results} == set(STANDARD_BANK)

    def test_lvp_accuracy_on_known_traces(self):
        results = {r.predictor: r for r in evaluate_bank(TRACES)}
        # constant trace: 99 hits; noise: 0 hits; 200 executions total
        assert results["lvp"].hits == 99
        assert results["lvp"].accuracy == pytest.approx(99 / 200)

    def test_stride_wins_on_noise_trace(self):
        results = {r.predictor: r for r in evaluate_bank(TRACES)}
        assert results["stride"].hits > results["lvp"].hits

    def test_sites_counted(self):
        results = evaluate_bank(TRACES)
        assert all(r.sites == 2 for r in results)

    def test_custom_bank(self):
        results = evaluate_bank(TRACES, bank={"only-lvp": LastValuePredictor})
        assert len(results) == 1
        assert results[0].predictor == "only-lvp"

    def test_empty_traces(self):
        results = evaluate_bank({}, bank={"lvp": LastValuePredictor})
        assert results[0].executions == 0
        assert results[0].accuracy == 0.0

    def test_shared_columns_keep_settings_apart(self):
        # A stride ramp then a constant run: the hybrids differ only in
        # their selector's saturation, which decides how fast they
        # switch to LVP, so neither may reuse the other's column.
        trace = list(range(21)) + [20] * 4
        bank = {
            "slow": lambda: HybridPredictor([LastValuePredictor(), StridePredictor()]),
            "fast": lambda: HybridPredictor(
                [LastValuePredictor(), StridePredictor()], counter_max=1
            ),
        }
        results = evaluate_bank({SITE_CONST: trace}, bank)
        expected = [run_trace(make(), trace).hits for make in bank.values()]
        assert [r.hits for r in results] == expected
        assert expected[0] != expected[1]

    def test_empty_bank(self):
        # Only None selects the standard bank; an empty one evaluates nothing.
        assert evaluate_bank(TRACES, bank={}) == []


class TestEvaluateFiltered:
    METRICS = {SITE_CONST: metrics_for(0.99), SITE_NOISE: metrics_for(0.0)}

    def test_filter_keeps_predictable_site_only(self):
        result = evaluate_filtered(
            TRACES,
            self.METRICS,
            site_filter=lambda site, m: m.lvp >= 0.5,
        )
        assert result.predicted_sites == 1
        assert result.total_sites == 2
        assert result.accuracy_on_predicted == pytest.approx(0.99)

    def test_coverage_reflects_execution_share(self):
        result = evaluate_filtered(
            TRACES, self.METRICS, site_filter=lambda site, m: m.lvp >= 0.5
        )
        assert result.coverage == pytest.approx(0.5)

    def test_table_pressure(self):
        result = evaluate_filtered(
            TRACES, self.METRICS, site_filter=lambda site, m: m.lvp >= 0.5
        )
        assert result.table_pressure == pytest.approx(0.5)

    def test_accept_all_filter_matches_bank(self):
        result = evaluate_filtered(TRACES, self.METRICS, site_filter=lambda s, m: True)
        assert result.predicted_executions == 200
        assert result.hits == 99

    def test_sites_missing_metrics_never_predicted(self):
        result = evaluate_filtered(
            TRACES, {SITE_CONST: metrics_for(0.9)}, site_filter=lambda s, m: True
        )
        assert result.predicted_sites == 1

    def test_empty_filter(self):
        result = evaluate_filtered(TRACES, self.METRICS, site_filter=lambda s, m: False)
        assert result.predicted_executions == 0
        assert result.accuracy_on_predicted == 0.0
        assert result.coverage == 0.0
