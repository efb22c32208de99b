"""Cross-module integration invariants.

These tie the layers together: the metric definitions, the predictors,
the instrumentation and the workloads must agree with each other, not
just with their own unit tests.
"""

import pytest

from repro.core.profile import ProfileDatabase, SiteProfile, TNVConfig
from repro.core.sites import SiteKind
from repro.isa.instrument import ProfileTarget
from repro.predictors.base import run_trace
from repro.predictors.last_value import LastValuePredictor
from repro.workloads.harness import profile_workload, trace_workload

SCALE = 0.12


@pytest.fixture(scope="module")
def go_traces():
    return trace_workload("go", scale=SCALE, targets=(ProfileTarget.LOADS,))


@pytest.fixture(scope="module")
def go_profile():
    return profile_workload("go", scale=SCALE, targets=(ProfileTarget.LOADS,))


class TestMetricPredictorAgreement:
    def test_lvp_metric_equals_lvp_predictor_accuracy(self, go_traces):
        """The LVP metric is defined as the last-value predictor's hit
        rate; the profile and the predictor must agree per site."""
        for site, trace in go_traces.items():
            if len(trace) < 2:
                continue
            profile = SiteProfile(site, TNVConfig())
            profile.record_many(trace)
            predictor_stats = run_trace(LastValuePredictor(), trace)
            assert predictor_stats.hits / (len(trace) - 1) == pytest.approx(
                profile.lvp()
            ), str(site)

    def test_profile_matches_trace_replay(self, go_traces, go_profile):
        """Profiling online must equal replaying the trace offline."""
        for site, trace in go_traces.items():
            replay = SiteProfile(site, TNVConfig())
            replay.record_many(trace)
            online = go_profile.database.profile_for(site)
            assert online.exact.histogram == replay.exact.histogram
            assert online.lvp() == pytest.approx(replay.lvp())


class TestTNVvsExact:
    def test_tnv_estimate_close_on_real_sites(self, go_profile):
        for profile in go_profile.database.profiles(SiteKind.LOAD):
            exact_inv = profile.exact.invariance(1)
            tnv_inv = profile.tnv.estimated_invariance(1)
            assert tnv_inv <= exact_inv + 1e-9
            if profile.executions > 200:
                assert tnv_inv == pytest.approx(exact_inv, abs=0.15)

    def test_tnv_top_matches_exact_top_on_skewed_sites(self, go_profile):
        for profile in go_profile.database.profiles(SiteKind.LOAD):
            if profile.exact.invariance(1) > 0.5 and profile.executions > 100:
                assert profile.tnv.top_value() == profile.exact.top(1)[0][0]


class TestSerializationRoundtrip:
    def test_workload_profile_survives_json(self, go_profile):
        restored = ProfileDatabase.from_json(go_profile.database.to_json())
        assert len(restored) == len(go_profile.database)
        for profile in go_profile.database.profiles(SiteKind.LOAD):
            clone = restored.profile_for(profile.site)
            assert clone.executions == profile.executions
            assert clone.tnv.top_value() == profile.tnv.top_value()


class TestCrossInputStability:
    def test_hot_sites_overlap_between_inputs(self):
        train = profile_workload("gcc", "train", scale=SCALE, targets=(ProfileTarget.LOADS,))
        test = profile_workload("gcc", "test", scale=SCALE, targets=(ProfileTarget.LOADS,))
        train_hot = {s for s, m in train.database.metrics_by_site(SiteKind.LOAD)[:5]}
        test_hot = {s for s, m in test.database.metrics_by_site(SiteKind.LOAD)[:5]}
        assert len(train_hot & test_hot) >= 3

    def test_top_values_transfer(self):
        """The thesis' key transfer claim at site granularity: a site's
        hottest value on train usually stays its hottest value on test."""
        train = profile_workload("go", "train", scale=SCALE, targets=(ProfileTarget.LOADS,))
        test = profile_workload("go", "test", scale=SCALE, targets=(ProfileTarget.LOADS,))
        agree = total = 0
        for site, metrics in train.database.metrics_by_site(SiteKind.LOAD):
            if metrics.executions < 50 or metrics.inv_top1 < 0.4:
                continue
            if site in test.database:
                total += 1
                if (
                    test.database.profile_for(site).tnv.top_value()
                    == train.database.profile_for(site).tnv.top_value()
                ):
                    agree += 1
        assert total > 0
        assert agree / total >= 0.75


class TestEndToEndSpecializationPipeline:
    def test_profile_select_specialize_verify(self):
        """The full Chapter X loop on a demo function."""
        from repro.pyprof.tracer import profile_calls
        from repro.specialize.analysis import find_candidates
        from repro.specialize.demos import DEMOS, demo_calls
        from repro.specialize.runtime import SpecializedFunction

        demo = DEMOS[0]
        calls = demo_calls(demo, "train", 120)
        database = profile_calls(demo.func, calls)
        candidates = find_candidates(database, min_invariance=0.6, min_executions=20)
        assert candidates
        import inspect

        names = list(inspect.signature(demo.func).parameters)
        bindings = {}
        for candidate in candidates:
            label = candidate.site.label
            if ":" in label:
                param = label.split(":", 1)[1]
                if param in demo.invariant_params:
                    bindings.setdefault(param, candidate.value)
        assert bindings
        dispatcher = SpecializedFunction(demo.func)
        dispatcher.add_variant(bindings)
        for call in demo_calls(demo, "test", 60):
            assert dispatcher(*call) == demo.func(*call)
        assert dispatcher.guard_hits > dispatcher.guard_misses
