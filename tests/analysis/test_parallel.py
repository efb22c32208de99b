"""Tests for the parallel experiment runner and the persistent cache.

Correctness of the parallel path means: identical rendered text for
every *deterministic* experiment, results in the same order as the
serial path, and cache hits indistinguishable from re-profiling.
Wall-clock speedup is hardware-dependent (a single-CPU container
cannot show one), so these tests assert equivalence, not timing.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.parallel import (
    ProfileJob,
    _dispatch_order,
    fold_and_merge,
    fold_jobs,
    profile_and_merge,
    profile_jobs,
    run_experiments,
)
from repro.errors import ExperimentError
from repro.obs import METRICS, TRACER

pytestmark = pytest.mark.slow

#: cheap, deterministic experiments used for the serial/parallel diff.
CHEAP_IDS = ["table-load-values", "table-top-procedures"]
SCALE = 0.1


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a fresh directory, switch it on (CI runs
    the suite under ``REPRO_NO_CACHE=1``) and drop the L1 memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    enabled = experiments.cache_enabled()
    experiments.set_cache_enabled(True)
    experiments.clear_caches()
    yield tmp_path
    experiments.clear_caches()
    experiments.set_cache_enabled(enabled)


class TestDispatchOrder:
    def test_known_ids_sorted_heaviest_first(self):
        order = _dispatch_order(["table-load-values", "table-predictors"])
        assert order == ["table-predictors", "table-load-values"]

    def test_unknown_ids_dispatch_first(self):
        order = _dispatch_order(["table-predictors", "brand-new-experiment"])
        assert order[0] == "brand-new-experiment"


class TestDeterministicFlag:
    def test_wall_clock_experiments_flagged(self):
        nondeterministic = {
            exp.id for exp in experiments.all_experiments() if not exp.deterministic
        }
        assert nondeterministic == {"table-memoization", "table-specialization"}


class TestRunAllParallel:
    def test_parallel_matches_serial_text(self, isolated_cache):
        serial = experiments.run_all(scale=SCALE, jobs=1, ids=CHEAP_IDS)
        parallel = experiments.run_all(scale=SCALE, jobs=2, ids=CHEAP_IDS)
        assert [r.experiment for r in parallel] == [r.experiment for r in serial]
        for s, p in zip(serial, parallel):
            assert p.text == s.text
            assert p.title == s.title

    def test_parallel_preserves_requested_order(self, isolated_cache):
        ids = list(reversed(CHEAP_IDS))
        results = run_experiments(ids, scale=SCALE, jobs=2)
        assert [r.experiment for r in results] == ids

    def test_run_all_rejects_unknown_id(self):
        with pytest.raises(ExperimentError):
            experiments.run_all(ids=["no-such-experiment"])

    def test_empty_ids(self):
        assert run_experiments([], scale=SCALE, jobs=2) == []


class TestDiskCache:
    def test_profiled_roundtrips_through_disk(self, isolated_cache):
        first = experiments.profiled("compress", scale=SCALE)
        assert list(isolated_cache.glob("events-*.pkl")), "expected a cache write"
        experiments.clear_caches()  # force the next read to come from disk
        second = experiments.profiled("compress", scale=SCALE)
        assert second.database.to_json() == first.database.to_json()
        assert second.workload.name == first.workload.name
        assert list(second.result.output) == list(first.result.output)

    def test_traced_roundtrips_through_disk(self, isolated_cache):
        first = experiments.traced("compress", scale=SCALE)
        experiments.clear_caches()
        second = experiments.traced("compress", scale=SCALE)
        assert second == first

    def test_caching_disabled_writes_nothing(self, isolated_cache):
        with experiments.caching_disabled():
            experiments.profiled("compress", scale=SCALE)
        assert not list(isolated_cache.glob("*.pkl"))

    def test_clear_disk_cache(self, isolated_cache):
        experiments.profiled("compress", scale=SCALE)
        experiments.traced("compress", scale=SCALE)
        removed = experiments.clear_disk_cache()
        assert removed >= 1  # profiled and traced share one event trace
        assert not list(isolated_cache.glob("*.pkl"))

    def test_corrupt_entry_reads_as_miss(self, isolated_cache):
        # b"\x80\xff" opens a pickle of protocol 255, which unpickling
        # rejects with ValueError rather than an UnpicklingError.
        for garbage in (b"not a pickle", b"\x80\xff corrupt protocol byte"):
            experiments.profiled("compress", scale=SCALE)
            entries = list(isolated_cache.glob("events-*.pkl"))
            assert entries
            for path in entries:
                path.write_bytes(garbage)
            experiments.clear_caches()
            run = experiments.profiled("compress", scale=SCALE)
            assert run.database.total_executions() > 0

    def test_source_hash_stable_within_process(self):
        assert experiments.source_tree_hash() == experiments.source_tree_hash()


class TestObservabilityFanout:
    """Workers record into their own registries; the parent merges."""

    @pytest.fixture
    def observed(self, isolated_cache):
        METRICS.reset()
        METRICS.enable()
        TRACER.enable()
        yield
        METRICS.disable()
        METRICS.reset()
        TRACER.disable()
        TRACER.drain()

    def test_metrics_merge_across_workers(self, observed):
        run_experiments(CHEAP_IDS, scale=SCALE, jobs=2, use_cache=False)
        counters = METRICS.snapshot()["counters"]
        # Both experiments profile workloads, so the merged registry
        # must show profiling work from more than one worker process.
        assert counters["profile.sites_created"] > 0
        assert counters["tnv.batch_records"] > 0
        assert counters["machine.instructions"] > 0
        # Replay-era cache traffic: each worker captured its event
        # traces fresh (the cache was bypassed) and replayed from them.
        assert counters["tracestore.captures"] >= len(CHEAP_IDS)
        assert counters["tracestore.replays"] >= len(CHEAP_IDS)

    def test_worker_spans_adopted_and_reparented(self, observed):
        with TRACER.span("run_all") as root:
            run_experiments(CHEAP_IDS, scale=SCALE, jobs=2, use_cache=False)
        spans = TRACER.drain()
        worker_spans = [s for s in spans if s.get("attrs", {}).get("worker")]
        assert {s["attrs"]["worker"] for s in worker_spans} == set(CHEAP_IDS)
        ids = {s["span_id"] for s in spans}
        assert len(ids) == len(spans), "combined trace must keep ids unique"
        roots = [s for s in worker_spans if s["parent_id"] == root.span_id]
        assert len(roots) == len(CHEAP_IDS), "one adopted root per worker"
        for span in spans:
            assert span["parent_id"] is None or span["parent_id"] in ids

    def test_disabled_obs_ships_nothing(self, isolated_cache):
        assert not METRICS.enabled and not TRACER.enabled
        run_experiments(CHEAP_IDS, scale=SCALE, jobs=2, use_cache=False)
        assert METRICS.snapshot()["counters"] == {}
        assert TRACER.drain() == []

    def test_jitlog_merges_from_workers(self, isolated_cache, monkeypatch):
        from repro.obs.jitlog import JITLOG

        # Forked workers inherit the environment and this process's
        # replay switch, so forcing tier-2 and turning replay off the
        # way ``--no-replay`` does makes each worker simulate fresh and
        # journal its own specialization lifecycle; the parent merges
        # in ids order even though metrics/tracing stay disabled.
        # (Tier-2 captures are covered by tests/analysis/test_tracestore.py.)
        monkeypatch.setenv("REPRO_ENGINE", "tier2")
        replay_before = experiments.replay_enabled()
        experiments.set_replay_enabled(False)
        JITLOG.enable()
        try:
            run_experiments(CHEAP_IDS, scale=SCALE, jobs=2, use_cache=False)
            events = JITLOG.events()
            assert events, "workers must ship their journals home"
            assert any(e["type"] == "quicken" for e in events)
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs), "merge must resequence"
        finally:
            JITLOG.disable()
            JITLOG.reset()
            experiments.set_replay_enabled(replay_before)


class TestProfileFanout:
    def test_profile_jobs_match_direct_profiling(self, isolated_cache):
        from repro.workloads.harness import profile_workload

        jobs = [
            ProfileJob("compress", scale=SCALE),
            ProfileJob("go", scale=0.05),
        ]
        databases = profile_jobs(jobs, jobs=2)
        assert len(databases) == 2
        for job, database in zip(jobs, databases):
            direct = profile_workload(
                job.workload, job.variant, scale=job.scale, exact=False
            )
            assert database.to_json() == direct.database.to_json()

    def test_profile_and_merge_equals_sequential_merge(self, isolated_cache):
        jobs = [
            ProfileJob("compress", variant="train", scale=SCALE),
            ProfileJob("compress", variant="test", scale=SCALE),
        ]
        merged = profile_and_merge(jobs, jobs=2, name="compress-both")
        databases = profile_jobs(jobs, jobs=1)
        reference = databases[0]
        reference.merge(databases[1])
        reference.name = "compress-both"
        assert merged.to_json() == reference.to_json()

    def test_profile_and_merge_rejects_mixed_shapes(self):
        jobs = [
            ProfileJob("compress", capacity=10),
            ProfileJob("compress", capacity=4),
        ]
        with pytest.raises(ExperimentError):
            profile_and_merge(jobs)

    def test_profile_and_merge_rejects_empty(self):
        with pytest.raises(ExperimentError):
            profile_and_merge([])


class TestFoldFanout:
    """Workers ship folded (site, value, count) triples, not events."""

    def test_fold_jobs_match_direct_profiling(self, isolated_cache):
        from repro.workloads.harness import profile_workload

        jobs = [
            ProfileJob("compress", scale=SCALE),
            ProfileJob("go", scale=0.05),
        ]
        databases = fold_jobs(jobs, jobs=2)
        assert len(databases) == 2
        for job, database in zip(jobs, databases):
            direct = profile_workload(job.workload, job.variant, scale=job.scale)
            direct.database.name = job.workload
            assert database.to_json() == direct.database.to_json()
            # Unlike the to_json-shipping path, folds carry the full
            # histogram, so the rebuilt profiles keep exact statistics.
            for profile in database:
                assert profile.exact is not None
                reference = direct.database.profile_for(profile.site).exact
                assert profile.exact.metrics() == reference.metrics()

    def test_fold_and_merge_equals_sequential_merge(self, isolated_cache):
        jobs = [
            ProfileJob("compress", variant="train", scale=SCALE),
            ProfileJob("compress", variant="test", scale=SCALE),
        ]
        merged = fold_and_merge(jobs, jobs=2, name="compress-both")
        databases = fold_jobs(jobs, jobs=1)
        reference = databases[0]
        reference.merge(databases[1])
        reference.name = "compress-both"
        assert merged.to_json() == reference.to_json()

    def test_fold_and_merge_rejects_mixed_shapes(self):
        jobs = [
            ProfileJob("compress", capacity=10),
            ProfileJob("compress", capacity=4),
        ]
        with pytest.raises(ExperimentError):
            fold_and_merge(jobs)
