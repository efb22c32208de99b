"""Batched recording must be indistinguishable from per-event recording.

The batched fast path (``TNVTable.record_many``,
``SiteProfile.record_many``, ``ProfileDatabase.record_batch``, and the
buffered :class:`~repro.isa.instrument.ValueProfiler`) exists purely
for speed: every observable result — resident entries, clear counts,
stream statistics, serialized JSON — must match the per-event path
bit for bit, for every TNV configuration and every way of splitting a
stream into batches.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import ValueStreamStats
from repro.core.profile import ProfileDatabase, SiteProfile, TNVConfig
from repro.core.tnv import TNVTable
from repro.core.sites import load_site
from repro.errors import ProfileError
from repro.workloads.harness import profile_workload

SITE = load_site("prog", "main", 1)

#: TNV shapes covering the paper default, clearing disabled, a tiny
#: interval (clears mid-batch), and a degenerate steady part.
CONFIGS = [
    dict(capacity=10, steady=5, clear_interval=2000),
    dict(capacity=10, steady=5, clear_interval=None),
    dict(capacity=4, steady=2, clear_interval=7),
    dict(capacity=3, steady=0, clear_interval=5),
    dict(capacity=1, steady=0, clear_interval=3),
]

values_strategy = st.lists(st.integers(min_value=-6, max_value=6), max_size=300)
splits_strategy = st.lists(st.integers(min_value=0, max_value=300), max_size=8)


def chunks(values, splits):
    """Split ``values`` at the (sorted, clamped) ``splits`` offsets."""
    bounds = sorted({min(s, len(values)) for s in splits} | {0, len(values)})
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def tnv_state(table):
    return (
        dict(table._entries),
        table.total,
        table.clears,
        table._since_clear,
    )


def stats_state(stats):
    return {slot: getattr(stats, slot) for slot in ValueStreamStats.__slots__}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=60, deadline=None)
@given(values=values_strategy, splits=splits_strategy)
def test_tnv_record_many_matches_per_event(config, values, splits):
    per_event = TNVTable(**config)
    for value in values:
        per_event.record(value)
    batched = TNVTable(**config)
    for chunk in chunks(values, splits):
        batched.record_many(chunk)
    assert tnv_state(batched) == tnv_state(per_event)
    assert batched.to_dict() == per_event.to_dict()


@settings(max_examples=100, deadline=None)
@given(values=values_strategy, splits=splits_strategy)
def test_stream_stats_record_many_matches_per_event(values, splits):
    per_event = ValueStreamStats()
    for value in values:
        per_event.record(value)
    batched = ValueStreamStats()
    for chunk in chunks(values, splits):
        batched.record_many(chunk)
    assert stats_state(batched) == stats_state(per_event)
    assert batched.lvp() == per_event.lvp()
    one_shot = ValueStreamStats()
    if values:
        one_shot.record_many(values)
    assert stats_state(one_shot) == stats_state(per_event)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("config", CONFIGS[:3], ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=40, deadline=None)
@given(values=values_strategy, splits=splits_strategy)
def test_site_profile_record_many_matches_per_event(config, exact, values, splits):
    tnv_config = TNVConfig(**config)
    per_event = SiteProfile(SITE, tnv_config, exact=exact)
    for value in values:
        per_event.record(value)
    batched = SiteProfile(SITE, tnv_config, exact=exact)
    for chunk in chunks(values, splits):
        batched.record_many(chunk)
    assert batched.metrics() == per_event.metrics()
    assert batched.lvp() == per_event.lvp()
    assert tnv_state(batched.tnv) == tnv_state(per_event.tnv)


def test_record_batch_matches_record_json_identical():
    rng = random.Random(1234)
    sites = [load_site("prog", "main", pc) for pc in range(5)]
    events = [(rng.choice(sites), rng.randrange(8)) for _ in range(4000)]

    per_event = ProfileDatabase(config=TNVConfig(capacity=4, steady=2, clear_interval=50))
    for site, value in events:
        per_event.record(site, value)

    batched = ProfileDatabase(config=TNVConfig(capacity=4, steady=2, clear_interval=50))
    runs = {}
    for site, value in events:
        runs.setdefault(site, []).append(value)
        if len(runs[site]) >= rng.randrange(1, 40):
            batched.record_batch(site, runs.pop(site))
    for site, run in runs.items():
        batched.record_batch(site, run)

    assert batched.to_json() == per_event.to_json()


def test_record_batch_roundtrips_through_json():
    database = ProfileDatabase(config=TNVConfig(capacity=4, steady=2, clear_interval=9))
    database.record_batch(SITE, list(range(4)) * 8)
    payload = json.loads(database.to_json())
    clone = ProfileDatabase.from_json(database.to_json())
    assert clone.to_json() == database.to_json()
    assert payload is not None


class TestBufferedProfilerEquivalence:
    """Buffered simulation runs must produce byte-identical profiles."""

    @pytest.mark.parametrize("workload,scale", [("compress", 0.1), ("go", 0.05)])
    def test_full_profiling(self, workload, scale):
        plain = profile_workload(workload, scale=scale, buffered=False)
        buffered = profile_workload(workload, scale=scale, buffered=True)
        assert buffered.database.to_json() == plain.database.to_json()

    def test_sampled_profiling_convergent_policy(self):
        from repro.core.sampling import ConvergentSampling

        plain = profile_workload(
            "li", scale=0.1, policy=ConvergentSampling(), buffered=False
        )
        buffered = profile_workload(
            "li", scale=0.1, policy=ConvergentSampling(), buffered=True
        )
        assert buffered.database.to_json() == plain.database.to_json()
        assert buffered.sampler.seen() == plain.sampler.seen()
        assert buffered.sampler.profiled() == plain.sampler.profiled()
        assert buffered.sampler.overhead() == plain.sampler.overhead()

    def test_random_policy_defaults_to_unbuffered(self):
        """RandomSampling shares one RNG across sites, so the harness
        must keep it on the per-event path by default."""
        from repro.core.sampling import RandomSampling

        assert RandomSampling(rate=0.5, seed=3).site_local is False
        a = profile_workload("compress", scale=0.1, policy=RandomSampling(rate=0.5, seed=3))
        b = profile_workload("compress", scale=0.1, policy=RandomSampling(rate=0.5, seed=3))
        assert a.database.to_json() == b.database.to_json()

    def test_buffered_random_policy_rejected_before_simulating(self, monkeypatch):
        """Per-site buffers would hand a shared RNG the events out of
        global order; asking for them is an error, raised up front."""
        from repro.core.sampling import RandomSampling
        from repro.workloads import harness

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated despite the rejected policy")

        monkeypatch.setattr(harness, "Machine", no_simulation)
        with pytest.raises(ProfileError, match="site-local"):
            profile_workload(
                "compress", scale=0.1, policy=RandomSampling(rate=0.5, seed=3), buffered=True
            )

    def test_sampler_record_batch_rejects_cross_site_policy(self):
        from repro.core.sampling import RandomSampling, SamplingProfiler

        profiler = SamplingProfiler(RandomSampling(rate=0.5, seed=3))
        with pytest.raises(ProfileError, match="site-local"):
            profiler.record_batch(SITE, [1, 2, 3])
        assert profiler.seen() == 0 and len(profiler.database) == 0
