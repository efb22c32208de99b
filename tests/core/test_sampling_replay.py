"""Whole-run sampling and count-only invariance against their oracles.

:meth:`SamplingProfiler.record` — one ``should_sample`` decision per
execution, in global order — is the spec.  The bulk paths must leave
the profiler exactly as that loop would: per-site and total ``seen``
and ``profiled`` counts, overhead, the database (serialized and as
exact metrics), the ``sampling.*`` counters, and the policy's own
per-site state down to the convergence detectors' histories and the
random sampler's RNG.

* :meth:`SamplingProfiler.replay` takes the whole stream as interned
  columns, in one call or split in two at a drawn point.
* :meth:`SamplingProfiler.record_batch` takes per-site runs of a stream
  chunked at drawn points, for the site-local policies.

Streams interleave 1-5 sites with small ints, ``None`` and strings.
The convergent configurations are small enough to back off and to
reset (``test_convergent_stream_backs_off_and_resets`` pins both), and
the checkpoint cadence is also drawn apart from the burst.

``Inv-Top(k)`` sums the k largest counts without ranking values; it
must equal the sort-based definition, the sum of the counts ``top(k)``
returns, for k from 0 to 12, over histograms with tied counts and
mixed value types.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import ConvergenceConfig
from repro.core.metrics import ValueStreamStats
from repro.core.profile import TNVConfig
from repro.core.sampling import (
    ConvergentSampling,
    FullSampling,
    PeriodicSampling,
    RandomSampling,
    SamplingProfiler,
)
from repro.core.sites import load_site
from repro.core.tnv import TNVTable
from repro.obs.metrics import METRICS

SITES = [load_site("prog", "main", pc) for pc in range(5)]

POLICIES = {
    "full": FullSampling,
    "periodic": lambda: PeriodicSampling(burst=3, interval=7),
    "periodic-burst-is-interval": lambda: PeriodicSampling(burst=4, interval=4),
    "periodic-burst-1": lambda: PeriodicSampling(burst=1, interval=5),
    "random-0.1": lambda: RandomSampling(rate=0.1, seed=1),
    "random-0.5": lambda: RandomSampling(rate=0.5, seed=7),
    "random-0.9": lambda: RandomSampling(rate=0.9, seed=0x5EED),
    "convergent": lambda: ConvergentSampling(
        burst=3,
        base_skip=2,
        max_skip=16,
        convergence=ConvergenceConfig(delta=0.25, patience=1, reset_delta=0.1),
    ),
    "convergent-patient": lambda: ConvergentSampling(
        burst=5,
        base_skip=3,
        max_skip=40,
        backoff=1.5,
        convergence=ConvergenceConfig(delta=0.1, patience=2, reset_delta=0.05),
    ),
}
SITE_LOCAL = sorted(name for name in POLICIES if not name.startswith("random"))

#: a small TNV table, so clears and evictions happen inside the streams.
TNV = TNVConfig(capacity=4, steady=2, clear_interval=9)

values = st.one_of(
    st.integers(min_value=-2, max_value=3), st.none(), st.sampled_from(["a", "b"])
)


@st.composite
def streams(draw):
    """(site index, value) events over 1-5 interleaved sites."""
    nsites = draw(st.integers(min_value=1, max_value=len(SITES)))
    return draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=nsites - 1), values),
            max_size=300,
        )
    )


#: ``None`` keeps the profiler's default (the policy's burst, else 1000).
cadences = st.sampled_from([None, 1, 2, 5])


def make(name, every):
    profiler = SamplingProfiler(POLICIES[name](), config=TNV)
    if every is not None:
        profiler.checkpoint_every = every
    return profiler


def columns(stream):
    return [sid for sid, _ in stream], [value for _, value in stream]


def site_runs(stream):
    """Per-site value runs, sites in order of first appearance."""
    runs = {}
    for sid, value in stream:
        runs.setdefault(sid, []).append(value)
    return runs.items()


def chunks(stream, splits):
    bounds = sorted({min(s, len(stream)) for s in splits} | {0, len(stream)})
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def policy_state(policy):
    state = {site: dict(vars(s)) for site, s in getattr(policy, "_state", {}).items()}
    detectors = {
        site: (list(d.history), d._previous, d._stable_streak, d._converged_at)
        for site, d in getattr(policy, "_detectors", {}).items()
    }
    rng = policy._rng.getstate() if hasattr(policy, "_rng") else None
    return state, detectors, rng


def profiler_state(profiler):
    database = profiler.database
    return {
        "seen": [profiler.seen(site) for site in SITES] + [profiler.seen()],
        "profiled": [profiler.profiled(site) for site in SITES] + [profiler.profiled()],
        "since": [profiler._since_checkpoint.get(site, 0) for site in SITES],
        "overhead": profiler.overhead(),
        "json": database.to_json(),
        "metrics": [
            (site, database.profile_for(site).metrics()) for site in SITES if site in database
        ],
        "policy": policy_state(profiler.policy),
    }


def sampling_counters(feed):
    """Run ``feed()`` with metrics on; the ``sampling.*`` counters it moved."""
    was_enabled = METRICS.enabled
    before = METRICS.counters()
    METRICS.enable()
    try:
        feed()
    finally:
        if not was_enabled:
            METRICS.disable()
    after = METRICS.counters()
    return {
        name: count - before.get(name, 0)
        for name, count in after.items()
        if name.startswith("sampling.") and count != before.get(name, 0)
    }


def per_event(name, every, stream):
    profiler = make(name, every)

    def feed():
        for sid, value in stream:
            profiler.record(SITES[sid], value)

    return profiler, sampling_counters(feed)


@pytest.mark.parametrize("name", sorted(POLICIES))
@settings(max_examples=60, deadline=None)
@given(stream=streams(), every=cadences, cut=st.integers(min_value=0, max_value=300))
def test_replay_matches_per_event_record(name, stream, every, cut):
    spec, spec_counters = per_event(name, every, stream)
    site_ids, vals = columns(stream)

    whole = make(name, every)
    whole_counters = sampling_counters(lambda: whole.replay(SITES, site_ids, vals))
    assert profiler_state(whole) == profiler_state(spec)
    assert whole_counters == spec_counters

    split = make(name, every)

    def feed():
        split.replay(SITES, site_ids[:cut], vals[:cut])
        split.replay(SITES, site_ids[cut:], vals[cut:])

    split_counters = sampling_counters(feed)
    assert profiler_state(split) == profiler_state(spec)
    assert split_counters == spec_counters


@pytest.mark.parametrize("name", SITE_LOCAL)
@settings(max_examples=60, deadline=None)
@given(
    stream=streams(),
    every=cadences,
    splits=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
)
def test_record_batch_matches_per_event_record(name, stream, every, splits):
    spec, spec_counters = per_event(name, every, stream)
    batched = make(name, every)

    def feed():
        for chunk in chunks(stream, splits):
            for sid, run in site_runs(chunk):
                batched.record_batch(SITES[sid], run)

    batched_counters = sampling_counters(feed)
    assert profiler_state(batched) == profiler_state(spec)
    assert batched_counters == spec_counters


def test_convergent_stream_backs_off_and_resets():
    """The convergent settings above reach both checkpoint outcomes, so
    the equivalence tests exercise a skip interval that changes at a
    burst's checkpoint."""
    stream = [(i % 2, (i // 40) % 2 if i % 7 else 3) for i in range(300)]
    for name in ("convergent", "convergent-patient"):
        spec, counters = per_event(name, None, stream)
        assert counters.get("sampling.convergence_backoffs", 0) > 0
        assert counters.get("sampling.convergence_resets", 0) > 0
        replayed = make(name, None)
        replayed_counters = sampling_counters(
            lambda: replayed.replay(SITES, *columns(stream))
        )
        assert profiler_state(replayed) == profiler_state(spec)
        assert replayed_counters == counters


def test_replay_of_a_policy_without_draw_stays_per_event():
    """A cross-site policy that cannot draw its decisions in bulk is fed
    event by event, in global order."""

    class Alternating(RandomSampling):
        def __init__(self):
            super().__init__(rate=0.5)
            self.calls = []

        def should_sample(self, site):
            self.calls.append(site)
            return len(self.calls) % 2 == 1

        def draw(self, n):
            return None

    stream = [(i % 3, i % 4) for i in range(40)]
    spec = SamplingProfiler(Alternating(), config=TNV)
    for sid, value in stream:
        spec.record(SITES[sid], value)
    replayed = SamplingProfiler(Alternating(), config=TNV)
    replayed.replay(SITES, *columns(stream))
    assert replayed.policy.calls == spec.policy.calls
    assert replayed.database.to_json() == spec.database.to_json()
    assert replayed.profiled() == spec.profiled() == 20


# ----------------------------------------------------------------------
# count-only Inv-Top(k)
# ----------------------------------------------------------------------

KS = range(13)


def sorted_invariance(stats, k):
    if stats.total == 0:
        return 0.0
    return sum(count for _, count in stats.top(k)) / stats.total


#: value streams over a small alphabet, so counts tie often.
value_lists = st.lists(values, max_size=60)


@settings(max_examples=150, deadline=None)
@given(stream=value_lists)
def test_stream_invariance_matches_sorted_top(stream):
    stats = ValueStreamStats()
    stats.record_many(stream)
    for k in KS:
        assert stats.invariance(k) == sorted_invariance(stats, k)
    for top_n in KS:
        row = stats.metrics(top_n)
        assert row.inv_top1 == sorted_invariance(stats, 1)
        assert row.inv_top_n == sorted_invariance(stats, top_n)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.dictionaries(values, st.integers(min_value=1, max_value=3), max_size=12)
)
def test_tied_histogram_invariance_matches_sorted_top(counts):
    stats = ValueStreamStats()
    for value, count in counts.items():
        stats.record_run(value, count)
    for k in KS:
        assert stats.invariance(k) == sorted_invariance(stats, k)
        assert stats.metrics(k).inv_top_n == sorted_invariance(stats, k)


@pytest.mark.parametrize(
    "config",
    [
        dict(capacity=10, steady=5, clear_interval=2000),
        dict(capacity=4, steady=2, clear_interval=7),
        dict(capacity=3, steady=0, clear_interval=None),
    ],
    ids=lambda c: str(c["clear_interval"]),
)
@settings(max_examples=100, deadline=None)
@given(stream=value_lists)
def test_tnv_estimated_invariance_matches_sorted_top(config, stream):
    table = TNVTable(**config)
    table.record_many(stream)
    for k in KS:
        if table.total == 0:
            expected = 0.0
        else:
            expected = min(1.0, sum(entry.count for entry in table.top(k)) / table.total)
        assert table.estimated_invariance(k) == expected
