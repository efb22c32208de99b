"""Process-parallel experiment execution.

The paper's headline cost result is that full value profiling is
order-of-magnitude slow; the reproduction's answer is to batch the hot
path (:mod:`repro.core`) and to parallelize the cold one.  This module
provides the latter: :func:`run_experiments` fans the experiment
registry out over a ``ProcessPoolExecutor``.  Each worker renders its
experiment exactly as the serial path would, so results (including the
rendered text) are byte-identical; only the wall clock changes.
Workers share the persistent event-trace cache
(:func:`repro.analysis.experiments.load_events`), so a workload
captured by one worker is a disk hit for the next run.

Everything submitted to a worker is a plain tuple of primitives, so
the module works under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.obs import METRICS, TRACER, get_logger

_LOG = get_logger(__name__)


def _default_jobs(jobs: Optional[int]) -> int:
    if jobs is None or jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


# ----------------------------------------------------------------------
# experiment fan-out
# ----------------------------------------------------------------------


#: Heaviest experiments first — a static longest-processing-time
#: schedule.  Dispatching the heavy tail early keeps the pool busy to
#: the end instead of leaving one worker grinding through
#: ``table-predictors`` after everyone else finished.  Ids missing
#: from this list (new experiments) are dispatched first, ahead of the
#: known-heavy ones, which is the safe default for unknown cost.
_COST_ORDER = (
    "table-predictors",
    "table-sampling-accuracy",
    "table-vht-aliasing",
    "table-isa-specialization",
    "table-all-instructions",
    "table-memory-locations",
    "fig-convergence",
    "table-predictor-filtering",
    "table-benchmarks",
    "table-calling-context",
    "fig-invariance-distribution",
    "table-parameters",
    "table-load-speculation",
    "table-basic-blocks",
    "table-specialization",
    "table-insn-classes",
    "fig-tnv-accuracy",
    "table-memoization",
    "table-train-vs-test",
    "table-pyprof",
    "table-top-procedures",
    "table-load-values",
)


def _dispatch_order(ids: Sequence[str]) -> List[str]:
    rank = {experiment_id: index for index, experiment_id in enumerate(_COST_ORDER)}
    return sorted(ids, key=lambda eid: rank.get(eid, -1))


def _experiment_worker(
    args: Tuple[str, float, bool, bool, Optional[int], Optional[int], Optional[int]]
):
    """Top-level worker: run one experiment in a fresh process.

    Returns ``(result, metrics_snapshot, spans, timeseries_payload,
    jitlog_payload)``.  When the parent had observability enabled, the
    worker records into its own registry and tracer (span ids prefixed
    with the experiment id so they stay unique in the combined trace)
    and ships both home as plain dicts; otherwise those slots are
    ``None``.  With the parent's time-series collector on, the worker
    samples its own and ships the payload for an associative merge;
    with the flight recorder on, the worker runs its own ring so a
    crash inside the worker dumps from the process that saw the failing
    events.  With the parent's jitlog on, the worker journals its own
    tier-2 lifecycle (independently of ``observe`` — the journal has
    its own enable) and ships the events home for a deterministic
    merge in result order.
    """
    (experiment_id, scale, use_cache, observe, ts_interval,
     flight_capacity, jitlog_capacity) = args
    from repro.analysis import experiments
    from repro.obs.flight import FLIGHT
    from repro.obs.jitlog import JITLOG
    from repro.obs.timeseries import TIMESERIES

    if not use_cache:
        experiments.set_cache_enabled(False)
    if flight_capacity is not None:
        FLIGHT.enable(capacity=flight_capacity)
    if jitlog_capacity is not None:
        JITLOG.enable(capacity=jitlog_capacity)
    if not observe:
        result = experiments.run(experiment_id, scale=scale)
        jl_payload = JITLOG.to_payload() if jitlog_capacity is not None else None
        return result, None, None, None, jl_payload
    METRICS.reset()
    METRICS.enable()
    TRACER.enable(prefix=experiment_id)
    if ts_interval is not None:
        TIMESERIES.enable(interval=ts_interval)
    try:
        result = experiments.run(experiment_id, scale=scale)
        snapshot = METRICS.snapshot()
        spans = TRACER.drain()
        for span in spans:
            span.setdefault("attrs", {})["worker"] = experiment_id
        ts_payload = TIMESERIES.to_payload() if ts_interval is not None else None
        jl_payload = JITLOG.to_payload() if jitlog_capacity is not None else None
    finally:
        METRICS.disable()
        TRACER.disable()
        TIMESERIES.disable()
    return result, snapshot, spans, ts_payload, jl_payload


def run_experiments(
    ids: Sequence[str],
    scale: float = 1.0,
    jobs: Optional[int] = None,
    use_cache: bool = True,
):
    """Run ``ids`` across ``jobs`` worker processes, preserving order.

    Each worker computes and *renders* its experiment, so the returned
    :class:`~repro.analysis.experiments.ExperimentResult` list is
    identical to what the serial path produces — the parent process
    never re-renders anything.  With the persistent cache enabled,
    workers also warm the on-disk profile cache as a side effect.
    """
    ids = list(ids)
    if not ids:
        return []
    jobs = min(_default_jobs(jobs), len(ids))
    if jobs == 1:
        from repro.analysis import experiments

        return experiments.run_all(scale=scale, jobs=1, ids=ids, use_cache=use_cache)
    from repro.obs.flight import FLIGHT
    from repro.obs.jitlog import JITLOG
    from repro.obs.timeseries import TIMESERIES

    observe = METRICS.enabled or TRACER.enabled or TIMESERIES.enabled
    ts_interval = TIMESERIES.interval if TIMESERIES.enabled else None
    flight_capacity = FLIGHT.capacity if FLIGHT.enabled else None
    jitlog_capacity = JITLOG.capacity if JITLOG.enabled else None
    _LOG.info("dispatching %d experiment(s) over %d workers", len(ids), jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            experiment_id: pool.submit(
                _experiment_worker,
                (experiment_id, scale, use_cache, observe, ts_interval,
                 flight_capacity, jitlog_capacity),
            )
            for experiment_id in _dispatch_order(ids)
        }
        results = []
        for experiment_id in ids:
            result, snapshot, spans, ts_payload, jl_payload = (
                futures[experiment_id].result()
            )
            if snapshot is not None:
                METRICS.merge(snapshot)
            if spans is not None:
                TRACER.adopt(spans)
            if ts_payload is not None:
                TIMESERIES.merge(ts_payload)
            if jl_payload is not None:
                # Merged in ids order, so the combined journal is
                # deterministic regardless of completion order.
                JITLOG.merge(jl_payload)
            results.append(result)
        return results
