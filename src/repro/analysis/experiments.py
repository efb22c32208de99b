"""Experiment registry: every table and figure of the paper.

Each experiment is a named, self-describing runner that regenerates
one artifact of the evaluation (see DESIGN.md's experiment index).
Runners return an :class:`ExperimentResult` whose ``text`` is the
rendered table/figure and whose ``data`` carries the raw numbers for
tests and for EXPERIMENTS.md.

Usage::

    from repro.analysis import experiments
    result = experiments.run("table-load-values", scale=0.5)
    print(result.text)

``scale`` shrinks workload inputs proportionally; 1.0 is the default
experiment size used in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import diskcache, tracestore
from repro.core.diskcache import (  # noqa: F401  (re-exported compat surface)
    CACHE_VERSION,
    cache_dir,
    cache_enabled,
    caching_disabled,
    clear_disk_cache,
    set_cache_enabled,
    source_tree_hash,
)
from repro.core.profile import TNVConfig
from repro.core.tracestore import EventTrace
from repro.errors import ExperimentError
from repro.isa.instrument import ProfileTarget
from repro.obs import METRICS, TRACER, get_logger
from repro.workloads.harness import (
    ProfiledRun,
    capture_workload_events,
    profile_workload,
    run_workload,
    trace_workload,
)
from repro.workloads.registry import get_workload, workload_names

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment run."""

    experiment: str
    title: str
    text: str
    data: dict


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    ``deterministic`` marks experiments whose rendered text is a pure
    function of (code, scale).  Experiments that measure real wall
    clock (e.g. memoization/specialization speedups) are flagged
    ``False``; their numbers vary run to run even serially, so tests
    and the parallel-runner identity guarantee exclude them.
    """

    id: str
    title: str
    paper_artifact: str
    claim: str
    runner: Callable[[float], ExperimentResult] = field(compare=False)
    deterministic: bool = True


_REGISTRY: Dict[str, Experiment] = {}


def experiment(
    id: str,
    title: str,
    paper_artifact: str,
    claim: str,
    deterministic: bool = True,
):
    """Decorator registering ``runner(scale) -> ExperimentResult``."""

    def decorate(runner: Callable[[float], ExperimentResult]) -> Callable:
        if id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id {id!r}")
        _REGISTRY[id] = Experiment(
            id, title, paper_artifact, claim, runner, deterministic
        )
        return runner

    return decorate


def make_result(id: str, text: str, data: dict) -> ExperimentResult:
    return ExperimentResult(id, _REGISTRY[id].title, text, data)


def run(id: str, scale: float = 1.0) -> ExperimentResult:
    """Run one experiment by id."""
    _ensure_loaded()
    exp = _REGISTRY.get(id)
    if exp is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(f"unknown experiment {id!r} (known: {known})")
    _LOG.info("running experiment %s (scale %s)", id, scale)
    try:
        with TRACER.span("experiment", experiment=id, scale=scale), METRICS.time(
            f"experiment.{id}"
        ):
            result = exp.runner(scale)
    except Exception:
        # Crash forensics: dump the flight ring (a no-op unless the
        # recorder is enabled) before the failure propagates, so the
        # last events before the raise survive without a re-run.
        from repro.obs.flight import FLIGHT

        dumped = FLIGHT.dump_on_crash(id)
        if dumped is not None:
            _LOG.error("experiment %s raised; flight ring dumped to %s", id, dumped)
        raise
    _LOG.info("finished experiment %s", id)
    return result


def run_all(
    scale: float = 1.0,
    jobs: int = 1,
    ids: Optional[Iterable[str]] = None,
    use_cache: bool = True,
) -> List[ExperimentResult]:
    """Run every experiment (or ``ids``), optionally across processes.

    Args:
        scale: workload input-size multiplier, as for :func:`run`.
        jobs: number of worker processes; ``1`` runs serially in this
            process and ``0`` uses every CPU.  Parallel runs fan the
            experiments out over a
            ``ProcessPoolExecutor`` and return results in the same
            order as the serial path, with identical rendered text.
        ids: subset of experiment ids (defaults to all, sorted).
        use_cache: consult/write the persistent profile cache.

    Returns results in sorted-id order (the CLI's printing order).
    """
    _ensure_loaded()
    selected = sorted(_REGISTRY) if ids is None else list(ids)
    for eid in selected:
        if eid not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise ExperimentError(f"unknown experiment {eid!r} (known: {known})")
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    _LOG.info(
        "run_all: %d experiment(s), scale %s, jobs %d", len(selected), scale, jobs
    )
    with TRACER.span("run_all", experiments=len(selected), scale=scale, jobs=jobs):
        if jobs == 1 or len(selected) <= 1:
            if use_cache:
                return [run(eid, scale) for eid in selected]
            with caching_disabled():
                return [run(eid, scale) for eid in selected]
        from repro.analysis.parallel import run_experiments

        return run_experiments(selected, scale=scale, jobs=jobs, use_cache=use_cache)


def all_experiments() -> List[Experiment]:
    _ensure_loaded()
    return [_REGISTRY[eid] for eid in sorted(_REGISTRY)]


def experiment_ids() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def _ensure_loaded() -> None:
    if _REGISTRY:
        return
    from repro.analysis import (  # noqa: F401  (registration side effect)
        exp_extensions,
        exp_predictors,
        exp_profiles,
        exp_sampling,
        exp_specialize,
    )


# ----------------------------------------------------------------------
# simulate-once event store + profiled-run caches
# ----------------------------------------------------------------------
#
# The expensive resource is the interpreter.  Everything an experiment
# consumes — TNV profiles, per-site value traces, global-order event
# lists — is a pure function of one captured event stream per
# (workload, variant, scale), so :func:`load_events` simulates each
# input at most once per process (L1 memo) and at most once per source
# tree (L2 pickle via :mod:`repro.core.diskcache`); :func:`profiled`
# and :func:`traced` replay from it.  ``REPRO_NO_REPLAY=1`` (or
# :func:`set_replay_enabled`) falls back to the original
# simulate-per-consumer paths, which the CI equivalence job uses to
# prove replays are byte-identical.
#
# On top of the event store sit the original L1 memos (experiments in
# one process share already-replayed runs); with replay disabled, the
# original L2 profile/trace pickles are consulted as before.

_RUN_CACHE: Dict[Tuple, ProfiledRun] = {}
_TRACE_CACHE: Dict[Tuple, dict] = {}
_TRACE_INFO: Dict[Tuple, dict] = {}
_EVENT_CACHE: Dict[Tuple, EventTrace] = {}

_REPLAY_ENABLED = os.environ.get("REPRO_NO_REPLAY", "") == ""


def replay_enabled() -> bool:
    """Whether profiled/traced replay from the event-trace store."""
    return _REPLAY_ENABLED


def set_replay_enabled(enabled: bool) -> None:
    """Globally enable/disable trace-store replay (fresh simulation)."""
    global _REPLAY_ENABLED
    _REPLAY_ENABLED = enabled


def load_events(name: str, variant: str = "train", scale: float = 1.0) -> EventTrace:
    """The full event trace for one (workload, variant, scale) input.

    Simulates once on first use; afterwards every consumer replays the
    same captured stream (L1 in-process, L2 on disk unless caching is
    off).
    """
    key = (name, variant, scale)
    trace = _EVENT_CACHE.get(key)
    if trace is not None:
        METRICS.inc("tracestore.memory_hits")
        return trace
    disk_path = (
        diskcache.cache_path("events", key) if diskcache.cache_enabled() else None
    )
    if disk_path is not None:
        payload = diskcache.cache_load(disk_path)
        if payload is not None:
            try:
                trace = EventTrace.from_payload(payload)
            except tracestore.TraceStoreError:
                trace = None
            if trace is not None:
                METRICS.inc("tracestore.disk_hits")
                _LOG.debug("event store disk hit: %s/%s scale %s", name, variant, scale)
                _EVENT_CACHE[key] = trace
                return trace
    METRICS.inc("tracestore.captures")
    _LOG.debug("event store miss: simulating %s/%s scale %s", name, variant, scale)
    with METRICS.time("tracestore.capture"):
        trace = capture_workload_events(name, variant, scale=scale)
    _EVENT_CACHE[key] = trace
    if disk_path is not None:
        METRICS.inc("tracestore.writes")
        diskcache.cache_store(disk_path, trace.to_payload())
    return trace


def benchmark_run(name: str, variant: str = "train", scale: float = 1.0):
    """``(dataset, result)`` of one uninstrumented program input.

    With replay on, both come from the input's captured trace, which
    other experiments capture or load in the same run anyway; the
    trace's result is the same :class:`~repro.isa.machine.RunResult`
    an uninstrumented run returns.  With replay off, the input runs.
    """
    if _REPLAY_ENABLED:
        trace = load_events(name, variant, scale)
        return trace.dataset, trace.result
    dataset = get_workload(name).dataset(variant, scale=scale)
    return dataset, run_workload(name, variant, scale=scale)


def clear_event_cache() -> None:
    """Drop in-process event traces (tests use this to control memory)."""
    _EVENT_CACHE.clear()


def profiled(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    targets: Iterable[ProfileTarget] = (ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
    config: Optional[TNVConfig] = None,
    parameter_context: bool = False,
) -> ProfiledRun:
    """Cached profiled run: replay from the event store (or simulate).

    With replay on (the default), the run's database is rebuilt from
    the shared event trace — byte-identical to a live
    :func:`profile_workload` (all database queries sort, and per-site
    batch replay is state-identical per site).  With replay off, the
    fresh-simulation oracle, each key simulates once per process and
    nothing goes to the disk cache.
    ``parameter_context`` keys parameter sites by calling site, as
    :func:`profile_workload`'s option does.
    """
    target_key = tuple(sorted(t.value for t in targets))
    config_key = (
        (config.capacity, config.steady, config.clear_interval) if config else None
    )
    key = (name, variant, scale, target_key, config_key, parameter_context)
    cached = _RUN_CACHE.get(key)
    if cached is not None:
        METRICS.inc("cache.memory_hits")
        return cached
    METRICS.inc("cache.misses")
    if _REPLAY_ENABLED:
        trace = load_events(name, variant, scale)
        with TRACER.span(
            "replay-profile", workload=name, variant=variant, scale=scale
        ), METRICS.time("tracestore.replay"):
            database = tracestore.replay_profile(
                trace,
                targets,
                config=config,
                name=trace.dataset.name,
                parameter_context=parameter_context,
            )
        run = ProfiledRun(
            workload=get_workload(name),
            dataset=trace.dataset,
            result=trace.result,
            database=database,
        )
        _RUN_CACHE[key] = run
        return run
    _LOG.debug("cache miss: profiling %s/%s scale %s", name, variant, scale)
    with TRACER.span(
        "profile-workload", workload=name, variant=variant, scale=scale
    ), METRICS.time("profile_workload"):
        run = profile_workload(
            name,
            variant,
            scale=scale,
            targets=targets,
            config=config,
            parameter_context=parameter_context,
        )
    _RUN_CACHE[key] = run
    return run


def traced(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    targets: Iterable[ProfileTarget] = (ProfileTarget.INSTRUCTIONS,),
) -> dict:
    """Cached per-site value traces: replay from the event store.

    Same contract as :func:`trace_workload` — a dict of ordered
    per-site value lists, sites in first-event order.  Provenance for
    the most recent collection of each key (event count, dropped
    count, replay vs. simulation) is available via :func:`trace_info`.
    """
    target_key = tuple(sorted(t.value for t in targets))
    key = (name, variant, scale, target_key)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        METRICS.inc("cache.memory_hits")
        return cached
    METRICS.inc("cache.misses")
    if _REPLAY_ENABLED:
        trace = load_events(name, variant, scale)
        with TRACER.span(
            "replay-traces", workload=name, variant=variant, scale=scale
        ), METRICS.time("tracestore.replay"):
            traces, dropped = tracestore.replay_site_traces(trace, targets)
        _TRACE_CACHE[key] = traces
        _TRACE_INFO[key] = {
            "source": "replay",
            "events": sum(len(v) for v in traces.values()),
            "dropped": dropped,
        }
        return traces
    _LOG.debug("cache miss: tracing %s/%s scale %s", name, variant, scale)
    with TRACER.span(
        "trace-workload", workload=name, variant=variant, scale=scale
    ), METRICS.time("trace_workload"):
        traces = trace_workload(name, variant, scale=scale, targets=targets)
    info = {
        "source": "simulation",
        "events": sum(len(v) for v in traces.values()),
        "dropped": 0,
    }
    _TRACE_CACHE[key] = traces
    _TRACE_INFO[key] = info
    return traces


def trace_info(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    targets: Iterable[ProfileTarget] = (ProfileTarget.INSTRUCTIONS,),
) -> dict:
    """Provenance of the matching :func:`traced` collection.

    Returns ``{"source", "events", "dropped"}``; collects the trace
    first if it has not been requested yet.
    """
    target_key = tuple(sorted(t.value for t in targets))
    key = (name, variant, scale, target_key)
    if key not in _TRACE_INFO:
        traced(name, variant, scale, targets)
    return dict(
        _TRACE_INFO.get(
            key, {"source": "memory", "events": None, "dropped": None}
        )
    )


def clear_caches() -> None:
    """Drop in-process memoized runs (tests use this to control memory).

    Leaves the disk cache alone; use
    :func:`repro.core.diskcache.clear_disk_cache` for that.
    """
    _RUN_CACHE.clear()
    _TRACE_CACHE.clear()
    _TRACE_INFO.clear()
    _EVENT_CACHE.clear()


def programs() -> List[str]:
    """The benchmark programs, in report order."""
    return workload_names()
