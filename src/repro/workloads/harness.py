"""High-level harness: run a workload under the value profiler.

This is the equivalent of the paper's "instrument the binary with ATOM
and run it on an input set" step, packaged as one call.  Every run
verifies the program's output against the workload's pure-Python
reference, so a profiling result can never silently come from a broken
simulation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sampling import SamplingProfiler, SamplingPolicy
from repro.core.sites import Site
from repro.errors import ProfileError, WorkloadError
from repro.isa.instrument import ProfileTarget, ValueProfiler, ValueTraceCollector
from repro.isa.machine import Machine, RunResult, resolve_engine
from repro.obs import TRACER, get_logger
from repro.workloads.registry import DataSet, Workload, get_workload

_LOG = get_logger(__name__)

DEFAULT_TARGETS = (ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS)


@dataclass
class ProfiledRun:
    """Everything one instrumented execution produced."""

    workload: Workload
    dataset: DataSet
    result: RunResult
    database: ProfileDatabase
    sampler: Optional[SamplingProfiler] = None

    @property
    def name(self) -> str:
        return self.dataset.name


def _verify(workload: Workload, dataset: DataSet, result: RunResult) -> None:
    if list(result.output) != list(dataset.expected_output):
        raise WorkloadError(
            f"{dataset.name}: simulated output diverged from the reference "
            f"implementation (got {list(result.output)[:8]}..., "
            f"expected {list(dataset.expected_output)[:8]}...)"
        )


def profile_workload(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    targets: Iterable[ProfileTarget] = DEFAULT_TARGETS,
    config: Optional[TNVConfig] = None,
    exact: bool = True,
    policy: Optional[SamplingPolicy] = None,
    verify: bool = True,
    buffered: Optional[bool] = None,
    parameter_context: bool = False,
) -> ProfiledRun:
    """Run one workload under the value profiler.

    Args:
        name: registered workload name.
        variant: ``train`` or ``test`` input set.
        scale: input-size multiplier (1.0 = the experiment default).
        targets: which event families to profile.
        config: TNV table knobs (defaults to the paper's 10/5/2000).
        exact: also keep exact reference histograms per site.
        policy: if given, profile through a sampling policy instead of
            recording every execution; the returned ``sampler`` then
            carries overhead statistics.
        verify: check program output against the Python reference.
        buffered: buffer events per site and record them in batches
            (byte-identical profiles, much lower overhead).  Defaults
            to on for full profiling and for site-local sampling
            policies; policies with cross-site state (e.g. random
            sampling's shared RNG) stay on the per-event path, and
            asking to buffer one raises :class:`ProfileError`.  The
            machine flushes the buffers when the program halts.
        parameter_context: key parameter sites by calling site
            (``arg{i}@{pc}``), as :class:`ValueProfiler`'s option does.
    """
    site_local = policy is None or getattr(policy, "site_local", False)
    if buffered and not site_local:
        raise ProfileError(
            f"buffered profiling needs a site-local sampling policy; "
            f"{type(policy).__name__} keeps cross-site state"
        )
    workload = get_workload(name)
    dataset = workload.dataset(variant, scale=scale)
    run_name = dataset.name

    sampler: Optional[SamplingProfiler] = None
    if policy is None:
        database = ProfileDatabase(config=config, exact=exact, name=run_name)
        recorder = database
    else:
        sampler = SamplingProfiler(policy, config=config, exact=exact, name=run_name)
        database = sampler.database
        recorder = sampler
    if buffered is None:
        buffered = site_local

    _LOG.debug("profiling %s (buffered=%s)", run_name, buffered)
    observer = ValueProfiler(
        workload.program(),
        recorder,
        targets=targets,
        parameter_context=parameter_context,
        buffered=buffered,
    )
    machine = Machine(workload.program(), observer=observer)
    machine.set_input(dataset.values)
    with TRACER.span("machine-run", workload=run_name, instrumented=True):
        result = machine.run()
    if verify:
        _verify(workload, dataset, result)
    return ProfiledRun(workload, dataset, result, database, sampler)


def run_workload(name: str, variant: str = "train", scale: float = 1.0, verify: bool = True) -> RunResult:
    """Run a workload *without* instrumentation (for timing baselines)."""
    workload = get_workload(name)
    dataset = workload.dataset(variant, scale=scale)
    machine = Machine(workload.program())
    machine.set_input(dataset.values)
    result = machine.run()
    if verify:
        _verify(workload, dataset, result)
    return result


def trace_workload(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    targets: Iterable[ProfileTarget] = (ProfileTarget.INSTRUCTIONS,),
    max_per_site: Optional[int] = None,
    verify: bool = True,
) -> Dict[Site, List[int]]:
    """Collect ordered per-site value traces (for the predictor suite)."""
    workload = get_workload(name)
    dataset = workload.dataset(variant, scale=scale)
    collector = ValueTraceCollector(workload.program(), targets=targets, max_per_site=max_per_site)
    machine = Machine(workload.program(), observer=collector)
    machine.set_input(dataset.values)
    result = machine.run()
    if verify:
        _verify(workload, dataset, result)
    return collector.traces


def capture_workload_events(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    verify: bool = True,
) -> "EventTrace":
    """Simulate once, capturing the full profile-event stream.

    The returned :class:`~repro.core.tracestore.EventTrace` carries
    every event family plus the run result and dataset, so profiling,
    tracing and global-order experiments can all replay from it without
    touching the interpreter again.  It also carries each parameter
    event's calling pc and, except on the tier-2 engine (which counts
    no pcs without leaving its tier), per-pc execution counts.
    """
    import time

    from repro.core.tracestore import EventTrace, TraceCaptureObserver

    workload = get_workload(name)
    dataset = workload.dataset(variant, scale=scale)
    capture = TraceCaptureObserver(workload.program())
    engine = resolve_engine(None)
    machine = Machine(
        workload.program(),
        observer=capture,
        count_pcs=engine != "tier2",
        engine=engine,
    )
    machine.set_input(dataset.values)
    started = time.perf_counter()
    with TRACER.span("capture-events", workload=dataset.name, scale=scale):
        result = machine.run()
    elapsed = time.perf_counter() - started
    if verify:
        _verify(workload, dataset, result)
    return EventTrace(
        program=name,
        variant=variant,
        scale=scale,
        sites=capture.sites,
        site_ids=capture.site_ids,
        values=capture.values,
        result=result,
        dataset=dataset,
        call_pcs=capture.call_pcs,
        pc_counts=None if machine.pc_counts is None else array("q", machine.pc_counts),
        meta={
            "engine": machine.engine,
            "events": len(capture.site_ids),
            "instructions": result.instructions_executed,
            "capture_seconds": elapsed,
        },
    )
