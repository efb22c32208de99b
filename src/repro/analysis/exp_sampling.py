"""Sampling, convergence and TNV-accuracy experiments (thesis Ch. VIII
and the TNV design discussion of MICRO'97 §3).

Three artifacts:

* ``fig-convergence`` — invariance estimate vs executions profiled;
  the thesis' argument that estimates settle long before the program
  ends, which is what makes sampling safe.
* ``table-sampling-accuracy`` — full profiling vs periodic sampling vs
  the convergent ("intelligent") sampler: profiling overhead against
  estimate error.
* ``fig-tnv-accuracy`` — the TNV replacement-policy ablation: estimate
  error as a function of the clearing interval and the steady-set
  size, including the no-clearing LFU strawman.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.experiments import experiment, make_result, profiled, programs, traced
from repro.analysis.figures import series_plot
from repro.analysis.tables import Table, percentage
from repro.core.convergence import ConvergenceConfig, convergence_curve
from repro.core.metrics import ValueStreamStats, weighted_mean
from repro.core.profile import ProfileDatabase
from repro.core.sampling import (
    ConvergentSampling,
    PeriodicSampling,
    RandomSampling,
    SamplingProfiler,
)
from repro.core.sites import SiteKind
from repro.core.tnv import TNVTable
from repro.isa.instrument import FanoutObserver, ProfileTarget, ValueProfiler
from repro.isa.machine import Machine
from repro.obs import get_logger
from repro.workloads.registry import get_workload

_LOG = get_logger(__name__)


@experiment(
    "fig-convergence",
    "Convergence of the invariance estimate",
    "Thesis Ch. VIII convergence figures",
    "A site's invariance estimate converges to within a few percent of "
    "its final value after a small fraction of its executions.",
)
def fig_convergence(scale: float = 1.0):
    series: Dict[str, List[Tuple[float, float]]] = {}
    data: Dict[str, dict] = {}
    for name in programs():
        _LOG.debug("fig-convergence: tracing %s", name)
        traces = traced(name, "train", scale=scale, targets=(ProfileTarget.LOADS,))
        if not traces:
            continue
        site, trace = max(traces.items(), key=lambda item: len(item[1]))
        if len(trace) < 50:
            continue
        checkpoint = max(1, len(trace) // 40)
        points = convergence_curve(trace, checkpoint=checkpoint)
        final = points[-1].estimate
        series[name] = [
            (p.executions / len(trace), p.estimate) for p in points
        ]
        converged_at = len(trace)
        for p in points:
            if abs(p.estimate - final) <= 0.02:
                converged_at = p.executions
                break
        data[name] = {
            "site": site.qualified_name(),
            "executions": len(trace),
            "final_invariance": final,
            "converged_at": converged_at,
            "converged_fraction": converged_at / len(trace),
        }
    figure = series_plot(
        series,
        title="Inv-Top1 estimate vs fraction of executions profiled (hottest load per program)",
        x_label="fraction of executions",
        y_label="Inv-Top1 estimate",
    )
    fractions = [entry["converged_fraction"] for entry in data.values()]
    data["mean_converged_fraction"] = sum(fractions) / len(fractions) if fractions else 0.0
    return make_result("fig-convergence", figure, data)


def _sampling_policies():
    """The policies compared in the sampling-accuracy table.

    Burst sizes are scaled to this suite's dynamic execution counts
    (1e4-1e6 per program, versus SPEC's 1e9): duty cycles stay honest
    for sites with a few thousand executions.
    """
    return [
        ("periodic 10%", PeriodicSampling(burst=100, interval=1_000)),
        ("periodic 1%", PeriodicSampling(burst=20, interval=2_000)),
        ("random 10% (CPI)", RandomSampling(rate=0.10)),
        (
            "convergent",
            ConvergentSampling(
                burst=100,
                base_skip=900,
                max_skip=200_000,
                convergence=ConvergenceConfig(delta=0.02, patience=2),
            ),
        ),
    ]


def _replay_load_stream(name, scale, samplers) -> None:
    """Feed the train-input load-event stream to every sampler.

    Every sampler sees the same global event order: random sampling
    draws one decision per event from one RNG shared across sites, so
    it depends on the interleaving, and the accuracy comparison shares
    one trace.  With replay on, the stream comes from the event store
    as interned columns (:func:`~repro.core.tracestore.replay_global_events`)
    and each sampler takes it in one
    :meth:`~repro.core.sampling.SamplingProfiler.replay` call: one
    ``record_batch`` per site for the site-local policies, one
    global-order draw for random sampling.  With replay off, one live
    fan-out simulation feeds every sampler event by event.  The
    samplers end byte-identical either way.
    """
    from repro.analysis import experiments
    from repro.core import tracestore

    if experiments.replay_enabled():
        trace = experiments.load_events(name, "train", scale)
        (sites, site_ids, values), _ = tracestore.replay_global_events(
            trace, (ProfileTarget.LOADS,)
        )
        for _, sampler in samplers:
            sampler.replay(sites, site_ids, values)
        return

    workload = get_workload(name)
    dataset = workload.dataset("train", scale=scale)
    program = workload.program()
    observers = [
        ValueProfiler(program, sampler, targets=(ProfileTarget.LOADS,))
        for _, sampler in samplers
    ]
    machine = Machine(program, observer=FanoutObserver(observers))
    machine.set_input(dataset.values)
    machine.run()


def _sampling_errors(full_rows, sampled: ProfileDatabase) -> Tuple[float, float]:
    """Execution-weighted |Inv-Top1| and |LVP| errors of a sampled profile.

    ``full_rows`` is the full profile's ``metrics_by_site`` over loads.
    Sites the sampler never saw (possible only for sites whose first
    execution was skipped — cannot happen with burst-first policies,
    but handled defensively) count as estimate 0.
    """
    inv_pairs = []
    lvp_pairs = []
    for site, metrics in full_rows:
        if site in sampled:
            profile = sampled.profile_for(site)
            estimate = profile.metrics().inv_top1
            sampled_lvp = profile.lvp()
        else:
            estimate = sampled_lvp = 0.0
        inv_pairs.append((abs(estimate - metrics.inv_top1), metrics.executions))
        lvp_pairs.append((abs(sampled_lvp - metrics.lvp), metrics.executions))
    return weighted_mean(inv_pairs), weighted_mean(lvp_pairs)


@experiment(
    "table-sampling-accuracy",
    "Sampling overhead vs profile accuracy",
    "Thesis Ch. VIII sampling tables",
    "Convergent sampling keeps invariance error small at a few percent "
    "profiling overhead; fixed periodic sampling needs a higher duty "
    "cycle for the same accuracy.  CPI-style random sampling (the "
    "thesis' open question) estimates histogram metrics well but is "
    "~3x worse on LVP at equal cost: independent samples almost never "
    "include both executions of a consecutive pair.",
)
def table_sampling_accuracy(scale: float = 1.0):
    table = Table(
        ("program", "policy", "overhead%", "inv error", "LVP error"),
        title="Load-value profiling: sampled vs full (train)",
        precision=3,
    )
    data: Dict[str, list] = {}
    overall: Dict[str, List[Tuple[float, float]]] = {}
    for name in programs():
        _LOG.debug("table-sampling-accuracy: sampling %s under every policy", name)

        full = profiled(name, "train", scale=scale, targets=(ProfileTarget.LOADS,))
        full_rows = full.database.metrics_by_site(SiteKind.LOAD)
        samplers = []
        for label, policy in _sampling_policies():
            sampler = SamplingProfiler(policy, name=f"{name}.{label}")
            samplers.append((label, sampler))

        _replay_load_stream(name, scale, samplers)

        rows = []
        for label, sampler in samplers:
            inv_error, lvp_error = _sampling_errors(full_rows, sampler.database)
            overhead = sampler.overhead()
            table.add_row(name, label, percentage(overhead), inv_error, lvp_error)
            rows.append(
                {
                    "policy": label,
                    "overhead": overhead,
                    "inv_error": inv_error,
                    "lvp_error": lvp_error,
                }
            )
            overall.setdefault(label, []).append((overhead, inv_error, lvp_error))
        data[name] = rows
    table.add_separator()
    summary = {}
    for label, triples in overall.items():
        mean_overhead = sum(p[0] for p in triples) / len(triples)
        mean_error = sum(p[1] for p in triples) / len(triples)
        mean_lvp_error = sum(p[2] for p in triples) / len(triples)
        table.add_row("average", label, percentage(mean_overhead), mean_error, mean_lvp_error)
        summary[label] = {
            "overhead": mean_overhead,
            "inv_error": mean_error,
            "lvp_error": mean_lvp_error,
        }
    data["average"] = summary
    return make_result("table-sampling-accuracy", table.render(), data)


_TNV_SWEEP: List[Tuple[str, Optional[int], int]] = [
    # (label, clear_interval, steady)
    ("LFU (no clearing)", None, 5),
    ("clear=100", 100, 5),
    ("clear=500", 500, 5),
    ("clear=2000 (paper)", 2000, 5),
    ("clear=10000", 10_000, 5),
    ("clear=2000 steady=2", 2000, 2),
    ("clear=2000 steady=8", 2000, 8),
]


def _phased_traces(scale: float) -> Dict[str, List[int]]:
    """Synthetic traces with *phased* hot values.

    Real programs change hot values across phases (the thesis'
    motivation for clearing): each phase here has its own dominant
    value buried in enough one-off noise values to keep the TNV table
    full, so a pure-LFU table locks onto phase-1 values and never
    admits the later — globally hottest — value.
    """
    import random as _random

    traces: Dict[str, List[int]] = {}
    length = max(2_000, int(20_000 * scale))
    for seed, phases, dominance in (("A", 4, 0.6), ("B", 3, 0.5), ("C", 6, 0.7)):
        rng = _random.Random(f"tnv-phase-{seed}")
        trace: List[int] = []
        per_phase = length // phases
        for phase in range(phases):
            hot = 10_000 + phase  # later phases are longer-lived via weight below
            weight = dominance * (0.5 + phase / phases)
            for _ in range(per_phase):
                if rng.random() < weight:
                    trace.append(hot)
                else:
                    trace.append(rng.randrange(1_000_000))  # one-off noise
        traces[f"phased-{seed}"] = trace
    return traces


def _tnv_sweep_rows(trace: List[int]) -> Dict[str, Tuple[float, float, float]]:
    exact = ValueStreamStats()
    exact.record_many(trace)
    true_inv = exact.invariance(1)
    true_top = exact.top(1)[0][0]
    rows = {}
    for label, clear_interval, steady in _TNV_SWEEP:
        tnv = TNVTable(capacity=10, steady=steady, clear_interval=clear_interval)
        tnv.record_many(trace)
        est = tnv.estimated_invariance(1)
        hit = 1.0 if tnv.top_value() == true_top else 0.0
        rows[label] = (abs(est - true_inv), hit, float(len(trace)))
    return rows


@experiment(
    "fig-tnv-accuracy",
    "TNV table accuracy vs clearing policy",
    "MICRO'97 §3 TNV design discussion",
    "On steady workload traces every configuration is accurate (the "
    "design is robust); on phased traces pure LFU misses the true top "
    "value, which is exactly why the paper clears the table's bottom "
    "half periodically.",
)
def fig_tnv_accuracy(scale: float = 1.0):
    per_config: Dict[str, List[Tuple[float, float, float]]] = {
        label: [] for label, _, _ in _TNV_SWEEP
    }
    # Part 1: real load traces (robustness on steady-hot-value sites).
    for name in ("compress", "li", "gcc"):
        traces = traced(name, "train", scale=scale, targets=(ProfileTarget.LOADS,))
        for site, trace in traces.items():
            if len(trace) < 100:
                continue
            for label, row in _tnv_sweep_rows(trace).items():
                per_config[label].append(row)

    table = Table(
        ("configuration", "inv error", "top-value hit%", "sites"),
        title="TNV estimate vs exact histogram — real load traces (weighted)",
        precision=3,
    )
    data: Dict[str, dict] = {"real": {}, "phased": {}}
    for label, rows in per_config.items():
        if not rows:
            continue
        error = weighted_mean((r[0], r[2]) for r in rows)
        hits = weighted_mean((r[1], r[2]) for r in rows)
        table.add_row(label, error, percentage(hits), len(rows))
        data["real"][label] = {"inv_error": error, "top_hit_rate": hits, "sites": len(rows)}

    # Part 2: phased synthetic traces (the clearing design point).
    phased_config: Dict[str, List[Tuple[float, float, float]]] = {
        label: [] for label, _, _ in _TNV_SWEEP
    }
    for name, trace in _phased_traces(scale).items():
        for label, row in _tnv_sweep_rows(trace).items():
            phased_config[label].append(row)
    phased_table = Table(
        ("configuration", "inv error", "top-value hit%", "traces"),
        title="TNV estimate vs exact histogram — phased synthetic traces",
        precision=3,
    )
    for label, rows in phased_config.items():
        error = weighted_mean((r[0], r[2]) for r in rows)
        hits = weighted_mean((r[1], r[2]) for r in rows)
        phased_table.add_row(label, error, percentage(hits), len(rows))
        data["phased"][label] = {"inv_error": error, "top_hit_rate": hits, "traces": len(rows)}

    text = table.render() + "\n\n" + phased_table.render()
    return make_result("fig-tnv-accuracy", text, data)
