"""Specialization and Python-front-end experiments.

* ``table-specialization`` — the Chapter X pipeline end to end:
  value-profile each demo function's parameters on a train call
  stream, select semi-invariant parameters, generate the guarded
  specialized variant, and measure speedup on a fresh call stream —
  both for the specialized code called directly (compiler-inlined
  guard) and through the run-time guard dispatcher.
* ``table-pyprof`` — the host-language front end applied to real
  Python code (the workload reference implementations), reporting the
  same metrics the ISA front end produces.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.analysis.experiments import experiment, make_result
from repro.analysis.tables import Table, percentage
from repro.core.sites import SiteKind
from repro.pyprof.ast_instrument import instrument_function
from repro.pyprof.tracer import profile_calls
from repro.specialize.analysis import find_candidates
from repro.specialize.demos import DEMOS, demo_calls
from repro.specialize.runtime import SpecializedFunction


def _best_times(
    baseline: Tuple[Callable, List[tuple]],
    candidate: Tuple[Callable, List[tuple]],
    repeats: int = 9,
) -> Tuple[float, float]:
    """Minimum-of-N CPU times of two ``(func, calls)`` replays.

    Each side is timed with the calling thread's CPU clock
    (:func:`time.thread_time`), so time the thread spends preempted by
    another process sharing its CPU is not counted at all.  Every round
    times both sides, so a host slowdown that outlasts several rounds
    (a slower clock, a cold cache) slows both alike instead of flipping
    their ratio, and the side that goes first swaps each round.  The
    minimum over rounds suppresses the remaining noise.
    """
    sides = (baseline, candidate)
    best = [float("inf"), float("inf")]
    for round_ in range(repeats):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            func, calls = sides[side]
            start = time.thread_time()
            for args in calls:
                func(*args)
            best[side] = min(best[side], time.thread_time() - start)
    return best[0], best[1]


@experiment(
    "table-specialization",
    "Profile-guided code specialization",
    "Thesis Chapter X",
    "Specializing on profiled semi-invariant parameters speeds up the "
    "invariant path; the guard costs a small constant, so net benefit "
    "requires high invariance (the break-even argument).",
    deterministic=False,  # measures real speedups, in thread CPU time
)
def table_specialization(scale: float = 1.0):
    calls_count = max(30, int(300 * scale))
    table = Table(
        (
            "function",
            "params bound",
            "invariance%",
            "guard hit%",
            "speedup(direct)",
            "speedup(guarded)",
        ),
        title="Specialization on profiled semi-invariant parameters",
        precision=2,
    )
    data: Dict[str, dict] = {}
    for demo in DEMOS:
        train_calls = demo_calls(demo, "train", count=calls_count)
        test_calls = demo_calls(demo, "test", count=calls_count)

        # 1. profile parameter values on the train stream
        database = profile_calls(demo.func, train_calls)
        candidates = find_candidates(
            database, kind=SiteKind.PYTHON, min_invariance=0.6, min_executions=10
        )
        # 2. keep candidates for the parameters the demo declares
        #    specializable (arguments, not the return site)
        bindings = {}
        invariances = []
        for candidate in candidates:
            label = candidate.site.label  # "argK:name"
            if ":" not in label:
                continue
            param = label.split(":", 1)[1]
            if param in demo.invariant_params and param not in bindings:
                bindings[param] = candidate.value
                invariances.append(candidate.invariance)
        if not bindings:
            table.add_row(demo.name, "(none)", 0.0, 0.0, 1.0, 1.0)
            data[demo.name] = {"bindings": {}, "speedup_direct": 1.0, "speedup_guarded": 1.0}
            continue
        mean_invariance = sum(invariances) / len(invariances)

        # 3. generate the guarded specialized function
        dispatcher = SpecializedFunction(demo.func)
        specialized = dispatcher.add_variant(bindings)

        # 4. verify equivalence on the test stream before timing
        param_names = dispatcher._param_names
        for args in test_calls:
            expected = demo.func(*args)
            assert dispatcher(*args) == expected, f"{demo.name}: specialized result diverged"
        dispatcher.guard_misses = 0
        for variant in dispatcher.variants:
            variant.hits = 0

        # 5. timing: general vs specialized-direct vs guarded dispatch
        matching = [
            args
            for args in test_calls
            if all(dict(zip(param_names, args)).get(k) == v for k, v in bindings.items())
        ]
        stripped = [
            tuple(v for k, v in zip(param_names, args) if k not in bindings)
            for args in matching
        ]
        general_on_matching, direct_time = _best_times(
            (demo.func, matching), (specialized, stripped)
        )
        general_time, guarded_time = _best_times(
            (demo.func, test_calls), (dispatcher, test_calls)
        )
        for args in test_calls:
            dispatcher(*args)
        guard_hit_rate = dispatcher.guard_hits / max(
            1, dispatcher.guard_hits + dispatcher.guard_misses
        )

        speedup_direct = general_on_matching / direct_time if direct_time > 0 else 1.0
        speedup_guarded = general_time / guarded_time if guarded_time > 0 else 1.0
        table.add_row(
            demo.name,
            ",".join(f"{k}={v}" for k, v in sorted(bindings.items())),
            percentage(mean_invariance),
            percentage(guard_hit_rate),
            speedup_direct,
            speedup_guarded,
        )
        data[demo.name] = {
            "bindings": {k: v for k, v in bindings.items()},
            "invariance": mean_invariance,
            "guard_hit_rate": guard_hit_rate,
            "speedup_direct": speedup_direct,
            "speedup_guarded": speedup_guarded,
            "folds": specialized.__vp_folds__,
            "pruned": specialized.__vp_pruned__,
        }
    return make_result("table-specialization", table.render(), data)


@experiment(
    "table-pyprof",
    "Value profiling of Python code (host-language front end)",
    "Reproduction extension (per the repro hint: bytecode/AST "
    "instrumentation in the host language)",
    "The same TNV machinery applied to Python functions finds the same "
    "phenomenon: arguments and assignments are heavily semi-invariant.",
)
def table_pyprof(scale: float = 1.0):
    from repro.workloads import perl as perl_module
    from repro.workloads.registry import get_workload

    table = Table(
        ("target", "frontend", "sites", "records", "Inv-Top1%", "Inv-All%", "LVP%"),
        title="Python-level value profiles of workload reference code",
    )
    data: Dict[str, dict] = {}

    # Function-call-level profiling of two reference implementations.
    for name in ("perl", "m88ksim"):
        workload = get_workload(name)
        dataset = workload.dataset("test", scale=scale * 0.5)
        database = profile_calls(workload.reference, [(dataset.values,)] * 3)
        summary = database.summary()
        table.add_row(
            f"{name}.reference",
            "call",
            len(database),
            summary.executions,
            percentage(summary.inv_top1),
            percentage(summary.inv_top_n),
            percentage(summary.lvp),
        )
        data[f"{name}.reference"] = {
            "sites": len(database),
            "records": summary.executions,
            "inv_top1": summary.inv_top1,
        }

    # Statement-level AST instrumentation of the perl reference.
    workload = get_workload("perl")
    dataset = workload.dataset("train", scale=scale * 0.5)
    instrumented = instrument_function(perl_module.reference)
    expected = workload.reference(dataset.values)
    got = instrumented(dataset.values)
    assert got == expected, "instrumented reference diverged"
    database = instrumented.__vp_database__
    summary = database.summary()
    table.add_row(
        "perl.reference",
        "ast",
        len(database),
        summary.executions,
        percentage(summary.inv_top1),
        percentage(summary.inv_top_n),
        percentage(summary.lvp),
    )
    rows = database.metrics_by_site()
    semi = [(site, m) for site, m in rows if m.inv_top1 >= 0.5 and m.executions >= 50]
    data["perl.reference.ast"] = {
        "sites": len(database),
        "records": summary.executions,
        "inv_top1": summary.inv_top1,
        "semi_invariant_sites": [site.label for site, _ in semi],
    }
    detail = Table(
        ("site", "execs", "Inv-Top1%", "LVP%", "Diff"),
        title="Hottest AST-instrumented sites in perl.reference",
    )
    for site, metrics in rows[:8]:
        detail.add_row(
            site.label,
            metrics.executions,
            percentage(metrics.inv_top1),
            percentage(metrics.lvp),
            metrics.distinct,
        )
    text = table.render() + "\n\n" + detail.render()
    return make_result("table-pyprof", text, data)
