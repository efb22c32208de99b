"""Extension experiments: the thesis' future-work directions.

Three directions the thesis names but does not evaluate, built on the
same machinery:

* ``table-calling-context`` — path-sensitive value profiling ("one
  could use an approach similar to Young and Smith [40] by using the
  path history… especially beneficial for procedures called from
  several locations in the program"): parameter sites keyed by calling
  site versus merged.
* ``table-load-speculation`` — profile-filtered software load
  speculation (Moudgill & Moreno [29]: "value profiling could support
  [their] approach to only reschedule loads with a high invariance.
  This could potentially decrease the number of mis-speculated
  loads."): value-checked speculation with and without a train-profile
  filter.
* ``table-memoization`` — Richardson [32]'s memoization cache, driven
  by a value profile of argument *tuples*.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.analysis.experiments import (
    benchmark_run,
    experiment,
    make_result,
    profiled,
    programs,
)
from repro.analysis.tables import Table, percentage
from repro.core.profile import ProfileDatabase
from repro.core.sites import SiteKind
from repro.isa.instrument import ProfileTarget
from repro.isa.machine import Machine
from repro.specialize.memoize import AdaptiveMemoizer, memoizability
from repro.workloads.registry import get_workload


def _context_profile(name: str, scale: float) -> ProfileDatabase:
    """The train input's parameter profile, keyed by calling site."""
    return profiled(
        name,
        "train",
        scale=scale,
        targets=(ProfileTarget.PARAMETERS,),
        parameter_context=True,
    ).database


@experiment(
    "table-calling-context",
    "Calling-context-sensitive parameter profiling",
    "Thesis future work (path history, after Young & Smith [40])",
    "Splitting a procedure's parameter profile per calling site never "
    "lowers invariance and raises it where distinct callers pass "
    "distinct value distributions.",
)
def table_calling_context(scale: float = 1.0):
    table = Table(
        ("program", "merged sites", "ctx sites", "Inv-Top1% merged", "Inv-Top1% ctx", "gain"),
        title="Parameter invariance: merged vs per-calling-site",
        precision=2,
    )
    data: Dict[str, dict] = {}
    gains: List[float] = []
    for name in programs():
        # table-parameters profiles the same merged run.
        merged_db = profiled(
            name,
            "train",
            scale=scale,
            targets=(ProfileTarget.PARAMETERS, ProfileTarget.RETURNS),
        ).database
        context_db = _context_profile(name, scale)

        merged = merged_db.summary(SiteKind.PARAMETER)
        contextual = context_db.summary(SiteKind.PARAMETER)
        if merged.executions == 0:
            continue
        gain = contextual.inv_top1 - merged.inv_top1
        gains.append(gain)
        table.add_row(
            name,
            len(merged_db.sites(SiteKind.PARAMETER)),
            len(context_db.sites(SiteKind.PARAMETER)),
            percentage(merged.inv_top1),
            percentage(contextual.inv_top1),
            percentage(gain),
        )
        data[name] = {
            "merged_sites": len(merged_db.sites(SiteKind.PARAMETER)),
            "context_sites": len(context_db.sites(SiteKind.PARAMETER)),
            "merged_inv": merged.inv_top1,
            "context_inv": contextual.inv_top1,
            "gain": gain,
        }
    data["mean_gain"] = sum(gains) / len(gains) if gains else 0.0
    data["min_gain"] = min(gains) if gains else 0.0
    return make_result("table-calling-context", table.render(), data)


#: Cost model for value-checked load speculation: each correct
#: speculation saves one unit; each misspeculation pays a recovery.
_SPEC_BENEFIT = 1.0
_SPEC_RECOVERY = 8.0


@experiment(
    "table-load-speculation",
    "Profile-filtered software load speculation",
    "Moudgill & Moreno [29] + thesis §II.A.1 suggestion",
    "Speculating only loads whose train-profile LVP is high cuts the "
    "misspeculation rate enough to flip the net benefit positive under "
    "a recovery-cost model.",
)
def table_load_speculation(scale: float = 1.0):
    table = Table(
        (
            "program",
            "policy",
            "speculated%",
            "misspec%",
            "net benefit/1k loads",
        ),
        title="Value-checked load speculation on the test input "
        f"(benefit {_SPEC_BENEFIT}, recovery {_SPEC_RECOVERY})",
        precision=2,
    )
    data: Dict[str, dict] = {}
    totals = {"all": [0, 0, 0], "filtered": [0, 0, 0]}  # spec, hits, loads
    for name in programs():
        train = profiled(name, "train", scale=scale, targets=(ProfileTarget.LOADS,))
        test = profiled(name, "test", scale=scale, targets=(ProfileTarget.LOADS,))
        train_metrics = dict(train.database.metrics_by_site(SiteKind.LOAD))

        rows = {}
        for policy in ("all", "filtered"):
            speculated = 0
            hits = 0
            total_loads = 0
            for site, metrics in test.database.metrics_by_site(SiteKind.LOAD):
                executions = metrics.executions
                total_loads += executions
                if policy == "filtered":
                    trained = train_metrics.get(site)
                    if trained is None or trained.lvp < 0.90:
                        continue
                # Value-checked speculation: predicted value = previous
                # value; a hit is exactly an LVP hit.
                site_hits = round(metrics.lvp * max(0, executions - 1))
                speculated += executions
                hits += site_hits
            misses = speculated - hits
            net = (hits * _SPEC_BENEFIT - misses * _SPEC_RECOVERY) / max(1, total_loads) * 1000
            rows[policy] = {
                "speculated": speculated / max(1, total_loads),
                "misspec": misses / max(1, speculated),
                "net_per_1k": net,
            }
            totals[policy][0] += speculated
            totals[policy][1] += hits
            totals[policy][2] += total_loads
            table.add_row(
                name,
                policy,
                percentage(rows[policy]["speculated"]),
                percentage(rows[policy]["misspec"]),
                net,
            )
        data[name] = rows
    table.add_separator()
    summary = {}
    for policy, (speculated, hits, loads) in totals.items():
        misses = speculated - hits
        net = (hits * _SPEC_BENEFIT - misses * _SPEC_RECOVERY) / max(1, loads) * 1000
        summary[policy] = {
            "speculated": speculated / max(1, loads),
            "misspec": misses / max(1, speculated),
            "net_per_1k": net,
        }
        table.add_row(
            "average",
            policy,
            percentage(summary[policy]["speculated"]),
            percentage(summary[policy]["misspec"]),
            net,
        )
    data["average"] = summary
    return make_result("table-load-speculation", table.render(), data)


def _memo_workloads(scale: float):
    """Three call streams with different argument-tuple locality."""
    rng = random.Random("memoization")
    count = max(60, int(600 * scale))

    def lookup_cost(route: int, day: int) -> int:
        total = 0
        for step in range(200):
            total = (total * 31 + route * step + day) % 1_000_003
        return total

    hot_routes = [rng.randrange(10_000) for _ in range(6)]
    zipf_calls = [
        (rng.choice(hot_routes) if rng.random() < 0.9 else rng.randrange(10_000), rng.randrange(3))
        for _ in range(count)
    ]
    unique_calls = [(i, i % 7) for i in range(count)]
    unhashable_calls = [([i % 4], i % 3) for i in range(count)]

    def list_cost(route, day):
        return lookup_cost(route[0], day)

    return [
        ("zipf-args", lookup_cost, zipf_calls),
        ("unique-args", lookup_cost, unique_calls),
        ("unhashable-args", list_cost, unhashable_calls),
    ]


@experiment(
    "table-memoization",
    "Profile-guided memoization",
    "Richardson [32] via thesis §X",
    "The argument-tuple profile predicts cache effectiveness: the "
    "advisor enables memoization for repeating-argument streams and "
    "declines for unique or uncacheable streams.",
    deterministic=False,  # measures real wall-clock speedups
)
def table_memoization(scale: float = 1.0):
    import time

    table = Table(
        ("stream", "predicted hit%", "enabled", "cache hit%", "speedup"),
        title="Memoization advisor on three argument streams",
        precision=2,
    )
    data: Dict[str, dict] = {}
    for label, func, calls in _memo_workloads(scale):
        estimate = memoizability(func, calls)
        wrapped = AdaptiveMemoizer(warmup_calls=max(40, len(calls) // 4), threshold=0.4)(func)

        def timed(target):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for args in calls:
                    target(*args)
                best = min(best, time.perf_counter() - start)
            return best

        baseline = timed(func)
        # Warmup + steady state; verify correctness against the pure function.
        for args in calls:
            assert wrapped(*args) == func(*args)
        memo_time = timed(wrapped)
        hit_rate = wrapped.cache.hit_rate if wrapped.cache is not None else 0.0
        speedup = baseline / memo_time if memo_time > 0 else 1.0
        table.add_row(
            label,
            percentage(estimate.predicted_hit_rate),
            "yes" if wrapped.memoizing else "no",
            percentage(hit_rate),
            speedup,
        )
        data[label] = {
            "predicted_coverage": estimate.predicted_hit_rate,
            "enabled": wrapped.memoizing,
            "hit_rate": hit_rate,
            "speedup": speedup,
        }
    return make_result("table-memoization", table.render(), data)


@experiment(
    "table-isa-specialization",
    "Profile-driven binary specialization (VPA level)",
    "Thesis Chapter X at the machine-code level",
    "A calling-context value profile alone is enough to specialize "
    "machine code: per-call-site invariant argument registers are bound, "
    "the clone is constant-folded and strength-reduced behind a guard, "
    "and the patched program produces bit-identical output in fewer "
    "cycles.",
)
def table_isa_specialization(scale: float = 1.0):
    from repro.isa.instructions import REG_ARGS
    from repro.isa.machine import resolve_engine
    from repro.isa.optimize import (
        patch_call_site,
        specialize_procedure,
        written_registers,
    )

    table = Table(
        (
            "program",
            "variants",
            "rewrites",
            "cycles before",
            "cycles after",
            "reduction%",
        ),
        title="Automated per-call-site binary specialization (train input)",
        precision=2,
    )
    data: Dict[str, dict] = {}
    # The specialized binary runs on whatever interpreter tier the
    # environment selects (``REPRO_ENGINE``/``REPRO_TIER2``), so under
    # the tier-2 engine the specialized code is itself
    # profile-guided-specialized.  The engine and its quicken/deopt
    # stats land in ``data`` only; the rendered table must stay
    # byte-identical across engines (CI diffs it).
    engine = resolve_engine(None)
    data["engine"] = {"name": engine, "tier2": {}}
    for name in programs():
        # With replay on, the baseline run and the profile come from
        # the train input's capture: the specialized binary is the
        # only program this experiment simulates.
        dataset, baseline = benchmark_run(name, "train", scale)
        program = get_workload(name).program()

        # 1. calling-context parameter profile
        context_db = _context_profile(name, scale)

        # 2. per call site: collect argument registers that were fully
        #    invariant at that site
        site_bindings: Dict[int, Dict[str, Dict[int, int]]] = {}
        for site, metrics in context_db.metrics_by_site(SiteKind.PARAMETER):
            if metrics.inv_top1 < 1.0 or metrics.executions < 8:
                continue
            arg_label, _, call_pc_text = site.label.partition("@")
            arg_index = int(arg_label.replace("arg", ""))
            call_pc = int(call_pc_text)
            value = context_db.profile_for(site).tnv.top_value()
            per_site = site_bindings.setdefault(call_pc, {"proc": site.procedure, "regs": {}})
            per_site["regs"][REG_ARGS[arg_index]] = value

        # 3. specialize + patch, one variant per qualifying call site
        specialized = program
        variants = 0
        rewrites = 0
        for call_pc, entry in sorted(site_bindings.items()):
            proc_name = entry["proc"]
            bindings = entry["regs"]
            if not bindings or proc_name not in specialized.procedures:
                continue
            procedure = specialized.procedures[proc_name]
            if set(bindings) & written_registers(specialized, procedure):
                continue  # unsound to bind
            variant_name = f"{proc_name}__site{call_pc}"
            try:
                specialized, report = specialize_procedure(
                    specialized, proc_name, bindings, variant_name
                )
            except Exception:  # unsupported shape: stay general
                continue
            if report.cycle_gain <= 0:
                # Nothing got statically cheaper: the guard would be
                # pure overhead (e.g. folds that only change operand
                # forms).  Keep the general version.
                continue
            patch_call_site(specialized, call_pc, variant_name)
            report.patched_call_sites.append(call_pc)
            variants += 1
            rewrites += report.rewrites

        machine = Machine(specialized, engine=engine)
        machine.set_input(dataset.values)
        result = machine.run()
        tier2_stats = machine.tier2_stats()
        if tier2_stats is not None:
            data["engine"]["tier2"][name] = tier2_stats
        assert list(result.output) == list(dataset.expected_output), (
            f"{name}: specialized binary diverged"
        )
        reduction = (baseline.cycles - result.cycles) / baseline.cycles
        table.add_row(
            name,
            variants,
            rewrites,
            baseline.cycles,
            result.cycles,
            percentage(reduction),
        )
        data[name] = {
            "variants": variants,
            "rewrites": rewrites,
            "cycles_before": baseline.cycles,
            "cycles_after": result.cycles,
            "reduction": reduction,
        }
    reductions = [
        entry["reduction"] for entry in data.values() if "reduction" in entry
    ]
    data["best_reduction"] = max(reductions) if reductions else 0.0
    data["all_outputs_identical"] = True
    return make_result("table-isa-specialization", table.render(), data)
