"""Profile experiments: the paper's core tables and distribution figures.

Covers the benchmark-characteristics table (III.A.1), per-program
load-value and all-instruction metrics (V.1/V.2), the instruction-class
breakdown (V.3), the top-procedures table (V.4), the train-vs-test
comparison (V.5 — named explicitly in the supplied text), the
invariance-distribution quantile figures (§III.D), and the
memory-location and parameter profiles (thesis chapters VI-IX).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.analysis.experiments import (
    benchmark_run,
    experiment,
    make_result,
    profiled,
    programs,
)
from repro.analysis.figures import bar_chart
from repro.analysis.quantile import invariance_buckets
from repro.analysis.tables import METRICS_COLUMNS, Table, metrics_row, percentage
from repro.core.metrics import SiteMetrics, aggregate_metrics
from repro.core.sites import SiteKind
from repro.isa.instructions import OPCODES
from repro.isa.instrument import ProfileTarget
from repro.isa.machine import Machine
from repro.workloads.registry import get_workload


@experiment(
    "table-benchmarks",
    "Benchmark programs and data sets",
    "Thesis Table III.A.1",
    "Each program runs two input sets (train/test) of different sizes.",
)
def table_benchmarks(scale: float = 1.0):
    table = Table(
        ("program", "SPEC analogue", "input", "input words", "instructions"),
        title="Benchmark characteristics (VPA instruction counts)",
    )
    data: Dict[str, dict] = {}
    for name in programs():
        workload = get_workload(name)
        entry = {}
        for variant in ("train", "test"):
            dataset, result = benchmark_run(name, variant, scale)
            table.add_row(
                name,
                workload.spec_analogue,
                variant,
                len(dataset.values),
                result.instructions_executed,
            )
            entry[variant] = {
                "input_words": len(dataset.values),
                "instructions": result.instructions_executed,
                "loads": result.dynamic_loads,
                "stores": result.dynamic_stores,
                "calls": result.dynamic_calls,
            }
        data[name] = entry
    return make_result("table-benchmarks", table.render(), data)


def _metrics_table(title: str, kind: SiteKind, targets, scale: float, experiment_id: str):
    table = Table(METRICS_COLUMNS, title=title)
    rows: List[SiteMetrics] = []
    data: Dict[str, dict] = {}
    for name in programs():
        run = profiled(name, "train", scale=scale, targets=targets)
        summary = run.database.summary(kind)
        table.add_row(*metrics_row(name, summary))
        rows.append(summary)
        data[name] = summary.as_percentages()
        data[name]["sites"] = len(run.database.sites(kind))
    table.add_separator()
    average = aggregate_metrics(rows)
    table.add_row(*metrics_row("average", average))
    data["average"] = average.as_percentages()
    return make_result(experiment_id, table.render(), data)


@experiment(
    "table-load-values",
    "Load-value profile per program",
    "Thesis Table V.1 / MICRO'97 load-value table",
    "Load values are substantially invariant: a large fraction of loads "
    "fetch the value the top-1/top-10 entries of their TNV table predict.",
)
def table_load_values(scale: float = 1.0):
    return _metrics_table(
        "Load-value metrics (train input, execution-weighted)",
        SiteKind.LOAD,
        (ProfileTarget.LOADS,),
        scale,
        "table-load-values",
    )


@experiment(
    "table-all-instructions",
    "All-instruction value profile per program",
    "Thesis Table V.2 / MICRO'97 all-instruction table",
    "Register-defining instructions as a whole are less invariant than "
    "loads but still show strong value locality, with a visible %Zeros mass.",
)
def table_all_instructions(scale: float = 1.0):
    return _metrics_table(
        "All register-defining instruction metrics (train input)",
        SiteKind.INSTRUCTION,
        (ProfileTarget.INSTRUCTIONS,),
        scale,
        "table-all-instructions",
    )


@experiment(
    "table-insn-classes",
    "Invariance by instruction class",
    "Thesis Table V.3",
    "Invariance differs sharply by instruction class: compares/moves are "
    "most invariant, loads intermediate, multiplies/adds least.",
)
def table_insn_classes(scale: float = 1.0):
    grouped: Dict[str, List[SiteMetrics]] = {}
    for name in programs():
        run = profiled(name, "train", scale=scale, targets=(ProfileTarget.INSTRUCTIONS,))
        for profile in run.database.profiles(SiteKind.INSTRUCTION):
            insn_class = OPCODES[profile.site.opcode].insn_class.value
            grouped.setdefault(insn_class, []).append(profile.metrics())
    table = Table(
        ("class", "execs", "LVP%", "Inv-Top1%", "Inv-All%", "%Zeros"),
        title="Invariance by instruction class (all programs, train)",
    )
    data = {}
    for insn_class in sorted(grouped):
        summary = aggregate_metrics(grouped[insn_class])
        table.add_row(
            insn_class,
            summary.executions,
            percentage(summary.lvp),
            percentage(summary.inv_top1),
            percentage(summary.inv_top_n),
            percentage(summary.pct_zeros),
        )
        data[insn_class] = summary.as_percentages()
    return make_result("table-insn-classes", table.render(), data)


@experiment(
    "table-top-procedures",
    "Top procedures by dynamic loads",
    "Thesis Table V.4",
    "A handful of procedures carry most dynamic loads, so profiling "
    "effort can focus on them.",
)
def table_top_procedures(scale: float = 1.0):
    table = Table(
        ("program", "procedure", "load share%", "Inv-Top1%", "LVP%"),
        title="Hottest procedures by dynamic load count (train)",
    )
    data: Dict[str, list] = {}
    for name in programs():
        run = profiled(name, "train", scale=scale, targets=(ProfileTarget.LOADS,))
        by_proc = run.database.summary_by_procedure(SiteKind.LOAD)
        total = sum(m.executions for m in by_proc.values()) or 1
        ranked = sorted(by_proc.items(), key=lambda item: -item[1].executions)
        rows = []
        for proc, summary in ranked[:3]:
            share = summary.executions / total
            table.add_row(
                name,
                proc or "(toplevel)",
                percentage(share),
                percentage(summary.inv_top1),
                percentage(summary.lvp),
            )
            rows.append(
                {
                    "procedure": proc,
                    "share": share,
                    "inv_top1": summary.inv_top1,
                    "lvp": summary.lvp,
                }
            )
        data[name] = rows
    return make_result("table-top-procedures", table.render(), data)


def _pearson(xs: List[float], ys: List[float]) -> float:
    n = len(xs)
    if n < 2:
        return 1.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 1.0 if var_x == var_y else 0.0
    return cov / math.sqrt(var_x * var_y)


@experiment(
    "table-train-vs-test",
    "Load-value metrics on train vs test inputs",
    "Thesis Table V.5 (named in the supplied text)",
    "Value profiles transfer across inputs: per-site invariance on the "
    "train input correlates strongly with the test input (Wall [38]).",
)
def table_train_vs_test(scale: float = 1.0):
    table = Table(
        (
            "program",
            "LVP%(tr)",
            "LVP%(te)",
            "Inv1%(tr)",
            "Inv1%(te)",
            "InvAll%(tr)",
            "InvAll%(te)",
            "corr(site)",
        ),
        title="Load metrics: train vs test data set",
    )
    data: Dict[str, dict] = {}
    corrs: List[float] = []
    for name in programs():
        train = profiled(name, "train", scale=scale, targets=(ProfileTarget.LOADS,))
        test = profiled(name, "test", scale=scale, targets=(ProfileTarget.LOADS,))
        sum_train = train.database.summary(SiteKind.LOAD)
        sum_test = test.database.summary(SiteKind.LOAD)
        # Per-site invariance correlation over sites hot in both runs.
        xs, ys = [], []
        test_metrics = dict(test.database.metrics_by_site(SiteKind.LOAD))
        for site, metrics in train.database.metrics_by_site(SiteKind.LOAD):
            other = test_metrics.get(site)
            if other is not None and metrics.executions >= 10 and other.executions >= 10:
                xs.append(metrics.inv_top1)
                ys.append(other.inv_top1)
        corr = _pearson(xs, ys)
        corrs.append(corr)
        table.add_row(
            name,
            percentage(sum_train.lvp),
            percentage(sum_test.lvp),
            percentage(sum_train.inv_top1),
            percentage(sum_test.inv_top1),
            percentage(sum_train.inv_top_n),
            percentage(sum_test.inv_top_n),
            corr,
        )
        data[name] = {
            "train": sum_train.as_percentages(),
            "test": sum_test.as_percentages(),
            "site_correlation": corr,
            "common_sites": len(xs),
        }
    data["mean_correlation"] = sum(corrs) / len(corrs) if corrs else 0.0
    return make_result("table-train-vs-test", table.render(), data)


@experiment(
    "fig-invariance-distribution",
    "Distribution of load invariance (quantile graph)",
    "Thesis §III.D quantile graphs / MICRO'97 Figure 1",
    "The execution-weighted invariance distribution is bimodal: most "
    "dynamic loads come from sites that are either nearly variant or "
    "nearly invariant.",
)
def fig_invariance_distribution(scale: float = 1.0):
    charts: List[str] = []
    data: Dict[str, list] = {}
    combined: List[SiteMetrics] = []
    for name in programs():
        run = profiled(name, "train", scale=scale, targets=(ProfileTarget.LOADS,))
        rows = [m for _, m in run.database.metrics_by_site(SiteKind.LOAD)]
        combined.extend(rows)
        buckets = invariance_buckets(rows)
        charts.append(
            bar_chart(
                {b.label: 100.0 * b.share for b in buckets},
                title=f"{name}: execution share by Inv-Top1 bucket",
                max_value=100.0,
            )
        )
        data[name] = [
            {"bucket": b.label, "share": b.share, "sites": b.sites} for b in buckets
        ]
    all_buckets = invariance_buckets(combined)
    charts.append(
        bar_chart(
            {b.label: 100.0 * b.share for b in all_buckets},
            title="ALL programs: execution share by Inv-Top1 bucket",
            max_value=100.0,
        )
    )
    data["all"] = [
        {"bucket": b.label, "share": b.share, "sites": b.sites} for b in all_buckets
    ]
    return make_result("fig-invariance-distribution", "\n\n".join(charts), data)


@experiment(
    "table-memory-locations",
    "Value profile of memory locations",
    "Thesis memory-location chapters (title of the thesis)",
    "Stored-to memory words are even more invariant than load sites: "
    "many locations are written a single value repeatedly.",
)
def table_memory_locations(scale: float = 1.0):
    table = Table(
        ("program", "locations", "stores", "LVP%", "Inv-Top1%", "Inv-All%", "%Zeros"),
        title="Per-memory-word store-value metrics (train)",
    )
    data: Dict[str, dict] = {}
    rows: List[SiteMetrics] = []
    for name in programs():
        run = profiled(name, "train", scale=scale, targets=(ProfileTarget.MEMORY,))
        summary = run.database.summary(SiteKind.MEMORY)
        locations = len(run.database.sites(SiteKind.MEMORY))
        table.add_row(
            name,
            locations,
            summary.executions,
            percentage(summary.lvp),
            percentage(summary.inv_top1),
            percentage(summary.inv_top_n),
            percentage(summary.pct_zeros),
        )
        rows.append(summary)
        entry = summary.as_percentages()
        entry["locations"] = locations
        data[name] = entry
    table.add_separator()
    average = aggregate_metrics(rows)
    table.add_row(
        "average",
        "",
        average.executions,
        percentage(average.lvp),
        percentage(average.inv_top1),
        percentage(average.inv_top_n),
        percentage(average.pct_zeros),
    )
    data["average"] = average.as_percentages()
    return make_result("table-memory-locations", table.render(), data)


@experiment(
    "table-parameters",
    "Value profile of procedure parameters and return values",
    "Thesis parameter-profiling chapter",
    "Procedure parameters are heavily semi-invariant — the hook for "
    "code specialization (Chapter X) — and return values show the "
    "locality return-value prediction exploits.",
)
def table_parameters(scale: float = 1.0):
    table = Table(
        ("program", "param sites", "calls", "LVP%", "Inv-Top1%", "Inv-All%", "semi-inv%"),
        title="Parameter-value metrics at procedure entry (train)",
    )
    returns_table = Table(
        ("program", "return sites", "returns", "LVP%", "Inv-Top1%", "Inv-All%"),
        title="Return-value metrics at procedure exit (train)",
    )
    data: Dict[str, dict] = {}
    for name in programs():
        run = profiled(
            name,
            "train",
            scale=scale,
            targets=(ProfileTarget.PARAMETERS, ProfileTarget.RETURNS),
        )
        summary = run.database.summary(SiteKind.PARAMETER)
        rows = run.database.metrics_by_site(SiteKind.PARAMETER)
        semi = [m for _, m in rows if m.inv_top1 >= 0.5]
        semi_share = (
            sum(m.executions for m in semi) / summary.executions if summary.executions else 0.0
        )
        table.add_row(
            name,
            len(rows),
            summary.executions,
            percentage(summary.lvp),
            percentage(summary.inv_top1),
            percentage(summary.inv_top_n),
            percentage(semi_share),
        )
        entry = summary.as_percentages()
        entry["sites"] = len(rows)
        entry["semi_invariant_share"] = semi_share
        returns = run.database.summary(SiteKind.RETURN)
        return_rows = run.database.metrics_by_site(SiteKind.RETURN)
        returns_table.add_row(
            name,
            len(return_rows),
            returns.executions,
            percentage(returns.lvp),
            percentage(returns.inv_top1),
            percentage(returns.inv_top_n),
        )
        entry["returns"] = returns.as_percentages()
        entry["return_sites"] = len(return_rows)
        data[name] = entry
    text = table.render() + "\n\n" + returns_table.render()
    return make_result("table-parameters", text, data)


def _train_pc_counts(name: str, scale: float):
    """Per-pc execution counts of ``name``'s train input.

    With replay on they come from the input's capture.  A tier-2
    capture counts no pcs, and with replay off nothing is captured, so
    then a ``count_pcs`` run counts them.
    """
    from repro.analysis import experiments

    if experiments.replay_enabled():
        trace = experiments.load_events(name, "train", scale)
        if trace.pc_counts is not None:
            return trace.pc_counts
        dataset = trace.dataset
    else:
        dataset = get_workload(name).dataset("train", scale=scale)
    machine = Machine(get_workload(name).program(), count_pcs=True)
    machine.set_input(dataset.values)
    machine.run()
    return machine.pc_counts


@experiment(
    "table-basic-blocks",
    "Basic block quantile table",
    "Thesis Table IV.1 (profiling-background chapter)",
    "Execution is heavily skewed toward few basic blocks: the hottest "
    "10% of blocks cover the bulk of dynamic instructions — the classic "
    "argument for focusing any profile (including value profiles) on "
    "hot code.",
)
def table_basic_blocks(scale: float = 1.0):
    quantiles = (0.01, 0.05, 0.10, 0.25, 0.50)
    table = Table(
        ("program", "blocks") + tuple(f"top {int(100 * q)}%" for q in quantiles),
        title="Cumulative share of dynamic instructions covered by the "
        "hottest basic blocks",
    )
    data: Dict[str, dict] = {}
    for name in programs():
        pc_counts = _train_pc_counts(name, scale)
        blocks = get_workload(name).program().basic_blocks()
        # Weight per block: sum the exact per-pc counts inside it
        # (the dynamic instructions the block contributed).
        weights = [sum(pc_counts[block.start : block.end]) for block in blocks]
        weights.sort(reverse=True)
        total = sum(weights) or 1
        row = [name, len(blocks)]
        entry = {"blocks": len(blocks)}
        for q in quantiles:
            top_n = max(1, int(round(q * len(blocks))))
            share = sum(weights[:top_n]) / total
            row.append(percentage(share))
            entry[f"top_{int(100 * q)}pct"] = share
        table.add_row(*row)
        data[name] = entry
    shares = [entry["top_10pct"] for entry in data.values()]
    data["mean_top_10pct"] = sum(shares) / len(shares)
    return make_result("table-basic-blocks", table.render(), data)
