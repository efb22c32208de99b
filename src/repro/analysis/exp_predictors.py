"""Value-prediction experiments (thesis §II.A context).

* ``table-predictors`` — hit rates of the predictor bank over the same
  instruction value traces; reproduces the reference ordering quoted in
  the thesis (LVP < stride ≈ 2-level < hybrids).
* ``table-predictor-filtering`` — Gabbay [18]-style use of a *training*
  value profile to decide which sites a predictor should handle on the
  *test* input: accuracy among predicted executions rises and table
  pressure falls.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.experiments import (
    experiment,
    make_result,
    profiled,
    programs,
    trace_info,
    traced,
)
from repro.analysis.tables import Table, percentage
from repro.core.sites import SiteKind
from repro.isa.instrument import ProfileTarget
from repro.obs import get_logger
from repro.predictors.classify import lvp_filter
from repro.predictors.harness import evaluate_bank, evaluate_filtered
from repro.predictors.last_value import LastValuePredictor

_LOG = get_logger(__name__)

#: Input shrink for the predictor experiments, relative to ``scale``.
#: The committed outputs were rendered with it, so it stays fixed.
_TRACE_SCALE = 0.4


def _instruction_events(name: str, variant: str, scale: float, max_events: int):
    """Global-order instruction events as columns, ``(columns, dropped)``.

    ``columns`` is ``(sites, site_ids, values)``.  Replayed from the
    simulate-once event store when replay is on; collected live with a
    :class:`GlobalTraceCollector` otherwise — the two decode to the
    same event sequence (the differential CI job relies on it).
    """
    from repro.analysis import experiments
    from repro.core import tracestore

    if experiments.replay_enabled():
        trace = experiments.load_events(name, variant, scale)
        return tracestore.replay_global_events(
            trace, (ProfileTarget.INSTRUCTIONS,), max_events=max_events
        )

    from repro.isa.instrument import GlobalTraceCollector
    from repro.isa.machine import Machine
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    dataset = workload.dataset(variant, scale=scale)
    collector = GlobalTraceCollector(
        workload.program(), targets=(ProfileTarget.INSTRUCTIONS,), max_events=max_events
    )
    machine = Machine(workload.program(), observer=collector)
    machine.set_input(dataset.values)
    machine.run()
    return (collector.sites, collector.site_ids, collector.values), collector.dropped


@experiment(
    "table-predictors",
    "Value-predictor hit rates",
    "Thesis §II.A reference numbers (LVP 42%, stride 52%, 2-level 52%, "
    "hybrids 60%/69% on SPEC92)",
    "Hit-rate ordering: hybrid(stride+2level) > hybrid(lvp+stride) >= "
    "stride >= lvp, with 2-level competitive with stride.",
)
def table_predictors(scale: float = 1.0):
    trace_scale = scale * _TRACE_SCALE
    per_predictor: Dict[str, List[float]] = {}
    table = Table(
        ("program", "lvp%", "stride%", "2level%", "fcm%", "hyb(l+s)%", "hyb(s+2l)%"),
        title="Predictor accuracy over instruction value traces (train)",
    )
    data: Dict[str, dict] = {}
    provenance: Dict[str, dict] = {}
    for name in programs():
        _LOG.debug("table-predictors: evaluating predictor bank on %s", name)
        traces = traced(name, "train", scale=trace_scale, targets=(ProfileTarget.INSTRUCTIONS,))
        # Trace provenance: how the values were collected and whether
        # any were dropped by a per-site cap (a capped collection must
        # never silently pass for a complete one).
        provenance[name] = trace_info(
            name, "train", scale=trace_scale, targets=(ProfileTarget.INSTRUCTIONS,)
        )
        results = evaluate_bank(traces)
        by_name = {r.predictor: r.accuracy for r in results}
        table.add_row(
            name,
            percentage(by_name["lvp"]),
            percentage(by_name["stride"]),
            percentage(by_name["2level"]),
            percentage(by_name["fcm"]),
            percentage(by_name["hybrid(lvp+stride)"]),
            percentage(by_name["hybrid(stride+2level)"]),
        )
        data[name] = by_name
        for predictor, accuracy in by_name.items():
            per_predictor.setdefault(predictor, []).append(accuracy)
    table.add_separator()
    averages = {
        predictor: sum(values) / len(values) for predictor, values in per_predictor.items()
    }
    table.add_row(
        "average",
        percentage(averages["lvp"]),
        percentage(averages["stride"]),
        percentage(averages["2level"]),
        percentage(averages["fcm"]),
        percentage(averages["hybrid(lvp+stride)"]),
        percentage(averages["hybrid(stride+2level)"]),
    )
    data["average"] = averages
    data["trace_provenance"] = provenance
    return make_result("table-predictors", table.render(), data)


@experiment(
    "table-predictor-filtering",
    "Profile-guided prediction filtering",
    "Gabbay & Mendelson [18] / thesis §II.A application",
    "Filtering prediction to sites a train-input profile marks "
    "predictable raises accuracy among predicted executions and cuts "
    "prediction-table pressure, at a coverage cost.",
)
def table_predictor_filtering(scale: float = 1.0):
    trace_scale = scale * _TRACE_SCALE
    table = Table(
        (
            "program",
            "unfiltered acc%",
            "filtered acc%",
            "coverage%",
            "table pressure%",
        ),
        title="LVP with and without train-profile filtering (test input)",
    )
    data: Dict[str, dict] = {}
    accs = {"unfiltered": [], "filtered": [], "coverage": [], "pressure": []}
    for name in programs():
        # Profile on TRAIN, predict on TEST: the cross-input transfer claim.
        train_run = profiled(
            name, "train", scale=trace_scale, targets=(ProfileTarget.INSTRUCTIONS,)
        )
        metrics = dict(train_run.database.metrics_by_site(SiteKind.INSTRUCTION))
        test_traces = traced(
            name, "test", scale=trace_scale, targets=(ProfileTarget.INSTRUCTIONS,)
        )
        unfiltered = evaluate_filtered(
            test_traces,
            metrics,
            site_filter=lambda site, m: True,
            factory=LastValuePredictor,
            filter_name="none",
        )
        filtered = evaluate_filtered(
            test_traces,
            metrics,
            site_filter=lvp_filter(0.60),
            factory=LastValuePredictor,
            filter_name="LVP>=0.60 on train",
        )
        table.add_row(
            name,
            percentage(unfiltered.accuracy_on_predicted),
            percentage(filtered.accuracy_on_predicted),
            percentage(filtered.coverage),
            percentage(filtered.table_pressure),
        )
        data[name] = {
            "unfiltered_accuracy": unfiltered.accuracy_on_predicted,
            "filtered_accuracy": filtered.accuracy_on_predicted,
            "coverage": filtered.coverage,
            "table_pressure": filtered.table_pressure,
        }
        accs["unfiltered"].append(unfiltered.accuracy_on_predicted)
        accs["filtered"].append(filtered.accuracy_on_predicted)
        accs["coverage"].append(filtered.coverage)
        accs["pressure"].append(filtered.table_pressure)
    table.add_separator()
    table.add_row(
        "average",
        percentage(sum(accs["unfiltered"]) / len(accs["unfiltered"])),
        percentage(sum(accs["filtered"]) / len(accs["filtered"])),
        percentage(sum(accs["coverage"]) / len(accs["coverage"])),
        percentage(sum(accs["pressure"]) / len(accs["pressure"])),
    )
    data["average"] = {key: sum(values) / len(values) for key, values in accs.items()}
    return make_result("table-predictor-filtering", table.render(), data)


@experiment(
    "table-vht-aliasing",
    "Finite prediction table: aliasing vs profile filtering",
    "Gabbay & Mendelson [18] table-utilization claim",
    "In a finite, tagged value-history table, unpredictable sites evict "
    "predictable ones; excluding them via a train-input value profile "
    "raises the overall hit rate most at small table sizes, and the "
    "advantage shrinks as the table grows.",
)
def table_vht_aliasing(scale: float = 1.0):
    from repro.predictors.vht import ValueHistoryTable

    trace_scale = scale * _TRACE_SCALE
    sizes = (64, 256, 1024)
    table = Table(
        ("program", "entries", "unfiltered hit%", "filtered hit%", "conflicts/1k (unf)", "conflicts/1k (filt)"),
        title="Direct-mapped LVP table on the test input (filter: train LVP >= 0.60)",
        precision=2,
    )
    data: Dict[str, dict] = {}
    gains_small: List[float] = []
    gains_large: List[float] = []
    for name in programs():
        train = profiled(name, "train", scale=trace_scale, targets=(ProfileTarget.INSTRUCTIONS,))
        metrics = dict(train.database.metrics_by_site(SiteKind.INSTRUCTION))
        predictable = {site for site, m in metrics.items() if m.lvp >= 0.60}

        columns, _ = _instruction_events(name, "test", trace_scale, max_events=300_000)

        entry: Dict[str, dict] = {}
        for size in sizes:
            unfiltered = ValueHistoryTable(entries=size).replay(*columns)
            filtered = ValueHistoryTable(
                entries=size, site_filter=lambda s: s in predictable
            ).replay(*columns)
            table.add_row(
                name,
                size,
                percentage(unfiltered.hit_rate_overall),
                percentage(filtered.hit_rate_overall),
                1000 * unfiltered.conflict_rate,
                1000 * filtered.conflict_rate,
            )
            entry[str(size)] = {
                "unfiltered_hit": unfiltered.hit_rate_overall,
                "filtered_hit": filtered.hit_rate_overall,
                "unfiltered_conflicts": unfiltered.conflict_rate,
                "filtered_conflicts": filtered.conflict_rate,
            }
            gain = filtered.hit_rate_overall - unfiltered.hit_rate_overall
            if size == sizes[0]:
                gains_small.append(gain)
            if size == sizes[-1]:
                gains_large.append(gain)
        data[name] = entry
    data["mean_gain_small_table"] = sum(gains_small) / len(gains_small)
    data["mean_gain_large_table"] = sum(gains_large) / len(gains_large)
    return make_result("table-vht-aliasing", table.render(), data)
