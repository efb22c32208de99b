"""The per-layer metrics a ``--trace 1`` run prints.

Names carry their phase: ``cold.``/``warm.`` for ``offline``,
``threaded.``/``tier2.`` for ``profile``, ``serve.`` for ``serve``.  A
run prints every name; a phase the workload does not run reads 0.
Besides the ledger rows, the list holds the workloads' own end-to-end
figures (``cold_s`` ... ``capacity_eps``), measured in the untraced
reference pass that the traced run compares itself with.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import median

#: (name, unit, better) of each ledger row or counter of an offline phase.
OFFLINE_ROWS: List[Tuple[str, str, str]] = [
    ("workloads.dataset_s", "s", "lower"),
    ("workloads.datasets", "count", "lower"),
    ("isa.assemble_s", "s", "lower"),
    ("isa.run_s", "s", "lower"),
    ("isa.runs", "count", "lower"),
    ("isa.instructions", "count", "lower"),
    ("core.record_s", "s", "lower"),
    ("core.record_events", "count", "lower"),
    ("core.capture_s", "s", "lower"),
    ("core.captures", "count", "lower"),
    ("core.replay_s", "s", "lower"),
    ("core.replay_events", "count", "lower"),
    ("core.cache_store_s", "s", "lower"),
    ("core.cache_load_s", "s", "lower"),
    ("core.cache_hits", "count", "higher"),
    ("core.cache_bytes", "B", "lower"),
    ("core.fold_s", "s", "lower"),
    ("core.fold_events", "count", "lower"),
    ("core.metrics_s", "s", "lower"),
    ("core.sampling_s", "s", "lower"),
    ("tnv.clears", "count", "lower"),
    ("tnv.promotions", "count", "lower"),
    ("tnv.bottom_evictions", "count", "lower"),
    ("predictors_s", "s", "lower"),
    ("specialize_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("gc_s", "s", "lower"),
    ("gc.gen2_collections", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("overhead_s", "s", "lower"),
]

PROFILE_ROWS: List[Tuple[str, str, str]] = [
    ("workloads.dataset_s", "s", "lower"),
    ("workloads.datasets", "count", "lower"),
    ("isa.assemble_s", "s", "lower"),
    ("isa.run_s", "s", "lower"),
    ("isa.runs", "count", "lower"),
    ("isa.instructions", "count", "lower"),
    ("isa.warmup_s", "s", "lower"),
    ("core.record_s", "s", "lower"),
    ("core.record_events", "count", "lower"),
    ("gc_s", "s", "lower"),
    ("gc.gen2_collections", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("overhead_s", "s", "lower"),
]

TIER2_ROWS: List[Tuple[str, str, str]] = [
    ("isa.quickened", "count", "higher"),
    ("isa.deopts", "count", "lower"),
    ("isa.guard_hits", "count", "higher"),
]

SERVE_ROWS: List[Tuple[str, str, str]] = [
    ("serve.encode_s", "s", "lower"),
    ("serve.bytes_sent", "B", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.flow_pauses", "count", "lower"),
    ("serve.gen_late_p99_ms", "ms", "lower"),
    ("serve.inflight_max", "count", "lower"),
    ("serve.wire_p50_ms", "ms", "lower"),
    ("serve.server_cpu_s", "s", "lower"),
    ("serve.server_e2e_p50_ms", "ms", "lower"),
    ("serve.journal_s", "s", "lower"),
    ("serve.fold_s", "s", "lower"),
    ("serve.query_s", "s", "lower"),
    ("serve.server_other_s", "s", "lower"),
    ("serve.wal_records", "count", "lower"),
    ("serve.checkpoints", "count", "lower"),
    ("serve.http_p50_ms", "ms", "lower"),
    ("serve.queries", "count", "lower"),
    ("serve.overhead_s", "s", "lower"),
]

NAMED_ROWS: List[Tuple[str, str, str]] = [
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("threaded_mips", "MIPS", "higher"),
    ("tier2_mips", "MIPS", "higher"),
    ("ack_p50_ms", "ms", "lower"),
    ("ack_p99_ms", "ms", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("capacity_eps", "events/s", "higher"),
]

HOST_ROWS: List[Tuple[str, str, str]] = [
    ("host.calibration_s", "s", "lower"),
    ("host.reference_s", "s", "lower"),
]

PHASES = {"offline": ("cold", "warm"), "profile": ("threaded", "tier2")}

#: phase metrics in seconds that are not rows of the phase's ledger.
NOT_ROWS = ("wall_s", "overhead_s", "isa.warmup_s")


def catalogue() -> List[Tuple[str, str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    rows = []
    for phase in PHASES["offline"]:
        rows += [(f"{phase}.{n}", u, b) for n, u, b in OFFLINE_ROWS]
    for phase in PHASES["profile"]:
        rows += [(f"{phase}.{n}", u, b) for n, u, b in PROFILE_ROWS]
    rows += [(f"tier2.{n}", u, b) for n, u, b in TIER2_ROWS]
    return rows + SERVE_ROWS + NAMED_ROWS + HOST_ROWS


def _phase_values(phase: str, untraced: dict, traced: dict) -> Dict[str, float]:
    reference = untraced["phases"][phase]
    measured = traced["phases"][phase]
    values = dict(measured["ledger"])
    values.update(measured.get("counters", {}))
    # The ledger covers a profile phase's input building as well as its
    # runs; the reference wall is taken over the same regions.
    ref_wall = reference["wall_s"] + reference.get("build_s", 0.0)
    wall = measured["wall_s"] + measured.get("build_s", 0.0)
    values["wall_s"] = wall
    values["overhead_s"] = wall - ref_wall
    if "warmup_s" in measured:
        values["isa.warmup_s"] = measured["warmup_s"]
    for key, count in measured.get("tier2", {}).items():
        values[f"isa.{key}"] = count
    return values


def per_layer(workload: str, untraced: dict, traced: dict, calibration_s: float) -> Dict[str, dict]:
    """Every catalogued metric as ``{name: {"value", "unit"}}``."""
    values: Dict[str, float] = {}
    for phase in PHASES.get(workload, ()):
        for key, value in _phase_values(phase, untraced, traced).items():
            values[f"{phase}.{key}"] = value
    if workload == "serve":
        values.update(traced["layers"])
        values["serve.overhead_s"] = traced["gen_cpu_s"] - untraced["gen_cpu_s"]
    values.update(untraced["named"])
    values["host.calibration_s"] = calibration_s
    if "ref_s" in untraced:
        values["host.reference_s"] = median(untraced["ref_s"])
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _ in catalogue()
    }


def ledger_lines(workload: str, metrics: Dict[str, dict]) -> List[str]:
    """Human-readable ledger: each phase's time rows by share of wall."""
    lines = []
    for phase in PHASES.get(workload, ()):
        wall = metrics[f"{phase}.wall_s"]["value"]
        rows = [
            (name, metrics[f"{phase}.{name}"]["value"])
            for name, unit, _ in (OFFLINE_ROWS if workload == "offline" else PROFILE_ROWS)
            if unit == "s" and name not in NOT_ROWS
        ]
        rows.sort(key=lambda row: -row[1])
        shares = "  ".join(f"{name} {value:.3f} ({value / wall:.0%})" for name, value in rows)
        overhead = metrics[f"{phase}.overhead_s"]["value"]
        lines.append(
            f"{phase} ledger: wall {wall:.3f} s, tracing overhead {overhead:+.3f} s | {shares}"
        )
    if workload == "serve":
        cpu = metrics["serve.server_cpu_s"]["value"]
        rows = ("serve.journal_s", "serve.fold_s", "serve.query_s", "serve.server_other_s")
        shares = "  ".join(
            f"{name} {metrics[name]['value']:.3f} ({metrics[name]['value'] / cpu:.0%})"
            for name in rows
        )
        lines.append(
            f"serve ledger: server cpu {cpu:.3f} s, generator tracing overhead "
            f"{metrics['serve.overhead_s']['value']:+.3f} s | {shares}"
        )
    return lines
