"""Tier-2 specialization report: the jitlog journal joined with profiles.

``repro tier2-report <workload>`` runs one workload on the tier-2
engine with the value profiler attached and the jitlog journal
recording, then renders what the engine *did* — per-block lifecycle
timelines, a deopt-reason taxonomy, the guard-failing registers and the
variant values that killed them — and, the part that closes the loop on
the paper's hypothesis, a **predicted-vs-observed** table: for every
operand the engine ever guarded, the profiled invariance of the
instructions that define that register (Inv-Top1, execution-weighted
across defining sites) next to the observed guard survival rate.  A
register the profile called stable but whose guards thrashed is flagged
``thrash`` — the measurable gap between the paper's prediction and the
engine's reality, per operand.

Everything here is a pure function of one deterministic run, so report
output is byte-stable for a given workload/variant/scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import Table
from repro.core.profile import ProfileDatabase
from repro.core.sites import SiteKind
from repro.obs.jitlog import JITLOG

#: profiled Inv-Top1 at or above this predicts a stable (guardable)
#: operand — the same threshold ``tier2_preheat`` uses to pick blocks.
PREDICT_STABLE = 0.5

#: observed guard survival at or above this counts as "guards held".
SURVIVAL_OK = 0.9

#: verdicts for one guarded operand, in severity order for the report.
VERDICTS = ("thrash", "expected-variant", "unpredicted-stable", "ok", "unprofiled")


@dataclass
class JitReport:
    """One tier-2 run's journal, profiles and block state, joined."""

    workload: str
    dataset: str
    events: List[dict]
    summaries: List[dict]
    stats: Dict[str, int]
    database: ProfileDatabase
    result: object = None

    @property
    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        return dict(sorted(counts.items()))


def collect(
    name: str,
    variant: str = "train",
    scale: float = 1.0,
    verify: bool = True,
) -> JitReport:
    """Run one workload on the tier-2 engine, journal recording.

    A single execution yields everything the report needs: the jitlog
    event stream (what the engine decided and why), the per-block end
    states, and the TNV value profiles (engine-independent, pinned by
    the differential suite) that the predicted-vs-observed join reads.

    If the journal is already enabled (``--jitlog``), its ring is
    shared — events from this run are taken from a sequence watermark
    so the caller's export still sees them.  Otherwise the journal is
    enabled just for the run and disabled after (the ring stays
    readable, nothing leaks into later runs).
    """
    from repro.isa.instrument import ValueProfiler
    from repro.isa.machine import Machine
    from repro.workloads import DEFAULT_TARGETS, get_workload
    from repro.workloads.harness import _verify

    workload = get_workload(name)
    dataset = workload.dataset(variant, scale=scale)
    program = workload.program()

    borrowed = JITLOG.enabled
    if borrowed:
        watermark = JITLOG.total_events
    else:
        JITLOG.enable()
        watermark = 0

    database = ProfileDatabase(name=dataset.name)
    observer = ValueProfiler(program, database, targets=DEFAULT_TARGETS, buffered=True)
    machine = Machine(program, observer=observer, engine="tier2")
    machine.set_input(dataset.values)
    try:
        result = machine.run()
        events = [e for e in JITLOG.events() if e["seq"] >= watermark]
        summaries = machine.tier2_block_summaries() or []
        stats = machine.tier2_stats() or {}
    finally:
        if not borrowed:
            JITLOG.disable()
    if verify:
        _verify(workload, dataset, result)
    return JitReport(
        workload=name,
        dataset=dataset.name,
        events=events,
        summaries=summaries,
        stats=stats,
        database=database,
        result=result,
    )


# ----------------------------------------------------------------------
# journal analysis (pure functions of the event list)
# ----------------------------------------------------------------------

#: events that mark a lifecycle *transition* (timeline entries);
#: guard_fail/cache events are attributes of transitions, not states.
_TIMELINE_TYPES = ("preheat", "hot", "quicken", "reject", "deopt",
                   "requicken", "despecialize")


def lifecycle_timelines(events: List[dict]) -> Dict[int, List[dict]]:
    """Per-block transition history, keyed by leader pc, journal order."""
    timelines: Dict[int, List[dict]] = {}
    for event in events:
        if event["type"] in _TIMELINE_TYPES:
            timelines.setdefault(event["block"], []).append(event)
    return timelines


def _timeline_label(event: dict) -> str:
    type_ = event["type"]
    if type_ == "quicken":
        return event.get("mode", "fused")
    if type_ == "reject":
        return f"reject:{event.get('reason', '?')}"
    return type_


def deopt_taxonomy(events: List[dict]) -> Dict[str, int]:
    """Why specialization retreated, bucketed.

    ``reject:<reason>`` buckets count declined quickens by which limit
    said no; ``deopt:absorbed`` deopts the failure budget absorbed,
    ``deopt:requickened`` / ``deopt:despecialized`` deopts that pushed
    the block over the limit (classified by the lifecycle event the
    engine emitted at the same clock).
    """
    taxonomy: Dict[str, int] = {}
    deopt_runs: Dict[int, int] = {}
    for event in events:
        type_ = event["type"]
        block = event["block"]
        if type_ == "reject":
            key = f"reject:{event.get('reason', '?')}"
            taxonomy[key] = taxonomy.get(key, 0) + 1
        elif type_ == "deopt":
            deopt_runs[block] = deopt_runs.get(block, 0) + 1
        elif type_ in ("requicken", "despecialize"):
            run = deopt_runs.pop(block, 0)
            if run:
                key = f"deopt:{'requickened' if type_ == 'requicken' else 'despecialized'}"
                taxonomy[key] = taxonomy.get(key, 0) + run
    absorbed = sum(deopt_runs.values())
    if absorbed:
        taxonomy["deopt:absorbed"] = taxonomy.get("deopt:absorbed", 0) + absorbed
    return dict(sorted(taxonomy.items()))


def guard_failures(events: List[dict]) -> List[dict]:
    """Top guard-failing registers with the variant values observed.

    One row per register, sorted by failure count (then register) —
    the "which operand killed my specialization" view.
    """
    by_reg: Dict[int, dict] = {}
    for event in events:
        if event["type"] != "guard_fail":
            continue
        reg = event["reg"]
        row = by_reg.setdefault(reg, {
            "reg": reg, "fails": 0, "blocks": set(), "expected": set(),
            "observed": set(),
        })
        row["fails"] += 1
        row["blocks"].add(event["block"])
        row["expected"].add(event["expected"])
        row["observed"].add(event["observed"])
    out = []
    for reg in sorted(by_reg):
        row = by_reg[reg]
        out.append({
            "reg": reg,
            "fails": row["fails"],
            "blocks": sorted(row["blocks"]),
            "expected": sorted(row["expected"]),
            "observed": sorted(row["observed"]),
        })
    out.sort(key=lambda r: (-r["fails"], r["reg"]))
    return out


# ----------------------------------------------------------------------
# predicted vs observed (the journal joined against the TNV profiles)
# ----------------------------------------------------------------------

def _defining_pcs(program, reg: int) -> List[int]:
    """pcs of every instruction that writes ``reg``."""
    return [
        inst.pc
        for inst in program.instructions
        if inst.info.writes == "rd" and inst.rd == reg
    ]


def _profiled_invariance(
    database: ProfileDatabase, program_name: str, pcs: List[int]
) -> Tuple[Optional[float], int]:
    """Execution-weighted Inv-Top1 over the INSTRUCTION profiles at
    ``pcs``; ``(None, 0)`` when nothing was profiled there."""
    labels = {str(pc) for pc in pcs}
    weighted = 0.0
    total = 0
    for profile in database.profiles(kind=SiteKind.INSTRUCTION):
        site = profile.site
        if site.program != program_name or site.label not in labels:
            continue
        executions = profile.tnv.total
        if not executions:
            continue
        weighted += profile.tnv.estimated_invariance(1) * executions
        total += executions
    if not total:
        return None, 0
    return weighted / total, total


def predicted_vs_observed(report: JitReport, program=None) -> List[dict]:
    """One row per guarded operand: profiled Inv-Top1 vs guard survival.

    A guarded operand is a ``(block, register)`` pair that ever
    appeared in a quicken/requicken binding set.  Observed survival is
    ``1 - fails / entries`` where entries counts guard evaluations
    (passes through the compiled prologue plus deopted entries) and
    fails counts ``guard_fail`` events for that register.  The verdict
    crosses predicted (Inv-Top1 >= ``PREDICT_STABLE``) with observed
    (survival >= ``SURVIVAL_OK``): ``ok``, ``thrash`` (predicted
    stable, guards failed), ``expected-variant``,
    ``unpredicted-stable``, or ``unprofiled``.
    """
    if program is None:
        from repro.workloads import get_workload

        program = get_workload(report.workload).program()

    guarded: Dict[Tuple[int, int], int] = {}
    fails: Dict[Tuple[int, int], int] = {}
    deopts: Dict[int, int] = {}
    for event in report.events:
        block = event["block"]
        type_ = event["type"]
        if type_ in ("quicken", "requicken"):
            for reg, value in event.get("bindings", []):
                guarded[(block, reg)] = value
        elif type_ == "guard_fail":
            key = (block, event["reg"])
            fails[key] = fails.get(key, 0) + 1
            guarded.setdefault(key, event["expected"])
        elif type_ == "deopt":
            deopts[block] = deopts.get(block, 0) + 1

    passes = {s["start"]: s["guard_entries"] for s in report.summaries}
    rows = []
    for (block, reg) in sorted(guarded):
        entries = passes.get(block, 0) + deopts.get(block, 0)
        failed = fails.get((block, reg), 0)
        survival = 1.0 - failed / entries if entries else 1.0
        inv, profiled_execs = _profiled_invariance(
            report.database, program.name, _defining_pcs(program, reg)
        )
        if inv is None:
            verdict = "unprofiled"
        else:
            predicted = inv >= PREDICT_STABLE
            held = survival >= SURVIVAL_OK
            if predicted and held:
                verdict = "ok"
            elif predicted:
                verdict = "thrash"
            elif held:
                verdict = "unpredicted-stable"
            else:
                verdict = "expected-variant"
        rows.append({
            "block": block,
            "reg": reg,
            "bound": guarded[(block, reg)],
            "entries": entries,
            "fails": failed,
            "survival": survival,
            "inv_top1": inv,
            "profiled_execs": profiled_execs,
            "verdict": verdict,
        })
    rows.sort(key=lambda r: (VERDICTS.index(r["verdict"]), -r["fails"],
                             r["block"], r["reg"]))
    return rows


def thrashing_blocks(rows: List[dict]) -> List[dict]:
    """The predicted-vs-observed rows where the paper's prediction
    failed in practice — profile said stable, guards thrashed."""
    return [row for row in rows if row["verdict"] == "thrash"]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _render_timeline(transitions: List[dict]) -> str:
    labels = [_timeline_label(e) for e in transitions]
    # Collapse repeat runs ("deopt deopt deopt" -> "deopt x3") so hot
    # blocks don't overflow the column.
    out: List[str] = []
    for label in labels:
        if out and out[-1].split(" x")[0] == label:
            head = out[-1].split(" x")
            count = int(head[1]) if len(head) > 1 else 1
            out[-1] = f"{label} x{count + 1}"
        else:
            out.append(label)
    return " > ".join(["counting"] + out)


def render_report(report: JitReport, top: int = 10) -> str:
    """The full plain-text flight-deck report."""
    sections: List[str] = []
    counts = report.event_counts

    header = Table(("events", "count"),
                   title=f"{report.dataset}: tier-2 specialization journal")
    for type_, count in counts.items():
        header.add_row(type_, count)
    if not counts:
        header.add_row("(no events)", 0)
    sections.append(header.render())

    timelines = lifecycle_timelines(report.events)
    modes = {s["start"]: s for s in report.summaries}
    lifecycle = Table(("block", "mode", "fused", "entries", "guard entries",
                       "fails", "lifecycle"),
                      title="Per-block lifecycle")
    shown = sorted(timelines, key=lambda b: -(modes.get(b, {}).get("guard_entries", 0)
                                              + modes.get(b, {}).get("entries", 0)))
    for block in shown[:top]:
        summary = modes.get(block, {})
        lifecycle.add_row(
            block,
            str(summary.get("mode", "?")),
            summary.get("fused", 0),
            summary.get("entries", 0),
            summary.get("guard_entries", 0),
            summary.get("fails", 0),
            _render_timeline(timelines[block]),
        )
    if len(shown) > top:
        lifecycle.add_separator()
        lifecycle.add_row(f"(+{len(shown) - top} more)", "", "", "", "", "", "")
    sections.append(lifecycle.render())

    taxonomy = deopt_taxonomy(report.events)
    tax_table = Table(("reason", "count"), title="Deopt / reject taxonomy")
    for reason, count in taxonomy.items():
        tax_table.add_row(reason, count)
    if not taxonomy:
        tax_table.add_row("(none)", 0)
    sections.append(tax_table.render())

    failing = guard_failures(report.events)
    fail_table = Table(("reg", "fails", "blocks", "expected", "observed"),
                       title="Top guard-failing registers")
    for row in failing[:top]:
        fail_table.add_row(
            f"r{row['reg']}",
            row["fails"],
            ",".join(str(b) for b in row["blocks"]),
            ",".join(str(v) for v in row["expected"][:4]),
            ",".join(str(v) for v in row["observed"][:4])
            + ("…" if len(row["observed"]) > 4 else ""),
        )
    if not failing:
        fail_table.add_row("(none)", 0, "", "", "")
    sections.append(fail_table.render())

    rows = predicted_vs_observed(report)
    pvo = Table(("block", "operand", "bound", "entries", "fails",
                 "survival%", "Inv-Top1%", "verdict"),
                title="Predicted vs observed invariance (per guarded operand)")
    for row in rows[:max(top, 16)]:
        pvo.add_row(
            row["block"],
            f"r{row['reg']}",
            row["bound"],
            row["entries"],
            row["fails"],
            100.0 * row["survival"],
            "-" if row["inv_top1"] is None else f"{100.0 * row['inv_top1']:.1f}",
            row["verdict"],
        )
    if not rows:
        pvo.add_row("(no guarded operands)", "", "", "", "", "", "", "")
    sections.append(pvo.render())

    thrash = thrashing_blocks(rows)
    if thrash:
        note = (f"{len(thrash)} guarded operand(s) thrashing: the profile "
                f"predicted stability (Inv-Top1 >= {PREDICT_STABLE:.0%}) but "
                f"guards survived < {SURVIVAL_OK:.0%} of entries — "
                "candidates for wider TNV windows or guard exclusion.")
    else:
        note = ("No thrashing operands: every guard the profile predicted "
                "stable held up at run time.")
    sections.append(note)
    return "\n\n".join(sections)


def report_payload(report: JitReport) -> dict:
    """The machine-readable version of :func:`render_report`."""
    rows = predicted_vs_observed(report)
    return {
        "workload": report.workload,
        "dataset": report.dataset,
        "event_counts": report.event_counts,
        "stats": dict(report.stats),
        "taxonomy": deopt_taxonomy(report.events),
        "guard_failures": guard_failures(report.events),
        "predicted_vs_observed": rows,
        "thrashing": thrashing_blocks(rows),
        "blocks": report.summaries,
    }
