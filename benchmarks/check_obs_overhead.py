"""Guard: observability disabled must cost (almost) nothing.

The observability layer's contract (docs/observability.md) is that with
metrics/tracing disabled — the default — the per-event recording hot
path is exactly as fast as an uninstrumented build, because all
instrumentation sits at batch/clear/run boundaries.  This script
enforces that contract two ways:

1. **In-process control (always run, machine-independent).**  Time
   ``TNVTable.record`` over the bench_tnv_record workload against an
   inline control class that replicates the pre-observability record
   semantics line for line, with no ``repro.obs`` import anywhere.
   The instrumented table must stay within ``TOLERANCE`` (5%) of the
   control.

2. **Committed baseline (opt-in via ``REPRO_BENCH_STRICT=1``).**
   Compare the measured mean against the committed
   ``benchmarks/results/BENCH_tnv_record.json``.  Only meaningful on
   the machine that produced the baseline, hence opt-in for local use;
   CI runners have different hardware and rely on check 1.

3. **Time-series enabled (always run).**  The time-series collector
   advances only at batch boundaries, so even *enabled* at its default
   interval it must keep ``ProfileDatabase.record_batch`` within
   ``TOLERANCE`` of the collector-off path.

4. **Serve-plane telemetry (opt-in via ``--serve``).**  The shard fold
   path records per-batch timings into always-on histograms
   (``ShardCore(telemetry=True)``, the production default).  That
   instrumentation sits at batch boundaries too, so the telemetry-on
   fold loop must stay within ``TOLERANCE`` of ``telemetry=False``.
   Each shard defines its 8 sites once and then takes id-only
   sub-batches.  Journaling is off, so the comparison times the apply
   and the fold, not the disk.

5. **Tier-2 jitlog enabled (always run).**  The specialization journal
   records only at lifecycle points (hot/quicken/deopt/compile), never
   in the superinstruction dispatch loop, so even *enabled* it must
   keep a quickening-heavy tier-2 run within ``TOLERANCE`` of the
   journal-off run.  Each round runs a fresh machine, so each run
   replays the whole lifecycle.

Every in-process check is one paired comparison (:func:`_gate`): both
sides run back to back in each of ``ROUNDS`` rounds, the side that runs
first alternates from round to round, and the gate is the median of the
per-round ratios.  Pairing cancels drift in host speed, alternating
cancels the cost of running first, and the median ignores the rounds a
preemption hit.  Each side is timed as the CPU time of the measuring
thread (``time.thread_time``), so time spent preempted by other
processes on a shared host is not charged to either side.

Exit status 0 on pass, 1 on regression.  Run as:

    PYTHONPATH=src python benchmarks/check_obs_overhead.py [--serve]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import statistics
import sys
import tempfile
import time
from typing import Callable, Tuple

from repro.core.tnv import TNVTable
from repro.obs import METRICS, TRACER

TOLERANCE = 0.05
ROUNDS = 15

_RNG = random.Random(20_250_705)  # same workload as bench_core_microbench
_VALUES = [_RNG.randrange(64) for _ in range(10_000)]

RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_tnv_record.json"


class _ControlTNV:
    """The pre-observability ``TNVTable`` record path, verbatim.

    No ``repro.obs`` import, no enabled checks anywhere — this is what
    "uninstrumented" means, re-measured on the current machine so the
    guard is hardware-independent.
    """

    __slots__ = ("capacity", "steady", "clear_interval", "_entries", "_since_clear", "_total", "_clears")

    def __init__(self, capacity=10, steady=5, clear_interval=2000):
        self.capacity = capacity
        self.steady = steady
        self.clear_interval = clear_interval
        self._entries = {}
        self._since_clear = 0
        self._total = 0
        self._clears = 0

    def record(self, value):
        self._total += 1
        entries = self._entries
        if value in entries:
            entries[value] += 1
        elif len(entries) < self.capacity:
            entries[value] = 1
        if self.clear_interval is not None:
            self._since_clear += 1
            if self._since_clear >= self.clear_interval:
                self.clear_bottom()

    def clear_bottom(self):
        self._since_clear = 0
        self._clears += 1
        if len(self._entries) <= self.steady:
            return
        survivors = sorted(self._entries.items(), key=lambda item: (-item[1], repr(item[0])))
        self._entries = dict(survivors[: self.steady])


def _time_once(table_factory) -> float:
    table = table_factory()
    record = table.record
    values = _VALUES
    start = time.thread_time()
    for value in values:
        record(value)
    return time.thread_time() - start


def _gate(
    label: str, measured: Callable[[], float], reference: Callable[[], float]
) -> Tuple[bool, float]:
    """Time ``measured`` against ``reference`` in ``ROUNDS`` paired rounds.

    Each callable runs its workload once and returns the seconds it
    took.  Both are warmed first; then each round runs both sides back
    to back, the measured side first in even rounds and second in odd
    ones.  The gate is the median of the per-round ratios
    ``measured / reference``: it must not exceed ``1 + TOLERANCE``.
    Returns ``(passed, best measured time)``.
    """
    measured()
    reference()
    ratios = []
    best_measured = best_reference = float("inf")
    for index in range(ROUNDS):
        if index % 2:
            reference_s = reference()
            measured_s = measured()
        else:
            measured_s = measured()
            reference_s = reference()
        ratios.append(measured_s / reference_s)
        best_measured = min(best_measured, measured_s)
        best_reference = min(best_reference, reference_s)
    ratio = statistics.median(ratios)
    print(
        f"{label}: {best_measured * 1e3:.2f}ms vs {best_reference * 1e3:.2f}ms "
        f"best of {ROUNDS} (median paired ratio {ratio:.3f}, tolerance "
        f"{1 + TOLERANCE:.2f})"
    )
    if ratio > 1 + TOLERANCE:
        print(f"FAIL: {label} costs {ratio:.3f}x (> {1 + TOLERANCE:.2f}x)")
        return False, best_measured
    return True, best_measured


def _time_batches() -> float:
    """One round of batched profiling (the boundary the collector taps)."""
    from repro.core.profile import ProfileDatabase
    from repro.core.sites import instruction_site

    sites = [instruction_site("bench", "main", pc, "add") for pc in range(8)]
    batch = _VALUES[:1000]
    database = ProfileDatabase(exact=False)
    record_batch = database.record_batch
    start = time.thread_time()
    for index in range(50):
        record_batch(sites[index % len(sites)], batch)
    return time.thread_time() - start


def _time_batches_sampled() -> float:
    """:func:`_time_batches` with the collector sampling at its default
    interval."""
    from repro.obs.timeseries import DEFAULT_INTERVAL, TIMESERIES

    TIMESERIES.enable(interval=DEFAULT_INTERVAL)
    try:
        return _time_batches()
    finally:
        TIMESERIES.disable()
        TIMESERIES.reset()


def check_timeseries_enabled() -> bool:
    """Enabled-mode budget: record_batch with the collector sampling at
    its default interval must stay within TOLERANCE of collector-off."""
    return _gate(
        "record_batch timeseries-enabled vs disabled",
        _time_batches_sampled,
        _time_batches,
    )[0]


def _time_shard_submit(telemetry: bool, batches: int = 100) -> float:
    """One fresh shard folding ``batches`` sub-batches, journal off.

    The shard buffers what it applies and folds at a flush, so the timed
    region ends by reading ``core.db``: that folds the pending columns,
    and the comparison covers the fold, not only the appends.
    """
    from array import array

    from repro.core.sites import Site, SiteKind
    from repro.serve.shard import ShardCore

    sites = [
        Site(
            kind=SiteKind.LOAD,
            program="bench",
            procedure=f"proc{index % 3}",
            label=f"site{index}",
            opcode="load",
        )
        for index in range(8)
    ]
    # One sub-batch whose events cycle through the 8 sites, as the
    # router hands it over: each event's site id and its value.
    values = array("q", _VALUES[: len(_VALUES) // 10])
    ids = array("I", (index % len(sites) for index in range(len(values))))
    with tempfile.TemporaryDirectory() as directory:
        core = ShardCore(0, directory, exact=False, telemetry=telemetry)
        core.define("bench", range(len(sites)), sites)
        submit = core.submit
        start = time.thread_time()
        for seq in range(batches):
            submit("bench", seq, ids, values, journal=False)
        core.db  # reading it folds every pending column
        elapsed = time.thread_time() - start
        core.close()
    return elapsed


def check_serve_telemetry() -> bool:
    """Serve budget: the always-on fold histograms must stay within
    TOLERANCE of a telemetry-off shard on the pure fold path."""
    return _gate(
        "shard fold telemetry-on vs off",
        lambda: _time_shard_submit(True),
        lambda: _time_shard_submit(False),
    )[0]


_TIER2_BENCH = """
.program jitbench
.text
.proc main nargs=0
    li r8, 5
    li r9, 0
    li r10, 40000
outer:
    mul r11, r8, r8
    add r9, r9, r11
    add r9, r9, r8
    xor r11, r11, r9
    subi r10, r10, 1
    seqi r12, r10, 20000
    beqz r12, skip
    add r8, r8, r10
skip:
    bnez r10, outer
    out r9
    halt
.endproc
"""


def _time_tier2_run(journal: bool) -> float:
    """One full tier-2 run (warm-up, quicken, one deopt/requicken) on a
    fresh machine; the journal, when on, sees the whole lifecycle."""
    from repro.isa.assembler import assemble
    from repro.isa.machine import Machine
    from repro.obs.jitlog import JITLOG

    machine = Machine(assemble(_TIER2_BENCH), engine="tier2")
    if journal:
        JITLOG.enable()
    try:
        start = time.thread_time()
        machine.run()
        return time.thread_time() - start
    finally:
        if journal:
            JITLOG.disable()
            JITLOG.reset()


def check_jitlog_enabled() -> bool:
    """Tier-2 budget: a quickening-heavy run with the specialization
    journal enabled must stay within TOLERANCE of journal-off.  The
    first warm-up run also warms the tier-2 code cache."""
    return _gate(
        "tier2 run jitlog-on vs off",
        lambda: _time_tier2_run(True),
        lambda: _time_tier2_run(False),
    )[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also run the serve-plane telemetry leg (shard fold path)",
    )
    args = parser.parse_args(argv)
    assert not METRICS.enabled and not TRACER.enabled, (
        "guard must measure the disabled default"
    )
    passed, best_instrumented = _gate(
        "tnv_record disabled-mode instrumented vs control",
        lambda: _time_once(TNVTable),
        lambda: _time_once(_ControlTNV),
    )
    failed = not passed

    if os.environ.get("REPRO_BENCH_STRICT") == "1" and RESULTS.is_file():
        baseline = json.loads(RESULTS.read_text())
        baseline_per_call = baseline["min_s"]
        strict_ratio = best_instrumented / baseline_per_call
        print(
            f"committed baseline: {baseline_per_call * 1e6:.1f}us, "
            f"measured/baseline ratio {strict_ratio:.3f}"
        )
        if strict_ratio > 1 + TOLERANCE:
            print("FAIL: regressed vs the committed BENCH_tnv_record.json baseline")
            failed = True

    if not check_timeseries_enabled():
        failed = True

    if not check_jitlog_enabled():
        failed = True

    if args.serve and not check_serve_telemetry():
        failed = True

    if not failed:
        print("PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
