"""Guard: the deterministic e2ebench ledger counts equal their baseline.

A traced e2ebench run (``--trace 1``) counts work that does not depend
on the host's speed: machine runs and retired instructions, datasets
built, captures, events recorded, folded and replayed, TNV clears,
promotions and bottom evictions, and tier-2's quickenings, deopts and
guard hits.  A change that moves one of them changes what the program
does, not how fast the host ran it, so a gate on them has no noise.

This script runs the ``offline`` and ``profile`` workloads traced, reads
the last line of each run's output (one JSON object), and fails naming
every count that differs from ``benchmarks/results/ledger_counts.json``,
and every run whose own checks failed.  A change that moves a count on
purpose updates that file in the same diff, where review sees it.

It only reads the benchmark's output; it imports nothing from the
program.  Exit status 0 on pass, 1 on any difference.  Run from
anywhere::

    python benchmarks/check_ledger_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "results" / "ledger_counts.json"


def traced_run(workload: str) -> dict:
    """The last JSON line of one traced e2ebench run of ``workload``."""
    command = [sys.executable, "e2ebench/run.py", "--workload", workload, "--trace", "1"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload}: e2ebench printed no result (exit {proc.returncode})")


def differences(workload: str, baseline: dict, metrics: dict) -> list:
    """One line per count of ``baseline`` that ``metrics`` does not equal."""
    lines = []
    for name, expected in baseline.items():
        measured = metrics.get(name, {}).get("value")
        if measured != expected:
            lines.append(f"{workload}: {name} is {measured}, baseline {expected}")
    return lines


def main() -> int:
    baseline = json.loads(BASELINE.read_text())
    failures = []
    for workload, counts in baseline.items():
        result = traced_run(workload)
        if result.get("failed"):
            failures.append(f"{workload}: {result['failed']} of "
                            f"{result.get('attempted')} checks failed")
        found = differences(workload, counts, result.get("metrics", {}))
        print(f"{workload}: {len(counts) - len(found)} of {len(counts)} counts "
              "equal the baseline")
        failures += found
    for line in failures:
        print("FAILED", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
