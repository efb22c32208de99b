"""Helpers shared by run.py and its phase processes.

Nothing here imports the program under test, so run.py can use it
before it has checked that the program's sources are present.
"""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import re
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

#: every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: checkout root: the directory holding this package's directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the fixed hash seed of every process under test.
HASH_SEED = "0"


def program_present() -> bool:
    """Whether the program's sources sit beside the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def clean_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for a process under test.

    Every inherited ``REPRO_*`` variable is dropped, so a caller's
    ``REPRO_ENGINE``/``REPRO_FOLD``/``REPRO_NO_CACHE`` cannot change
    what is measured; the hash seed is pinned and the profile cache
    lives in ``cache_dir``, never under the user's home.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def scrub_repro_env() -> None:
    """Drop ``REPRO_*`` from this process before it imports ``repro``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated quantile; ``inf`` entries sort last.

    A quantile whose rank lands on or next to an ``inf`` is ``inf``:
    a batch never acknowledged is slower than any limit.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = math.ceil(pos)
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed.

    Timed before and after each workload, it tells a slow host from
    slow code.  The best of ``rounds`` is reported.
    """
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


#: seconds :func:`reference_sample` takes with the host at full speed
#: (the fastest of 600 samples on the host the benchmark was written on).
REFERENCE_S = 0.0016


def reference_sample() -> float:
    """CPU seconds for a short fixed pure-Python loop: the host's speed now.

    Sampled between the operations a run measures, or beside them on
    the same CPU, it tells how fast the host ran while they ran (see
    :func:`host_adjusted`).  CPU time, so that time the CPU spends on
    another process does not count.  It is the benchmark's own code, so
    no change to the program can move it.
    """
    start = time.process_time()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return time.process_time() - start


def host_adjusted(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` as they would read with the host at full speed.

    A shared host runs the same code up to twice as slowly in stretches
    of seconds to minutes.  ``samples`` of :func:`reference_sample`
    taken between the operations that ``seconds`` measured say how much
    slower than :data:`REFERENCE_S` it ran meanwhile.
    """
    return seconds * REFERENCE_S * len(samples) / sum(samples)


def host_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        # numpy's presence selects the fold kernel.
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def check_names(names: Iterable[str]) -> List[str]:
    """The names that are not valid metric names."""
    return [name for name in names if not METRIC_NAME.match(name)]
