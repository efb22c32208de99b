"""Samples the reference loop on this process's CPU until stopped.

Run by run.py beside the ``serve`` server, pinned to the server's CPU,
where the benchmark can run none of its own code inside the process
under test.  Each sample is CPU time (:func:`common.reference_sample`),
so the time the CPU gives to the server does not count.  On SIGTERM it
prints the samples as one JSON list and exits::

    python3 e2ebench/sampler.py
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import reference_sample  # noqa: E402

#: pause between samples: about 4% of the CPU at full speed.
INTERVAL_S = 0.05


def main() -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopped.append(signum))
    samples = []
    while not stopped:
        samples.append(reference_sample())
        time.sleep(INTERVAL_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
