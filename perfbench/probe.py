"""The host-speed probe: a fixed piece of interpreter work whose duration
tracks how fast a shared host runs Python at the moment.

Run times are scaled by it (see ``sims.timed_loop`` and README.md,
"Noise").  It runs none of the simulator's code, so a change to the
simulator moves a scaled time exactly as much as the host time.

Run as a script, it probes every ``interval`` seconds until its stdin
closes, printing each probe's CPU time::

    python3 perfbench/probe.py 0.2
"""

from __future__ import annotations

import gc
import random
import select
import sys
import time
from typing import Callable

#: Keys of the probe, in a fixed shuffled order: a dict of a few MB
#: built and read back, so the probe loads the interpreter and the
#: caches the way the simulator's object graph does.
PROBE_KEYS = list(range(0, 4_000_000, 70))
random.Random(0).shuffle(PROBE_KEYS)

#: The probe's duration on the nominal host that run times are scaled
#: to (about its fastest time on a 2 GHz x86-64 core).
PROBE_NOMINAL_S = 0.02


def probe_s(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds the probe takes right now, on ``clock``.  The collector is
    off meanwhile, so the time does not depend on how many objects the
    process holds."""
    gc.disable()
    try:
        start = clock()
        table = {}
        for key in PROBE_KEYS:
            table[key] = (key, key + 1)
        total = 0
        for key in PROBE_KEYS:
            total += table[key][1]
        return clock() - start
    finally:
        gc.enable()


def main() -> int:
    interval = float(sys.argv[1])
    while not select.select([sys.stdin], [], [], interval)[0]:
        # CPU time: waiting for a core the measured run keeps busy is
        # not host slowness.
        print(probe_s(time.thread_time), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
