"""Host speed, from a fixed loop timed between operations.

The host shares its CPUs and caches with other tenants.  Their load slows
everything in this process alike, by up to half, for spells of seconds to
minutes, which is longer than a run.  A fixed loop that does not touch the
library, timed every CAL_EVERY_S of work, measures that slowdown where it
happens; each raw time is multiplied by REFERENCE_S / (the loop's time
around it), which states it at one fixed host speed.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.9e-3  # the loop's time on the quiet 2-CPU host of README.md
CAL_EVERY_S = 0.1     # time the loop after about this much work


def reference_loop() -> int:
    """Interpreter work of the library's kind: tuples, hashing, a dict, a
    sort and set lookups."""
    acc = 0
    d = {}
    for i in range(1500):
        t = (i, i ^ 5, i % 7)
        d[t] = i
        acc += hash(t) & 7
    s = sorted(d, key=lambda t: (t[2], t[1]))
    fs = frozenset(s[:500])
    for t in s[::3]:
        acc += t in fs
    return acc


def loop_time() -> float:
    """Best of three timings of the loop, with the collector off, so the
    library's heap does not count."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Scaler:
    """Hands out the factor for the work done since the previous call: the
    reference time over the mean of the loop's times before and after."""

    def __init__(self):
        self._before = loop_time()
        self._since = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._since >= CAL_EVERY_S

    def factor(self) -> float:
        after = loop_time()
        f = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        self._since = time.perf_counter()
        return f
