"""Host-speed probe: a fixed pure-Python kernel timed next to the commands.

The benchmark shares its host, whose speed drifts by up to 2x over tens of
seconds to minutes and moves every timing with it.  The kernel uses the
interpreter operations coopstream spends its time on (dict updates, lists
of tuples, sorts, float sums) but none of its code, so no change to
coopstream can move it.  `scale` turns a timing into the seconds it would
have taken on a host where one kernel call takes `REFERENCE_S`: the timing
times `REFERENCE_S` over the mean kernel seconds measured around it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.025  # one kernel call on 2 vCPUs of the reference host, Python 3.11


def kernel() -> float:
    table: dict[int, float] = {}
    window: list[tuple[float, int]] = []
    total = 0.0
    for i in range(6000):
        key = (i * 7919) % 500
        value = (i % 13) * 0.1
        table[key] = table.get(key, 0.0) + value
        window.append((value, key))
        if len(window) > 64:
            window.sort()
            total += window.pop()[0]
    return total + sum(table.values())


def probe(seconds: float) -> list[float]:
    """Seconds of kernel calls made for about `seconds`, at least one."""
    times = []
    start = time.perf_counter()
    while True:
        call = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - call)
        if call + times[-1] - start >= seconds:
            return times


def scale(seconds: float, probes: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.mean(probes)
