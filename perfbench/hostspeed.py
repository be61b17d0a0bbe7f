"""How fast the host runs right now, measured without the package.

On a shared host the speed of a busy vCPU wanders by about a quarter over
seconds to minutes, and CPU time follows wall time. A fixed kernel of dict
updates, sorting and numpy sorts and cumulative sums on a small array, which
runs no package code, measures that speed. It runs only between commands,
never while package code runs, so the program's own load on the CPUs does
not enter the correction; dividing a command's time by the kernel's slowdown
at its two ends gives its time on a host where the kernel takes
KERNEL_REF_S.

A probe runs the kernel for PROBE_S, because a short one reads the host's
speed badly: a 40 ms probe after a 15 s command tracked the command's time
much worse than a 0.6 s one did.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SPIN_UP_S = 3.0
PROBE_S = 0.2
# median kernel time on a 2-vCPU Intel Xeon host with Python 3.11 and numpy
# 2.4; it only fixes the scale of the corrected times
KERNEL_REF_S = 1.0e-3
_KERNEL_ARRAY = np.linspace(0.1, 0.9, 200).reshape(20, 10)


def _kernel_time() -> float:
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(2500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sorted((v, k) for k, v in counts.items())
    x = _KERNEL_ARRAY
    for _ in range(40):
        c = np.cumsum(np.sort(x, axis=1), axis=1)
        x = np.maximum(x - c.mean() * 1e-3, 0.0) + 0.01
    return time.perf_counter() - t0


def host_slowdown() -> float:
    """Median kernel time over PROBE_S of probing, divided by KERNEL_REF_S."""
    times, end = [], time.perf_counter() + PROBE_S
    while not times or time.perf_counter() < end:
        times.append(_kernel_time())
    return statistics.median(times) / KERNEL_REF_S


def spin_up() -> None:
    """Keep the CPU busy before timing: on a shared host a vCPU that was idle
    runs up to 50% slower for its first one to two seconds of work."""
    end = time.perf_counter() + SPIN_UP_S
    while time.perf_counter() < end:
        pass
