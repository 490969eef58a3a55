"""Host-speed probes: fixed pieces of work timed between benchmark passes.

The virtual CPUs this benchmark runs on change speed with the load of other
tenants on the host, by 20-60% over tens of seconds, and not by the same
factor for every kind of work.  Each probe therefore runs the kind of work a
workload spends its time on, and none of momentid's code, so its time moves
with the host and not with the program:

- ``interpreter``: interpreter-bound Python, many numpy calls on small
  arrays, and a sweep over a buffer twice the L2 cache -- the profile of the
  small-grid workloads, dominated by per-call overhead;
- ``memory``: page faults on a fresh 64 MB array and vectorised
  transcendental functions over large arrays -- the profile of the
  dense-table workloads.

Dividing a pass's wall time by the probe times around it, and multiplying by
the probe's ``REFERENCE_S``, gives the pass time at a fixed reference speed:
the speed at which the probe takes ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds each probe takes at the reference speed.  This is about what it
# takes on a 2-vCPU Intel Xeon VM, so calibrated times read close to wall
# times there; only ratios between calibrated times carry meaning.
REFERENCE_S = {"interpreter": 0.15, "memory": 0.08}

_SMALL = np.linspace(0.0, 1.0, 48)
# 4 MiB of doubles, twice the L2 cache.  It is allocated once, so the
# probe does not depend on the allocator state momentid leaves behind, and
# it adds a constant 4 MiB to resident memory once first used.
_BUFFER = np.empty(1 << 19)


def _python() -> int:
    table: dict = {}
    total = 0
    for i in range(200_000):
        key = i & 1023
        table[key] = (i, key + 1)
        total += table[key][1] & 7
    return total


def _small_arrays() -> float:
    total = 0.0
    for _ in range(6_000):
        a = np.asarray(_SMALL * 2.0, dtype=float)
        if np.all(np.isfinite(a)):
            total += float(a.sum())
    return total


def _sweep() -> float:
    total = 0.0
    for _ in range(80):
        _BUFFER.fill(1.5)
        np.multiply(_BUFFER, _BUFFER, out=_BUFFER)
        total += float(_BUFFER[::4096].sum())
    return total


def _fault() -> float:
    total = 0.0
    for _ in range(4):
        # 64 MB is above glibc's largest mmap threshold, so every array is
        # fresh pages from the kernel whatever the allocator did before
        a = np.empty(1 << 23)
        a.fill(1.5)
        total += float(a[::4096].sum())
        del a
    return total


_GRID = np.linspace(-4.0, 4.0, 200_000)


def _vector_math() -> float:
    total = 0.0
    for _ in range(20):
        total += float(np.exp(-0.5 * _GRID * _GRID).sum())
    return total


KINDS = {"interpreter": (_python, _small_arrays, _sweep),
         "memory": (_fault, _vector_math)}


def probe(kind: str) -> float:
    """Seconds of one probe of ``kind`` at the host's current speed."""
    start = time.perf_counter()
    for part in KINDS[kind]:
        part()
    return time.perf_counter() - start


def calibrated(kind: str, wall_s: float, before_s: float,
               after_s: float) -> float:
    """``wall_s`` at the reference speed, from the probes either side."""
    return wall_s * REFERENCE_S[kind] / (0.5 * (before_s + after_s))
