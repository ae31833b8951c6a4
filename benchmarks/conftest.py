"""Kernel gates: ratios and identities measured inside each test.

Run with::

    python -m pytest benchmarks -q

Each gate times both sides of its ratio in this process, one after the
other, so it holds on any box.  Nothing is recorded: the repository's one
host-timing ledger is ``bench/`` (``bench/README.md``, ``BENCHMARK.json``).
"""

from __future__ import annotations

import os
import time


def best_of(fn, rounds: int, *, stat=min):
    """(``stat`` of ``rounds`` timed calls of ``fn``, last result).

    ``stat`` is the best round by default; gates calibrated on the mean of
    their rounds pass ``statistics.fmean``.
    """
    seconds, out = [], None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        seconds.append(time.perf_counter() - t0)
    return stat(seconds), out


def cpus() -> int:
    """CPUs this process may run on: speed floors arm only with spare ones."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
