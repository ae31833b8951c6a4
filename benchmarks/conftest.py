"""Benchmark-suite configuration.

Each ``test_figNN_*`` module regenerates one figure of the paper: the
benchmark timing is the host cost of the full reproduction experiment
(measured run + scaling + machine sweep), the assertions are the figure's
shape checks, and the simulated series lands in ``extra_info`` so
``--benchmark-json`` artifacts carry the paper-vs-measured numbers.

Run with::

    pytest benchmarks/ --benchmark-only

The gates here are ratios and identities measured inside each test, so
they hold on any box.  No host timing is recorded from this suite: the
repository's one timing ledger is ``bench/`` (``bench/README.md``,
``BENCHMARK.json``).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import FigureResult


def best_of(fn, rounds: int):
    """(best-of-``rounds`` seconds, last result) of a zero-arg callable.

    For gates that assert a ratio of two timings taken inside one test.
    """
    best, out = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def attach_series(benchmark, result: FigureResult) -> None:
    """Record a figure's headline numbers in the benchmark's extra_info."""
    benchmark.extra_info["figure"] = result.figure
    for s in result.series:
        r = s.result
        best_threads, best_seconds = r.best()
        benchmark.extra_info[f"{s.label} :: best_threads"] = best_threads
        benchmark.extra_info[f"{s.label} :: best_seconds"] = round(best_seconds, 6)
        benchmark.extra_info[f"{s.label} :: max_speedup"] = round(float(r.speedups.max()), 2)
        if r.mups is not None:
            benchmark.extra_info[f"{s.label} :: best_mups"] = round(float(r.mups.max()), 2)
    benchmark.extra_info["checks"] = {
        desc: ("PASS" if ok else f"FAIL ({detail})")
        for desc, (ok, detail) in result.checks.items()
    }


def assert_figure(result: FigureResult) -> None:
    failures = result.failed_checks()
    assert not failures, f"{result.figure} shape checks failed: {failures}"


@pytest.fixture
def figure_runner(benchmark):
    """Run a figure experiment under the benchmark clock and validate it."""

    def _run(run_fn, **kwargs):
        kwargs.setdefault("quick", True)
        result = benchmark.pedantic(
            lambda: run_fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0
        )
        assert_figure(result)
        attach_series(benchmark, result)
        return result

    return _run
