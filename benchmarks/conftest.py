"""Benchmark-suite configuration.

Each ``test_figNN_*`` module regenerates one figure of the paper: the
benchmark timing is the host cost of the full reproduction experiment
(measured run + scaling + machine sweep), the assertions are the figure's
shape checks, and the simulated series lands in ``extra_info`` so
``--benchmark-json`` artifacts carry the paper-vs-measured numbers.

Run with::

    pytest benchmarks/ --benchmark-only

Every benchmark session additionally writes ``BENCH_repro.json`` at the
repository root: per-kernel host seconds plus whatever simulated
seconds/MUPS the benchmark attached to ``extra_info``, stamped with the run
manifest (commit, seed, interpreter) so entries are comparable across
commits — the perf trajectory ROADMAP asks for.  The same entries are
also appended as one line to ``benchmarks/history.jsonl``, the
append-only ledger behind ``python -m repro bench diff`` / ``trend``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro import kernels
from repro.experiments import FigureResult
from repro.obs import ensure_manifest
from repro.obs.bench import update_bench_file
from repro.obs.history import DEFAULT_HISTORY_PATH, append_bench_history
from repro.util.jsonify import jsonify


def pytest_sessionstart(session):
    """Warm the compiled kernel tier before any timed section runs.

    A no-op without numba; with it, first-call JIT compilation happens
    here — never inside a benchmark round — and its cost is reported
    separately as ``compile_seconds`` on every recorded entry (via
    :func:`repro.kernels.bench_meta`).
    """
    kernels.warmup()


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


def _bench_mean_seconds(bench) -> float | None:
    """Host seconds of one recorded benchmark (defensive across versions)."""
    stats = getattr(bench, "stats", None)
    if stats is None:
        return None
    inner = getattr(stats, "stats", stats)
    mean = getattr(inner, "mean", None)
    try:
        return None if mean is None else float(mean)
    except (TypeError, ValueError):
        return None


def pytest_sessionfinish(session, exitstatus):
    """Merge the session's benchmarks into the ``BENCH_repro.json`` artifact.

    Merging (rather than overwriting) matters because the CI
    bench-regression job runs each benchmark file in its own pytest
    invocation: every invocation contributes its entries, entries for
    re-run kernels are replaced, and the rest of the document survives
    (see :func:`repro.obs.bench.merge_bench_document`).
    """
    bs = getattr(session.config, "_benchmarksession", None)
    if bs is None or not getattr(bs, "benchmarks", None):
        return
    meta = kernels.bench_meta()
    entries = []
    for bench in bs.benchmarks:
        # Tier provenance on every row (a benchmark's own extra_info wins,
        # e.g. when it timed a specific tier rather than the default one).
        extra = {**meta, **dict(getattr(bench, "extra_info", {}) or {})}
        entry = {
            "kernel": bench.fullname,
            "group": getattr(bench, "group", None),
            "host_seconds": _bench_mean_seconds(bench),
            "extra_info": jsonify(extra),
        }
        entries.append(entry)
    root = Path(__file__).resolve().parent.parent
    manifest = ensure_manifest().to_dict()
    update_bench_file(root / "BENCH_repro.json", entries, manifest=manifest)
    # Same entries, second artifact: one append-only ledger line per
    # session so ``python -m repro bench diff/trend`` can compare runs
    # across commits (see repro.obs.history).
    append_bench_history(root / DEFAULT_HISTORY_PATH, entries, manifest=manifest)


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
