"""Figure 8 — 1 million connectivity queries on the link-cut forest.

Paper setup: the Figure 7 forest (10M vertices / 84M edges), 1M connectivity
queries on UltraSPARC T2; each query is two findroot pointer chases of
O(diameter) hops.  Reported: speedup of 20 for parallel query processing;
the paper's headline rate for this network is 7.3M queries per second.
"""

from __future__ import annotations

from repro.core.connectivity import ConnectivityIndex
from repro.experiments.common import (
    FigureResult,
    SeriesSpec,
    T2_THREADS,
    measured_scale,
    scaled_sweep,
)
from repro.machine.sim import ScalingResult
from repro.experiments.fig07 import TARGET_M, TARGET_N, build_measured_forest
from repro.machine.scale import ScaledInstance
from repro.machine.spec import ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED, mix_seed

__all__ = ["run", "TARGET_QUERIES"]

TARGET_QUERIES = 1_000_000


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(15, 12, quick)
    graph, csr, forest, record = build_measured_forest(mscale, seed)
    n0, m0 = graph.n, graph.m
    k_measured = 50_000 if quick else 200_000

    index = ConnectivityIndex(forest, record)
    query_seed = mix_seed(seed, "fig08-queries")
    qr = index.random_query_batch(k_measured, seed=query_seed)

    # The query working set is the parent array; hop counts per query grow
    # with the BFS-tree depth, O(log n) for small-world graphs — captured by
    # the logdeg-free diameter scaling of span/barriers being irrelevant here
    # (a single read-only phase), so we fold depth growth into the op count.
    depth_growth = (
        (TARGET_N).bit_length() / float((n0).bit_length())
    )
    inst = ScaledInstance(
        n_measured=n0, m_measured=m0,
        n_target=TARGET_N, m_target=TARGET_M,
        ops_measured=k_measured,
        ops_target=int(TARGET_QUERIES * depth_growth),
        bytes_per_vertex=8.0,  # the parent array
        bytes_per_edge=0.0,
    )
    series = [
        scaled_sweep(
            qr.profile, inst, ULTRASPARC_T2, T2_THREADS,
            n_items=int(TARGET_QUERIES * depth_growth), label="1M connectivity queries",
        )
    ]
    # Rates should count true queries, not depth-adjusted ops; rebuild the
    # series with the real query count for MUPS reporting.
    base = series[0].result
    series = [
        SeriesSpec(
            label="1M connectivity queries",
            result=ScalingResult(
                machine=base.machine,
                workload=base.workload,
                threads=base.threads,
                seconds=base.seconds,
                n_items=TARGET_QUERIES,
                meta=base.meta,
            ),
        )
    ]

    fig = FigureResult(
        figure="Figure 8",
        title="1M connectivity queries on the link-cut forest, UltraSPARC T2",
        series=series,
        notes=(
            f"measured {k_measured} queries at n=2^{mscale}; "
            f"{qr.hops_per_query:.1f} pointer hops per query; hop count "
            f"scaled by log-depth growth factor {depth_growth:.2f}"
        ),
        meta={"measured_scale": mscale, "hops_per_query": qr.hops_per_query},
    )
    s = fig.get("1M connectivity queries")
    rate_best = max(float(r) for r in s.result.rates)
    fig.check(
        # Our best rate lands within ~4x of the paper's 7.3M/s; the gap is
        # dominated by the BFS-tree depth at the 10M-vertex scale, which we
        # extrapolate logarithmically from the measured forest rather than
        # observe (recorded in EXPERIMENTS.md).
        "query rate magnitude (paper: 7.3M queries/s on this network)",
        2.0e6 <= rate_best <= 40.0e6,
        f"best {rate_best / 1e6:.1f} M queries/s",
    )
    fig.check(
        "speedup ~20 on 32 threads (paper: 20)",
        13.0 <= s.speedup_at(32) <= 30.0,
        f"{s.speedup_at(32):.1f}",
    )
    fig.check(
        "queries keep scaling to 64 threads (read-only, no synchronisation)",
        s.speedup_at(64) >= s.speedup_at(32),
        f"{s.speedup_at(64):.1f} vs {s.speedup_at(32):.1f}",
    )
    return fig
