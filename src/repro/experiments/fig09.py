"""Figure 9 — induced subgraph kernel on UltraSPARC T1.

Paper setup: R-MAT graph of 20M vertices / 200M edges, integral time-stamps
uniform in [1, 100], edges randomly shuffled to remove generator locality;
extract the subgraph induced by edges in the interval (20, 70).  Each edge
is visited at most twice (mark pass + build/delete pass).  Reported: "the
induced subgraph kernel achieves a good parallel speedup on UltraSPARC T1."
"""

from __future__ import annotations

from repro.core.induced import induced_subgraph
from repro.experiments.common import (
    FigureResult,
    T1_THREADS,
    measured_scale,
    scaled_sweep,
)
from repro.generators.rmat import rmat_graph
from repro.machine.scale import ScaledInstance
from repro.machine.spec import ULTRASPARC_T1
from repro.util.seeding import DEFAULT_SEED

__all__ = ["run", "TARGET_N", "TARGET_M", "INTERVAL"]

TARGET_N = 20_000_000
TARGET_M = 200_000_000
INTERVAL = (20, 70)
TS_RANGE = (1, 100)


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(15, 12, quick)
    graph = rmat_graph(mscale, 10, seed=seed, ts_range=TS_RANGE, shuffle=True)
    n0, m0 = graph.n, graph.m

    res = induced_subgraph(graph, *INTERVAL)

    bpe = 24.0  # src + dst + ts words per stored edge
    inst = ScaledInstance(
        n_measured=n0, m_measured=m0,
        n_target=TARGET_N, m_target=TARGET_M,
        ops_measured=m0, ops_target=TARGET_M,
        bytes_per_vertex=16.0, bytes_per_edge=bpe,
    )
    series = [
        scaled_sweep(
            res.profile, inst, ULTRASPARC_T1, T1_THREADS,
            n_items=TARGET_M, label="induced subgraph",
        )
    ]

    kept_frac = res.n_affected / m0
    fig = FigureResult(
        figure="Figure 9",
        title="Induced subgraph kernel (interval (20,70)), UltraSPARC T1",
        series=series,
        notes=(
            f"measured at n=2^{mscale}; kept {res.n_affected}/{m0} edges "
            f"({100 * kept_frac:.1f}%), strategy={res.strategy}"
        ),
        meta={"measured_scale": mscale, "kept_frac": kept_frac},
    )
    s = fig.get("induced subgraph")
    fig.check(
        "good parallel speedup on T1 (paper: 'good parallel speedup')",
        s.speedup_at(32) >= 8.0,
        f"speedup {s.speedup_at(32):.1f} at 32 threads",
    )
    fig.check(
        "interval (20,70) keeps ~49% of uniformly-[1,100]-stamped edges",
        0.44 <= kept_frac <= 0.54,
        f"{100 * kept_frac:.1f}%",
    )
    fig.check(
        "kernel picks the rebuild strategy for a minority subset",
        res.strategy == "rebuild",
        res.strategy,
    )
    fig.check(
        "each edge visited at most twice (mark + move)",
        res.profile.total("rand_accesses") <= 2.1 * 2 * m0,
        f"{res.profile.total('rand_accesses'):.3g} random accesses for {m0} edges",
    )
    return fig
