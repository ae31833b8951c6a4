"""Figure 4 — construction (insertions): Dyn-arr vs Treaps vs Hybrid-arr-treap.

Paper setup: R-MAT 33.5M / 268M on UltraSPARC T2, graph construction treated
as a series of insertions.  Reported shape: "Dyn-arr is 1.4 times faster
than the hybrid representation, while Hybrid-arr-treap is slightly faster
than Treaps."
"""

from __future__ import annotations

from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.treap import TreapAdjacency
from repro.core.update_engine import construct
from repro.experiments.common import (
    FigureResult,
    T2_THREADS,
    footprint_coefficients,
    measured_memory_meta,
    measured_scale,
    scaled_sweep,
)
from repro.generators.rmat import rmat_graph
from repro.obs.prof import measure_block
from repro.machine.scale import ScaledInstance
from repro.machine.spec import ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED

__all__ = ["run", "make_reps", "TARGET_N", "TARGET_M"]

TARGET_N = 1 << 25
TARGET_M = 268_000_000


def make_reps(n: int, expected_arcs: int, seed: int):
    """The three structures of Figures 4–6, with the paper's parameters."""
    return (
        ("Dyn-arr", DynArrAdjacency(n, expected_m=expected_arcs)),
        ("Treaps", TreapAdjacency(n, seed=seed)),
        ("Hybrid-arr-treap", HybridAdjacency(n, seed=seed)),
    )


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(14, 11, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m

    series = []
    host = {}
    for label, rep in make_reps(n0, 2 * m0, seed):
        with measure_block() as mem:
            res = construct(rep, graph)
        mem_meta = measured_memory_meta(mem)
        profile = res.profile.with_meta(**mem_meta) if mem_meta else res.profile
        host[label] = {
            "host_seconds": res.host_seconds,
            "host_mups": res.profile.meta.get("host_mups", 0.0),
            "vectorised": res.meta.get("vectorised", False),
            **mem_meta,
        }
        bpv, bpe = footprint_coefficients(rep, n0, 2 * m0)
        inst = ScaledInstance(
            n_measured=n0, m_measured=m0,
            n_target=TARGET_N, m_target=TARGET_M,
            ops_measured=m0, ops_target=TARGET_M,
            bytes_per_vertex=bpv, bytes_per_edge=2 * bpe,
        )
        series.append(
            scaled_sweep(
                profile, inst, ULTRASPARC_T2, T2_THREADS,
                n_items=TARGET_M, label=label,
                logdeg_correction=(label != "Dyn-arr"),
            )
        )

    fig = FigureResult(
        figure="Figure 4",
        title="Construction MUPS: Dyn-arr vs Treaps vs Hybrid, UltraSPARC T2",
        series=series,
        notes=f"measured at n=2^{mscale}; target 33.5M / 268M",
        meta={"measured_scale": mscale, "host": host},
    )
    da = fig.get("Dyn-arr")
    tr = fig.get("Treaps")
    hy = fig.get("Hybrid-arr-treap")
    ratio = da.mups_at(64) / hy.mups_at(64)
    fig.check(
        "Dyn-arr ~1.4x faster than Hybrid for insertions (paper: 1.4x)",
        1.1 <= ratio <= 2.2,
        f"measured ratio {ratio:.2f}",
    )
    fig.check(
        "Hybrid faster than Treaps for insertions (paper: 'slightly faster')",
        hy.mups_at(64) > tr.mups_at(64),
        f"{hy.mups_at(64):.1f} vs {tr.mups_at(64):.1f} MUPS",
    )
    fig.check(
        "all three scale with threads",
        min(da.speedup_at(64), tr.speedup_at(64), hy.speedup_at(64)) > 5.0,
        f"speedups {da.speedup_at(64):.1f}/{tr.speedup_at(64):.1f}/{hy.speedup_at(64):.1f}",
    )
    return fig
