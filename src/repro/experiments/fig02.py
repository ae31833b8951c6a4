"""Figure 2 — resizing overhead: Dyn-arr vs Dyn-arr-nr construction.

Paper setup: R-MAT, 33.5M vertices / 268M edges, construction as a series of
insertions on UltraSPARC T2, threads 1..64, Dyn-arr initial array size 16.
Reported shape: "the impact of resizing is not very pronounced" — Dyn-arr
tracks Dyn-arr-nr closely; and the headline scaling (~25 MUPS, speedup near
28 at 64 threads) comes from this workload family.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.dynarr import DynArrAdjacency
from repro.core.update_engine import construct
from repro.experiments.common import (
    FigureResult,
    T2_THREADS,
    footprint_coefficients,
    measured_scale,
    scaled_sweep,
)
from repro.generators.rmat import rmat_graph
from repro.machine.scale import ScaledInstance
from repro.machine.spec import ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED

__all__ = ["run", "TARGET_N", "TARGET_M"]

TARGET_N = 1 << 25  # 33.5M vertices
TARGET_M = 268_000_000
#: Paper: "The initial array size is set to 16 in this case."
INITIAL_SIZE = 16


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(15, 12, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m
    deg = np.bincount(graph.src, minlength=n0) + np.bincount(graph.dst, minlength=n0)

    series = []
    host = {}
    for label, rep in (
        ("Dyn-arr", DynArrAdjacency(n0, initial_capacity=INITIAL_SIZE)),
        ("Dyn-arr-nr", DynArrAdjacency.preallocated(n0, deg)),
    ):
        res = construct(rep, graph)
        host[label] = {
            "host_seconds": res.host_seconds,
            "host_mups": res.profile.meta.get("host_mups", 0.0),
            "vectorised": res.meta.get("vectorised", False),
        }
        bpv, bpe = footprint_coefficients(rep, n0, 2 * m0)
        inst = ScaledInstance(
            n_measured=n0,
            m_measured=m0,
            n_target=TARGET_N,
            m_target=TARGET_M,
            ops_measured=m0,
            ops_target=TARGET_M,
            bytes_per_vertex=bpv,
            bytes_per_edge=2 * bpe,
        )
        series.append(
            scaled_sweep(
                res.profile, inst, ULTRASPARC_T2, T2_THREADS,
                n_items=TARGET_M, label=label,
            )
        )

    fig = FigureResult(
        figure="Figure 2",
        title="Dyn-arr vs Dyn-arr-nr construction MUPS, UltraSPARC T2",
        series=series,
        notes=f"measured at n=2^{mscale}; target 33.5M vertices / 268M edges",
        meta={"measured_scale": mscale, "host": host},
    )
    da = fig.get("Dyn-arr")
    nr = fig.get("Dyn-arr-nr")
    ratio64 = nr.mups_at(64) / da.mups_at(64)
    fig.check(
        "resizing overhead is modest (paper: 'not very pronounced')",
        1.0 <= ratio64 <= 1.6,
        f"Dyn-arr-nr / Dyn-arr at 64 threads = {ratio64:.2f}",
    )
    fig.check(
        "near-28x parallel speedup at 64 threads (paper headline)",
        18.0 <= da.speedup_at(64) <= 40.0,
        f"Dyn-arr speedup {da.speedup_at(64):.1f}",
    )
    fig.check(
        "headline MUPS magnitude (paper: ~25 MUPS average for updates)",
        10.0 <= da.mups_at(64) <= 80.0,
        f"Dyn-arr {da.mups_at(64):.1f} MUPS at 64 threads",
    )
    fig.check(
        "Dyn-arr-nr is never slower than Dyn-arr",
        all(nr.seconds_at(t) <= da.seconds_at(t) * 1.001 for t in T2_THREADS),
    )
    return fig
