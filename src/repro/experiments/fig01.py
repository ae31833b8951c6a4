"""Figure 1 — Dyn-arr-nr insertion rate vs problem size.

Paper setup: synthetic R-MAT, m = 10 n, n varied from thousands to tens of
millions of vertices; MUPS reported on (a) one core — 4 threads on
UltraSPARC T1, 8 threads on UltraSPARC T2 — and (b) eight cores — 32 / 64
threads.  The reported shape: performance is relatively high while the run's
memory footprint is comparable to the L2 size, then drops as the instance
outgrows the cache (T2 by ~1.5x and T1 by ~1.8x from n = 2^14 to 2^24 on
8 cores).

Reproduction: one real construction run at the measured scale provides the
per-update work; the profile is scaled to each target size (footprint
recomputed at that size) and evaluated on single-core and full-socket
machine variants.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.dynarr import DynArrAdjacency
from repro.core.update_engine import construct
from repro.experiments.common import FigureResult, footprint_coefficients, measured_scale
from repro.generators.rmat import rmat_graph
from repro.machine.scale import ScaledInstance, scale_profile
from repro.machine.sim import SimulatedMachine
from repro.machine.spec import ULTRASPARC_T1, ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED

__all__ = ["run"]

#: Paper's x-axis: three orders of magnitude.
TARGET_SCALES = (14, 16, 18, 20, 22, 24)
EDGE_FACTOR = 10


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """Reproduce Figure 1 (a: 1 core, b: 8 cores)."""
    mscale = measured_scale(15, 12, quick)
    n0 = 1 << mscale
    graph = rmat_graph(mscale, EDGE_FACTOR, seed=seed)
    arcs0 = 2 * graph.m
    deg = np.bincount(graph.src, minlength=graph.n) + np.bincount(
        graph.dst, minlength=graph.n
    )
    rep = DynArrAdjacency.preallocated(graph.n, deg)
    res = construct(rep, graph)
    bpv, bpe = footprint_coefficients(rep, graph.n, arcs0)

    machines = {
        "T1 1 core (4 thr)": (SimulatedMachine(ULTRASPARC_T1.with_overrides(cores=1)), 4),
        "T2 1 core (8 thr)": (SimulatedMachine(ULTRASPARC_T2.with_overrides(cores=1)), 8),
        "T1 8 cores (32 thr)": (SimulatedMachine(ULTRASPARC_T1), 32),
        "T2 8 cores (64 thr)": (SimulatedMachine(ULTRASPARC_T2), 64),
    }

    rows = []
    for k in TARGET_SCALES:
        n1 = 1 << k
        m1 = EDGE_FACTOR * n1
        inst = ScaledInstance(
            n_measured=n0,
            m_measured=graph.m,
            n_target=n1,
            m_target=m1,
            ops_measured=graph.m,
            ops_target=m1,
            bytes_per_vertex=bpv,
            bytes_per_edge=2 * bpe,  # per *edge* = two arcs
        )
        scaled = scale_profile(res.profile, inst)
        row = {"n": n1, "m": m1, "footprint_MB": inst.footprint_target_bytes / 1e6}
        for label, (sim, threads) in machines.items():
            row[label] = sim.mups_at(scaled, threads, m1)
        rows.append(row)

    fig = FigureResult(
        figure="Figure 1",
        title="Dyn-arr-nr insertion MUPS vs problem size (1 core / 8 cores)",
        rows=rows,
        notes=(
            f"measured at n=2^{mscale}, m={graph.m}; profiles scaled per "
            "target size, footprint recomputed (cache model applies at the "
            "target size)"
        ),
        meta={
            "measured_scale": mscale,
            "targets": TARGET_SCALES,
            "host_seconds": res.host_seconds,
            "host_mups": res.profile.meta.get("host_mups", 0.0),
            "vectorised": res.meta.get("vectorised", False),
        },
    )

    # Shape checks from the paper's prose.
    small = rows[0]
    large = rows[-1]
    drop_t2 = small["T2 8 cores (64 thr)"] / large["T2 8 cores (64 thr)"]
    drop_t1 = small["T1 8 cores (32 thr)"] / large["T1 8 cores (32 thr)"]
    fig.check(
        "T2 8-core rate drops as n grows past the cache (paper: ~1.5x)",
        1.1 <= drop_t2 <= 3.0,
        f"drop factor {drop_t2:.2f}",
    )
    fig.check(
        "T1 8-core rate drops as n grows past the cache (paper: ~1.8x)",
        1.1 <= drop_t1 <= 3.5,
        f"drop factor {drop_t1:.2f}",
    )
    fig.check(
        "8 cores beat 1 core at every size",
        all(
            r["T2 8 cores (64 thr)"] > r["T2 1 core (8 thr)"]
            and r["T1 8 cores (32 thr)"] > r["T1 1 core (4 thr)"]
            for r in rows
        ),
    )
    fig.check(
        "T2 outperforms T1 at full socket on large instances",
        large["T2 8 cores (64 thr)"] > large["T1 8 cores (32 thr)"],
        f"{large['T2 8 cores (64 thr)']:.1f} vs {large['T1 8 cores (32 thr)']:.1f} MUPS",
    )
    return fig
