"""Figure 10 — time-stamped BFS on the IBM Power 570.

Paper setup: massive R-MAT network of 500M vertices / 4B edges with
time-stamps such that the whole graph is one giant component; augmented BFS
with a time-stamp check.  Reported: 46 seconds on 16 Power5 CPUs, with a
parallel speedup of 13.1.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.csr import build_csr
from repro.core.bfs import bfs, bfs_profile
from repro.experiments.common import (
    FigureResult,
    P570_CPUS,
    measured_scale,
    scaled_sweep,
)
from repro.generators.rmat import rmat_graph
from repro.machine.scale import ScaledInstance
from repro.machine.spec import POWER_570
from repro.util.seeding import DEFAULT_SEED

__all__ = ["run", "TARGET_N", "TARGET_M"]

TARGET_N = 500_000_000
TARGET_M = 4_000_000_000
#: Paper instance density: m = 8 n.
EDGE_FACTOR = 8
TS_RANGE = (0, 1000)


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(15, 12, quick)
    graph = rmat_graph(mscale, EDGE_FACTOR, seed=seed, ts_range=TS_RANGE)
    csr = build_csr(graph)
    n0, m0 = graph.n, graph.m

    # Start from the heaviest vertex (guaranteed inside the giant component)
    # and traverse with the time-stamp check spanning the full range, as the
    # paper does ("time-stamps on edges such that the entire graph is in one
    # giant component").
    source = int(np.argmax(csr.degrees()))
    result = bfs(csr, source, ts_range=TS_RANGE)
    profile = bfs_profile(csr, result, degree_split=True)

    inst = ScaledInstance(
        n_measured=n0, m_measured=m0,
        n_target=TARGET_N, m_target=TARGET_M,
        ops_measured=result.total_edges_scanned,
        ops_target=int(
            result.total_edges_scanned / max(1, 2 * m0) * 2 * TARGET_M
        ),
        bytes_per_vertex=32.0,  # offsets + dist + parent
        bytes_per_edge=32.0,    # two arcs x (target + time-stamp)
    )
    series = [
        scaled_sweep(
            profile, inst, POWER_570, P570_CPUS,
            label="time-stamped BFS",
            scale_barriers_with_diameter=True,
        )
    ]

    fig = FigureResult(
        figure="Figure 10",
        title="Time-stamped BFS on IBM Power 570 (500M vertices / 4B edges)",
        series=series,
        notes=(
            f"measured at n=2^{mscale} (m={m0}); reached "
            f"{result.n_reached}/{n0} vertices in {result.n_levels} levels "
            f"from the heaviest vertex"
        ),
        meta={"measured_scale": mscale, "levels": result.n_levels},
    )
    s = fig.get("time-stamped BFS")
    fig.check(
        "~46 s on 16 CPUs (paper: 46 s)",
        20.0 <= s.seconds_at(16) <= 100.0,
        f"{s.seconds_at(16):.1f} s",
    )
    fig.check(
        "speedup ~13.1 on 16 CPUs (paper: 13.1)",
        10.0 <= s.speedup_at(16) <= 15.9,
        f"{s.speedup_at(16):.1f}",
    )
    fig.check(
        "traversal covers the giant component (most of the graph)",
        result.n_reached >= 0.5 * n0,
        f"reached {result.n_reached} of {n0}",
    )
    return fig
