"""Figure 3 — insertion strategies: Dyn-arr-nr vs batched bound vs Vpart/Epart.

Paper setup: insert-only updates for a 33.5M / 268M R-MAT graph on 8 cores
of UltraSPARC T2 and T1; the batched series is the *upper bound* obtained
from the semi-sorting time alone.  Reported shape: "Dyn-arr outperforms the
batched representation, as well as Epart and Vpart.  The trends on
UltraSPARC T2 and UltraSPARC T1 are similar."
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.batch import semisort_phase
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.vpart import VPartAdjacency
from repro.core.update_engine import construct
from repro.experiments.common import (
    FigureResult,
    SeriesSpec,
    T1_THREADS,
    T2_THREADS,
    footprint_coefficients,
    measured_scale,
    scaled_sweep,
)
from repro.generators.rmat import rmat_graph
from repro.machine.profile import WorkProfile
from repro.machine.scale import ScaledInstance
from repro.machine.sim import SimulatedMachine
from repro.machine.spec import ULTRASPARC_T1, ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED

__all__ = ["run"]

TARGET_N = 1 << 25
TARGET_M = 268_000_000


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(15, 12, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m
    deg = np.bincount(graph.src, minlength=n0) + np.bincount(graph.dst, minlength=n0)

    def instance(bpv: float, bpe: float) -> ScaledInstance:
        return ScaledInstance(
            n_measured=n0, m_measured=m0,
            n_target=TARGET_N, m_target=TARGET_M,
            ops_measured=m0, ops_target=TARGET_M,
            bytes_per_vertex=bpv, bytes_per_edge=2 * bpe,
        )

    series: list[SeriesSpec] = []
    host = {}
    for machine, threads in ((ULTRASPARC_T2, T2_THREADS), (ULTRASPARC_T1, T1_THREADS)):
        tag = "T2" if machine is ULTRASPARC_T2 else "T1"
        for label, rep in (
            ("Dyn-arr-nr", DynArrAdjacency.preallocated(n0, deg)),
            ("Vpart", VPartAdjacency(n0, expected_m=2 * m0)),
            ("Epart", EPartAdjacency(n0, expected_m=2 * m0)),
        ):
            res = construct(rep, graph)
            host[f"{label} ({tag})"] = {
                "host_seconds": res.host_seconds,
                "host_mups": res.profile.meta.get("host_mups", 0.0),
                "vectorised": res.meta.get("vectorised", False),
            }
            bpv, bpe = footprint_coefficients(rep, n0, 2 * m0)
            series.append(
                scaled_sweep(
                    res.profile, instance(bpv, bpe), machine, threads,
                    n_items=TARGET_M, label=f"{label} ({tag})",
                )
            )
        # Batched upper bound: the semi-sort alone, at target size directly.
        sort_profile = WorkProfile(
            "semisort-bound",
            (semisort_phase(2 * TARGET_M, TARGET_N),),
            meta={"n": TARGET_N, "updates": TARGET_M},
        )
        sim = SimulatedMachine(machine)
        series.append(
            SeriesSpec(
                label=f"Batched bound ({tag})",
                result=sim.sweep(sort_profile, threads, n_items=TARGET_M),
            )
        )

    fig = FigureResult(
        figure="Figure 3",
        title="Insertion strategies on 8 cores: Dyn-arr-nr vs batched/Vpart/Epart",
        series=series,
        notes=f"measured at n=2^{mscale}; batched series is the semi-sort lower-bound cost",
        meta={"measured_scale": mscale, "host": host},
    )

    for tag, full in (("T2", 64), ("T1", 32)):
        da = fig.get(f"Dyn-arr-nr ({tag})")
        for other in (f"Batched bound ({tag})", f"Vpart ({tag})", f"Epart ({tag})"):
            o = fig.get(other)
            fig.check(
                f"Dyn-arr-nr beats {other} at {full} threads (paper: Dyn-arr wins)",
                da.mups_at(full) > o.mups_at(full),
                f"{da.mups_at(full):.1f} vs {o.mups_at(full):.1f} MUPS",
            )
    t2 = fig.get("Dyn-arr-nr (T2)")
    t1 = fig.get("Dyn-arr-nr (T1)")
    fig.check(
        "trends on T2 and T1 are similar (both scale well)",
        t2.speedup_at(64) > 15 and t1.speedup_at(32) > 10,
        f"T2 speedup {t2.speedup_at(64):.1f}, T1 speedup {t1.speedup_at(32):.1f}",
    )
    vp = fig.get("Vpart (T2)")
    fig.check(
        "Vpart scaling flattens at high thread counts (replicated reads)",
        vp.speedup_at(64) < t2.speedup_at(64),
        f"Vpart {vp.speedup_at(64):.1f} vs Dyn-arr-nr {t2.speedup_at(64):.1f}",
    )
    return fig
