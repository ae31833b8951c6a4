"""Figure 5 — deletions: Dyn-arr vs Treaps vs Hybrid-arr-treap.

Paper setup: construct the 33.5M / 268M R-MAT network, then time 20 million
random deletions on UltraSPARC T2.  Reported shape: "the real benefit of
using the hybrid representation is seen for deletions, where
Hybrid-arr-treap is almost 20x faster than the dynamic array
representation.  Hybrid-arr-treap is also significantly faster than Treaps."

The mechanism reproduces from measured quantities: Dyn-arr deletions scan
the victim vertex's whole block (edge endpoints are degree-biased, so the
expected scan is the size-biased mean degree — huge under a power law),
while the hybrid's high-degree vertices live in treaps with logarithmic
deletes.  Hybrid beats pure Treaps because the abundant low-degree deletes
stay on short array scans without lock overhead.
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
from repro.generators.streams import deletion_stream
from repro.machine.scale import ScaledInstance, rmat_size_biased_growth
from repro.machine.spec import ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED, mix_seed

__all__ = ["run", "TARGET_DELETES"]

TARGET_DELETES = 20_000_000
TARGET_SCALE = 25


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    mscale = measured_scale(14, 11, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m
    # Same deletion fraction as the paper: 20M of 268M edges.
    k_del = max(1, int(round(m0 * TARGET_DELETES / TARGET_M)))
    dels = deletion_stream(graph, k_del, seed=mix_seed(seed, "fig05-deletes"))

    # Dyn-arr probe scans grow with the size-biased mean degree between the
    # measured and target scales (analytically 1.25^Δk for the paper's R-MAT
    # parameters — see rmat_size_biased_growth); the hybrid's array scans
    # stay bounded by degree_thresh and treap depths grow only
    # logarithmically, which is the entire Figure 5 story.
    probe_growth = rmat_size_biased_growth(mscale, TARGET_SCALE)

    series = []
    for label, rep in make_reps(n0, 2 * m0, seed):
        construct(rep, graph)
        res = apply_stream(
            rep,
            dels,
            phase_name="deletions",
            probe_scale=probe_growth if label == "Dyn-arr" else 1.0,
        )
        bpv, bpe = footprint_coefficients(rep, n0, 2 * m0)
        inst = ScaledInstance(
            n_measured=n0, m_measured=m0,
            n_target=TARGET_N, m_target=TARGET_M,
            ops_measured=k_del, ops_target=TARGET_DELETES,
            bytes_per_vertex=bpv, bytes_per_edge=2 * bpe,
        )
        series.append(
            scaled_sweep(
                res.profile, inst, ULTRASPARC_T2, T2_THREADS,
                n_items=TARGET_DELETES, label=label,
                logdeg_correction=(label != "Dyn-arr"),
            )
        )

    fig = FigureResult(
        figure="Figure 5",
        title="Deletion MUPS after construction: Dyn-arr vs Treaps vs Hybrid, T2",
        series=series,
        notes=(
            f"measured at n=2^{mscale} with {k_del} deletions "
            f"(paper ratio: 20M of 268M edges)"
        ),
        meta={"measured_scale": mscale, "k_del": k_del},
    )
    da = fig.get("Dyn-arr")
    tr = fig.get("Treaps")
    hy = fig.get("Hybrid-arr-treap")
    ratio = hy.mups_at(64) / da.mups_at(64)
    fig.check(
        "Hybrid ~20x faster than Dyn-arr for deletions (paper: 'almost 20x')",
        6.0 <= ratio <= 60.0,
        f"measured ratio {ratio:.1f}",
    )
    fig.check(
        # Direction reproduces; the paper's margin is wider ("significantly
        # faster") — our model attributes most of a deletion's cost to shared
        # memory latency, which both tree structures pay alike.  Recorded as
        # a known magnitude delta in EXPERIMENTS.md.
        "Hybrid faster than Treaps for deletions (paper: 'significantly')",
        hy.mups_at(64) > 1.02 * tr.mups_at(64),
        f"{hy.mups_at(64):.1f} vs {tr.mups_at(64):.1f} MUPS",
    )
    fig.check(
        "Treaps beat Dyn-arr for deletions (log vs linear scans)",
        tr.mups_at(64) > da.mups_at(64),
        f"{tr.mups_at(64):.1f} vs {da.mups_at(64):.1f} MUPS",
    )
    return fig
