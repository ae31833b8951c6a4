"""Ablation studies for the design choices the paper calls out.

Five sweeps, each probing a sentence of section 2.1 (DESIGN.md lists the
mapping):

* :func:`run_resize_policy` — initial adjacency size ``k`` in the km/n rule
  and the growth factor ("a value of k = 2 performs reasonably well").
* :func:`run_degree_thresh` — the hybrid's migration threshold ("a value of
  32 ... provides a reasonable insertion-deletion performance trade-off").
* :func:`run_stream_order` — sorted vs shuffled update streams ("randomly
  shuffling the updates before scheduling the insertions").
* :func:`run_mix_ratio` — insert:delete ratio crossover between Dyn-arr and
  Hybrid ("for a large proportion of deletions, the performance of
  Hybrid-arr-treap would be better than Dyn-arr").
* :func:`run_compression` — the section 2.1.6 open question: do WebGraph-
  style compression and vertex reordering carry over to these networks?
* :func:`run_connectit_matrix` — the ConnectIt design space
  (:mod:`repro.connectit`): union × compaction variants, and sampled
  sample-finish compositions against the unsampled Shiloach–Vishkin
  baseline.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.core.update_engine import apply_stream, construct
from repro.experiments.common import FigureResult, measured_scale
from repro.generators.rmat import rmat_graph
from repro.generators.streams import (
    deletion_stream,
    insertion_stream,
    mixed_stream,
    semisort,
)
from repro.machine.contention import windowed_hot_stats
from repro.machine.scale import rmat_size_biased_growth
from repro.machine.sim import SimulatedMachine
from repro.machine.spec import ULTRASPARC_T2
from repro.util.seeding import DEFAULT_SEED, make_rng, mix_seed

__all__ = [
    "run_resize_policy",
    "run_degree_thresh",
    "run_stream_order",
    "run_mix_ratio",
    "run_compression",
    "run_delta_sweep",
    "run_connectit_matrix",
]

_T2 = SimulatedMachine(ULTRASPARC_T2)
_FULL = 64


def run_resize_policy(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """Sweep the km/n initial-size multiplier and the growth factor."""
    mscale = measured_scale(14, 11, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m
    rows = []
    for k in (0, 1, 2, 4, 8):
        for growth in (2, 4):
            init = max(1, int(round(k * 2 * m0 / n0))) if k else 1
            rep = DynArrAdjacency(n0, initial_capacity=init, growth_factor=growth)
            res = construct(rep, graph)
            rows.append(
                {
                    "k": k,
                    "growth": growth,
                    "initial": init,
                    "resizes": rep.stats.resize_events,
                    "copied_words": rep.stats.resize_copied_words,
                    "pool_MB": rep.pool.model_bytes() / 1e6,
                    "MUPS@64": _T2.mups_at(res.profile, _FULL, m0),
                }
            )
    fig = FigureResult(
        figure="Ablation A1",
        title="Dyn-arr initial size (km/n) and growth factor",
        rows=rows,
        notes=f"measured construction at n=2^{mscale}",
    )
    by_k = {(r["k"], r["growth"]): r for r in rows}
    fig.check(
        "k=2 roughly minimises resize copies without large slack (paper's pick)",
        by_k[(2, 2)]["copied_words"] < by_k[(0, 2)]["copied_words"]
        and by_k[(2, 2)]["pool_MB"] <= 2.5 * by_k[(0, 2)]["pool_MB"],
        f"k=2 copies {by_k[(2, 2)]['copied_words']} vs k=0 {by_k[(0, 2)]['copied_words']}",
    )
    fig.check(
        "larger k trades memory for fewer resizes monotonically",
        by_k[(8, 2)]["resizes"] <= by_k[(2, 2)]["resizes"] <= by_k[(0, 2)]["resizes"],
    )
    return fig


def run_degree_thresh(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """Sweep the hybrid migration threshold over a construct+delete workload."""
    mscale = measured_scale(13, 11, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m
    k_del = max(1, m0 // 13)  # the paper's 20M/268M proportion
    dels = deletion_stream(graph, k_del, seed=mix_seed(seed, "abl-thresh"))
    rows = []
    for thresh in (8, 16, 32, 64, 128, 256):
        rep = HybridAdjacency(n0, degree_thresh=thresh, seed=seed)
        ins = construct(rep, graph)
        del_res = apply_stream(rep, dels, phase_name="deletions")
        rows.append(
            {
                "degree_thresh": thresh,
                "treap_vertices": rep.n_treap_vertices(),
                "ins_MUPS@64": _T2.mups_at(ins.profile, _FULL, m0),
                "del_MUPS@64": _T2.mups_at(del_res.profile, _FULL, k_del),
            }
        )
    fig = FigureResult(
        figure="Ablation A2",
        title="Hybrid degree_thresh sweep (insert vs delete trade-off)",
        rows=rows,
        notes=f"measured at n=2^{mscale}, {k_del} deletions after construction",
    )
    ins_rates = {r["degree_thresh"]: r["ins_MUPS@64"] for r in rows}
    del_rates = {r["degree_thresh"]: r["del_MUPS@64"] for r in rows}
    fig.check(
        "higher threshold favours insertions (fewer treap vertices)",
        ins_rates[256] >= ins_rates[8] * 0.95,
        f"ins MUPS 256:{ins_rates[256]:.1f} vs 8:{ins_rates[8]:.1f}",
    )
    fig.check(
        "the paper's 32 is within 25% of the best observed delete rate",
        del_rates[32] >= 0.75 * max(del_rates.values()),
        f"del MUPS at 32: {del_rates[32]:.1f}, best {max(del_rates.values()):.1f}",
    )
    return fig


def run_stream_order(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """Generator-order vs shuffled insertion streams: burst contention."""
    mscale = measured_scale(14, 11, quick)
    # Deliberately *unshuffled* generation keeps R-MAT's natural clustering;
    # semi-sorting maximises bursts as the worst case.
    graph = rmat_graph(mscale, 10, seed=seed)
    ordered = insertion_stream(graph)
    sorted_stream, _ = semisort(ordered)
    shuffled = ordered.shuffled(mix_seed(seed, "abl-order"))
    window = max(64, len(ordered) // 64)
    rows = []
    for label, s in (
        ("generator order", ordered),
        ("semi-sorted (worst case)", sorted_stream),
        ("shuffled", shuffled),
    ):
        burst, frac = windowed_hot_stats(s.src, window)
        rows.append(
            {"stream": label, "window": window, "peak_burst": burst, "burst_frac": frac}
        )
    fig = FigureResult(
        figure="Ablation A3",
        title="Update-stream order: time-localised hot-vertex bursts",
        rows=rows,
        notes=(
            "peak single-vertex count within any scheduling window; the "
            "simulated serial floor scales with it"
        ),
    )
    by = {r["stream"]: r for r in rows}
    fig.check(
        "shuffling reduces the peak burst vs vertex-sorted streams",
        by["shuffled"]["peak_burst"] < by["semi-sorted (worst case)"]["peak_burst"],
        f"{by['shuffled']['peak_burst']} vs {by['semi-sorted (worst case)']['peak_burst']}",
    )
    fig.check(
        # R-MAT edges are iid samples, so generator order is already
        # burst-free; the shuffle remedy matters for entity-clustered
        # arrival orders (modelled here by the semi-sorted stream).
        "generator order is near-shuffled for iid R-MAT streams",
        by["generator order"]["peak_burst"] <= 3 * by["shuffled"]["peak_burst"],
        f"{by['generator order']['peak_burst']} vs {by['shuffled']['peak_burst']}",
    )
    return fig


def run_compression(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """Compressed adjacency + vertex reordering (paper's open question, §2.1.6).

    Compares a full adjacency scan (the edge pass of a traversal) over plain
    CSR vs gap+interval-compressed CSR, in original and BFS-reordered vertex
    orders, on the simulated T2: compression shrinks the footprint (cache
    benefit) at the price of per-byte decode ALU work, and reordering
    shrinks the gaps compression encodes.
    """
    from repro.adjacency.compressed import CompressedCSR
    from repro.adjacency.csr import build_csr
    from repro.adjacency.reorder import apply_order, bfs_order, locality_gap
    from repro.machine.profile import Phase

    mscale = measured_scale(13, 11, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    rng = make_rng(mix_seed(seed, "abl-compress"))
    scrambled = apply_order(graph, rng.permutation(graph.n))
    csr = build_csr(scrambled)
    reordered = apply_order(scrambled, bfs_order(csr))
    csr_re = build_csr(reordered)

    def csr_scan_phase(c) -> Phase:
        return Phase(
            name="csr-scan",
            alu_ops=6.0 * c.n_arcs,
            seq_bytes=8.0 * c.n_arcs,
            rand_accesses=float(c.n_arcs),
            footprint_bytes=float(c.memory_bytes()),
            barriers=2.0,
        )

    rows = []
    for label, phase, mem, bits in (
        ("CSR (scrambled)", csr_scan_phase(csr), csr.memory_bytes(), 64.0),
        (
            "Compressed (scrambled)",
            CompressedCSR.from_csr(csr).scan_phase(),
            CompressedCSR.from_csr(csr).memory_bytes(),
            CompressedCSR.from_csr(csr).bits_per_arc(),
        ),
        (
            "Compressed (BFS order)",
            CompressedCSR.from_csr(csr_re).scan_phase(),
            CompressedCSR.from_csr(csr_re).memory_bytes(),
            CompressedCSR.from_csr(csr_re).bits_per_arc(),
        ),
    ):
        from repro.machine.profile import WorkProfile

        prof = WorkProfile("scan", (phase,))
        rows.append(
            {
                "representation": label,
                "bits_per_arc": bits,
                "mem_MB": mem / 1e6,
                "scan_us@64thr": _T2.time(prof, _FULL) * 1e6,
            }
        )
    fig = FigureResult(
        figure="Ablation A5",
        title="Compressed adjacency + reordering (open question, section 2.1.6)",
        rows=rows,
        notes=(
            f"R-MAT n=2^{mscale}, full adjacency scan; locality gap "
            f"{locality_gap(scrambled):.0f} scrambled vs "
            f"{locality_gap(reordered):.0f} BFS-reordered"
        ),
    )
    by = {r["representation"]: r for r in rows}
    fig.check(
        "gap+interval compression beats 64-bit CSR storage substantially",
        by["Compressed (scrambled)"]["bits_per_arc"] < 32.0,
        f"{by['Compressed (scrambled)']['bits_per_arc']:.1f} bits/arc",
    )
    fig.check(
        "BFS reordering improves the compression ratio further",
        by["Compressed (BFS order)"]["bits_per_arc"]
        < by["Compressed (scrambled)"]["bits_per_arc"],
        f"{by['Compressed (BFS order)']['bits_per_arc']:.1f} vs "
        f"{by['Compressed (scrambled)']['bits_per_arc']:.1f} bits/arc",
    )
    fig.check(
        "compressed footprint is at least 2x smaller",
        by["Compressed (scrambled)"]["mem_MB"] < 0.5 * by["CSR (scrambled)"]["mem_MB"],
        f"{by['Compressed (scrambled)']['mem_MB']:.2f} vs "
        f"{by['CSR (scrambled)']['mem_MB']:.2f} MB",
    )
    return fig


def run_delta_sweep(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """Δ-stepping bucket-width sweep (the [19]-lineage SSSP tuning story).

    Small Δ degenerates toward Dijkstra (many buckets, many barriers, little
    per-phase parallelism); huge Δ degenerates toward Bellman–Ford (few
    buckets, redundant re-relaxations).  The sweep shows the simulated-T2
    sweet spot sitting near the mean edge weight — the standard heuristic
    this library defaults to.
    """
    from dataclasses import replace as dc_replace

    from repro.adjacency.csr import build_csr
    from repro.core.sssp import delta_stepping

    mscale = measured_scale(12, 10, quick)
    graph = rmat_graph(mscale, 8, seed=seed)
    rng = make_rng(mix_seed(seed, "abl-delta"))
    weighted = dc_replace(graph, w=rng.integers(1, 33, graph.m, dtype=np.int64))
    csr = build_csr(weighted)
    source = int(np.argmax(csr.degrees()))

    rows = []
    for delta in (1, 4, 16, 64, 256):
        res = delta_stepping(csr, source, delta=delta)
        rows.append(
            {
                "delta": delta,
                "buckets": res.buckets_processed,
                "light_phases": res.light_phases,
                "relaxations": res.relaxations,
                "sim_ms@64": _T2.time(res.profile, _FULL) * 1e3,
            }
        )
    fig = FigureResult(
        figure="Ablation A6",
        title="Delta-stepping bucket width (Dijkstra <-> Bellman-Ford spectrum)",
        rows=rows,
        notes=(
            f"R-MAT n=2^{mscale}, weights uniform [1,32] (mean ~16), "
            f"source = heaviest vertex"
        ),
    )
    by = {r["delta"]: r for r in rows}
    fig.check(
        "bucket count falls monotonically with delta",
        by[1]["buckets"] >= by[16]["buckets"] >= by[256]["buckets"],
        f"{by[1]['buckets']} -> {by[16]['buckets']} -> {by[256]['buckets']}",
    )
    fig.check(
        "redundant relaxations grow for Bellman-Ford-sized delta",
        by[256]["relaxations"] >= by[16]["relaxations"],
        f"{by[256]['relaxations']} vs {by[16]['relaxations']}",
    )
    best = min(rows, key=lambda r: r["sim_ms@64"])
    fig.check(
        "the simulated sweet spot sits away from both extremes",
        best["delta"] in (4, 16, 64),
        f"best delta = {best['delta']} ({best['sim_ms@64']:.2f} ms)",
    )
    return fig


def run_connectit_matrix(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """The ConnectIt variant grid: union × compaction × sampling on R-MAT.

    Two sub-grids share one table.  The *unsampled* grid (every union rule
    crossed with every compaction rule, moderate scale) characterises the
    pointer-chase economics of the union-find variants themselves.  The
    *sampled* grid (k-out and BFS sampling over two finish variants, the
    paper-regime scale) measures how much union work the sample-finish
    composition removes relative to the unsampled Shiloach–Vishkin kernel —
    ConnectIt's headline claim, asserted here as a >= 3x reduction.  Every
    spec is named in full: the grid's ``rank/halving`` row is the unsampled
    baseline ``ConnectItSpec(sampling="none")``, and ``bfs+rank/halving`` is
    the library default ``ConnectItSpec()``.
    """
    from repro.adjacency.csr import build_csr
    from repro.connectit import ConnectItSpec, connect_components, variant_matrix
    from repro.core.components import connected_components

    rows = []

    # Sub-grid 1: every union x compaction variant, unsampled.
    vscale = measured_scale(13, 10, quick)
    vgraph = rmat_graph(vscale, 8, seed=seed)
    vcsr = build_csr(vgraph)
    for spec in variant_matrix(samplings=("none",)):
        res = connect_components(vcsr, spec)
        c = res.counters
        rows.append(
            {
                "grid": "variants",
                "variant": spec.name,
                "scale": vscale,
                "unions": c.unions,
                "chases": c.pointer_chases,
                "chases/union": c.pointer_chases / max(1, c.unions),
                "atomics": c.atomics,
                "sim_ms@64": _T2.time(res.profile(), _FULL) * 1e3,
            }
        )

    # Sub-grid 2: sampled compositions vs the Shiloach-Vishkin baseline.
    sscale = measured_scale(16, 12, quick)
    sgraph = rmat_graph(sscale, 10, seed=seed)
    scsr = build_csr(sgraph)
    sv = connected_components(scsr)
    rows.append(
        {
            "grid": "sampled",
            "variant": "shiloach-vishkin (baseline)",
            "scale": sscale,
            "unions": sv.arcs_processed,
            "giant_frac": float(np.max(sv.sizes()) / scsr.n),
            "sim_ms@64": _T2.time(sv.profile(scsr), _FULL) * 1e3,
        }
    )
    sampled_unions = {}
    for spec in (
        ConnectItSpec(sampling="kout", union_rule="rank", compaction="halving"),
        ConnectItSpec(sampling="kout", union_rule="rem", compaction="splitting"),
        ConnectItSpec(sampling="bfs", union_rule="rank", compaction="halving"),
        ConnectItSpec(sampling="bfs", union_rule="size", compaction="full"),
    ):
        res = connect_components(scsr, spec)
        assert np.array_equal(res.labels, sv.labels)
        c = res.counters
        sampled_unions[spec.name] = c.unions
        rows.append(
            {
                "grid": "sampled",
                "variant": spec.name,
                "scale": sscale,
                "unions": c.unions,
                "sv_unions/unions": sv.arcs_processed / max(1, c.unions),
                "finish_arcs": res.meta["finish_arcs"],
                "giant_frac": res.sample.giant_fraction,
                "sim_ms@64": _T2.time(res.profile(), _FULL) * 1e3,
            }
        )

    fig = FigureResult(
        figure="Ablation A7",
        title="ConnectIt variant matrix: union x compaction x sampling",
        rows=rows,
        notes=(
            f"unsampled grid at n=2^{vscale}; sampled compositions vs "
            f"Shiloach-Vishkin at n=2^{sscale} (SV 'unions' = arc hook attempts)"
        ),
    )
    by_variant = {r["variant"]: r for r in rows if r["grid"] == "variants"}
    worst_ratio = max(
        sv.arcs_processed / max(1, u) for u in sampled_unions.values()
    )
    fig.check(
        "every sampled composition does >= 3x fewer union ops than unsampled SV",
        all(sv.arcs_processed >= 3 * u for u in sampled_unions.values()),
        f"SV {sv.arcs_processed} attempts; sampled "
        + ", ".join(f"{k}: {v}" for k, v in sampled_unions.items()),
    )
    fig.check(
        "sampling resolves the giant component (>= half the vertices) cheaply",
        all(
            r["giant_frac"] >= 0.5
            for r in rows
            if r["grid"] == "sampled" and "baseline" not in r["variant"]
        ),
        f"best reduction {worst_ratio:.0f}x",
    )
    fig.check(
        "Rem's splicing union does the fewest pointer chases (no explicit finds)",
        by_variant["rem/halving"]["chases"]
        <= min(by_variant["rank/halving"]["chases"], by_variant["size/halving"]["chases"]),
        f"rem {by_variant['rem/halving']['chases']}, "
        f"rank {by_variant['rank/halving']['chases']}, "
        f"size {by_variant['size/halving']['chases']}",
    )
    fig.check(
        # Balanced unions keep trees flat, so compaction never gets long
        # paths to shorten — chases stay O(1)/union across the whole grid
        # (the inverse-Ackermann regime ConnectIt observes in practice).
        "every variant stays in the O(1) chases-per-union regime",
        all(r["chases/union"] <= 8.0 for r in rows if r["grid"] == "variants"),
        f"max chases/union {max(r['chases/union'] for r in rows if r['grid'] == 'variants'):.2f}",
    )
    return fig


def run_mix_ratio(quick: bool = False, seed: int = DEFAULT_SEED) -> FigureResult:
    """Insert-fraction sweep: where does Hybrid overtake Dyn-arr?

    Uses degree-biased deletions of existing edges with the size-biased
    probe growth to the paper's 33.5M scale (the Figure 5 regime), so the
    crossover reflects full-scale behaviour.
    """
    mscale = measured_scale(13, 11, quick)
    graph = rmat_graph(mscale, 10, seed=seed)
    n0, m0 = graph.n, graph.m
    probe_growth = rmat_size_biased_growth(mscale, 25)
    k_upd = max(8, m0 // 5)
    rows = []
    for frac in (0.95, 0.75, 0.5, 0.25, 0.05):
        stream = mixed_stream(
            graph, k_upd, frac, seed=mix_seed(seed, "abl-mix", int(frac * 100))
        )
        rates = {}
        for label, rep in (
            ("dynarr", DynArrAdjacency(n0, expected_m=2 * m0)),
            ("hybrid", HybridAdjacency(n0, seed=seed)),
        ):
            construct(rep, graph)
            res = apply_stream(
                rep, stream, phase_name="mixed",
                probe_scale=probe_growth if label == "dynarr" else 1.0,
            )
            rates[label] = _T2.mups_at(res.profile, _FULL, k_upd)
        rows.append(
            {
                "insert_frac": frac,
                "dynarr_MUPS@64": rates["dynarr"],
                "hybrid_MUPS@64": rates["hybrid"],
                "hybrid/dynarr": rates["hybrid"] / rates["dynarr"],
            }
        )
    fig = FigureResult(
        figure="Ablation A4",
        title="Insert:delete ratio crossover, Dyn-arr vs Hybrid (at 33.5M scale)",
        rows=rows,
        notes=f"measured at n=2^{mscale}, {k_upd} updates, probe growth x{probe_growth:.0f}",
    )
    first, last = rows[0], rows[-1]
    fig.check(
        "hybrid's advantage grows as the deletion share grows (paper's claim)",
        last["hybrid/dynarr"] > first["hybrid/dynarr"],
        f"ratio {first['hybrid/dynarr']:.2f} at 95% ins -> {last['hybrid/dynarr']:.2f} at 5% ins",
    )
    fig.check(
        "hybrid wins outright for deletion-heavy streams",
        last["hybrid/dynarr"] > 1.5,
        f"{last['hybrid/dynarr']:.2f}x at 5% insertions",
    )
    return fig
