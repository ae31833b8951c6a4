#!/usr/bin/env python
"""Incremental connectivity: maintain, don't recompute.

The point of the paper's section 3.1 — "a dynamic graph algorithm should
process queries related to a graph property faster than recomputing from
scratch, and also perform topological updates quickly" — demonstrated
head-to-head: a :class:`ConnectivityIndex` whose link-cut forest
:meth:`~ConnectivityIndex.apply_batch` keeps in sync with the adjacency
structure, versus a twin graph that applies the same batches and rebuilds
the spanning forest from a snapshot after every one.

Run:  python examples/incremental_connectivity.py
"""

from __future__ import annotations

import numpy as np

from repro.api import DynamicGraph
from repro.core.connectivity import ConnectivityIndex
from repro.generators.rmat import rmat_graph
from repro.generators.streams import iter_batches, mixed_stream
from repro.util.seeding import make_rng
from repro.util.timing import Timer

SCALE = 14
BATCHES = 12
BATCH_SIZE = 1024


def main() -> None:
    base = rmat_graph(SCALE, 8, seed=123).without_self_loops()
    stream = mixed_stream(base, BATCHES * BATCH_SIZE, 0.6, seed=7)
    rng = make_rng(42)

    # --- incremental index -------------------------------------------------
    with Timer() as t_build:
        index = ConnectivityIndex.from_rep(DynamicGraph.from_edgelist(base, seed=1).rep)
    twin = DynamicGraph.from_edgelist(base, seed=1)
    print(f"base graph: {base}")
    print(f"incremental index built in {t_build.elapsed:.2f}s "
          f"({index.forest.n_trees()} components)\n")

    print(f"{'batch':>6} {'edges':>7} {'comps':>6} {'incr ms':>8} "
          f"{'rebuild ms':>11} {'agree':>6}")
    total_incr = total_rebuild = 0.0
    for i, batch in enumerate(iter_batches(stream, BATCH_SIZE)):
        queries = rng.integers(0, base.n, (50, 2))
        with Timer() as t_incr:
            index.apply_batch(batch)
            incr_answers = index.forest.connected_batch(queries[:, 0], queries[:, 1])
        with Timer() as t_rebuild:
            twin.apply(batch)
            rebuilt = ConnectivityIndex.from_csr(twin.snapshot())
            rebuild_answers = rebuilt.forest.connected_batch(queries[:, 0], queries[:, 1])
        agree = bool(np.array_equal(incr_answers, rebuild_answers))
        assert agree, f"divergence at batch {i}"
        total_incr += t_incr.elapsed
        total_rebuild += t_rebuild.elapsed
        print(f"{i:>6} {index.rep.n_arcs // 2:>7} {index.forest.n_trees():>6} "
              f"{1e3 * t_incr.elapsed:>8.1f} {1e3 * t_rebuild.elapsed:>11.1f} "
              f"{'yes' if agree else 'NO'}")

    index.validate()
    s = index.stats
    print(f"\nmaintenance stats: {s.tree_links} links, {s.tree_cuts} cuts, "
          f"{s.replacements_found} replacements found, "
          f"{s.replacement_scan_arcs} arcs read by the smaller-side searches")
    speedup = total_rebuild / total_incr if total_incr else float("inf")
    print(f"host time: incremental {total_incr:.2f}s vs rebuild "
          f"{total_rebuild:.2f}s per-batch ({speedup:.1f}x)")
    print("(the simulated-machine gap is far larger: a rebuild is a full "
          "components+BFS pass, an increment is O(depth) pointer work)")


if __name__ == "__main__":
    main()
