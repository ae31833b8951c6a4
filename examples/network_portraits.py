#!/usr/bin/env python
"""Network portraits: the small-world fingerprint across graph models.

The paper's premise (section 1): real-world networks share "a low graph
diameter, unbalanced degree distributions, self-similarity, and the presence
of dense sub-graphs", and algorithms should exploit that topology.  This
example measures degree skew, effective diameter, clustering and the giant
component — the statistics ``repro stats`` prints — on three classical
models: R-MAT (the paper's generator), Watts–Strogatz (the small-world
original) and Erdős–Rényi (the unstructured control).  It shows why the
R-MAT column is the one that stresses dynamic structures.

Run:  python examples/network_portraits.py
"""

from __future__ import annotations

from repro.adjacency.csr import build_csr
from repro.core.metrics import (
    average_clustering,
    degree_stats,
    effective_diameter,
    giant_component_fraction,
)
from repro.generators.reference import erdos_renyi, watts_strogatz
from repro.generators.rmat import rmat_graph

N_SCALE = 11  # 2048 vertices
AVG_DEG = 8


def portrait(name, graph):
    csr = build_csr(graph)
    stats = degree_stats(csr)
    eff, _ = effective_diameter(csr, samples=8, seed=1)
    cc = average_clustering(csr, samples=min(300, csr.n), seed=1)
    return {
        "model": name,
        "max_deg": stats.max,
        "mean_deg": round(stats.mean, 1),
        "top1%_arcs": f"{100 * stats.top1pct_arc_share:.0f}%",
        "eff_diam": round(eff, 1),
        "clustering": round(cc, 3),
        "giant%": f"{100 * giant_component_fraction(csr):.0f}%",
    }


def main() -> None:
    n = 1 << N_SCALE
    graphs = [
        ("R-MAT (paper)", rmat_graph(N_SCALE, AVG_DEG // 2 * 2, seed=7)),
        ("Watts-Strogatz", watts_strogatz(n, AVG_DEG, 0.1, seed=7)),
        ("Erdos-Renyi", erdos_renyi(n, AVG_DEG / (n - 1), seed=7)),
    ]
    rows = [portrait(name, g) for name, g in graphs]
    cols = list(rows[0].keys())
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print(" ".join(c.rjust(widths[c]) for c in cols))
    for r in rows:
        print(" ".join(str(r[c]).rjust(widths[c]) for c in cols))

    print(
        "\nreading the table: the R-MAT column pairs a tiny effective "
        "diameter with an extreme\ndegree skew (one hub can hold a double-"
        "digit share of all arcs) — the combination the\npaper's hybrid "
        "structure (hot vertices in treaps) and degree-split BFS exist for.\n"
        "Watts-Strogatz is small-world but degree-balanced; Erdos-Renyi is "
        "neither skewed nor\nclustered, which is why static CSR handles it "
        "without any of the paper's machinery."
    )


if __name__ == "__main__":
    main()
