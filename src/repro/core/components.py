"""Connected components (paper section 3.1, building on Bader, Cong & Feo).

A vectorised Shiloach–Vishkin-style label-propagation algorithm: every pass
hooks each vertex's label to the minimum label among its neighbours, then
pointer-jumps all label chains to their roots.  Small-world graphs converge
in a handful of passes; each pass is a simulated parallel phase with a
barrier.

CSR rows are sorted by owner, so the hook is a segmented minimum: one
gather of the labels at every arc's target and one ``np.minimum.reduceat``
over the rows of non-zero degree (:func:`hook_rows`) — a dense pull over
the graph, with no concurrent write.  On a snapshot stamped
:attr:`~repro.adjacency.csr.CSRGraph.symmetric` a vertex's out-arcs are its
in-arcs, so that is the whole sweep; any other CSR also scatters each
label along its arcs (``np.minimum.at``), the PRAM concurrent-min write.
:func:`hook_min_labels`, which scatters both ways over every arc, is the
reference the tests hold the sweep to.

The labels returned are canonical: every vertex carries the smallest vertex
id of its component, so a component's root is the one vertex whose label
is itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.machine.profile import Phase, WorkProfile

__all__ = [
    "ComponentsResult",
    "component_roots",
    "component_sizes",
    "connected_components",
    "hook_and_jump",
    "hook_min_labels",
    "hook_rows",
    "row_runs",
]

_ALU_PER_ARC = 6.0
_ALU_PER_JUMP = 4.0
_INT32_IDS = 1 << 31  # vertex counts whose ids fit in int32


@dataclass
class ComponentsResult:
    """Component labels plus the statistics of the run.

    ``labels[v]`` is the minimum vertex id in v's component, so the roots
    are the fixed points ``labels[v] == v`` and the summaries below need no
    sort.
    """

    labels: np.ndarray
    n_passes: int
    jump_rounds: int
    arcs_processed: int
    meta: dict = field(default_factory=dict)

    @property
    def n_components(self) -> int:
        return int(component_roots(self.labels).size)

    def sizes(self) -> np.ndarray:
        """Component sizes, aligned with :meth:`roots` order."""
        return component_sizes(self.labels, self.roots())

    def roots(self) -> np.ndarray:
        """Canonical root (minimum vertex id) of each component, ascending."""
        return component_roots(self.labels)

    def largest(self) -> tuple[int, int]:
        """(root, size) of the largest component (the smallest root on a tie)."""
        roots = self.roots()
        sizes = component_sizes(self.labels, roots)
        i = int(np.argmax(sizes))
        return int(roots[i]), int(sizes[i])

    def same_component(self, u: int, v: int) -> bool:
        return bool(self.labels[u] == self.labels[v])

    def profile(self, graph: CSRGraph, name: str = "components") -> WorkProfile:
        """Simulated work: per pass, one hooking sweep + pointer jumping."""
        footprint = float(graph.memory_bytes() + self.labels.nbytes)
        phases = []
        for i in range(self.n_passes):
            phases.append(
                Phase(
                    name=f"pass{i}",
                    alu_ops=_ALU_PER_ARC * graph.n_arcs + _ALU_PER_JUMP * graph.n,
                    # Hooking reads both endpoints' labels (scattered) and
                    # performs a concurrent-min write; jumping chases labels.
                    rand_accesses=float(2 * graph.n_arcs + 2 * graph.n),
                    seq_bytes=16.0 * graph.n_arcs,
                    footprint_bytes=footprint,
                    atomics=float(graph.n_arcs),  # concurrent-min CAS per arc
                    barriers=2.0,
                )
            )
        return WorkProfile(
            name,
            tuple(phases),
            meta={"n": graph.n, "arcs": graph.n_arcs, "passes": self.n_passes, **self.meta},
        )


def component_roots(labels: np.ndarray) -> np.ndarray:
    """The roots of canonical ``labels``, ascending: O(n), no sort."""
    return np.flatnonzero(labels == np.arange(labels.size))


def component_sizes(labels: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Sizes of the components rooted at ``roots`` under canonical ``labels``."""
    return np.bincount(labels)[roots]


def hook_min_labels(prev: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One hooking sweep: concurrent min of ``prev`` over both arc directions
    (CSR snapshots here store both arcs of an undirected edge, but guard for
    one-directional inputs by propagating both ways)."""
    labels = prev.copy()
    np.minimum.at(labels, src, prev[dst])
    np.minimum.at(labels, dst, prev[src])
    return labels


def row_runs(offsets: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, starts)``: the rows owning arcs ``lo..hi-1``, ascending, and
    where each row's run of those arcs starts, counted from ``lo``.

    The first and last row may own only part of their arcs; rows owning
    none are left out, so ``starts`` rises strictly.
    """
    first = int(np.searchsorted(offsets, lo, side="right")) - 1
    last = int(np.searchsorted(offsets, hi, side="left"))
    bounds = np.clip(offsets[first : last + 1], lo, hi)
    owning = np.flatnonzero(bounds[1:] != bounds[:-1])
    return first + owning, bounds[owning] - lo


def hook_rows(
    prev: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    dst: np.ndarray,
    symmetric: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One hooking sweep over an arc range: ``(idx, val)``, the labels it lowers.

    ``dst`` are the range's targets and ``rows`` / ``starts`` its
    :func:`row_runs`.  Each row takes the minimum of ``prev`` over its
    targets, one ``minimum.reduceat``.  On a symmetric CSR every arc's
    reverse is some row's arc too, so that is the sweep and ``idx`` is
    ``rows`` where they improved; otherwise each arc's source label is also
    scattered onto its target.  ``idx`` ascends without repeats and ``val <
    prev[idx]``; over all arcs, ``prev`` with ``idx`` set to ``val`` equals
    :func:`hook_min_labels`.
    """
    # Labels are vertex ids: gathered as int32 where n allows, the gather
    # writes half the bytes (2.5x faster than int64 at scale 16 on a 2-vCPU
    # Xeon container).
    narrow = prev.astype(np.int32) if prev.size <= _INT32_IDS else prev
    low = np.minimum.reduceat(narrow[dst], starts)
    if symmetric:
        hit = low < prev[rows]
        return rows[hit], low[hit].astype(np.int64)
    labels = prev.copy()
    labels[rows] = np.minimum(prev[rows], low)
    np.minimum.at(labels, dst, prev[np.repeat(rows, np.diff(starts, append=dst.size))])
    idx = np.flatnonzero(labels != prev)
    return idx, labels[idx]


def hook_and_jump(
    n: int, hook: Callable[[np.ndarray], np.ndarray], n_arcs: int, max_passes: int | None
) -> tuple[np.ndarray, int, int, int]:
    """The pass loop: ``hook`` the labels, pointer-jump, until a fixed point.

    ``hook(prev)`` is one hooking sweep over all ``n_arcs`` arcs, in process
    or on a pool.  Returns ``(labels, passes, jump_rounds, arcs_processed)``.
    """
    labels = np.arange(n, dtype=np.int64)
    limit = max_passes if max_passes is not None else 2 * int(np.ceil(np.log2(n + 1))) + 4
    passes = 0
    jumps = 0
    while True:
        passes += 1
        prev = labels
        labels = hook(prev)
        # Pointer jumping until every label is a fixed point.
        while True:
            jumped = labels[labels]
            jumps += 1
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, prev) or passes >= limit:
            return labels, passes, jumps, 2 * n_arcs * passes


def connected_components(graph: CSRGraph, *, max_passes: int | None = None) -> ComponentsResult:
    """Label every vertex with its component's minimum vertex id.

    ``max_passes`` is a safety valve for adversarial graphs; label
    propagation with full pointer jumping converges in O(log n) passes.
    Each pass is one :func:`hook_rows` over all arcs.
    """
    n = graph.n
    if n == 0:
        return ComponentsResult(np.arange(0, dtype=np.int64), 0, 0, 0)
    dst = graph.targets
    rows, starts = row_runs(graph.offsets, 0, dst.size)
    symmetric = graph.symmetric

    def hook(prev: np.ndarray) -> np.ndarray:
        idx, val = hook_rows(prev, rows, starts, dst, symmetric)
        labels = prev.copy()
        labels[idx] = val
        return labels

    labels, passes, jumps, arcs = hook_and_jump(n, hook, int(dst.size), max_passes)
    return ComponentsResult(labels, passes, jumps, arcs)
