"""Connected components (paper section 3.1, building on Bader, Cong & Feo).

A vectorised Shiloach–Vishkin-style label-propagation algorithm: every pass
hooks each vertex's label to the minimum label among its neighbours
(``np.minimum.at`` — the PRAM concurrent-min write), then pointer-jumps all
label chains to their roots.  Small-world graphs converge in a handful of
passes; each pass is a simulated parallel phase with a barrier.

The labels returned are canonical: every vertex carries the smallest vertex
id of its component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.machine.profile import Phase, WorkProfile

__all__ = ["ComponentsResult", "connected_components", "hook_min_labels", "hook_and_jump"]

_ALU_PER_ARC = 6.0
_ALU_PER_JUMP = 4.0


@dataclass
class ComponentsResult:
    """Component labels plus the statistics of the run.

    ``labels[v]`` is the minimum vertex id in v's component.
    """

    labels: np.ndarray
    n_passes: int
    jump_rounds: int
    arcs_processed: int
    meta: dict = field(default_factory=dict)

    @property
    def n_components(self) -> int:
        return int(np.unique(self.labels).size)

    def sizes(self) -> np.ndarray:
        """Component sizes, aligned with :meth:`roots` order."""
        _, counts = np.unique(self.labels, return_counts=True)
        return counts

    def roots(self) -> np.ndarray:
        """Canonical root (minimum vertex id) of each component."""
        return np.unique(self.labels)

    def largest(self) -> tuple[int, int]:
        """(root, size) of the largest component."""
        roots, counts = np.unique(self.labels, return_counts=True)
        i = int(np.argmax(counts))
        return int(roots[i]), int(counts[i])

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


def hook_min_labels(prev: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One hooking sweep: concurrent min of ``prev`` over both arc directions
    (CSR snapshots here store both arcs of an undirected edge, but guard for
    one-directional inputs by propagating both ways)."""
    labels = prev.copy()
    np.minimum.at(labels, src, prev[dst])
    np.minimum.at(labels, dst, prev[src])
    return labels


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
    The SV sweep is inherently vectorised, so it is one body on every
    kernel tier.
    """
    n = graph.n
    if n == 0:
        return ComponentsResult(np.arange(0, dtype=np.int64), 0, 0, 0)
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    dst = graph.targets
    labels, passes, jumps, arcs = hook_and_jump(
        n, lambda prev: hook_min_labels(prev, src, dst), int(dst.size), max_passes
    )
    return ComponentsResult(labels, passes, jumps, arcs)
