"""Fully dynamic connectivity (paper section 3.1's end goal).

The paper builds the two halves of a dynamic-connectivity index — a dynamic
adjacency representation for the graph and a link-cut spanning forest for
the queries — and evaluates them separately (construction in Figure 7,
queries in Figure 8).  :class:`DynamicConnectivity` closes the loop, keeping
both structures in sync under arbitrary edge insertions and deletions:

* an inserted edge joins two trees via reroot+link when it connects them,
  and is otherwise a non-tree edge living only in the adjacency structure;
* a deleted tree edge triggers a replacement-edge search over the smaller
  side of the cut (the surviving adjacency structure supplies candidate
  edges), relinking if one exists;
* queries are the paper's two-findroot connectivity tests, batched and
  vectorised.

This is the straightforward O(smaller-side) replacement search, not
poly-log Holm–de Lichtenberg–Thorup — matching the paper's engineering
stance that small-world diameters make simple structures fast.  The
structure tolerates parallel edges (a deleted tree edge with a surviving
parallel copy keeps the link).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation
from repro.adjacency.registry import make_representation
from repro.core.linkcut import LinkCutForest
from repro.errors import GraphError
from repro.generators.streams import UpdateStream
from repro.machine.profile import Phase, WorkProfile

__all__ = ["DynamicConnectivity", "MaintenanceStats"]


@dataclass
class MaintenanceStats:
    """Work counters for the forest-maintenance side of the index."""

    inserts: int = 0
    deletes: int = 0
    delete_misses: int = 0
    tree_links: int = 0
    tree_cuts: int = 0
    replacements_found: int = 0
    replacement_scan_arcs: int = 0
    parallel_edge_keeps: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class DynamicConnectivity:
    """A graph under updates with always-current connectivity queries.

    Parameters
    ----------
    n:
        Number of vertices.
    representation:
        Adjacency structure holding the graph edges (registry name or
        instance); the paper's ``hybrid`` by default, since maintenance
        mixes insertions with deletions.
    """

    def __init__(
        self,
        n: int,
        representation: str | AdjacencyRepresentation = "hybrid",
        **rep_kwargs,
    ) -> None:
        if isinstance(representation, AdjacencyRepresentation):
            if representation.n != n:
                raise GraphError("representation vertex count mismatch")
            self.rep = representation
        else:
            self.rep = make_representation(representation, n, **rep_kwargs)
        self.n = int(n)
        self.forest = LinkCutForest(n)
        self.stats = MaintenanceStats()

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int, ts: int = 0) -> bool:
        """Insert edge (u, v); returns True if connectivity changed."""
        self.rep.insert(u, v, ts)
        if u != v:
            self.rep.insert(v, u, ts)
        self.stats.inserts += 1
        if u == v:
            return False
        changed = self.forest.add_edge(u, v)
        if changed:
            self.stats.tree_links += 1
        return changed

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete one copy of edge (u, v); returns True if it existed.

        Maintains the spanning forest: a deleted tree edge either survives
        through a parallel copy, is replaced by another edge crossing the
        cut, or splits the component.
        """
        found = self.rep.delete(u, v)
        if not found:
            self.stats.delete_misses += 1
            return False
        if u != v:
            self.rep.delete(v, u)
        self.stats.deletes += 1
        if u == v:
            return True

        f = self.forest
        if f.parent_of(u) == v:
            child = u
        elif f.parent_of(v) == u:
            child = v
        else:
            return True  # non-tree edge: forest untouched
        if self.rep.has_arc(u, v):
            # A parallel copy of the tree edge survives; the link stands.
            self.stats.parallel_edge_keeps += 1
            return True
        self.stats.tree_cuts += 1
        hops_before = f.hops
        replacement = f.cut_with_replacement(child, self.rep)
        # The replacement search's dominant cost is pointer/adjacency work,
        # measured through the forest's hop counter plus the arcs the sweep
        # touched (approximated by the smaller side's adjacency; the hop
        # counter captures the root scan exactly).
        self.stats.replacement_scan_arcs += f.hops - hops_before
        if replacement is not None:
            self.stats.replacements_found += 1
        return True

    def apply(self, stream: UpdateStream) -> int:
        """Apply a whole update stream; returns failed-delete count."""
        if stream.n != self.n:
            raise GraphError("stream vertex count mismatch")
        misses = 0
        for o, u, v, t in zip(
            stream.op.tolist(), stream.src.tolist(), stream.dst.tolist(),
            stream.ts.tolist(),
        ):
            if o == 1:
                self.insert_edge(u, v, t)
            elif not self.delete_edge(u, v):
                misses += 1
        return misses

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def connected(self, u: int, v: int) -> bool:
        """Two findroots, always current (paper section 3.1)."""
        return self.forest.connected(u, v)

    def connected_batch(self, us, vs) -> np.ndarray:
        return self.forest.connected_batch(us, vs)

    def n_components(self) -> int:
        """Trees in the forest minus nothing — isolated vertices count."""
        return self.forest.n_trees()

    @property
    def n_edges(self) -> int:
        """Live undirected edges (exact for loop-free graphs).

        Self-loops are stored as single arcs, so with ``k`` live loops the
        true edge count is ``(arcs + k) // 2``; loop-free streams (the
        paper's workloads after cleaning) make this exact.
        """
        return self.rep.n_arcs // 2

    # ------------------------------------------------------------------ #
    # profiles and validation
    # ------------------------------------------------------------------ #

    def maintenance_phase(self, name: str = "forest-maintenance") -> Phase:
        """Work profile of the forest side of the updates.

        Links and cuts are O(depth) reroots plus O(1) pointer writes; the
        dominant term is the replacement scan, one dependent access per
        candidate arc examined.
        """
        s = self.stats
        return Phase(
            name=name,
            alu_ops=20.0 * (s.tree_links + s.tree_cuts) + 4.0 * s.replacement_scan_arcs,
            rand_accesses=float(
                2 * (s.tree_links + s.tree_cuts) + s.replacement_scan_arcs
            ),
            footprint_bytes=float(self.forest.memory_bytes() + self.rep.memory_bytes()),
            # Forest surgery serialises per affected tree: structural writes
            # to one tree cannot proceed concurrently with its queries.
            locks=float(s.tree_links + s.tree_cuts),
            lock_hold_cycles=200.0,
        )

    def profile(self, name: str = "dynamic-connectivity") -> WorkProfile:
        """Combined adjacency + forest maintenance profile."""
        return WorkProfile(
            name,
            (self.rep.phase(f"{name}/adjacency"), self.maintenance_phase(f"{name}/forest")),
            meta={"n": self.n, "edges": self.rep.n_arcs // 2},
        )

    def validate(self) -> None:
        """Check the invariant: forest connectivity == graph connectivity.

        O(n + m) — testing aid.  Raises :class:`GraphError` on divergence.
        """
        from repro.core.components import connected_components

        self.forest.validate()
        comps = connected_components(self.rep.to_csr())
        roots = self.forest.findroot_batch(np.arange(self.n))
        # Two vertices must share a component iff they share a root:
        # the root -> component-label map must be a bijection.
        by_root: dict[int, int] = {}
        for v in range(self.n):
            r = int(roots[v])
            lbl = int(comps.labels[v])
            if r in by_root:
                if by_root[r] != lbl:
                    raise GraphError(
                        f"forest tree {r} spans components {by_root[r]} and {lbl}"
                    )
            else:
                by_root[r] = lbl
        if len(by_root) != comps.n_components:
            raise GraphError(
                f"forest has {len(by_root)} trees but the graph has "
                f"{comps.n_components} components"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicConnectivity(n={self.n}, edges={self.rep.n_arcs // 2}, "
            f"components={self.n_components()})"
        )
