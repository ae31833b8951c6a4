"""Link-cut forest with parent pointers (paper section 3.1).

The paper observes that for small-world networks the full self-adjusting
Sleator–Tarjan machinery is unnecessary: *"a straightforward implementation
of the link-cut tree would be to store with each vertex a pointer to its
parent. This supports the link, cut, and parent in constant time, but the
findroot operation would require a worst-case traversal of O(n) vertices for
an arbitrary tree. However ... for low-diameter graphs such as small-world
networks, this operation just requires a small number of hops, as the height
of the tree is small."*

:class:`LinkCutForest` is that structure: an int64 parent array, O(1)
link / cut / parent, findroot by pointer chasing, and connectivity queries
as two findroots.  Construction from a graph follows the paper: a lock-free
level-synchronous parallel BFS produces the spanning tree of each component
(one multi-rooted run of :func:`repro.core.bfs.level_loop` covers the whole
forest, each level one :func:`repro.core.frontier.expand` or, on a snapshot
stamped symmetric, one bottom-up :func:`repro.core.frontier.pull`, as in
:func:`repro.core.bfs.bfs`), with connected components supplying the roots.

Beyond the paper's operations, :meth:`add_edge` (reroot + link, supporting
arbitrary edge insertions) and :meth:`cut_with_replacement` (spanning-forest
maintenance under deletions: a lockstep walk finds the smaller side of the
cut in O(smaller side), which is then searched for a replacement edge) round
the structure out into the dynamic-connectivity index
:class:`repro.core.connectivity.ConnectivityIndex`; both are flagged as
extensions in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.bfs import BFSResult, level_loop, pull_step
from repro.core.components import ComponentsResult, connected_components
from repro.core.frontier import expand
from repro.errors import GraphError, NotInForestError, VertexError
from repro.machine.profile import ProfileBuilder, WorkProfile

__all__ = ["LinkCutForest", "ConstructionRecord", "Cut", "chase_roots"]

_NIL = -1

#: Query pairs :meth:`LinkCutForest.connected_batch` chases or gathers at
#: once, so a batch's temporaries stay a few blocks large (about 3 MiB)
#: whatever its length.  Chasing a million pairs at once takes about 40 MiB
#: per call, and whether glibc keeps those pages for the next call or hands
#: them back to be faulted in again depends on what the process freed before
#: (7 400 faults and a quarter of the query time, in some processes and not
#: others).
_QUERY_BLOCK = 1 << 16


def chase_roots(parent: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, int]:
    """Roots of ``vertices`` (a copy) and the pointer hops the chase took.

    The one batch root chase, behind :meth:`LinkCutForest.findroot_batch`
    and the small batches of :meth:`LinkCutForest.connected_batch`: every
    unfinished chain advances one hop per vector pass (:func:`_chase_passes`),
    as the simulated machine runs the queries concurrently.  The hop total
    is the sum of the query depths, what :meth:`LinkCutForest.findroot`
    counts query by query.
    """
    v = np.array(vertices, dtype=np.int64)
    return v, sum(int(idx.size) for idx in _chase_passes(parent, v))


def _chase_passes(parent: np.ndarray, v: np.ndarray) -> Iterator[np.ndarray]:
    """Chase ``v`` to its roots in place, one hop per vector pass.

    Yields, before each pass, the positions of ``v`` still below a root —
    only those chains are gathered again, so a pass costs what is left of
    the batch, not the batch.
    """
    nxt = parent[v]
    idx = np.flatnonzero(nxt != _NIL)
    nxt = nxt[idx]
    while idx.size:
        yield idx
        v[idx] = nxt
        nxt = parent[nxt]
        alive = nxt != _NIL
        idx, nxt = idx[alive], nxt[alive]


class Cut(NamedTuple):
    """What :meth:`LinkCutForest.cut_with_replacement` did."""

    #: Vertices of the smaller side of the cut, the side it searched.
    side: list[int]
    #: The edge ``(x, y)`` that reconnected the two sides, ``x`` on
    #: :attr:`side`; None when the split stands.
    replacement: tuple[int, int] | None


@dataclass(frozen=True)
class ConstructionRecord:
    """What building the forest cost (feeds Figure 7's profile)."""

    profile: WorkProfile
    components: ComponentsResult
    levels: int
    max_depth: int


class LinkCutForest:
    """Rooted spanning forest with parent pointers.

    Vertices are 0..n-1; ``parent[v] == -1`` marks a root.  Every structural
    operation keeps :attr:`version` monotonically increasing so dependent
    indexes (query engines) can detect staleness.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise VertexError(f"vertex count must be >= 0, got {n}")
        self.n = int(n)
        self.parent = np.full(n, _NIL, dtype=np.int64)
        self.version = 0
        #: findroot pointer hops since the last counter reset (profiles):
        #: each query endpoint counts its depth, however it was answered.
        self.hops = 0
        #: pointer hops actually walked; below :attr:`hops` when a batch was
        #: answered from one whole-forest :meth:`resolve`.
        self.hops_chased = 0
        #: adjacency arcs read by :meth:`cut_with_replacement` searches.
        self.scan_arcs = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> tuple["LinkCutForest", ConstructionRecord]:
        """Build a spanning forest of ``graph`` (paper's parallel recipe).

        Connected components determine one root per component (the paper
        runs connected components to construct a forest of link-cut trees);
        a single multi-source level-synchronous BFS from all roots then
        assigns parent pointers — each BFS level is a parallel phase.
        """
        comps = connected_components(graph)
        forest = cls(graph.n)
        targets = graph.targets
        dist = np.full(graph.n, -1, dtype=np.int64)
        roots = comps.roots()
        dist[roots] = 0
        slot = np.empty(graph.n, dtype=np.int64)  # scratch, touched only at candidates

        def step(frontier, starts, counts, total):
            return expand(frontier, starts, counts, targets, dist, slot)

        res = BFSResult(source=_NIL, dist=dist, parent=forest.parent)
        level = level_loop(res, roots, graph.offsets, step, pull=pull_step(graph, dist))
        builder = ProfileBuilder("linkcut-construction", n=graph.n, arcs=graph.n_arcs)
        builder.extend(comps.profile(graph).phases)
        footprint = float(graph.memory_bytes() + 2 * 8 * graph.n)
        for i, (width, arcs) in enumerate(zip(res.frontier_sizes, res.edges_scanned)):
            if arcs:  # only the level that ends the traversal can scan none
                builder.phase(
                    f"bfs-level{i}",
                    alu_ops=8.0 * arcs + 6.0 * width,
                    rand_accesses=float(arcs + width),
                    seq_bytes=8.0 * arcs,
                    footprint_bytes=footprint,
                    barriers=2.0,
                )
        forest.version += 1
        max_depth = int(dist.max()) if graph.n else 0
        record = ConstructionRecord(
            profile=builder.build(),
            components=comps,
            levels=level,
            max_depth=max_depth,
        )
        return forest, record

    # ------------------------------------------------------------------ #
    # the paper's basic structural operations
    # ------------------------------------------------------------------ #

    def parent_of(self, v: int) -> int:
        """``parent(v)`` — -1 for roots (O(1))."""
        self._check(v)
        return int(self.parent[v])

    def is_root(self, v: int) -> bool:
        self._check(v)
        return self.parent[v] == _NIL

    def link(self, v: int, w: int) -> None:
        """``link(v, w)``: create an arc from root ``v`` to vertex ``w``.

        Per Sleator–Tarjan, ``v`` must currently be a root, and linking must
        not create a cycle (i.e. ``w`` must lie in a different tree).
        """
        self._check(v)
        self._check(w)
        if self.parent[v] != _NIL:
            raise GraphError(f"link source {v} is not a root")
        if self.findroot(w) == v:
            raise GraphError(f"link({v}, {w}) would create a cycle")
        self.parent[v] = w
        self.version += 1

    def cut(self, v: int) -> int:
        """``cut(v)``: delete the arc from ``v`` to its parent.

        Returns the former parent; raises if ``v`` was already a root.
        """
        self._check(v)
        p = int(self.parent[v])
        if p == _NIL:
            raise NotInForestError(f"cut({v}): vertex is a root")
        self.parent[v] = _NIL
        self.version += 1
        return p

    def findroot(self, v: int) -> int:
        """Chase parent pointers to the root; O(depth) ≈ O(diameter)."""
        self._check(v)
        parent = self.parent
        hops = 0
        while parent[v] != _NIL:
            v = int(parent[v])
            hops += 1
        self.hops += hops
        self.hops_chased += hops
        return v

    def connected(self, u: int, v: int) -> bool:
        """Connectivity query: two findroot operations (paper section 3.1)."""
        return self.findroot(u) == self.findroot(v)

    # ------------------------------------------------------------------ #
    # vectorised batch operations
    # ------------------------------------------------------------------ #

    def findroot_batch(self, vertices) -> np.ndarray:
        """Roots of many vertices at once (:func:`chase_roots`); the hops
        land in :attr:`hops`."""
        v = np.asarray(vertices, dtype=np.int64)
        if v.size and (v.min() < 0 or v.max() >= self.n):
            raise VertexError("vertex id out of range in findroot_batch")
        roots, hops = chase_roots(self.parent, v)
        self.hops += hops
        self.hops_chased += hops
        return roots

    def resolves(self, pairs: int) -> bool:
        """Whether :meth:`connected_batch` answers ``pairs`` queries from one
        :meth:`resolve`: when they have at least as many endpoints as the
        forest has vertices, so resolving every vertex once walks no more
        than chasing every endpoint would."""
        return 2 * pairs >= self.n

    def connected_batch(self, us, vs) -> np.ndarray:
        """Vectorised connectivity queries (bool array).

        A batch that :meth:`resolves` packs every vertex's root and depth
        into one int64 (``root << shift | depth``) and answers each pair with
        one gather per endpoint: equal roots, and the masked depths summed
        are the hops the chase would have walked.  A smaller batch chases
        its endpoints (:meth:`findroot_batch`).  Either way pairs go
        :data:`_QUERY_BLOCK` at a time and :attr:`hops` advances by the
        endpoints' depths.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise GraphError("query endpoint arrays must be 1-D and equal length")
        out = np.empty(us.size, dtype=bool)
        if not self.resolves(us.size):
            for lo in range(0, us.size, _QUERY_BLOCK):
                hi = lo + _QUERY_BLOCK
                np.equal(self.findroot_batch(us[lo:hi]), self.findroot_batch(vs[lo:hi]),
                         out=out[lo:hi])
            return out
        packed, depth = self.resolve()
        # Roots and depths are below n, so for n < 2**31 the pack fits in 62 bits.
        shift = max(1, int(depth.max(initial=0)).bit_length())
        packed <<= shift
        packed |= depth
        mask = (1 << shift) - 1
        hops = 0
        for lo in range(0, us.size, _QUERY_BLOCK):
            hi = lo + _QUERY_BLOCK
            a, b = us[lo:hi], vs[lo:hi]
            # One reduction per side: a negative id reads as a huge unsigned one.
            if max(a.view(np.uint64).max(), b.view(np.uint64).max()) >= self.n:
                raise VertexError("vertex id out of range in connected_batch")
            a, b = packed[a], packed[b]
            np.equal(a >> shift, b >> shift, out=out[lo:hi])
            hops += int((a & mask).sum() + (b & mask).sum())
        self.hops += hops
        self.hops_chased += int(depth.sum())
        return out

    def resolve(self) -> tuple[np.ndarray, np.ndarray]:
        """Root and depth of every vertex, from one chase of all ``n``
        (:func:`_chase_passes`).

        The one whole-forest pass, behind :meth:`connected_batch`,
        :meth:`depths`, :meth:`tree_vertices` and
        :meth:`ConnectivityIndex.validate
        <repro.core.connectivity.ConnectivityIndex.validate>`.  Every
        unfinished chain advances one hop per vector pass; the pass count
        is the maximum tree depth, mirroring how the simulated machine would
        chase the pointers concurrently.  Counts no hops.
        """
        roots = np.arange(self.n, dtype=np.int64)
        depth = np.zeros(self.n, dtype=np.int64)
        for hop, idx in enumerate(_chase_passes(self.parent, roots), 1):
            depth[idx] = hop
        return roots, depth

    def depths(self) -> np.ndarray:
        """Depth of every vertex (roots at depth 0), from :meth:`resolve`."""
        return self.resolve()[1]

    # ------------------------------------------------------------------ #
    # extensions: general edge insertion / deletion on the forest
    # ------------------------------------------------------------------ #

    def reroot(self, v: int) -> None:
        """Make ``v`` the root of its tree by reversing the root path."""
        self._check(v)
        prev = _NIL
        cur = v
        while cur != _NIL:
            nxt = int(self.parent[cur])
            self.parent[cur] = prev
            self.hops += 1
            self.hops_chased += 1
            prev = cur
            cur = nxt
        self.version += 1

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge (u, v) into the spanning forest if it joins two trees.

        Returns True when the forest changed (tree edge), False when u and v
        were already connected (non-tree edge — a connectivity index keeps
        it in its adjacency structure only).
        """
        self._check(u)
        self._check(v)
        if self.connected(u, v):
            return False
        self.reroot(v)
        self.link(v, u)
        return True

    def cut_with_replacement(self, child: int, rep) -> Cut:
        """Cut the tree edge above ``child`` and search for a replacement.

        ``rep`` is any symmetric adjacency source with ``neighbors(v)`` and
        ``degree(v)`` (a dynamic representation, a CSR snapshot) holding the
        graph *after* the deletion, every other tree edge included.  After
        the cut the tree splits in two; :meth:`_smaller_side` walks both
        sides in lockstep and stops when the smaller one (the child's on a
        tie) is exhausted, so the cost is O(smaller side), never O(n).  The
        replacement is the arc ``(x, y)`` leaving that side with the
        smallest ``x``, then the smallest ``y``, whatever order ``rep``
        keeps arcs in; it relinks the forest (``x`` rerooted under ``y``).
        The arcs read land in :attr:`scan_arcs`.
        """
        old_parent = self.cut(child)
        side, nbrs = self._smaller_side(child, old_parent, rep)
        inside = np.zeros(self.n, dtype=bool)
        inside[side] = True
        for x in sorted(side):
            out = nbrs[x][~inside[nbrs[x]]]
            if out.size:
                y = int(out.min())
                self.reroot(x)
                self.link(x, y)
                return Cut(side, (x, y))
        return Cut(side, None)

    def _smaller_side(self, a: int, b: int, rep) -> tuple[list[int], dict]:
        """Vertices of the smaller of the trees rooted at ``a`` and holding
        ``b`` (``a``'s on a tie), with each one's ``rep`` neighbours.

        Two walks, one per tree, find vertices for free up parent pointers
        (``b``'s root path) and by reading a vertex's arcs for its children
        (every tree edge is a graph edge).  A walk has *ended* when it has
        read every vertex it found: it has its whole tree.  Turns go to the
        walk whose arcs read so far plus its next vertex's degree are fewer,
        ``a``'s on a tie, until the sizes decide: ``a``'s walk ended and
        ``b``'s has found at least as many vertices, or ``b``'s ended and
        ``a``'s has found more.  The turns keep the two walks' arc counts
        level, so the larger side is read about as far as the smaller one,
        plus whatever it takes to find more vertices than the smaller side
        holds.
        """
        parent = self.parent
        path = [b]
        while parent[path[-1]] != _NIL:
            path.append(int(parent[path[-1]]))
        walks = ([a], path)
        seen = ({a}, set(path))
        nbrs: tuple[dict, dict] = ({}, {})
        head = [0, 0]
        read = [0, 0]
        while True:
            ended = head[0] == len(walks[0]), head[1] == len(walks[1])
            if ended[0] and len(walks[1]) >= len(walks[0]):
                s = 0
                break
            if ended[1] and len(walks[0]) > len(walks[1]):
                s = 1
                break
            if ended[0] or ended[1]:
                s = 1 if ended[0] else 0
            else:
                s = int(read[0] + rep.degree(walks[0][head[0]])
                        > read[1] + rep.degree(walks[1][head[1]]))
            x = walks[s][head[s]]
            head[s] += 1
            nb = rep.neighbors(x)
            nbrs[s][x] = nb
            read[s] += int(nb.size)
            for y in nb[parent[nb] == x].tolist():
                if y not in seen[s]:
                    seen[s].add(y)
                    walks[s].append(y)
        self.scan_arcs += read[0] + read[1]
        return walks[s], nbrs[s]

    def tree_vertices(self, v: int) -> np.ndarray:
        """All vertices in ``v``'s tree (one :meth:`resolve`)."""
        self._check(v)
        roots = self.resolve()[0]
        return np.flatnonzero(roots == roots[v])

    # ------------------------------------------------------------------ #

    def roots(self) -> np.ndarray:
        """All current roots (one per tree)."""
        return np.nonzero(self.parent == _NIL)[0]

    def n_trees(self) -> int:
        return int(np.count_nonzero(self.parent == _NIL))

    def memory_bytes(self) -> int:
        return int(self.parent.nbytes)

    def validate(self) -> None:
        """Check the forest invariant: no cycles, all parents in range.

        O(n · depth); testing/debugging aid.
        """
        in_range = (self.parent >= _NIL) & (self.parent < self.n)
        if not np.all(in_range):
            raise GraphError("parent pointers out of range")
        # Every chain must terminate: depths() diverges on a cycle, so walk
        # with an explicit bound instead.
        v = np.arange(self.n, dtype=np.int64)
        for _ in range(self.n + 1):
            nxt = np.where(self.parent[v] != _NIL, self.parent[v], v)
            if np.array_equal(nxt, v):
                return
            v = nxt
        raise GraphError("cycle detected in parent pointers")

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexError(f"vertex id {v} out of range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkCutForest(n={self.n}, trees={self.n_trees()})"
