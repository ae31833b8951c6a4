"""Static CSR (compressed sparse row) snapshots.

The cache-friendly adjacency-array representation the paper builds on for
static graphs (section 2.1, citing Park, Penner & Prasanna): one offsets
array and one packed targets array, with an optional parallel time-stamp
column.  Every analysis kernel in :mod:`repro.core` consumes this format;
dynamic representations export to it via ``rep.to_csr()`` (the paper's
kernels likewise run over a consolidated adjacency structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.bulkops import stable_order
from repro.edgelist import EdgeList
from repro.errors import GraphError, VertexError

__all__ = ["CSRGraph", "build_csr", "csr_offsets"]


@dataclass(frozen=True)
class CSRGraph:
    """Directed adjacency in CSR form.

    ``offsets`` has length n+1; vertex u's arcs are
    ``targets[offsets[u]:offsets[u+1]]`` with matching ``ts`` entries when
    time-stamps are present.  ``meta["symmetric"]`` (read through
    :attr:`symmetric`) is stamped only where both arcs of every edge are
    stored.
    """

    n: int
    offsets: np.ndarray
    targets: np.ndarray
    ts: np.ndarray | None = None
    #: Optional positive integer edge weights, parallel to ``targets``
    #: (paper section 2: w(e) = 1 for unweighted graphs).
    w: np.ndarray | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        off = np.asarray(self.offsets, dtype=np.int64)
        tgt = np.asarray(self.targets, dtype=np.int64)
        if off.shape != (self.n + 1,):
            raise GraphError(f"offsets must have shape ({self.n + 1},), got {off.shape}")
        if off[0] != 0 or off[-1] != tgt.size:
            raise GraphError("offsets must start at 0 and end at len(targets)")
        if np.any(np.diff(off) < 0):
            raise GraphError("offsets must be non-decreasing")
        if tgt.size and (tgt.min() < 0 or tgt.max() >= self.n):
            raise GraphError("targets contain out-of-range vertex ids")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "targets", tgt)
        if self.ts is not None:
            t = np.asarray(self.ts, dtype=np.int64)
            if t.shape != tgt.shape:
                raise GraphError("ts must parallel targets")
            object.__setattr__(self, "ts", t)
        if self.w is not None:
            w = np.asarray(self.w, dtype=np.int64)
            if w.shape != tgt.shape:
                raise GraphError("w must parallel targets")
            if w.size and w.min() <= 0:
                raise GraphError("edge weights must be positive")
            object.__setattr__(self, "w", w)

    # ------------------------------------------------------------------ #

    @property
    def n_arcs(self) -> int:
        return int(self.targets.size)

    @property
    def symmetric(self) -> bool:
        """Whether u→v is an arc exactly when v→u is (bottom-up BFS needs it).

        True only under the stamp of :func:`build_csr` when it symmetrises
        and of ``DynamicGraph.snapshot()`` on undirected graphs; a CSR built
        any other way reads False whatever its arcs are.
        """
        return self.meta.get("symmetric") is True

    def degree(self, u: int) -> int:
        self._check(u)
        return int(self.offsets[u + 1] - self.offsets[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, u: int) -> np.ndarray:
        """View (no copy) of u's targets."""
        self._check(u)
        return self.targets[self.offsets[u] : self.offsets[u + 1]]

    def neighbors_with_ts(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        self._check(u)
        lo, hi = int(self.offsets[u]), int(self.offsets[u + 1])
        t = self.ts[lo:hi] if self.ts is not None else np.zeros(hi - lo, dtype=np.int64)
        return self.targets[lo:hi], t

    def _check(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise VertexError(f"vertex id {u} out of range [0, {self.n})")

    def weights(self) -> np.ndarray:
        """Edge weights, defaulting to ones (unweighted convention)."""
        if self.w is not None:
            return self.w
        return np.ones(self.n_arcs, dtype=np.int64)

    def memory_bytes(self) -> int:
        total = self.offsets.nbytes + self.targets.nbytes
        if self.ts is not None:
            total += self.ts.nbytes
        if self.w is not None:
            total += self.w.nbytes
        return int(total)

    def to_edgelist(self, *, directed: bool = True) -> EdgeList:
        """Flatten back to an edge list (one line per stored arc)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        return EdgeList(self.n, src, self.targets.copy(),
                        ts=None if self.ts is None else self.ts.copy(),
                        w=None if self.w is None else self.w.copy(),
                        directed=directed, meta=dict(self.meta))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, arcs={self.n_arcs})"


def build_csr(graph: EdgeList, *, symmetrize: bool | None = None) -> CSRGraph:
    """Build a CSR snapshot from an edge list.

    ``symmetrize`` defaults to "both arcs for undirected inputs, as-is for
    directed" — pass explicitly to override.  Arc order within a vertex
    follows input order (stable sort), preserving insertion/temporal order.
    A symmetrised snapshot is stamped :attr:`CSRGraph.symmetric`; a stamp
    the edge list carried over from an earlier snapshot is dropped.
    """
    if symmetrize is None:
        symmetrize = not graph.directed
    if symmetrize:
        # Force both arcs even for directed inputs (EdgeList.symmetrized is
        # a no-op on directed lists by contract).
        src = np.concatenate([graph.src, graph.dst])
        dst = np.concatenate([graph.dst, graph.src])
        ts = None if graph.ts is None else np.concatenate([graph.ts, graph.ts])
        w = None if graph.w is None else np.concatenate([graph.w, graph.w])
    else:
        src, dst, ts, w = graph.src, graph.dst, graph.ts, graph.w
    meta = {k: v for k, v in graph.meta.items() if k != "symmetric"}
    if symmetrize:
        meta["symmetric"] = True
    return csr_from_arrays(graph.n, src, dst, ts, w=w, meta=meta)


def csr_offsets(degrees: np.ndarray) -> np.ndarray:
    """CSR ``offsets`` (length ``len(degrees) + 1``) for per-vertex arc counts."""
    offsets = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return offsets


def csr_from_arrays(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    ts: np.ndarray | None = None,
    *,
    w: np.ndarray | None = None,
    meta: dict | None = None,
) -> CSRGraph:
    """CSR from parallel arc arrays (already symmetrised if desired).

    Arcs are grouped by source with the packed-key semisort the update
    kernels use (:func:`repro.adjacency.bulkops.stable_order`): arcs of one
    source keep their input order.  A source column that is already
    non-decreasing comes back from the semisort as the identity, and the
    payload columns are then used as given, without a gather.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
    offsets = csr_offsets(counts)
    order, grouped = stable_order(src, n)
    if grouped is src:
        return CSRGraph(n, offsets, dst, ts=ts, w=w, meta=meta or {})
    return CSRGraph(
        n,
        offsets,
        dst[order],
        ts=None if ts is None else np.asarray(ts, dtype=np.int64)[order],
        w=None if w is None else np.asarray(w, dtype=np.int64)[order],
        meta=meta or {},
    )
