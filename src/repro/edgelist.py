"""Flat edge-list container shared by generators, representations and kernels.

An :class:`EdgeList` is the interchange format of the library: structure-of-
arrays (``src``, ``dst``, optional ``ts`` time-stamps and ``w`` weights), all
int64, following the paper's temporal-network model (section 2): each edge
carries a non-negative integer time label λ(e).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import GraphError
from repro.util.validation import check_same_length, check_vertex_ids

__all__ = ["EdgeList"]


@dataclass(frozen=True)
class EdgeList:
    """A graph as parallel edge arrays.

    Attributes
    ----------
    n:
        Number of vertices; ids are ``0 .. n-1``.
    src, dst:
        Edge endpoints, int64 arrays of equal length.
    ts:
        Optional per-edge integer time-stamps λ(e) (paper section 2).
    w:
        Optional per-edge positive integer weights (defaults to 1 when
        absent, matching the paper's unweighted convention).
    directed:
        Interpretation flag.  Undirected edge lists store each edge once;
        representations symmetrise on ingest.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray | None = None
    w: np.ndarray | None = None
    directed: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"vertex count must be >= 0, got {self.n}")
        src = check_vertex_ids(self.src, self.n, "src")
        dst = check_vertex_ids(self.dst, self.n, "dst")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        named = [("src", src), ("dst", dst)]
        for name in ("ts", "w"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int64)
                if arr.ndim != 1:
                    raise GraphError(f"{name} must be 1-D")
                object.__setattr__(self, name, arr)
                named.append((name, arr))
        check_same_length(named)
        if self.w is not None and self.w.size and self.w.min() <= 0:
            raise GraphError("edge weights must be positive integers")

    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        """Number of stored edges (one per line, regardless of direction)."""
        return int(self.src.size)

    def timestamps(self) -> np.ndarray:
        """Time-stamps, defaulting to zeros when none were assigned."""
        if self.ts is not None:
            return self.ts
        return np.zeros(self.m, dtype=np.int64)

    def weights(self) -> np.ndarray:
        """Weights, defaulting to ones (unweighted graphs, paper section 2)."""
        if self.w is not None:
            return self.w
        return np.ones(self.m, dtype=np.int64)

    def degrees(self) -> np.ndarray:
        """Per-vertex degree: out-degree for directed lists, total otherwise."""
        deg = np.bincount(self.src, minlength=self.n)
        if not self.directed:
            deg = deg + np.bincount(self.dst, minlength=self.n)
        return deg.astype(np.int64)

    def symmetrized(self) -> "EdgeList":
        """Return a directed list containing both orientations of each edge.

        Undirected graphs are stored once per edge; representations and CSR
        construction need both arcs.  Directed inputs are returned unchanged.
        """
        if self.directed:
            return self
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        ts = None if self.ts is None else np.concatenate([self.ts, self.ts])
        w = None if self.w is None else np.concatenate([self.w, self.w])
        return EdgeList(self.n, src, dst, ts, w, directed=True, meta=dict(self.meta))

    def deduplicated(self) -> "EdgeList":
        """Drop duplicate (src, dst) pairs, keeping the first occurrence."""
        key = self.src * np.int64(self.n) + self.dst
        _, idx = np.unique(key, return_index=True)
        idx.sort()
        return self.select(idx)

    def without_self_loops(self) -> "EdgeList":
        """Drop edges with equal endpoints."""
        return self.select(np.nonzero(self.src != self.dst)[0])

    def select(self, index: np.ndarray) -> "EdgeList":
        """Edge subset by integer index array (order preserved)."""
        return replace(
            self,
            src=self.src[index],
            dst=self.dst[index],
            ts=None if self.ts is None else self.ts[index],
            w=None if self.w is None else self.w[index],
        )

    def with_timestamps(self, ts: np.ndarray) -> "EdgeList":
        """Attach a time-stamp array (replaces any existing one)."""
        return replace(self, ts=np.asarray(ts, dtype=np.int64))

    def shuffled(self, rng: np.random.Generator) -> "EdgeList":
        """Random permutation of edge order.

        The paper shuffles edge streams to remove generator locality
        (section 3.2) and to de-cluster repeated insertions to one vertex
        (section 2.1.1).
        """
        perm = rng.permutation(self.m)
        return self.select(perm)

    def memory_bytes(self) -> int:
        """Bytes held by the edge arrays (reported in experiment metadata)."""
        total = self.src.nbytes + self.dst.nbytes
        if self.ts is not None:
            total += self.ts.nbytes
        if self.w is not None:
            total += self.w.nbytes
        return int(total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        ts = " ts" if self.ts is not None else ""
        return f"EdgeList(n={self.n}, m={self.m}, {kind}{ts})"
