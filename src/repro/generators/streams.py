"""Structural-update streams (paper section 2.1).

An :class:`UpdateStream` is a sequence of edge insertions and deletions, the
input to every representation's update path.  Builders cover the paper's
workloads:

* graph construction "treated as a series of insertions" (Figures 1–4);
* random deletions after construction (Figure 5, 20M deletions);
* mixed streams with a given insertion fraction (Figure 6, 75%/25%);
* semi-sorting by source vertex, the lower bound for batched processing
  (Figure 3);
* random shuffling, the paper's remedy for hot-vertex insertion bursts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.adjacency.bulkops import stable_order
from repro.edgelist import EdgeList
from repro.errors import GraphError, StreamError
from repro.util.seeding import make_rng
from repro.util.validation import (
    check_op_codes,
    check_probability,
    check_same_length,
    check_vertex_ids,
)

__all__ = [
    "INSERT",
    "DELETE",
    "UpdateStream",
    "insertion_stream",
    "deletion_stream",
    "mixed_stream",
    "semisort",
    "iter_batches",
]

#: Op codes stored in :attr:`UpdateStream.op`.
INSERT: int = 1
DELETE: int = -1


@dataclass(frozen=True)
class UpdateStream:
    """A sequence of structural updates in arrival order.

    ``op`` holds :data:`INSERT` / :data:`DELETE` codes (int8); ``src``,
    ``dst`` the edge endpoints; ``ts`` the time label carried by insertions
    (ignored for deletions, kept for symmetry).
    """

    n: int
    op: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        try:
            op = check_op_codes(self.op)
        except GraphError as exc:
            raise StreamError(str(exc)) from None
        src = check_vertex_ids(self.src, self.n, "src")
        dst = check_vertex_ids(self.dst, self.n, "dst")
        ts = np.asarray(self.ts, dtype=np.int64)
        check_same_length([("op", op), ("src", src), ("dst", dst), ("ts", ts)])
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "ts", ts)

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.op.size)

    @property
    def n_inserts(self) -> int:
        """Number of insertion updates in the stream."""
        return int(np.count_nonzero(self.op == INSERT))

    @property
    def n_deletes(self) -> int:
        """Number of deletion updates in the stream."""
        return int(np.count_nonzero(self.op == DELETE))

    def select(self, index: np.ndarray) -> "UpdateStream":
        """Subsequence by integer index array (order preserved)."""
        return replace(
            self,
            op=self.op[index],
            src=self.src[index],
            dst=self.dst[index],
            ts=self.ts[index],
        )

    def shuffled(self, seed: int | np.random.Generator | None = None) -> "UpdateStream":
        """Uniform random permutation of the update order."""
        rng = make_rng(seed)
        return self.select(rng.permutation(len(self)))

    def concatenated(self, other: "UpdateStream") -> "UpdateStream":
        """This stream followed by ``other`` (vertex spaces must match)."""
        if other.n != self.n:
            raise StreamError(f"vertex-count mismatch: {self.n} vs {other.n}")
        return UpdateStream(
            self.n,
            np.concatenate([self.op, other.op]),
            np.concatenate([self.src, other.src]),
            np.concatenate([self.dst, other.dst]),
            np.concatenate([self.ts, other.ts]),
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UpdateStream(n={self.n}, len={len(self)}, "
            f"+{self.n_inserts}/-{self.n_deletes})"
        )


# ---------------------------------------------------------------------- #
# builders
# ---------------------------------------------------------------------- #


def insertion_stream(
    graph: EdgeList,
    *,
    shuffle: bool = False,
    seed: int | np.random.Generator | None = None,
) -> UpdateStream:
    """Graph construction as a stream of insertions (Figures 1–4).

    Edge order follows the generator unless ``shuffle`` is set — the paper
    shuffles to avoid bursts of insertions to one high-degree vertex.
    """
    stream = UpdateStream(
        graph.n,
        np.full(graph.m, INSERT, dtype=np.int8),
        graph.src,
        graph.dst,
        graph.timestamps(),
        meta={"kind": "insertion", **dict(graph.meta)},
    )
    return stream.shuffled(seed) if shuffle else stream


def deletion_stream(
    graph: EdgeList,
    k: int,
    seed: int | np.random.Generator | None = None,
) -> UpdateStream:
    """``k`` random deletions of distinct existing edges (Figure 5).

    Samples edge *positions* without replacement, so every deletion refers
    to an edge that is actually present after construction.
    """
    if k < 0:
        raise StreamError(f"deletion count must be >= 0, got {k}")
    if k > graph.m:
        raise StreamError(f"cannot delete {k} edges from a graph with {graph.m}")
    rng = make_rng(seed)
    idx = rng.choice(graph.m, size=k, replace=False)
    return UpdateStream(
        graph.n,
        np.full(k, DELETE, dtype=np.int8),
        graph.src[idx],
        graph.dst[idx],
        graph.timestamps()[idx],
        meta={"kind": "deletion", "base_m": graph.m},
    )


def mixed_stream(
    graph: EdgeList,
    n_updates: int,
    insert_frac: float = 0.75,
    seed: int | np.random.Generator | None = None,
    *,
    insert_edges: EdgeList | None = None,
    delete_mode: str = "existing",
) -> UpdateStream:
    """Random mix of insertions and deletions (Figure 6: 50M at 75%/25%).

    ``delete_mode`` selects what the deletions target:

    * ``"existing"`` — random existing edges (degree-biased endpoints, the
      expensive case for linear-scan structures; Figure 5's workload);
    * ``"uniform"`` — uniform random vertex pairs, which in a sparse graph
      mostly name absent edges (cheap misses on short blocks).  This is the
      reading of Figure 6's "random selection of 50 million updates" that
      reconciles it with Figure 5 (see EXPERIMENTS.md).

    Insertions come from ``insert_edges`` when provided (e.g. freshly
    generated R-MAT edges); otherwise they re-sample the base graph's edges
    with replacement, which preserves the power-law hot-spot structure of
    the arrival process — repeated interactions between the same entities,
    the common case in the interaction networks the paper targets.
    """
    check_probability(insert_frac, "insert_frac")
    if n_updates < 0:
        raise StreamError(f"update count must be >= 0, got {n_updates}")
    if delete_mode not in ("existing", "uniform"):
        raise StreamError(f"delete_mode must be 'existing' or 'uniform', got {delete_mode!r}")
    rng = make_rng(seed)
    n_ins = int(round(n_updates * insert_frac))
    n_del = n_updates - n_ins
    if delete_mode == "existing" and n_del > graph.m:
        raise StreamError(
            f"{n_del} deletions requested but the base graph has {graph.m} edges"
        )

    if insert_edges is not None:
        if insert_edges.n != graph.n:
            raise StreamError("insert_edges vertex count must match the base graph")
        if insert_edges.m < n_ins:
            raise StreamError(
                f"{n_ins} insertions requested but insert_edges has {insert_edges.m}"
            )
        pick = rng.choice(insert_edges.m, size=n_ins, replace=False)
        ins_src = insert_edges.src[pick]
        ins_dst = insert_edges.dst[pick]
        ins_ts = insert_edges.timestamps()[pick]
    else:
        pick = rng.integers(0, graph.m, size=n_ins)
        ins_src = graph.src[pick]
        ins_dst = graph.dst[pick]
        ins_ts = graph.timestamps()[pick]

    if delete_mode == "existing":
        del_idx = rng.choice(graph.m, size=n_del, replace=False)
        del_src = graph.src[del_idx]
        del_dst = graph.dst[del_idx]
        del_ts = graph.timestamps()[del_idx]
    else:
        del_src = rng.integers(0, graph.n, size=n_del, dtype=np.int64)
        del_dst = rng.integers(0, graph.n, size=n_del, dtype=np.int64)
        del_ts = np.zeros(n_del, dtype=np.int64)
    op = np.concatenate(
        [np.full(n_ins, INSERT, dtype=np.int8), np.full(n_del, DELETE, dtype=np.int8)]
    )
    src = np.concatenate([ins_src, del_src])
    dst = np.concatenate([ins_dst, del_dst])
    ts = np.concatenate([ins_ts, del_ts])
    stream = UpdateStream(
        graph.n, op, src, dst, ts,
        meta={"kind": "mixed", "insert_frac": insert_frac, "delete_mode": delete_mode},
    )
    return stream.shuffled(rng)


def semisort(stream: UpdateStream) -> tuple[UpdateStream, np.ndarray]:
    """Stable sort of the updates by source vertex (paper section 2.1.2).

    Returns the reordered stream and the permutation applied: updates of one
    source keep their arrival order (the packed-key semisort the adjacency
    kernels group by, :func:`repro.adjacency.bulkops.stable_order`).  The
    sort itself is the paper's lower bound on batched-update cost; the
    experiment harness charges its modelled work separately.
    """
    perm, _ = stable_order(stream.src, stream.n)
    return stream.select(perm), perm


def iter_batches(stream: UpdateStream, batch_size: int) -> Iterator[UpdateStream]:
    """Split a stream into contiguous batches of at most ``batch_size``."""
    if batch_size <= 0:
        raise StreamError(f"batch size must be positive, got {batch_size}")
    for start in range(0, len(stream), batch_size):
        yield stream.select(np.arange(start, min(start + batch_size, len(stream))))
