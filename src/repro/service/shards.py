"""Sharded components execution for the service (Vpart over worker processes).

The optional process backend for ``/components`` queries: the arc set of a
pinned snapshot is partitioned by *source-vertex ownership* —
:func:`repro.parallel.partition.vpart_owner`, the paper's Vpart scheme
(``owner(u, p) = u % p``) — and each :class:`~repro.parallel.pool.WorkerPool`
process runs min-label propagation to a fixpoint over its own shard's arcs.

A worker's fixpoint labels encode, for every vertex it touched, "``v`` is
connected to ``root``"; those ``(v, root)`` pairs are a sparse spanning
certificate of the shard subgraph's connectivity.  The union of all shards'
pairs therefore has exactly the connected components of the full graph (each
pair joins vertices connected in the full graph; each full-graph arc lives in
some shard, whose certificate joins its endpoints).  The parent merges by
running the *serial* :func:`~repro.core.components.connected_components`
kernel over the tiny pairs graph, which yields canonical min-vertex-id
labels — **bit-identical** to running the serial kernel on the whole
snapshot, at every shard count.

Crash behaviour: a worker death surfaces as
:class:`~repro.errors.WorkerCrashError` from the pool;
:meth:`ShardRouter.recover` rebuilds the workers via ``pool.restart()`` so
the service layer can retry the query (and fall back to the serial kernel if
the retry fails too).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.adjacency.csr import CSRGraph, csr_from_arrays
from repro.core.components import connected_components
from repro.errors import ServiceError
from repro.obs import METRICS, span
from repro.parallel.pool import TaskSpec, WorkerPool, task
from repro.parallel.shm import ShmArena

__all__ = ["ShardRouter", "shard_components"]


@task("service.shard_components")
def _shard_components(views: dict, payload: dict) -> dict:
    """One shard's connectivity certificate (worker side).

    Selects the arcs this shard owns (``vpart_owner(src) == shard``), runs
    min-label propagation with pointer jumping to a fixpoint over them, and
    returns the sparse ``(vertex, root)`` pairs where the label moved.
    """
    if payload.get("fault") == "exit":  # test hook: simulated hard crash
        os._exit(1)
    shard = int(payload["shard"])
    n_shards = int(payload["n_shards"])
    n = int(payload["n"])
    mine = (views["src"] % n_shards) == shard
    s = views["src"][mine]
    d = views["dst"][mine]
    labels = np.arange(n, dtype=np.int64)
    while True:
        prev = labels
        local = labels.copy()
        np.minimum.at(local, s, labels[d])
        np.minimum.at(local, d, labels[s])
        while True:
            jumped = local[local]
            if np.array_equal(jumped, local):
                break
            local = jumped
        if np.array_equal(local, prev):
            break
        labels = local
    moved = np.nonzero(labels != np.arange(n, dtype=np.int64))[0]
    METRICS.inc("service.shard.arcs", int(s.size))
    return {
        "idx": np.ascontiguousarray(moved),
        "val": np.ascontiguousarray(labels[moved]),
        "arcs": int(s.size),
    }


def shard_components(
    snapshot: CSRGraph, pool: WorkerPool, *, n_shards: Optional[int] = None,
    fault: Optional[str] = None,
) -> np.ndarray:
    """Component labels of ``snapshot`` via Vpart-sharded workers.

    Returns canonical min-vertex-id labels, bit-identical to the serial
    kernel.  Raises :class:`~repro.errors.WorkerCrashError` if a shard
    worker dies; the caller decides between :meth:`ShardRouter.recover`
    and a serial fallback.  ``fault`` is a test-only injection forwarded to
    shard 0's payload.
    """
    n = snapshot.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    p = int(n_shards) if n_shards else pool.workers
    if p <= 0:
        raise ServiceError(f"shard count must be positive, got {p}")
    pool.start()
    src = np.repeat(np.arange(n, dtype=np.int64), snapshot.degrees())
    arrays = {"src": src, "dst": snapshot.targets}
    with span("service.shard_components", n=n, arcs=snapshot.n_arcs, shards=p):
        with ShmArena.create(arrays) as arena:
            specs = []
            for shard in range(p):
                payload = {"shard": shard, "n_shards": p, "n": n}
                if fault is not None and shard == 0:
                    payload["fault"] = fault
                specs.append(
                    TaskSpec("service.shard_components", payload, arenas=(arena.descriptor,))
                )
            outs = pool.run_tasks(specs)
        pair_src = np.concatenate([o["idx"] for o in outs]) if outs else np.empty(0, np.int64)
        pair_dst = np.concatenate([o["val"] for o in outs]) if outs else np.empty(0, np.int64)
        # Merge: serial canonical-label kernel over the pairs certificate
        # (symmetrised; tiny — at most one pair per non-root vertex per shard).
        merged = csr_from_arrays(
            n, np.concatenate([pair_src, pair_dst]), np.concatenate([pair_dst, pair_src])
        )
        labels = connected_components(merged).labels
    METRICS.inc("service.shard.queries")
    return labels


class ShardRouter:
    """Owns (or borrows) a worker pool and routes sharded components queries.

    Parameters
    ----------
    pool:
        An existing :class:`~repro.parallel.pool.WorkerPool` to borrow, or
        None to create (and own) one with ``workers`` processes.
    workers:
        Worker count when the router creates its own pool.
    n_shards:
        Vertex-space shard count (default: the pool's worker count).
    """

    def __init__(
        self,
        pool: Optional[WorkerPool] = None,
        *,
        workers: Optional[int] = None,
        n_shards: Optional[int] = None,
    ) -> None:
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(workers)
        self.n_shards = n_shards
        self.n_crashes = 0

    def components(self, snapshot: CSRGraph, *, fault: Optional[str] = None) -> np.ndarray:
        """Sharded component labels (raises ``WorkerCrashError`` on a crash)."""
        return shard_components(
            snapshot, self.pool, n_shards=self.n_shards, fault=fault
        )

    def recover(self) -> None:
        """Replace crashed workers with a fresh generation (``pool.restart()``)."""
        self.n_crashes += 1
        METRICS.inc("service.shard.crashes")
        self.pool.restart()

    def close(self) -> None:
        """Shut the pool down if this router created it (borrowed pools stay up)."""
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "ShardRouter":
        self.pool.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
