"""The worker pool as one object: :class:`ProcessBackend`.

It owns a lazy :class:`~repro.parallel.pool.WorkerPool` and dispatches BFS
and connected components to the shared-memory drivers in this package.
Both are bit-identical to the in-process kernels of :mod:`repro.core` (the
drivers' contract), so a caller that wants the pool holds one of these and
calls it; nothing else in the library selects an execution policy.
"""

from __future__ import annotations

from repro.adjacency.csr import CSRGraph
from repro.core.bfs import BFSResult
from repro.core.components import ComponentsResult
from repro.parallel.bfs import parallel_bfs
from repro.parallel.components import parallel_connected_components
from repro.parallel.pool import WorkerPool

__all__ = ["ProcessBackend"]


class ProcessBackend:
    """Shared-memory multiprocess execution (see docs/PARALLEL.md)."""

    def __init__(self, workers: int | None = None) -> None:
        self.pool = WorkerPool(workers)

    @property
    def workers(self) -> int:
        """The pool's worker-process count."""
        return self.pool.workers

    def bfs(
        self,
        graph: CSRGraph,
        source: int,
        *,
        ts_range: tuple[int, int] | None = None,
        max_levels: int | None = None,
    ) -> BFSResult:
        """Run the shared-memory BFS driver on the worker pool."""
        return parallel_bfs(graph, source, self.pool, ts_range=ts_range, max_levels=max_levels)

    def connected_components(
        self, graph: CSRGraph, *, max_passes: int | None = None
    ) -> ComponentsResult:
        """Run the shared-memory Shiloach-Vishkin driver on the pool."""
        return parallel_connected_components(graph, self.pool, max_passes=max_passes)

    def close(self) -> None:
        """Shut the owned worker pool down; idempotent."""
        self.pool.shutdown()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
