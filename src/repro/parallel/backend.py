"""Execution-backend selection: ``serial`` vs ``process``.

One small indirection layer so that every entry point — :class:`repro.api
.DynamicGraph`, the figure experiments, the ``repro trace`` CLI — takes a
``backend="serial"|"process"`` parameter and threads it down to the kernel
drivers without caring which one runs:

* :class:`SerialBackend` delegates to the in-process numpy kernels
  (:mod:`repro.core`), unchanged;
* :class:`ProcessBackend` owns a lazy :class:`~repro.parallel.pool
  .WorkerPool` and dispatches to the shared-memory drivers in this package.

Both produce bit-identical results (the process drivers' contract), so
``backend`` is purely an execution policy.  Pass a backend *instance* to
amortise the pool across many calls; pass the string form for one-shot
convenience (the API layer shuts a string-created process backend down
after the call).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.bfs import BFSResult, bfs
from repro.core.components import ComponentsResult, connected_components
from repro.core.linkcut import LinkCutForest
from repro.errors import ParallelError
from repro.parallel.bfs import parallel_bfs
from repro.parallel.components import parallel_connected_components
from repro.parallel.pool import WorkerPool

if TYPE_CHECKING:  # import cycle: the generators import the pool
    from repro.generators.rmat import RMATParams

__all__ = ["BACKENDS", "ExecutionBackend", "SerialBackend", "ProcessBackend", "resolve_backend"]

BACKENDS = ("serial", "process")


class ExecutionBackend:
    """Common interface of the execution backends."""

    name: str = "abstract"

    def bfs(
        self,
        graph: CSRGraph,
        source: int,
        *,
        ts_range: tuple[int, int] | None = None,
        max_levels: int | None = None,
    ) -> BFSResult:
        """Level-synchronous BFS from ``source`` (optionally time-filtered)."""
        raise NotImplementedError

    def connected_components(
        self, graph: CSRGraph, *, max_passes: int | None = None
    ) -> ComponentsResult:
        """Shiloach-Vishkin connected components with canonical labels."""
        raise NotImplementedError

    def query_batch(
        self, forest: LinkCutForest, us: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Connectivity answers plus the pointer-hop count of the batch.

        In this process on every backend: a large batch is gathers from one
        whole-forest resolve (:meth:`LinkCutForest.connected_batch`), which
        costs less than shipping the parent array to workers would.
        """
        before = forest.hops
        answers = forest.connected_batch(us, vs)
        return answers, forest.hops - before

    def rmat_edges(
        self,
        scale: int,
        m: int,
        *,
        params: "RMATParams | None" = None,
        seed: int | None = None,
        n_slices: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """R-MAT edge generation on this backend (bit-identical across backends)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """The in-process numpy kernels (the default)."""

    name = "serial"

    def bfs(
        self,
        graph: CSRGraph,
        source: int,
        *,
        ts_range: tuple[int, int] | None = None,
        max_levels: int | None = None,
    ) -> BFSResult:
        """Run the in-process BFS kernel."""
        return bfs(graph, source, ts_range=ts_range, max_levels=max_levels)

    def connected_components(
        self, graph: CSRGraph, *, max_passes: int | None = None
    ) -> ComponentsResult:
        """Run the in-process Shiloach-Vishkin kernel."""
        return connected_components(graph, max_passes=max_passes)

    def rmat_edges(
        self,
        scale: int,
        m: int,
        *,
        params: "RMATParams | None" = None,
        seed: int | None = None,
        n_slices: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the in-process serial generator (``n_slices`` is irrelevant here)."""
        from repro.generators.rmat import PAPER_RMAT, rmat_edges

        return rmat_edges(scale, m, params if params is not None else PAPER_RMAT, seed)


class ProcessBackend(ExecutionBackend):
    """Shared-memory multiprocess execution (see docs/PARALLEL.md)."""

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        *,
        method: str | None = None,
        timeout: float = 300.0,
    ) -> None:
        self.pool = WorkerPool(workers, method=method, timeout=timeout)

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

    def rmat_edges(
        self,
        scale: int,
        m: int,
        *,
        params: "RMATParams | None" = None,
        seed: int | None = None,
        n_slices: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate slices communication-free on the worker pool (shared memory).

        Lazy import: :mod:`repro.generators.parallel` imports the pool
        machinery at module load, so importing it here at call time keeps
        the ``backend -> generators -> parallel`` edge out of import time.
        """
        from repro.generators.parallel import rmat_edges_parallel
        from repro.generators.rmat import PAPER_RMAT

        src, dst, _ = rmat_edges_parallel(
            scale,
            m,
            params=params if params is not None else PAPER_RMAT,
            seed=seed,
            pool=self.pool,
            n_slices=n_slices,
        )
        return src, dst

    def close(self) -> None:
        """Shut the owned worker pool down."""
        self.pool.shutdown()


def resolve_backend(
    backend: str | ExecutionBackend,
    *,
    workers: int | None = None,
) -> tuple[ExecutionBackend, bool]:
    """Turn a backend spec into an instance.

    Returns ``(backend, owned)``: ``owned`` is True when this call created
    the instance (a string spec), in which case the caller is responsible
    for closing it — the pattern in :mod:`repro.api` is
    ``try: ... finally: if owned: be.close()``.
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None and backend.name == "process":
            got = getattr(backend, "workers", None)
            if got is not None and got != workers:
                raise ParallelError(
                    f"backend instance has {got} workers; cannot re-shape to {workers}"
                )
        return backend, False
    if backend == "serial":
        return SerialBackend(), True
    if backend == "process":
        return ProcessBackend(workers), True
    raise ParallelError(f"unknown backend {backend!r}; available: {BACKENDS}")
