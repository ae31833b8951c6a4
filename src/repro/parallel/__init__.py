"""Shared-memory multiprocess execution backend (docs/PARALLEL.md).

The paper's parallel connectivity and BFS kernels ran on Niagara/Power5
SMPs; the simulator in :mod:`repro.machine` predicts those curves, and this
package *measures* real ones: a pool of worker processes
(:mod:`~repro.parallel.pool`) operating over the CSR arrays through
``multiprocessing.shared_memory`` (:mod:`~repro.parallel.shm`), with
deterministic work partitioning (:mod:`~repro.parallel.partition`) and
drivers for the hottest kernels — level-synchronous BFS and connected
components by multi-round hooking.  Connectivity query batches stay in the
parent on every backend (:meth:`ExecutionBackend.query_batch`).

Every driver is bit-identical to its serial counterpart at any worker
count; ``backend="process"`` is an execution policy, never a semantics
change.  Select it through :func:`resolve_backend` /
:class:`ProcessBackend`, or at the API layer::

    >>> from repro.api import DynamicGraph
    >>> g = DynamicGraph.from_edges(4, [0, 1], [1, 2])
    >>> g.connected_components(backend="serial").n_components
    2
"""

from repro.parallel.backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.parallel.bfs import parallel_bfs, parallel_bfs_profile
from repro.parallel.components import parallel_connected_components
from repro.parallel.partition import range_chunks, vpart_owner, weighted_chunks
from repro.parallel.pool import TaskSpec, WorkerPool, default_workers
from repro.parallel.shm import ArenaDescriptor, ArraySpec, ShmArena

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "parallel_bfs",
    "parallel_bfs_profile",
    "parallel_connected_components",
    "WorkerPool",
    "TaskSpec",
    "default_workers",
    "ShmArena",
    "ArenaDescriptor",
    "ArraySpec",
    "range_chunks",
    "weighted_chunks",
    "vpart_owner",
]
