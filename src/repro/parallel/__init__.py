"""Shared-memory multiprocess execution (docs/PARALLEL.md).

The paper's parallel connectivity and BFS kernels ran on Niagara/Power5
SMPs; the simulator in :mod:`repro.machine` predicts those curves, and this
package *measures* real ones: a pool of worker processes
(:mod:`~repro.parallel.pool`) operating over the CSR arrays through
``multiprocessing.shared_memory`` (:mod:`~repro.parallel.shm`), with
deterministic work partitioning (:mod:`~repro.parallel.partition`) and
drivers for the hottest kernels — level-synchronous BFS and connected
components by multi-round hooking.  Connectivity query batches stay in the
parent (:meth:`~repro.core.connectivity.ConnectivityIndex.query_batch`).

Every driver is bit-identical to its serial counterpart at any worker
count.  Hold a :class:`ProcessBackend` to run them on one reused pool::

    >>> from repro.api import DynamicGraph
    >>> g = DynamicGraph.from_edges(4, [0, 1], [1, 2])
    >>> with ProcessBackend(1) as pool:
    ...     pool.connected_components(g.snapshot()).n_components
    2
"""

from repro.parallel.backend import ProcessBackend
from repro.parallel.bfs import parallel_bfs
from repro.parallel.components import parallel_connected_components
from repro.parallel.pool import WorkerPool

__all__ = [
    "ProcessBackend",
    "parallel_bfs",
    "parallel_connected_components",
    "WorkerPool",
]
