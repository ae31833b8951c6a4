"""Process backend for the service's ``/components`` queries.

:class:`ShardRouter` owns (or borrows) a
:class:`~repro.parallel.pool.WorkerPool` and answers a pinned snapshot's
component labels with :func:`repro.parallel.components
.parallel_connected_components` — the repo's one process-parallel
components driver, which fans each hooking sweep of the one
:func:`~repro.core.components.hook_and_jump` pass loop out over contiguous
arc ranges.  Labels are canonical min-vertex-id labels, **bit-identical**
to the serial kernel at every worker count.

Crash behaviour: a worker death surfaces as
:class:`~repro.errors.WorkerCrashError` from the pool;
:meth:`ShardRouter.recover` rebuilds the workers via ``pool.restart()`` so
the service layer can retry the query (and fall back to the serial kernel if
the retry fails too).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.obs import METRICS
from repro.parallel.components import parallel_connected_components
from repro.parallel.pool import WorkerPool

__all__ = ["ShardRouter"]


class ShardRouter:
    """Owns (or borrows) a worker pool and routes components queries to it.

    Parameters
    ----------
    pool:
        An existing :class:`~repro.parallel.pool.WorkerPool` to borrow, or
        None to create (and own) one with ``workers`` processes.
    workers:
        Worker count when the router creates its own pool.
    """

    def __init__(self, pool: Optional[WorkerPool] = None, *, workers: Optional[int] = None) -> None:
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(workers)
        self.n_crashes = 0

    def components(self, snapshot: CSRGraph) -> np.ndarray:
        """Process-parallel component labels (``WorkerCrashError`` on a crash)."""
        labels = parallel_connected_components(snapshot, self.pool).labels
        METRICS.inc("service.shard.queries")
        return labels

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
