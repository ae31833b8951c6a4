"""Shared-memory lifetime: one resident arena per snapshot, nothing stranded.

Counted, not timed: the segments under ``/dev/shm`` this process created and
the segments each worker maps (the ``selftest.mapped`` task reads the
worker's ``/proc/self/maps``).  The pool publishes a snapshot once, every
kernel call on it reuses that arena beside a small per-call one, a worker
keeps mapped only what its current task names, and ``close`` / ``restart`` /
a crash teardown leave no segment behind.
"""

import os

import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.api import DynamicGraph
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.errors import WorkerCrashError
from repro.generators.rmat import rmat_graph
from repro.parallel.backend import ProcessBackend
from repro.parallel.pool import TaskSpec
from tests.core.bfs_oracle import assert_bfs_equal

SHM = "/dev/shm"
pytestmark = pytest.mark.skipif(
    not (os.path.isdir(SHM) and os.path.exists("/proc/self/maps")),
    reason="needs Linux /dev/shm and /proc/self/maps",
)


@pytest.fixture(scope="module")
def csr():
    # Wide enough that BFS levels and hooking sweeps really fan out.
    return build_csr(rmat_graph(11, 8, seed=5, ts_range=(1, 40)))


@pytest.fixture
def created():
    """Callable: the segments created since the test began, name -> bytes."""
    before = set(os.listdir(SHM))

    def new_segments() -> dict[str, int]:
        names = set(os.listdir(SHM)) - before
        return {name: os.stat(os.path.join(SHM, name)).st_size for name in names}

    return new_segments


def snapshot_bytes(graph) -> int:
    return sum(a.nbytes for a in (graph.offsets, graph.targets, graph.ts) if a is not None)


def worker_maps(be, graph) -> list[list[str]]:
    """What each worker maps once a task naming only the resident arena has run."""
    resident = be.pool.resident(graph)
    return be.pool.run_tasks(
        [TaskSpec("selftest.mapped", {}, arenas=(resident,)) for _ in range(be.workers)]
    )


def assert_serial(be, graph, source=0):
    assert_bfs_equal(bfs(graph, source), be.bfs(graph, source))
    want, got = connected_components(graph), be.connected_components(graph)
    np.testing.assert_array_equal(want.labels, got.labels)
    assert (want.n_passes, want.jump_rounds) == (got.n_passes, got.jump_rounds)


def test_one_resident_arena_across_calls(csr, created):
    index = ConnectivityIndex.from_csr(csr)
    rng = np.random.default_rng(3)
    us, vs = rng.integers(0, csr.n, (2, 5000))
    with ProcessBackend(2) as be:
        for source in range(10):
            be.bfs(csr, source)
        for _ in range(3):
            be.connected_components(csr)
        for _ in range(2):
            index.query_batch(us, vs, backend=be)
        # Per-call arenas are gone; what is left is the one snapshot copy.
        (name, size), = created().items()
        assert name == be.pool.resident(csr).shm_name
        assert snapshot_bytes(csr) <= size < snapshot_bytes(csr) + 4096
        assert worker_maps(be, csr) == [[name], [name]]
        assert_serial(be, csr)
        assert list(created()) == [name]
    assert created() == {}


def test_killed_worker_and_restart_leave_nothing(csr, created):
    with ProcessBackend(2) as be:
        be.bfs(csr, 0)
        first = be.pool.resident(csr).shm_name
        with pytest.raises(WorkerCrashError):
            be.pool.run_tasks(
                [TaskSpec("selftest.exit", {}), TaskSpec("selftest.echo", {"value": 1})]
            )
        assert created() == {}  # the crash teardown unlinked the resident arena
        be.pool.restart()
        assert_serial(be, csr)
        (second,) = created()
        assert second != first
        assert worker_maps(be, csr) == [[second], [second]]
        be.pool.restart()  # a healthy pool too
        assert created() == {}
        assert_serial(be, csr)
    assert created() == {}


def test_new_snapshot_replaces_the_arena(created):
    edges = rmat_graph(10, 8, seed=9)
    g = DynamicGraph.from_edgelist(edges)
    with ProcessBackend(2) as be:
        old = g.snapshot()
        assert_serial(be, old)
        first = be.pool.resident(old).shm_name
        assert g.snapshot() is old and be.pool.resident(g.snapshot()).shm_name == first
        g.insert_edge(0, g.n - 1)
        new = g.snapshot()
        assert new is not old
        assert_serial(be, new)
        second = be.pool.resident(new).shm_name
        assert list(created()) == [second] and second != first
        assert worker_maps(be, new) == [[second], [second]]
    assert created() == {}


def test_two_backends_own_their_arenas(csr, created):
    with ProcessBackend(2) as a, ProcessBackend(2) as b:
        # Fork both before either publishes: a forked worker inherits every
        # mapping its parent holds at that moment.
        a.pool.start()
        b.pool.start()
        assert_serial(a, csr)
        assert_serial(b, csr)
        mine, theirs = a.pool.resident(csr).shm_name, b.pool.resident(csr).shm_name
        assert mine != theirs and sorted(created()) == sorted([mine, theirs])
        a.close()
        assert list(created()) == [theirs]
        assert_serial(b, csr, source=1)
        assert worker_maps(b, csr) == [[theirs], [theirs]]
    assert created() == {}


def test_repeated_calls_on_one_backend_equal_serial(csr):
    sources = [int(s) for s in np.argsort(csr.degrees())[-4:]]
    with ProcessBackend(2) as be:
        for s in sources:
            assert_bfs_equal(bfs(csr, s), be.bfs(csr, s))
        assert_serial(be, csr, source=sources[0])
        for ts_range in [(1, 20), (15, 40)]:
            assert_bfs_equal(
                bfs(csr, sources[0], ts_range=ts_range),
                be.bfs(csr, sources[0], ts_range=ts_range),
            )
        assert_bfs_equal(bfs(csr, sources[1]), be.bfs(csr, sources[1]))
