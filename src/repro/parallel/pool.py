"""Persistent process pool for the shared-memory execution backend.

One :class:`WorkerPool` holds ``p`` long-lived worker processes.  Tasks are
small picklable descriptors — a registered task name, the
:class:`~repro.parallel.shm.ArenaDescriptor` of the shared arrays it reads,
and a payload of scalars/index bounds — so the per-task traffic is bytes
while the graph data crosses the process boundary exactly once, through
shared memory.

Design points:

* **One arena lifecycle** — the pool owns the *resident* arena: a
  snapshot's immutable CSR arrays, copied in by the first driver call on
  that snapshot object (:meth:`WorkerPool.resident`), reused by every later
  one, replaced when another snapshot arrives, unlinked by shutdown,
  restart and crash teardown.  Everything else is a per-call arena its
  driver creates and unlinks.  A worker unmaps, at the start of each task,
  every arena that task does not name, so it maps the resident arena plus
  the current call's and an unlinked segment never outlives that worker's
  next task.

* **Deterministic routing** — task ``i`` of a round goes to worker
  ``i % p`` and results are re-ordered by task index before they are
  returned, so callers can merge partial results in submission order.
* **Crash resilience** — the parent polls worker liveness while draining
  results; a worker that dies mid-round raises
  :class:`~repro.errors.WorkerCrashError` (and a worker that raises
  re-raises here with the worker traceback attached) instead of hanging on
  a queue that will never fill.
* **Results only** — a worker replies ``(task_id, worker_id, status,
  out)`` and nothing else.  Workers never trace: each drops the process
  tracer it inherited at start, so no span of theirs lands in the parent's
  trace file.  The parent ticks the pool's own metrics:
  ``parallel.pools_started``, ``parallel.pool.tasks_dispatched`` /
  ``.tasks_completed`` / ``.task_errors`` / ``.restarts`` counters and a
  ``parallel.pool.workers`` gauge.

Worker-side task functions are registered with :func:`task` at import time;
``_worker_main`` imports the kernel modules explicitly so registration also
happens under the ``spawn`` start method.
"""

from __future__ import annotations

import contextvars
import os
import time
import traceback
import weakref
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ParallelError, WorkerCrashError
from repro.obs import METRICS, disable_tracing
from repro.parallel.shm import ArenaDescriptor, ShmArena

if TYPE_CHECKING:
    from repro.adjacency.csr import CSRGraph

__all__ = ["TaskSpec", "WorkerPool", "task", "default_workers"]

#: Registered worker-side task functions: name -> fn(views, payload) -> result.
_TASKS: dict[str, Callable[[dict, dict], Any]] = {}

#: Seconds a result drain waits between liveness polls.
_POLL_SECONDS = 0.05


def task(name: str) -> Callable[[Callable[[dict, dict], Any]], Callable[[dict, dict], Any]]:
    """Decorator registering a worker-side task function under ``name``."""

    def register(fn: Callable[[dict, dict], Any]) -> Callable[[dict, dict], Any]:
        """Record ``fn`` in the task registry and return it unchanged."""
        _TASKS[name] = fn
        return fn

    return register


def default_workers() -> int:
    """Worker count when the caller does not choose: the visible CPUs."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class TaskSpec:
    """One unit of work: a task name, its shared arrays, and a payload."""

    __slots__ = ("name", "arenas", "payload")

    def __init__(
        self,
        name: str,
        payload: dict,
        arenas: Sequence[ArenaDescriptor] = (),
    ) -> None:
        self.name = name
        self.payload = payload
        self.arenas = tuple(arenas)


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #


def _worker_views(
    cache: dict[str, ShmArena], descriptors: Sequence[ArenaDescriptor]
) -> dict[str, Any]:
    """The arrays a task names; arenas it does not name are unmapped first
    (an unlinked segment only gives its pages back once nobody maps it)."""
    keys = [d.shm_name or repr(d.specs) for d in descriptors]
    for stale in cache.keys() - keys:
        cache.pop(stale).close()
    views: dict[str, Any] = {}
    for key, d in zip(keys, descriptors):
        arena = cache.get(key)
        if arena is None:
            arena = cache[key] = ShmArena.attach(d)
        views.update(arena.views())
    return views


def _worker_main(worker_id: int, task_q: Any, result_q: Any) -> None:
    # A forked worker inherits the parent's process tracer (and its sink:
    # with a JSONL file, the parent's trace file); workers never trace.
    disable_tracing()
    # Explicit imports populate the task registry under the spawn method.
    import repro.parallel.bfs  # noqa: F401
    import repro.parallel.components  # noqa: F401

    arenas: dict[str, ShmArena] = {}
    while True:
        msg = task_q.get()
        if msg is None:
            break
        task_id, name, descriptors, payload = msg
        try:
            fn = _TASKS.get(name)
            if fn is None:
                raise ParallelError(f"worker has no task {name!r}; registered: {sorted(_TASKS)}")
            out = fn(_worker_views(arenas, descriptors), payload)
            result_q.put((task_id, worker_id, "ok", out))
        except BaseException as exc:  # noqa: BLE001 - relayed to the parent
            detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            result_q.put((task_id, worker_id, "error", detail))
    for arena in arenas.values():
        arena.close()


#: Self-test tasks used by the pool's own test-suite.


@task("selftest.echo")
def _selftest_echo(views: dict, payload: dict) -> dict:
    """Echo the payload back (used by pool round-trip tests)."""
    return {"echo": payload.get("value"), "arrays": sorted(views)}


@task("selftest.mapped")
def _selftest_mapped(views: dict, payload: dict) -> list[str]:
    """Shared-memory segments this worker maps right now (arena lifecycle tests)."""
    with open("/proc/self/maps") as fh:
        names = {line.split("/dev/shm/", 1)[1].split()[0] for line in fh if "/dev/shm/" in line}
    return sorted(n for n in names if not n.startswith("sem."))  # queue locks live there too


@task("selftest.exit")
def _selftest_exit(views: dict, payload: dict) -> None:
    # Simulates a hard worker crash (segfault/OOM-kill): no exception, no
    # result, the process just disappears.
    os._exit(int(payload.get("code", 1)))


@task("selftest.fail")
def _selftest_fail(views: dict, payload: dict) -> None:
    # A task that raises: the worker survives and relays the traceback.
    raise ValueError(str(payload.get("message", "selftest failure")))


@task("selftest.sleep")
def _selftest_sleep(views: dict, payload: dict) -> float:
    # Simulates a stalled worker: busy on one task past the round timeout.
    seconds = float(payload.get("seconds", 1.0))
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(0.01)
    return seconds


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #


class WorkerPool:
    """``p`` persistent worker processes executing registered tasks.

    Parameters
    ----------
    workers:
        Process count (default: visible CPUs).
    method:
        ``multiprocessing`` start method; default ``fork`` where available
        (cheap, inherits the import state), otherwise ``spawn``.
    timeout:
        Per-round ceiling in seconds while draining results; a round that
        exceeds it raises :class:`~repro.errors.WorkerCrashError` naming the
        outstanding tasks (hang protection for CI).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        method: str | None = None,
        timeout: float = 300.0,
    ) -> None:
        import multiprocessing as mp

        self.workers = int(workers) if workers else default_workers()
        if self.workers <= 0:
            raise ParallelError(f"worker count must be positive, got {workers}")
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self.method = method
        self.timeout = float(timeout)
        self._procs: list[Any] = []
        self._task_qs: list[Any] = []
        self._result_q: Any = None
        self._started = False
        self._closed = False
        #: Monotonic task ids across rounds, so a late result from a timed-out
        #: round can never be mistaken for one of the current round's.
        self._task_counter = 0
        #: The one snapshot published to the workers: ``(weakref to the
        #: graph, its arena)``; see :meth:`resident`.
        self._resident: tuple[weakref.ref, ShmArena] | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "WorkerPool":
        """Launch the worker processes (idempotent; returns ``self``)."""
        if self._closed:
            raise ParallelError("pool has been shut down")
        if self._started:
            return self
        self._result_q = self._ctx.Queue()
        for wid in range(self.workers):
            tq = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(wid, tq, self._result_q),
                name=f"repro-worker-{wid}",
                daemon=True,
            )
            # In an empty context: a forked worker would otherwise inherit the
            # span open in this thread, and with it that span's tracer.
            contextvars.Context().run(proc.start)
            self._task_qs.append(tq)
            self._procs.append(proc)
        self._started = True
        METRICS.inc("parallel.pools_started")
        METRICS.set("parallel.pool.workers", self.workers)
        return self

    def shutdown(self) -> None:
        """Stop the workers and unlink the resident arena (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for tq in self._task_qs:
            try:
                tq.put(None)
            except (OSError, ValueError):  # pragma: no cover - dead queue
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._reap()

    def resident(self, graph: "CSRGraph") -> ArenaDescriptor:
        """Descriptor of the arena holding ``graph``'s ``offsets`` / ``targets`` / ``ts``.

        Copied into shared memory on the first call and reused while the same
        snapshot *object* keeps arriving; a different one replaces it (the
        old segment is unlinked here, unmapped by each worker at its next
        task).  :meth:`shutdown`, :meth:`restart` and a crash release it.
        """
        self.start()
        if self._resident is None or self._resident[0]() is not graph:
            self._release_resident()
            arrays = {"offsets": graph.offsets, "targets": graph.targets}
            if graph.ts is not None:
                arrays["ts"] = graph.ts
            self._resident = (weakref.ref(graph), ShmArena.create(arrays))
        return self._resident[1].descriptor

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run_tasks(self, tasks: Sequence[TaskSpec]) -> list[Any]:
        """Execute a round of tasks; results in submission order.

        Task ``i`` runs on worker ``i % p``.  Raises
        :class:`~repro.errors.WorkerCrashError` if any worker dies or
        reports an exception; remaining results of the round are drained
        best-effort first so the pool stays usable after a task error.
        """
        if not tasks:
            return []
        self.start()
        base = self._task_counter
        self._task_counter += len(tasks)
        for i, spec in enumerate(tasks):
            if spec.name not in _TASKS:
                raise ParallelError(f"unknown task {spec.name!r}")
            self._task_qs[i % self.workers].put((base + i, spec.name, spec.arenas, spec.payload))
        METRICS.inc("parallel.pool.tasks_dispatched", len(tasks))
        results: dict[int, Any] = {}
        errors: dict[int, str] = {}
        deadline = self._now() + self.timeout
        while len(results) + len(errors) < len(tasks):
            got = self._drain_one(
                deadline, n_expected=len(tasks), n_done=len(results) + len(errors)
            )
            task_id, _worker_id, status, out = got
            if not base <= task_id < base + len(tasks):
                continue  # stale result from an abandoned round
            if status == "ok":
                METRICS.inc("parallel.pool.tasks_completed")
                results[task_id - base] = out
            else:
                METRICS.inc("parallel.pool.task_errors")
                errors[task_id - base] = out
        if errors:
            first = min(errors)
            raise WorkerCrashError(
                f"{len(errors)} task(s) failed in round of {len(tasks)}; "
                f"task {first} reported:\n{errors[first]}"
            )
        return [results[i] for i in range(len(tasks))]

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    def restart(self) -> "WorkerPool":
        """Replace all workers with fresh processes (clean recovery).

        Usable both on a healthy pool and after a crash/timeout teardown
        marked it closed; round state (the task counter) survives so stale
        results from the previous generation are still filtered out.
        """
        self._reap()
        self._closed = False
        METRICS.inc("parallel.pool.restarts")
        return self.start()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _now() -> float:
        return time.monotonic()

    def _drain_one(self, deadline: float, *, n_expected: int, n_done: int) -> tuple:
        import queue as queue_mod

        while True:
            try:
                return self._result_q.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                dead = [(p.name, p.exitcode) for p in self._procs if not p.is_alive()]
                if dead:
                    names = ", ".join(f"{n} (exit {c})" for n, c in dead)
                    # Round integrity is gone once one worker dies.
                    self._reap()
                    self._closed = True
                    raise WorkerCrashError(
                        f"worker process died mid-round: {names}; "
                        f"{n_done}/{n_expected} results received"
                    ) from None
                if self._now() > deadline:
                    raise WorkerCrashError(
                        f"round timed out after {self.timeout:.0f}s with "
                        f"{n_done}/{n_expected} results"
                    ) from None

    def _reap(self) -> None:
        """Kill what still runs; drop the queues and the resident arena."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for q in (*self._task_qs, self._result_q):
            if q is not None:
                q.close()
        self._procs.clear()
        self._task_qs.clear()
        self._result_q = None
        self._started = False
        self._release_resident()

    def _release_resident(self) -> None:
        held, self._resident = self._resident, None
        if held is not None:
            held[1].close()
            held[1].unlink()
