"""Exception hierarchy for :mod:`repro`.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with one ``except`` clause while
still being able to distinguish the failure classes that matter in practice
(bad vertex ids, malformed update streams, misconfigured machine models).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "VertexError",
    "StreamError",
    "MachineModelError",
    "ProfileError",
    "NotInForestError",
    "ParallelError",
    "WorkerCrashError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """A graph-level invariant was violated (sizes, dtypes, topology)."""


class VertexError(GraphError):
    """A vertex id is out of range or otherwise invalid."""


class StreamError(ReproError):
    """An update stream is malformed (bad op codes, shape mismatch)."""


class MachineModelError(ReproError):
    """A machine specification or cost-model parameter is invalid."""


class ProfileError(ReproError):
    """A work profile is malformed (negative counts, missing phases)."""


class NotInForestError(ReproError):
    """A link-cut tree operation referenced a vertex with no tree node."""


class ParallelError(ReproError):
    """The multiprocess execution backend was misused or misconfigured."""


class WorkerCrashError(ParallelError):
    """A pool worker died (or failed) instead of returning a result.

    Raised by :class:`repro.parallel.pool.WorkerPool` when a worker process
    exits abnormally mid-task or reports an exception, so callers see a
    clean error instead of a hang on a half-finished round.
    """


class ServiceError(ReproError):
    """The streaming connectivity service was misused or is unavailable.

    Raised by :mod:`repro.service` for protocol violations (querying before
    the first epoch is published, unbalanced epoch releases, submitting to a
    closed drainer) — never for query-level input errors, which surface as
    HTTP 400s carrying the underlying :class:`GraphError` message.
    """
