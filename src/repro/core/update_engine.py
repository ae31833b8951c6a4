"""Structural-update driver (paper section 2).

Feeds an :class:`~repro.generators.streams.UpdateStream` into any adjacency
representation, handling undirected symmetrisation (each edge update becomes
two arc updates), measuring the stream's contention statistics, and
assembling the representation's counters into the
:class:`~repro.machine.profile.WorkProfile` the simulator evaluates.

MUPS accounting note: the paper's rates count *edge* updates; with
undirected graphs each edge update performs two arc operations internally,
which simply makes the per-update work profile twice as heavy — the MUPS
figures always divide by the number of stream updates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation, HotStats
from repro.edgelist import EdgeList
from repro.generators.streams import UpdateStream, insertion_stream
from repro.machine.profile import WorkProfile
from repro.obs import METRICS, manifest_meta, span
from repro.util.timing import Timer
from repro.util.validation import check_same_length

__all__ = ["UpdateResult", "apply_stream", "construct", "symmetric_arcs"]


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of applying one stream to one representation."""

    rep: AdjacencyRepresentation
    n_updates: int
    n_arc_ops: int
    misses: int
    host_seconds: float
    profile: WorkProfile
    hot: HotStats
    meta: dict = field(default_factory=dict)


def symmetric_arcs(src, dst, ts=None):
    """``(src, dst, ts)`` of both arcs of every edge, each edge's two arcs
    adjacent (``u → v``, then ``v → u``), ``ts`` repeated per arc (None
    stays None).  Copies of one edge then arrive in one order at both
    endpoints, so an oldest-copy delete drops the same copy from each and a
    snapshot stays its own transpose.  A self-loop is two arcs, like any
    edge."""
    check_same_length([("src", src), ("dst", dst)])
    both_src = np.empty(2 * len(src), dtype=np.int64)
    both_dst = np.empty_like(both_src)
    both_src[0::2] = both_dst[1::2] = src
    both_src[1::2] = both_dst[0::2] = dst
    return both_src, both_dst, None if ts is None else np.repeat(np.asarray(ts, np.int64), 2)


def _arc_stream(stream: UpdateStream, undirected: bool):
    """Expand an edge stream into arc arrays (:func:`symmetric_arcs` for
    undirected)."""
    if not undirected:
        return stream.op, stream.src, stream.dst, stream.ts
    return (np.repeat(stream.op, 2), *symmetric_arcs(stream.src, stream.dst, stream.ts))


def apply_stream(
    rep: AdjacencyRepresentation,
    stream: UpdateStream,
    *,
    undirected: bool = True,
    phase_name: str = "updates",
    reset_stats: bool = True,
    probe_scale: float = 1.0,
) -> UpdateResult:
    """Apply ``stream`` to ``rep`` and return results plus the work profile.

    ``reset_stats`` zeroes the representation's counters first so the
    profile covers exactly this stream (the paper times construction,
    deletion and mixed phases separately).

    ``probe_scale`` multiplies the measured linear-probe word count before
    the profile is built.  Experiments that extrapolate to larger instances
    use it to apply the analytically known growth of scan lengths (see
    :func:`repro.machine.scale.rmat_size_biased_growth`); the default leaves
    measurements untouched.

    The arcs go to ``rep.apply_arcs`` as one batch, whose counters equal
    the per-op reference's (see docs/PERFORMANCE.md), so the simulated
    work profile does not depend on how the host applied them.
    ``meta["vectorised"]`` reports whether this stream applied a batch
    (whether it held any arc).
    """
    if rep.n != stream.n:
        raise ValueError(
            f"representation has {rep.n} vertices but stream has {stream.n}"
        )
    if probe_scale < 0:
        raise ValueError(f"probe_scale must be >= 0, got {probe_scale}")
    if reset_stats:
        rep.reset_stats()
    before = asdict(rep.combined_stats())
    with span(
        "update_engine.apply_stream",
        representation=rep.kind,
        n_updates=len(stream),
        phase=phase_name,
        undirected=undirected,
    ) as sp:
        op, src, dst, ts = _arc_stream(stream, undirected)
        hot = HotStats.from_keys(src, rep.n)
        with Timer() as t:
            with span(f"adjacency.{rep.kind}.apply_arcs", n_arc_ops=int(op.size)):
                misses = rep.apply_arcs(op, src, dst, ts)
        if probe_scale != 1.0:
            # Applies to the representation's own counters only: for the hybrid
            # structure the long scans live in treaps at scale (its array probes
            # are bounded by degree_thresh), so callers pass 1.0 there.
            rep.stats.probe_words = int(rep.stats.probe_words * probe_scale)
        phase = rep.phase(phase_name, hot)
        sp.set(n_arc_ops=int(op.size), misses=misses, host_seconds=t.elapsed)
    _tick_update_metrics(rep, op.size, misses, before)
    profile = WorkProfile(
        phase_name,
        (phase,),
        meta={
            "representation": rep.kind,
            "n": rep.n,
            "n_updates": len(stream),
            "n_arc_ops": int(op.size),
            "inserts": stream.n_inserts,
            "deletes": stream.n_deletes,
            "undirected": undirected,
            "misses": misses,
            "host_seconds": t.elapsed,
            "host_mups": (len(stream) / t.elapsed / 1e6) if t.elapsed > 0 else 0.0,
            **manifest_meta(),
        },
    )
    return UpdateResult(
        rep=rep,
        n_updates=len(stream),
        n_arc_ops=int(op.size),
        misses=misses,
        host_seconds=t.elapsed,
        profile=profile,
        hot=hot,
        meta={"vectorised": op.size > 0},
    )


#: The :class:`UpdateStats` fields ticked as ``adjacency.<kind>.<field>``.
_TICKED_STATS = (
    "inserts", "deletes", "probe_words", "resize_events", "resize_copied_words",
    "nodes_visited", "rotations", "migrations", "migration_words",
)


def _tick_update_metrics(
    rep: AdjacencyRepresentation, n_arc_ops: int, misses: int, before: dict[str, int]
) -> None:
    """Fold one stream's work counters into the process metrics registry.

    Ticked once per stream (phase granularity), never per arc — the hot
    loops stay exactly as fast as before the obs subsystem existed.  The
    structure's counters accumulate across streams applied with
    ``reset_stats=False``, so the registry gets their growth over this
    stream (``before`` holds them as the stream started).
    """
    METRICS.inc("update_engine.streams")
    METRICS.inc("update_engine.arc_ops", int(n_arc_ops))
    METRICS.inc("update_engine.delete_misses", misses)
    after = asdict(rep.combined_stats())
    METRICS.inc_many(
        f"adjacency.{rep.kind}",
        {name: after[name] - before[name] for name in _TICKED_STATS},
    )
    METRICS.set(f"adjacency.{rep.kind}.live_arcs", rep.n_arcs)
    METRICS.set(f"adjacency.{rep.kind}.memory_bytes", rep.memory_bytes())


def construct(
    rep: AdjacencyRepresentation,
    graph: EdgeList,
    *,
    undirected: bool | None = None,
    shuffle: bool = False,
    seed=None,
    phase_name: str = "construction",
) -> UpdateResult:
    """Build ``rep`` from a graph "treated as a series of insertions".

    This is the workload of Figures 1–4: every edge arrives as an insertion
    (optionally shuffled, the paper's hot-burst mitigation).  The stream
    goes through ``apply_arcs``, which the treap and the hybrid keep in
    arrival order, so ``nodes_visited`` / ``rotations`` count per-insert
    descents; ``DynamicGraph.from_edges`` builds through ``bulk_insert``
    instead.
    """
    if undirected is None:
        undirected = not graph.directed
    stream = insertion_stream(graph, shuffle=shuffle, seed=seed)
    return apply_stream(rep, stream, undirected=undirected, phase_name=phase_name)
