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

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation, HotStats
from repro.edgelist import EdgeList
from repro.generators.streams import UpdateStream, insertion_stream
from repro.machine.profile import WorkProfile
from repro.obs import METRICS, manifest_meta, span
from repro.util.timing import Timer

__all__ = ["UpdateResult", "apply_stream", "construct"]


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


def _arc_stream(stream: UpdateStream, undirected: bool):
    """Expand an edge stream into arc arrays (interleaved for undirected)."""
    if not undirected:
        return stream.op, stream.src, stream.dst, stream.ts
    k = len(stream)
    op = np.empty(2 * k, dtype=np.int8)
    src = np.empty(2 * k, dtype=np.int64)
    dst = np.empty(2 * k, dtype=np.int64)
    ts = np.empty(2 * k, dtype=np.int64)
    op[0::2] = stream.op
    op[1::2] = stream.op
    src[0::2] = stream.src
    src[1::2] = stream.dst
    dst[0::2] = stream.dst
    dst[1::2] = stream.src
    ts[0::2] = stream.ts
    ts[1::2] = stream.ts
    return op, src, dst, ts


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

    Which path applies the arcs the representation picks from the batch
    size (:func:`repro.adjacency.bulkops.enabled`); the paths are
    counter-equivalent (see docs/PERFORMANCE.md), so the simulated work
    profile is identical either way and only ``host_seconds`` /
    ``host_mups`` change.
    ``meta["vectorised"]`` reports whether the bulk kernels applied any of
    this stream's arcs.
    """
    if rep.n != stream.n:
        raise ValueError(
            f"representation has {rep.n} vertices but stream has {stream.n}"
        )
    if probe_scale < 0:
        raise ValueError(f"probe_scale must be >= 0, got {probe_scale}")
    if reset_stats:
        rep.reset_stats()
    with span(
        "update_engine.apply_stream",
        representation=rep.kind,
        n_updates=len(stream),
        phase=phase_name,
        undirected=undirected,
    ) as sp:
        op, src, dst, ts = _arc_stream(stream, undirected)
        hot = HotStats.from_keys(src, rep.n)
        bulk_before = rep.vectorised_arc_ops
        with Timer() as t:
            with span(f"adjacency.{rep.kind}.apply_arcs", n_arc_ops=int(op.size)):
                misses = rep.apply_arcs(op, src, dst, ts)
        fast_path = rep.vectorised_arc_ops > bulk_before
        if probe_scale != 1.0:
            # Applies to the representation's own counters only: for the hybrid
            # structure the long scans live in treaps at scale (its array probes
            # are bounded by degree_thresh), so callers pass 1.0 there.
            rep.stats.probe_words = int(rep.stats.probe_words * probe_scale)
        phase = rep.phase(phase_name, hot)
        sp.set(n_arc_ops=int(op.size), misses=misses, host_seconds=t.elapsed)
    _tick_update_metrics(rep, op.size, misses)
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
            "vectorised": fast_path,
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
        meta={"vectorised": fast_path},
    )


def _tick_update_metrics(rep: AdjacencyRepresentation, n_arc_ops: int, misses: int) -> None:
    """Fold one stream's work counters into the process metrics registry.

    Ticked once per stream (phase granularity), never per arc — the hot
    loops stay exactly as fast as before the obs subsystem existed.
    """
    METRICS.inc("update_engine.streams")
    METRICS.inc("update_engine.arc_ops", int(n_arc_ops))
    METRICS.inc("update_engine.delete_misses", misses)
    # Composite structures (hybrid) split counters over sub-structures and
    # merge them on demand; plain structures count directly into .stats.
    combined = getattr(rep, "combined_stats", None)
    s = combined() if callable(combined) else rep.stats
    METRICS.inc_many(
        f"adjacency.{rep.kind}",
        {
            "inserts": s.inserts,
            "deletes": s.deletes,
            "probe_words": s.probe_words,
            "resize_events": s.resize_events,
            "resize_copied_words": s.resize_copied_words,
            "nodes_visited": s.nodes_visited,
            "rotations": s.rotations,
            "migrations": s.migrations,
            "migration_words": s.migration_words,
        },
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
    (optionally shuffled, the paper's hot-burst mitigation).  All-insert
    streams route through each representation's ``bulk_insert``, which is
    vectorised for the array-backed structures.
    """
    if undirected is None:
        undirected = not graph.directed
    stream = insertion_stream(graph, shuffle=shuffle, seed=seed)
    return apply_stream(rep, stream, undirected=undirected, phase_name=phase_name)
