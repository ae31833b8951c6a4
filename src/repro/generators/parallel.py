"""Communication-free sliced R-MAT generation and streaming edge chunks.

The serial generator (:func:`repro.generators.rmat.rmat_edges`) draws, for
each of the ``scale`` recursion levels, one batch of ``m`` uniform doubles
from a PCG64 stream.  Because PCG64 supports O(log k) jump-ahead, any
contiguous edge range ``[lo, hi)`` of that exact stream can be regenerated
by an independent worker with **zero communication** (Yoo & Henderson's
communication-free scheme, recovered over numpy bit generators): construct
the same bit generator from the seed, ``advance`` past the draws that
precede the range at each level, and draw ``hi - lo`` values.
Concatenating the slices of *any* partition is therefore bit-identical to
the serial output — the invariant the tests, the CI determinism gate and
the experiment harness all rely on.

Two layers build on the slice protocol:

* :func:`rmat_edges_slice` / :func:`rmat_edges_range` — deterministic
  regeneration of one slice of the serial edge stream;
* :func:`iter_edge_chunks` / :func:`iter_update_chunks` — streaming
  iterators over bounded :class:`~repro.edgelist.EdgeList` /
  :class:`~repro.generators.streams.UpdateStream` chunks (the full edge
  list is never resident), feeding the ``UpdateStream`` builders and
  :func:`~repro.core.update_engine.apply_stream` at scales where the
  materialised list would not fit in memory.

Time-stamps in the streaming path follow their own sliceable rule
(:func:`uniform_timestamps_range`): the serial
:func:`~repro.generators.timestamps.uniform_timestamps` uses bounded
integer rejection sampling, whose variable draw consumption cannot be
jumped over, so the sliced rule instead floors one uniform double per
edge, drawn from a :func:`~repro.util.seeding.mix_seed`-derived stream at
the edge's *global* offset — time labels too are independent of the
slicing.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.generators.rmat import PAPER_RMAT, RMATParams, _draw_level
from repro.generators.streams import INSERT, UpdateStream
from repro.obs import METRICS
from repro.util.seeding import DEFAULT_SEED, mix_seed

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "slice_bounds",
    "rmat_edges_range",
    "rmat_edges_slice",
    "uniform_timestamps_range",
    "iter_edge_chunks",
    "iter_update_chunks",
]

#: Default streaming chunk size: 2^18 edges = 4 MiB per int64 endpoint
#: array, small enough that a chunk is cache-friendly and RSS stays flat.
DEFAULT_CHUNK_EDGES = 1 << 18


# --------------------------------------------------------------------- #
# the slice protocol
# --------------------------------------------------------------------- #


def _require_int_seed(seed: int | np.random.Generator | None) -> int:
    """Resolve ``seed`` to a plain integer; reject opaque generators.

    Zero-communication regeneration needs a seed any worker can rebuild the
    stream from; a live :class:`numpy.random.Generator` carries hidden
    state no other process can reproduce.
    """
    if isinstance(seed, np.random.Generator):
        raise GraphError(
            "sliced/parallel generation needs an integer seed (or None); "
            "a Generator instance cannot be regenerated by other workers"
        )
    return DEFAULT_SEED if seed is None else int(seed)


def _generator_at(seed: int, offset: int) -> np.random.Generator:
    """A generator positioned ``offset`` uniform-double draws into the stream.

    ``np.random.default_rng(seed)`` builds ``Generator(PCG64(SeedSequence
    (seed)))`` and each ``random()`` double consumes exactly one 64-bit
    output, so jumping the bit generator ``offset`` steps lands exactly
    where a serial run would be after ``offset`` draws.
    """
    bg = np.random.PCG64(np.random.SeedSequence(seed))
    bg.advance(offset)
    return np.random.Generator(bg)


def _level_stride(params: RMATParams, m: int) -> int:
    """Draws the serial generator consumes per recursion level."""
    return m + (4 if params.noise > 0.0 else 0)


def slice_bounds(m: int, slice_idx: int, n_slices: int) -> tuple[int, int]:
    """Edge range ``[lo, hi)`` owned by ``slice_idx`` of ``n_slices``.

    Balanced contiguous split: the first ``m % n_slices`` slices hold one
    extra edge, so any remainder is spread rather than dumped on the last
    worker.  Concatenating all slices in index order covers ``[0, m)``
    exactly once.
    """
    if n_slices <= 0:
        raise GraphError(f"n_slices must be positive, got {n_slices}")
    if not 0 <= slice_idx < n_slices:
        raise GraphError(f"slice_idx must be in [0, {n_slices}), got {slice_idx}")
    if m < 0:
        raise GraphError(f"edge count must be >= 0, got {m}")
    base, extra = divmod(m, n_slices)
    lo = slice_idx * base + min(slice_idx, extra)
    hi = lo + base + (1 if slice_idx < extra else 0)
    return lo, hi


def rmat_edges_range(
    params: RMATParams,
    scale: int,
    m: int,
    seed: int | None,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate edges ``[lo, hi)`` of the serial ``rmat_edges`` stream.

    Bit-identical to ``rmat_edges(scale, m, params, seed)[lo:hi]`` for any
    range, without generating the other ``m - (hi - lo)`` edges: per level
    the bit generator is jumped past the preceding draws (and past the
    level's jitter draws when ``params.noise > 0``).  Memory is
    O(hi - lo), independent of ``m``.
    """
    if scale <= 0 or scale > 62:
        raise GraphError(f"scale must be in [1, 62], got {scale}")
    if m < 0:
        raise GraphError(f"edge count must be >= 0, got {m}")
    if not 0 <= lo <= hi <= m:
        raise GraphError(f"invalid edge range [{lo}, {hi}) for m={m}")
    seed_int = _require_int_seed(seed)
    k = hi - lo
    src = np.zeros(k, dtype=np.int64)
    dst = np.zeros(k, dtype=np.int64)
    stride = _level_stride(params, m)
    for level in range(scale):
        _draw_level(
            _generator_at(seed_int, level * stride),
            params, scale - 1 - level, src, dst, skip=lo,
        )
    return src, dst


def rmat_edges_slice(
    params: RMATParams,
    scale: int,
    m: int,
    seed: int | None,
    slice_idx: int,
    n_slices: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate slice ``slice_idx`` of ``n_slices`` of the serial stream.

    The slice protocol's public face: any worker holding only
    ``(params, scale, m, seed, slice_idx, n_slices)`` regenerates its
    contiguous share of ``rmat_edges(scale, m, params, seed)`` with zero
    communication, and ``np.concatenate`` over all slices in index order
    is bit-identical to the serial output for **every** ``n_slices``.
    """
    lo, hi = slice_bounds(m, slice_idx, n_slices)
    return rmat_edges_range(params, scale, m, seed, lo, hi)


def uniform_timestamps_range(
    m: int,
    ts_lo: int,
    ts_hi: int,
    seed: int | None,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Sliceable uniform time labels for global edge range ``[lo, hi)``.

    One double per edge from a ``mix_seed(seed, "timestamps-sliced")``
    stream, floored onto ``[ts_lo, ts_hi]`` — the draw for edge ``i``
    depends only on ``(seed, i)``, so any slicing reproduces the same
    labels.  (Deliberately *not* the serial ``uniform_timestamps`` rule,
    whose rejection sampling cannot be jumped over; see the module
    docstring.)
    """
    if m < 0:
        raise GraphError(f"count must be >= 0, got {m}")
    if ts_lo < 0:
        raise GraphError(f"time labels must be non-negative, got lo={ts_lo}")
    if ts_hi < ts_lo:
        raise GraphError(f"empty time range [{ts_lo}, {ts_hi}]")
    if not 0 <= lo <= hi <= m:
        raise GraphError(f"invalid edge range [{lo}, {hi}) for m={m}")
    seed_int = _require_int_seed(seed)
    g = _generator_at(mix_seed(seed_int, "timestamps-sliced"), lo)
    span = ts_hi - ts_lo + 1
    ts = ts_lo + np.minimum(
        np.floor(g.random(hi - lo) * span).astype(np.int64), span - 1
    )
    return ts.astype(np.int64)


# --------------------------------------------------------------------- #
# streaming edge chunks
# --------------------------------------------------------------------- #


def iter_edge_chunks(
    scale: int,
    m: int | None = None,
    *,
    edge_factor: int = 10,
    params: RMATParams = PAPER_RMAT,
    seed: int | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    ts_range: tuple[int, int] | None = None,
    slice_idx: int = 0,
    n_slices: int = 1,
    directed: bool = False,
) -> Iterator[EdgeList]:
    """Stream the R-MAT edge list as bounded :class:`EdgeList` chunks.

    Yields chunks of at most ``chunk_edges`` edges covering slice
    ``slice_idx`` of ``n_slices`` (default: the whole stream) in order;
    the concatenation of every yielded ``src``/``dst`` is bit-identical
    to the serial ``rmat_edges(scale, m, params, seed)`` restricted to
    the slice.  Peak memory is O(chunk_edges) — the full edge list is
    never resident, which is what lets construction workloads run at
    scales where it cannot fit.

    Each chunk carries ``meta["chunk_lo"]``/``meta["chunk_hi"]`` (global
    edge offsets) and, with ``ts_range`` set, sliceable time labels from
    :func:`uniform_timestamps_range`.
    """
    if chunk_edges <= 0:
        raise GraphError(f"chunk size must be positive, got {chunk_edges}")
    if m is None:
        m = edge_factor * (1 << scale)
    seed_int = _require_int_seed(seed)
    n = 1 << scale
    lo, hi = slice_bounds(m, slice_idx, n_slices)
    for start in range(lo, hi, chunk_edges):
        stop = min(start + chunk_edges, hi)
        t0 = time.perf_counter()
        src, dst = rmat_edges_range(params, scale, m, seed_int, start, stop)
        ts = None
        if ts_range is not None:
            ts = uniform_timestamps_range(
                m, ts_range[0], ts_range[1], seed_int, start, stop
            )
        elapsed = time.perf_counter() - t0
        METRICS.inc("generators.rmat.edges_generated", stop - start)
        METRICS.inc("generators.rmat.chunks")
        METRICS.observe("generators.rmat.chunk_edges", float(stop - start))
        if elapsed > 0:
            METRICS.observe(
                "generators.rmat.edges_per_second", (stop - start) / elapsed
            )
        yield EdgeList(
            n,
            src,
            dst,
            ts=ts,
            directed=directed,
            meta={
                "generator": "rmat-chunk",
                "scale": scale,
                "params": params.as_tuple(),
                "chunk_lo": start,
                "chunk_hi": stop,
                "m_total": m,
            },
        )


def iter_update_chunks(
    scale: int,
    m: int | None = None,
    *,
    edge_factor: int = 10,
    params: RMATParams = PAPER_RMAT,
    seed: int | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    ts_range: tuple[int, int] | None = None,
    slice_idx: int = 0,
    n_slices: int = 1,
) -> Iterator[UpdateStream]:
    """Stream the R-MAT edges as insertion :class:`UpdateStream` chunks.

    The streaming construction feed: each :func:`iter_edge_chunks` chunk
    wrapped as a stream of insertions in generator order, ready for
    :func:`~repro.core.update_engine.apply_stream` or
    :meth:`repro.api.DynamicGraph.apply`.  Parameters mirror
    :func:`iter_edge_chunks`.
    """
    for chunk in iter_edge_chunks(
        scale,
        m,
        edge_factor=edge_factor,
        params=params,
        seed=seed,
        chunk_edges=chunk_edges,
        ts_range=ts_range,
        slice_idx=slice_idx,
        n_slices=n_slices,
    ):
        yield UpdateStream(
            chunk.n,
            np.full(chunk.m, INSERT, dtype=np.int8),
            chunk.src,
            chunk.dst,
            chunk.timestamps(),
            meta={"kind": "insertion", **dict(chunk.meta)},
        )
