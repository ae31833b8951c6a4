"""R-MAT recursive-matrix graph generator (Chakrabarti, Zhan & Faloutsos 2004).

The paper's experimental setup (section 1.2): R-MAT with n = 2^scale
vertices, shaping parameters (a, b, c, d) = (0.6, 0.15, 0.15, 0.10), which
yields a power-law degree distribution with maximum out-degree O(n^0.6), and
m = 10 n edges unless stated otherwise.

The implementation is fully vectorised: one pass per recursion level over the
whole edge batch, drawing each edge's quadrant from the (possibly noised)
probabilities and shifting the corresponding bit into the endpoint ids.
Memory is O(m) int64 plus one float64 scratch per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.generators.timestamps import uniform_timestamps
from repro.util.seeding import DEFAULT_SEED, make_rng, mix_seed
from repro.util.validation import check_probability

__all__ = ["RMATParams", "PAPER_RMAT", "rmat_edges", "rmat_graph"]


@dataclass(frozen=True)
class RMATParams:
    """R-MAT quadrant probabilities.

    ``a`` is the top-left (both high bits 0) quadrant; ``b`` top-right
    (destination high bit 1); ``c`` bottom-left; ``d`` bottom-right.  They
    must sum to 1.  ``noise`` optionally jitters the probabilities per level
    (a common de-striping refinement; the paper uses none, so 0 by default).
    """

    a: float = 0.6
    b: float = 0.15
    c: float = 0.15
    d: float = 0.10
    noise: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            check_probability(getattr(self, name), name)
        check_probability(self.noise, "noise")
        total = self.a + self.b + self.c + self.d
        if abs(total - 1.0) > 1e-9:
            raise GraphError(f"R-MAT probabilities must sum to 1, got {total}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The quadrant probabilities as an ``(a, b, c, d)`` tuple."""
        return (self.a, self.b, self.c, self.d)


#: The parameterisation used throughout the paper's evaluation.
PAPER_RMAT = RMATParams(0.6, 0.15, 0.15, 0.10)


def _draw_level(
    rng: np.random.Generator,
    params: RMATParams,
    shift: int,
    src: np.ndarray,
    dst: np.ndarray,
    skip: int = 0,
) -> None:
    """One recursion level: add bit ``shift`` to the endpoints each edge draws.

    ``rng`` stands at the level's first draw: the four jitter draws when
    ``params.noise > 0``, then one uniform double per edge of the whole
    stream.  ``skip`` jumps the edge draws that precede ``src``/``dst``'s
    range (:func:`repro.generators.parallel.rmat_edges_range`); the serial
    generator owns the whole level and skips nothing.
    """
    a, b, c, d = params.as_tuple()
    if params.noise > 0.0:
        # Multiplicative jitter, renormalised, one draw per level.
        jitter = 1.0 + params.noise * (2.0 * rng.random(4) - 1.0)
        pa, pb, pc, pd = np.array([a, b, c, d]) * jitter
        s = pa + pb + pc + pd
        pa, pb, pc = pa / s, pb / s, pc / s
    else:
        pa, pb, pc = a, b, c
    if skip:  # only the sliced path jumps: a caller's Generator may lack advance()
        rng.bit_generator.advance(skip)
    u = rng.random(src.size)
    # Cumulative thresholds for quadrant selection.
    dst_bit = ((u >= pa) & (u < pa + pb)) | (u >= pa + pb + pc)
    src_bit = u >= pa + pb
    bit = np.int64(1) << np.int64(shift)
    src += bit * src_bit
    dst += bit * dst_bit


def rmat_edges(
    scale: int,
    m: int,
    params: RMATParams = PAPER_RMAT,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``m`` directed edges of a 2^scale-vertex R-MAT graph.

    Returns ``(src, dst)`` int64 arrays.  Self-loops and duplicates are NOT
    removed here — callers choose (the paper's update streams treat repeats
    as genuine repeated interactions, while CSR snapshots deduplicate).
    """
    if scale <= 0 or scale > 62:
        raise GraphError(f"scale must be in [1, 62], got {scale}")
    if m < 0:
        raise GraphError(f"edge count must be >= 0, got {m}")
    rng = make_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        _draw_level(rng, params, scale - 1 - level, src, dst)
    return src, dst


def rmat_graph(
    scale: int,
    edge_factor: int = 10,
    *,
    m: int | None = None,
    params: RMATParams = PAPER_RMAT,
    seed: int | np.random.Generator | None = None,
    ts_range: tuple[int, int] | None = None,
    directed: bool = False,
    drop_self_loops: bool = False,
    deduplicate: bool = False,
    shuffle: bool = False,
) -> EdgeList:
    """Generate a full R-MAT :class:`~repro.edgelist.EdgeList`.

    Parameters mirror the paper's setup: ``m = edge_factor * 2**scale`` by
    default (the paper uses edge_factor 10; Figure 9 uses an explicit m).
    ``ts_range=(lo, hi)`` assigns uniform integer time-stamps in [lo, hi]
    from an independent stream derived from the seed.  ``shuffle`` randomly
    permutes edge order, as the paper does before the induced-subgraph
    experiment to remove generator locality.

    For an integer (or None) ``seed``, the topology draw is bit-identical
    to the concatenated slices of
    :func:`~repro.generators.parallel.rmat_edges_slice`, which regenerates
    any share of it communication-free (see docs/GENERATORS.md).
    """
    n = 1 << scale
    if m is None:
        m = edge_factor * n
    rng = make_rng(seed)
    src, dst = rmat_edges(scale, m, params, rng)
    ts = None
    if ts_range is not None:
        lo, hi = ts_range
        if isinstance(seed, np.random.Generator):
            ts_seed: int | np.random.Generator = rng
        else:
            ts_seed = mix_seed(DEFAULT_SEED if seed is None else seed, "timestamps")
        ts = uniform_timestamps(m, lo, hi, ts_seed)
    g = EdgeList(
        n,
        src,
        dst,
        ts=ts,
        directed=directed,
        meta={"generator": "rmat", "scale": scale, "params": params.as_tuple()},
    )
    if drop_self_loops:
        g = g.without_self_loops()
    if deduplicate:
        g = g.deduplicated()
    if shuffle:
        g = g.shuffled(rng)
    return g
