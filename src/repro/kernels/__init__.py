"""The loop bodies of the hot kernels that have no numpy form.

There is one path per kernel and nothing to select between: an adjacency
batch picks its own path from its size (:func:`repro.adjacency.bulkops.enabled`),
and a kernel with no numpy form runs its :mod:`~repro.kernels.loops` body.
``union_arcs`` is a dependent pointer chase, so
:class:`~repro.connectit.unionfind.UnionFind` always runs
:func:`loops.union_arcs` interpreted over the ``array`` buffers it stores
its forest in; :data:`RULE_CODES` and :data:`COMP_CODES` name its variants.
"""

from __future__ import annotations

__all__ = ["RULE_CODES", "COMP_CODES"]

#: Union-rule codes for :func:`loops.union_arcs`.
RULE_CODES = {"rank": 0, "size": 1, "rem": 2}

#: Compaction-rule codes for :func:`loops.union_arcs`.
COMP_CODES = {"none": 0, "halving": 1, "splitting": 2, "full": 3}


def default_tier() -> str:
    """Always ``vectorised``; kept for bench/run.py's run record until ROADMAP item 1 deletes it."""
    return "vectorised"


def numba_available() -> bool:
    """Always False; kept for bench/run.py's run record until ROADMAP item 1 deletes it."""
    return False


def warmup() -> None:
    """A no-op; kept for bench/batch.py's set-up calls until ROADMAP item 1 deletes it."""
