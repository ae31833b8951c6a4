"""The kernel-tier knob, and the loop bodies of the hot kernels.

Every kernel with a tier choice consults one knob:

========== =============================================================
tier       meaning
========== =============================================================
scalar     the per-op reference loops
vectorised the numpy bulk kernels (the default)
========== =============================================================

A kernel with no numpy form runs its :mod:`~repro.kernels.loops` body on
both tiers: ``union_arcs`` is a dependent pointer chase, so
:class:`~repro.connectit.unionfind.UnionFind` always runs
:func:`loops.union_arcs` interpreted over the ``array`` buffers it stores
its forest in.

Selection precedence, checked once per kernel call by :func:`resolve_tier`:

1. the ``REPRO_KERNEL_TIER`` environment variable (read live);
2. the owning structure's ``kernel_tier`` attribute (representations and
   :class:`~repro.core.linkcut.LinkCutForest` default it to None; wrappers
   forward theirs to the structure they own);
3. the default, ``vectorised``.

A tier named at level 1 or 2 is honoured at every batch size; only the
default leaves small adjacency batches on the scalar loop.  Process-backend
drivers resolve in the parent and ship the tier to workers.  An unknown tier
name raises :class:`~repro.errors.GraphError`.
"""

from __future__ import annotations

import os

from repro.errors import GraphError

__all__ = [
    "TIERS",
    "ENV_VAR",
    "RULE_CODES",
    "COMP_CODES",
    "default_tier",
    "requested_tier",
    "resolve_tier",
]

#: The dispatch levels, slowest-reference first.
TIERS = ("scalar", "vectorised")

#: Global tier override (highest precedence; read at every resolve).
ENV_VAR = "REPRO_KERNEL_TIER"

#: Union-rule codes for :func:`loops.union_arcs`.
RULE_CODES = {"rank": 0, "size": 1, "rem": 2}

#: Compaction-rule codes for :func:`loops.union_arcs`.
COMP_CODES = {"none": 0, "halving": 1, "splitting": 2, "full": 3}


def default_tier() -> str:
    """The tier nobody asked for: ``vectorised``."""
    return "vectorised"


def numba_available() -> bool:
    """Always False; kept for bench/run.py's run record until ROADMAP item 1 deletes it."""
    return False


def warmup() -> None:
    """A no-op; kept for bench/batch.py's set-up calls until ROADMAP item 1 deletes it."""


def _validate(tier: str, source: str) -> str:
    """Check ``tier`` is known; fail loud, naming ``source``."""
    if tier not in TIERS:
        raise GraphError(f"unknown kernel tier {tier!r} from {source}; available: {TIERS}")
    return tier


def requested_tier(obj: object | None = None) -> str | None:
    """The tier somebody asked for (env var > ``obj``), or None for nobody.

    ``obj`` is the structure the dispatch point owns (a representation or
    a forest) with its ``kernel_tier``.
    """
    env = os.environ.get(ENV_VAR)
    if env:
        return _validate(env, f"environment variable {ENV_VAR}")
    tier = getattr(obj, "kernel_tier", None)
    if tier is not None:
        return _validate(str(tier), f"{type(obj).__name__}.kernel_tier")
    return None


def resolve_tier(obj: object | None = None) -> str:
    """The tier in effect for ``obj``: the requested one, else the default."""
    return requested_tier(obj) or default_tier()
