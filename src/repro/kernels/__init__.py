"""Opt-in compiled kernel tier: numba JIT for the hot numpy-bound loops.

The bulk-update work (:mod:`repro.adjacency.bulkops`) replaced interpreter
loops with numpy passes, but the hottest kernels are still *sequences* of
full-array passes with temporaries.  This package supplies the third tier —
fused single-pass loops (:mod:`repro.kernels.loops`) compiled with
``numba.njit(cache=True)`` when numba is installed (``pip install
repro[jit]``) — and the one dispatch knob every kernel consults:

========== =============================================================
tier       meaning
========== =============================================================
scalar     the per-op reference loops
vectorised the numpy bulk kernels (the default without numba)
compiled   the fused numba loops (the default when numba imports)
========== =============================================================

A kernel with no numpy form runs its :mod:`~repro.kernels.loops` body on
every tier: ``union_arcs`` is a dependent pointer chase, so ``scalar`` and
``vectorised`` both run :func:`loops.union_arcs` interpreted, over the
``array`` buffers :class:`~repro.connectit.unionfind.UnionFind` stores its
forest in, and ``compiled`` runs the same function through numba over
ndarray views of those buffers.  No body calls another (``union_arcs``
reads nothing from its module but builtins), so one ``njit`` wrap per body
is all the compiled tier adds and :mod:`~repro.kernels.loops` is never rebound.
:data:`TIER_BODIES` lists what every tier executes for every kernel.

Selection precedence, checked once per kernel call by :func:`resolve_tier`:

1. the ``REPRO_KERNEL_TIER`` environment variable (read live);
2. the owning structure's ``kernel_tier`` attribute (representations,
   :class:`~repro.core.linkcut.LinkCutForest`,
   :class:`~repro.connectit.unionfind.UnionFind` all default it to None;
   wrappers forward theirs to the structure they own) or the
   ``kernel_tier=`` keyword of a function kernel;
3. the import-time auto-probe: ``compiled`` when numba is importable,
   else ``vectorised``.

A tier named at level 1 or 2 is honoured at every batch size; only an
auto-probed one leaves small adjacency batches on the scalar loop.
Process-backend drivers resolve in the parent and ship the tier to workers.

Requesting ``compiled`` when numba is absent raises a clear
:class:`~repro.errors.GraphError`; the probe itself is silent (no
warnings) so ``import repro`` stays clean without the extra installed.
Every compiled kernel is bit-identical — counters included — to its
vectorised reference; the equivalence suites re-run over tiers enforce it
(using :func:`force_available` to drive the same loop bodies in pure
Python when numba is missing).

First-call JIT compilation is *not* free: callers that time kernels must
call :func:`warmup` first (``benchmarks/conftest.py`` and ``python -m
repro trace`` do), which compiles everything once and reports the cold/warm
split so compile cost lands in ``compile_seconds`` instead of the measured
numbers.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import GraphError
from repro.kernels import loops

__all__ = [
    "TIERS",
    "ENV_VAR",
    "KERNEL_NAMES",
    "numba_available",
    "numba_version",
    "probe_error",
    "default_tier",
    "requested_tier",
    "resolve_tier",
    "get",
    "force_available",
    "warmup",
    "describe",
    "RULE_CODES",
    "COMP_CODES",
    "TIER_BODIES",
]

#: The dispatch levels, slowest-reference first.
TIERS = ("scalar", "vectorised", "compiled")

#: Global tier override (highest precedence; read at every resolve).
ENV_VAR = "REPRO_KERNEL_TIER"

#: The ported hot kernels, keyed as :func:`get` expects.
KERNEL_NAMES = ("delete_match", "findroot_batch", "union_arcs", "sv_components")

#: Union-rule codes for :func:`loops.union_arcs`.
RULE_CODES = {"rank": 0, "size": 1, "rem": 2}

#: Compaction-rule codes for :func:`loops.union_arcs`.
COMP_CODES = {"none": 0, "halving": 1, "splitting": 2, "full": 3}

#: Where each kernel is dispatched from (shown by ``python -m repro kernels``).
KERNEL_SITES = {
    "delete_match": "repro.adjacency.bulkops.apply_mixed",
    "findroot_batch": "repro.core.linkcut.chase_roots",
    "union_arcs": "repro.connectit.unionfind.UnionFind.union_arcs",
    "sv_components": "repro.core.components.connected_components",
}

#: What each tier executes behind each dispatch site (also shown by
#: ``python -m repro kernels``, for the tier in effect).
TIER_BODIES = {
    "delete_match": {
        "scalar": "the per-op reference loop",
        "vectorised": "the numpy sort/segment/cummax cascade",
        "compiled": "the numpy kernels + loops.delete_match, compiled",
    },
    "findroot_batch": {
        "scalar": "loops.findroot_batch, interpreted",
        "vectorised": "one hop per numpy pass",
        "compiled": "loops.findroot_batch, compiled",
    },
    "union_arcs": {
        "scalar": "loops.union_arcs, interpreted over the array buffers",
        "vectorised": "loops.union_arcs, interpreted over the array buffers",
        "compiled": "loops.union_arcs, compiled, over ndarray views of the buffers",
    },
    "sv_components": {
        "scalar": "the numpy sweep (no scalar port)",
        "vectorised": "the numpy sweep",
        "compiled": "loops.sv_components, compiled",
    },
}

_available = False
_numba_version: str | None = None
_probe_error: str | None = None
_impls: dict[str, Callable[..., Any]] = {
    "delete_match": loops.delete_match,
    "findroot_batch": loops.findroot_batch,
    "union_arcs": loops.union_arcs,
    "sv_components": loops.sv_components,
}

try:  # pragma: no cover - exercised only with numba installed
    import numba

    # The bodies call no helpers, so one wrap each is the whole compiled
    # story; ``loops`` keeps the plain functions the lower tiers run.
    _impls = {name: numba.njit(cache=True)(fn) for name, fn in _impls.items()}
    _available = True
    _numba_version = str(numba.__version__)
except Exception as exc:  # noqa: BLE001 - any import/instrumentation failure
    # Silent and exact: no numba simply means the tier resolves to
    # "vectorised"; the reason is kept for describe()/error messages.
    _probe_error = f"{type(exc).__name__}: {exc}"


def numba_available() -> bool:
    """True when the import probe found a working numba."""
    return _available


def numba_version() -> str | None:
    """The probed numba version, or None without numba."""
    return _numba_version


def probe_error() -> str | None:
    """Why the import probe failed (None when numba imported cleanly)."""
    return _probe_error


def default_tier() -> str:
    """The auto-probed tier: ``compiled`` with numba, else ``vectorised``."""
    return "compiled" if _available else "vectorised"


def _validate(tier: str, source: str) -> str:
    """Check ``tier`` is known and satisfiable; fail loud, naming ``source``."""
    if tier not in TIERS:
        raise GraphError(f"unknown kernel tier {tier!r} from {source}; available: {TIERS}")
    if tier == "compiled" and not _available:
        detail = f" (import probe: {_probe_error})" if _probe_error else ""
        raise GraphError(
            f"kernel tier 'compiled' requested via {source} but numba is not "
            f"installed{detail}; install the extra with `pip install repro[jit]` "
            "or select 'vectorised'"
        )
    return tier


def requested_tier(obj: object | None = None) -> str | None:
    """The tier somebody asked for (env var > ``obj``), or None for nobody.

    ``obj`` is a tier name, or the structure the dispatch point owns (a
    representation, a forest, a union-find) with its ``kernel_tier``.
    """
    env = os.environ.get(ENV_VAR)
    if env:
        return _validate(env, f"environment variable {ENV_VAR}")
    if isinstance(obj, str):
        return _validate(obj, "the kernel_tier argument")
    tier = getattr(obj, "kernel_tier", None)
    if tier is not None:
        return _validate(str(tier), f"{type(obj).__name__}.kernel_tier")
    return None


def resolve_tier(obj: object | None = None) -> str:
    """The tier in effect for ``obj``: the requested one, else the auto-probe."""
    return requested_tier(obj) or default_tier()


def get(name: str) -> Callable[..., Any]:
    """The compiled (or, without numba, pure-Python) kernel ``name``."""
    try:
        return _impls[name]
    except KeyError:
        raise GraphError(f"unknown kernel {name!r}; available: {KERNEL_NAMES}") from None


@contextlib.contextmanager
def force_available() -> Iterator[None]:
    """Treat the kernels as available inside the block (testing hook).

    Without numba the ``compiled`` tier dispatches to the pure-Python loop
    bodies — byte-for-byte the code numba would compile — which is how the
    tier-parametrised equivalence suites cover the compiled dispatch path
    on interpreters without the ``[jit]`` extra.  A no-op when numba is
    genuinely available.
    """
    global _available
    prev = _available
    _available = True
    try:
        yield
    finally:
        _available = prev


# --------------------------------------------------------------------- #
# warmup (keeps JIT compile time out of every timed section)
# --------------------------------------------------------------------- #

_warmup_info: dict[str, Any] | None = None


def _warmup_calls() -> list[tuple[str, tuple[Any, ...]]]:
    """Tiny representative invocations that force one compile per kernel."""
    i64 = np.int64
    return [
        (
            "delete_match",
            (
                np.array([0, 0], dtype=i64),  # key_s: one group
                np.array([1, 0], dtype=i64),  # insert then delete
                np.zeros(2, dtype=i64),  # e_op
                np.zeros(2, dtype=i64),  # lo_op
                np.zeros(1, dtype=i64),  # gslot_s
                np.zeros(2, dtype=i64),  # vins_s
                np.zeros(2, dtype=i64),  # cnt0_s
                np.zeros(2, dtype=i64),  # off_s
                np.zeros(1, dtype=i64),  # scratch
                np.zeros(1, dtype=i64),  # tomb_out
                np.zeros(1, dtype=i64),  # succ_out
            ),
        ),
        (
            "findroot_batch",
            (np.array([-1, 0], dtype=i64), np.array([1, 0], dtype=i64)),
        ),
        (
            "union_arcs",
            (
                np.arange(4, dtype=i64),
                np.zeros(4, dtype=np.int8),
                np.ones(4, dtype=i64),
                np.array([0, 2], dtype=i64),
                np.array([1, 3], dtype=i64),
                0,
                1,
                np.zeros(2, dtype=np.bool_),
                False,
                np.zeros(5, dtype=i64),
            ),
        ),
        (
            "sv_components",
            (
                np.arange(3, dtype=i64),
                np.array([0, 1], dtype=i64),
                np.array([1, 2], dtype=i64),
                8,
            ),
        ),
    ]


def warmup(force: bool = False) -> dict[str, Any]:
    """Compile every kernel now, so timed sections never pay JIT cost.

    Each kernel is invoked twice on tiny inputs: the first (cold) call
    triggers compilation, the second (warm) call measures steady-state
    dispatch, and the difference is reported as ``compile_seconds``,
    separate from kernel timings.
    Results are cached (``cached`` is True on repeat calls) unless
    ``force``; without numba this is a cheap no-op reporting zeros.
    """
    global _warmup_info
    if _warmup_info is not None and not force:
        return dict(_warmup_info, cached=True)
    kernels: dict[str, dict[str, float]] = {}
    cold_total = 0.0
    warm_total = 0.0
    if _available:
        for name, args in _warmup_calls():
            fn = get(name)
            t0 = time.perf_counter()
            fn(*args)
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            fn(*args)
            warm = time.perf_counter() - t0
            kernels[name] = {
                "cold_seconds": cold,
                "warm_seconds": warm,
                "compile_seconds": max(cold - warm, 0.0),
            }
            cold_total += cold
            warm_total += warm
    _warmup_info = {
        "available": _available,
        "tier": default_tier(),
        "cold_seconds": cold_total,
        "warm_seconds": warm_total,
        "compile_seconds": max(cold_total - warm_total, 0.0),
        "kernels": kernels,
        "cached": False,
    }
    return dict(_warmup_info)


def describe() -> dict[str, Any]:
    """Resolved dispatch state, per kernel (behind ``repro kernels``)."""
    try:
        tier: str | None = resolve_tier()
        error = None
    except GraphError as exc:
        tier = None
        error = str(exc)
    return {
        "available": _available,
        "numba_version": _numba_version,
        "probe_error": _probe_error,
        "env": os.environ.get(ENV_VAR),
        "default_tier": default_tier(),
        "resolved_tier": tier,
        "resolve_error": error,
        "kernels": {
            name: {
                "tier": tier,
                "dispatched_from": KERNEL_SITES[name],
                "runs": TIER_BODIES[name].get(tier),
            }
            for name in KERNEL_NAMES
        },
    }
