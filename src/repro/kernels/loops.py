"""Dependent pointer-chase loops: the kernels that have no numpy form.

:func:`union_arcs` is the union-by-rank / union-by-size / Rem's-splice loop
of :class:`repro.connectit.unionfind.UnionFind` over a whole arc batch,
``WorkCounters`` accounting included, calling nothing.  It is the one union
loop: ``UnionFind.union_arcs`` feeds it ``array`` buffers, lists and a
``bytearray`` (plain-int items), so it indexes and takes ``len`` of its
arguments and uses nothing ndarray-specific.

Counter accounting uses five slots in the field order of
:class:`repro.connectit.unionfind.WorkCounters`: ``[finds, unions, hooks,
pointer_chases, compaction_writes]``.  The ticks are those of the reference
algorithm (``UnionFind.union`` pair by pair): a body may skip a store of the
value already present, and must add the ticks that store and its loads would
have made — the convention ``bulkops.ensure_capacity`` follows for resizes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["union_arcs"]


def union_arcs(
    parent: np.ndarray,
    rank: np.ndarray,
    size: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    rule: int,
    comp: int,
    linked: np.ndarray,
    pre_resolved: bool,
    c: np.ndarray,
) -> None:
    """Union every ``(src[i], dst[i])`` pair in order, recording successes.

    ``rule`` codes: 0 rank, 1 size, 2 rem (``repro.kernels.RULE_CODES``);
    ``comp`` codes: 0 none, 1 halving, 2 splitting, 3 full (two-pass)
    (``repro.kernels.COMP_CODES``).  ``rank``/``size`` are the matching
    auxiliary arrays (a 0-length dummy when the rule does not use one).
    ``linked`` arrives all False; ``linked[i]`` is set True exactly when the
    pair merged two distinct trees.  With ``pre_resolved`` True, equal
    endpoints are counted as examined union attempts but perform no finds —
    the convention of :meth:`repro.core.connectivity.ConnectivityIndex
    .apply_batch`'s root-space union-find, whose endpoints a batch findroot
    pass already resolved.

    The ticks added to ``c`` are those ``UnionFind.union`` makes pair by
    pair, kept in locals and written once.  An arc whose endpoints are both
    the root ``p`` or children of it is *settled*: its two finds would reach
    ``p``, store only values already there and hook nothing, so the loop
    counts its non-root endpoints and adds their ticks in closed form (each:
    one chase under ``none``, else two chases and one compaction write).
    Rem's walk decides that case in its first iteration and needs no check.
    """
    n_arcs = len(src)
    hooks = 0
    chases = 0
    writes = 0
    if rule == 2:  # rem: the union walk splices as it goes, no finds
        for i in range(n_arcs):
            u = src[i]
            v = dst[i]
            if pre_resolved and u == v:
                continue
            while True:
                pu = parent[u]
                pv = parent[v]
                chases += 2
                if pu == pv:
                    break
                if pu > pv:
                    parent[u] = pv
                    if u == pu:  # u was a root: hooked below the lower parent
                        hooks += 1
                        linked[i] = True
                        break
                    writes += 1  # a splice: continue from u's old parent
                    u = pu
                else:
                    parent[v] = pu
                    if v == pv:
                        hooks += 1
                        linked[i] = True
                        break
                    writes += 1
                    v = pv
        c[1] += n_arcs
        c[2] += hooks
        c[3] += chases
        c[4] += writes
        return
    resolved = 0  # pre_resolved arcs with equal endpoints: no finds
    settled = 0  # non-root endpoints of arcs settled under one root
    for i in range(n_arcs):
        u = src[i]
        v = dst[i]
        if pre_resolved and u == v:
            resolved += 1
            continue
        p = parent[u]
        if p == parent[v] and parent[p] == p:
            if p != u:
                settled += 1
            if p != v:
                settled += 1
            continue
        # One find loop for both endpoints: x walks up from ``start``; at a
        # root it either moves on to the second endpoint or stops.
        start = u
        x = u
        ru = -1
        while True:
            p = parent[x]
            if p != x:
                if comp == 0 or comp == 3:  # none; full's first pass
                    chases += 1
                    x = p
                else:  # halving / splitting: re-point x at its grandparent
                    g = parent[p]
                    chases += 2
                    parent[x] = g
                    writes += 1
                    if comp == 1:
                        x = g
                    else:
                        x = p
                continue
            if comp == 3:  # full's second pass: re-point the path at the root
                while start != x:
                    p = parent[start]
                    parent[start] = x
                    chases += 1
                    writes += 1
                    start = p
            if ru >= 0:
                break
            ru = x
            start = v
            x = v
        rv = x
        if ru == rv:
            continue
        if rule == 0:  # rank
            if rank[ru] < rank[rv]:
                t = ru
                ru = rv
                rv = t
            elif rank[ru] == rank[rv]:
                rank[ru] += 1
        else:  # size
            if size[ru] < size[rv] or (size[ru] == size[rv] and rv < ru):
                t = ru
                ru = rv
                rv = t
            size[ru] += size[rv]
        parent[rv] = ru
        hooks += 1
        linked[i] = True
    if comp == 0:
        chases += settled
    else:
        chases += 2 * settled
        writes += settled
    c[0] += 2 * (n_arcs - resolved)
    c[1] += n_arcs
    c[2] += hooks
    c[3] += chases
    c[4] += writes
