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

Under the rank and size rules ``UnionFind.union_arcs`` does not hand every
arc to the loop: it masks a block of arcs at a time with numpy and takes out
the *settled* ones (both endpoints a root ``p`` or children of ``p``), whose
finds would store nothing.  Such an arc stays settled until ``p`` is hooked,
so the caller marks those roots in ``watch`` and the loop returns right after
hooking one; the caller then re-masks from the next arc.  At scale 16 the
unsampled ConnectIt finish runs 66 048 of its 1 045 098 arcs through the
loop and counts the rest (the settled-arc mask entry of ``CHANGES.md``).
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
    watch: bytearray | None,
    c: np.ndarray,
) -> int:
    """Union the ``(src[i], dst[i])`` pairs in order, recording successes.

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

    ``watch`` (rank and size rules; Rem's walk ignores it; None watches
    nothing) marks the roots of the arcs the caller took out as settled:
    those arcs stay settled until their root is hooked, so the loop stops
    right after hooking a watched root and returns that pair's index, for
    the caller to re-mask the arcs after it.  It returns -1 when it ran
    every pair; the ticks added cover exactly the pairs it ran.
    """
    n_arcs = len(src)
    stop = -1
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
        return stop
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
        if watch is not None and watch[rv]:  # a settled arc's root went under
            stop = i
            n_arcs = i + 1  # the ticks below count the pairs run
            break
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
    return stop
