"""Fused single-pass loop kernels behind the compiled tier.

Every function here is written in the numba ``nopython`` subset — plain
``for``/``while`` loops over pre-validated int64 arrays, no Python objects,
no fancy indexing — so :mod:`repro.kernels` can wrap each one in
``numba.njit(cache=True)`` when numba is installed and fall back to calling
the identical pure-Python definition when it is not.  That duality is the
testing contract: the equivalence suites exercise these exact loop bodies
(via :func:`repro.kernels.force_available`) even on interpreters without
numba, so the compiled tier never runs logic the CI cannot check.

The loops mirror, counter for counter, the vectorised reference kernels
they replace:

* :func:`delete_match` — the segmented running-max miss detection and
  ballot-style FIFO delete matching of
  :func:`repro.adjacency.bulkops.apply_mixed`, fused into one pass over the
  key-ordered op stream (the numpy form needs ~12 full-array passes).
* :func:`findroot_batch` — the parallel pointer chase of
  :meth:`repro.core.linkcut.LinkCutForest.findroot_batch`, one dependent
  chase per query instead of one full-vector pass per tree level.
* :func:`union_arcs` — the union-by-rank / union-by-size / Rem's-splice
  loop of :class:`repro.connectit.unionfind.UnionFind` over a whole arc
  batch, ``WorkCounters`` accounting included, calling nothing.  It also
  runs uncompiled in production: it is the union loop of every tier, and
  below ``compiled`` ``UnionFind.union_arcs`` feeds it ``array`` buffers,
  lists and a ``bytearray`` (plain-int items), so it indexes and takes
  ``len`` of its arguments and uses nothing ndarray-specific.
* :func:`sv_components` — the Shiloach–Vishkin hook + pointer-jump rounds
  of :func:`repro.core.components.connected_components`, with the hooking
  min-accumulate and the synchronous jump rounds fused per pass.

Counter accounting uses a 5-slot int64 array in the field order of
:class:`repro.connectit.unionfind.WorkCounters`: ``[finds, unions, hooks,
pointer_chases, compaction_writes]``.  The ticks are those of the reference
algorithm (``UnionFind.union`` pair by pair): a body may skip a store of the
value already present, and must add the ticks that store and its loads would
have made — the convention ``bulkops.ensure_capacity`` follows for resizes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "delete_match",
    "findroot_batch",
    "union_arcs",
    "sv_components",
]


def delete_match(
    key_s: np.ndarray,
    ins_s: np.ndarray,
    e_op: np.ndarray,
    lo_op: np.ndarray,
    gslot_s: np.ndarray,
    vins_s: np.ndarray,
    cnt0_s: np.ndarray,
    off_s: np.ndarray,
    scratch: np.ndarray,
    tomb_out: np.ndarray,
    succ_out: np.ndarray,
) -> tuple:
    """Fused delete matching over a key-ordered mixed op stream.

    All inputs are int64 and ordered by the packed ``(owner, target)`` key
    (ties in arrival order): ``key_s`` the keys, ``ins_s`` 1 for inserts,
    ``e_op``/``lo_op`` the pre-existing same-key supply and its start in
    ``gslot_s`` (the ascending live-slot index per key), ``vins_s`` the
    same-*vertex* batch inserts before each op, ``cnt0_s`` the pre-batch
    occupancy and ``off_s`` the block offset of each op's owner.

    ``scratch`` (>= total inserts), ``tomb_out`` and ``succ_out`` (>= total
    deletes) are caller-allocated workspaces; the function fills the first
    ``n_succ`` entries of ``tomb_out`` (pool slots to tombstone) and
    ``succ_out`` (key-order op indices of successful deletes) and returns
    ``(n_miss, n_succ, probe_words)`` — bit-identical to the vectorised
    ballot construction in :mod:`repro.adjacency.bulkops`.
    """
    n_miss = 0
    n_succ = 0
    probe = 0
    a = 0  # same-key inserts strictly before the current op
    b = 0  # same-key deletes through the current op (inclusive)
    m_incl = 0  # same-key misses through the current op (inclusive)
    wmax = 0  # running max of w over the key group so far
    first = True
    for j in range(key_s.size):
        if j > 0 and key_s[j] != key_s[j - 1]:
            a = 0
            b = 0
            m_incl = 0
            first = True
        if ins_s[j] == 1:
            w = b - a
            scratch[a] = cnt0_s[j] + vins_s[j]
            a += 1
        else:
            b += 1
            w = b - a
            e = e_op[j]
            if w > e and (first or w > wmax):
                # Demand exceeds both the pre-existing supply and every
                # earlier demand: a miss, scanning the occupied block.
                n_miss += 1
                m_incl += 1
                probe += cnt0_s[j] + vins_s[j]
            else:
                r = b - m_incl  # 1-based rank in the key's FIFO queue
                if r <= e:
                    slot = gslot_s[lo_op[j] + r - 1]
                else:
                    slot = scratch[r - e - 1]
                tomb_out[n_succ] = off_s[j] + slot
                succ_out[n_succ] = j
                n_succ += 1
                probe += slot + 1
        if first:
            wmax = w
            first = False
        elif w > wmax:
            wmax = w
    return n_miss, n_succ, probe


def findroot_batch(parent: np.ndarray, vertices: np.ndarray) -> int:
    """Chase each query to its root in place; returns the total hop count.

    ``parent[v] == -1`` marks a root (``repro.core.linkcut._NIL``).  The
    per-query dependent chase performs exactly one load per hop, so the
    returned total equals the sum of query depths — the same number the
    level-synchronous vectorised form accumulates one tree level at a time.
    """
    hops = 0
    for i in range(vertices.size):
        x = vertices[i]
        while parent[x] != -1:
            x = parent[x]
            hops += 1
        vertices[i] = x
    return hops


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
    the :meth:`repro.core.connectivity.ConnectivityIndex.insert_batch`
    convention for edges already resolved by the batch findroot pass.

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


def sv_components(
    labels: np.ndarray, src: np.ndarray, dst: np.ndarray, limit: int
) -> tuple:
    """Shiloach–Vishkin hook + synchronous pointer-jump rounds, in place.

    ``labels`` starts as ``arange(n)`` and is left holding each vertex's
    minimum-id component label.  Returns ``(passes, jumps, arcs_processed)``
    with exactly the pass/jump-round/arc accounting of the vectorised
    :func:`repro.core.components.connected_components`: hooking is a
    min-accumulate against the pass-start snapshot (order-independent, both
    arc directions), and each jump round is the synchronous
    ``labels[labels]`` map with its convergence check fused into the same
    pass.
    """
    n = labels.size
    prev = np.empty(n, np.int64)
    jumped = np.empty(n, np.int64)
    passes = 0
    jumps = 0
    arcs = 0
    while True:
        passes += 1
        for i in range(n):
            prev[i] = labels[i]
        for i in range(src.size):
            t = prev[dst[i]]
            if t < labels[src[i]]:
                labels[src[i]] = t
        for i in range(src.size):
            t = prev[src[i]]
            if t < labels[dst[i]]:
                labels[dst[i]] = t
        arcs += 2 * dst.size
        # Pointer jumping until every label is a fixed point (synchronous
        # rounds; the final converged round counts, as in the numpy form).
        while True:
            jumps += 1
            equal = True
            for i in range(n):
                jv = labels[labels[i]]
                jumped[i] = jv
                if jv != labels[i]:
                    equal = False
            if equal:
                break
            for i in range(n):
                labels[i] = jumped[i]
        changed = False
        for i in range(n):
            if labels[i] != prev[i]:
                changed = True
                break
        if not changed:
            break
        if passes >= limit:
            break
    return passes, jumps, arcs
