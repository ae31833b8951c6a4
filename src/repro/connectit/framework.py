"""The sample-finish connectivity framework (ConnectIt composition).

A connectivity *variant* is a :class:`ConnectItSpec`: one union rule, one
compaction rule (both from :mod:`repro.connectit.unionfind`), and one
sampling strategy (:mod:`repro.connectit.sampling`).  The driver
:func:`connect_components` runs the composition in two phases —

1. **sample**: cheaply resolve most of the graph (usually the giant
   component) with the chosen strategy;
2. **finish**: take every arc whose endpoints the sample left in
   *different* trees and union them exactly.

Because the finish phase skips all arcs the sample already resolved, a good
sample turns the finish into near-no-op work — the order-of-magnitude union
reduction ConnectIt reports, here measured directly by
:class:`~repro.connectit.unionfind.WorkCounters` and exported as a
:class:`~repro.machine.profile.WorkProfile`.

The labels are canonical (minimum vertex id per component, the convention
of :func:`repro.core.components.connected_components`), so every variant
produces bit-identical output for the same graph.  Both phases run in this
process: the finish is one union loop over the surviving arcs
(:meth:`~repro.connectit.unionfind.UnionFind.union_arcs`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.frontier import gather_ranges
from repro.errors import GraphError
from repro.machine.profile import Phase, WorkProfile
from repro.obs import METRICS, manifest_meta, span

from repro.connectit.sampling import SAMPLING_RULES, SampleStats, run_sampling
from repro.connectit.unionfind import (
    COMPACTION_RULES,
    UNION_RULES,
    UnionFind,
    WorkCounters,
)

__all__ = ["ConnectItSpec", "ConnectItResult", "connect_components", "variant_matrix"]

#: ALU ops charged per union attempt (root compare, rule compare, branches).
_ALU_PER_UNION = 6.0
#: ALU ops charged per explicit find call (dispatch + loop setup).
_ALU_PER_FIND = 2.0
#: ALU ops charged per pointer chase (index arithmetic + termination test).
_ALU_PER_CHASE = 2.0
#: Bytes of sequential arc traffic per arc examined (two int64 endpoints).
_ARC_BYTES = 16.0


@dataclass(frozen=True)
class ConnectItSpec:
    """One point in the ConnectIt design space.

    ``union_rule`` × ``compaction`` select the union-find variant;
    ``sampling`` selects the sample phase (``"none"`` disables it);
    ``k`` parameterises ``"kout"`` sampling.  The default,
    ``bfs+rank/halving``, samples with a level-bounded BFS from the hub
    and finishes by rank with halving; ``ConnectItSpec(sampling="none")``
    is the named unsampled baseline.
    """

    union_rule: str = "rank"
    compaction: str = "halving"
    sampling: str = "bfs"
    k: int = 2

    def __post_init__(self) -> None:
        if self.union_rule not in UNION_RULES:
            raise GraphError(
                f"unknown union rule {self.union_rule!r}; available: {UNION_RULES}"
            )
        if self.compaction not in COMPACTION_RULES:
            raise GraphError(
                f"unknown compaction rule {self.compaction!r}; available: {COMPACTION_RULES}"
            )
        if self.sampling not in SAMPLING_RULES:
            raise GraphError(
                f"unknown sampling strategy {self.sampling!r}; available: {SAMPLING_RULES}"
            )
        if self.sampling == "kout" and self.k < 1:
            raise GraphError(f"k-out sampling needs k >= 1, got {self.k}")

    @property
    def name(self) -> str:
        """Compact variant name, e.g. ``kout2+rank/halving``."""
        base = f"{self.union_rule}/{self.compaction}"
        if self.sampling == "kout":
            return f"kout{self.k}+{base}"
        if self.sampling == "bfs":
            return f"bfs+{base}"
        return base

    def to_dict(self) -> dict:
        """JSON-safe spec record (stamped into profiles and reports)."""
        return {
            "union_rule": self.union_rule,
            "compaction": self.compaction,
            "sampling": self.sampling,
            "k": int(self.k),
            "name": self.name,
        }


def variant_matrix(
    *,
    union_rules: tuple[str, ...] = UNION_RULES,
    compactions: tuple[str, ...] = COMPACTION_RULES,
    samplings: tuple[str, ...] = ("none",),
    k: int = 2,
) -> tuple[ConnectItSpec, ...]:
    """The cross-product of the requested rule axes, as specs."""
    return tuple(
        ConnectItSpec(union_rule=u, compaction=c, sampling=s, k=k)
        for s, u, c in itertools.product(samplings, union_rules, compactions)
    )


def _count_components(labels: np.ndarray) -> int:
    """Distinct canonical labels: a component's minimum id labels itself.

    Exactly one vertex per component is its own label, so the count needs
    no sort (``np.unique`` of 2^16 labels was a fifth of a k-out run).
    """
    return int(np.count_nonzero(labels == np.arange(labels.size, dtype=np.int64)))


@dataclass(frozen=True)
class ConnectItResult:
    """Labels plus the measured work of one sample-finish run.

    ``labels`` is canonical (min vertex id per component).  ``counters``
    is the whole run; ``sample_counters`` / ``finish_counters`` split it
    at the phase boundary.  ``sample`` records what the sampling strategy
    did (giant-component root and coverage).
    """

    labels: np.ndarray
    spec: ConnectItSpec
    counters: WorkCounters
    sample_counters: WorkCounters
    finish_counters: WorkCounters
    sample: SampleStats
    meta: dict = field(default_factory=dict)

    @property
    def n_components(self) -> int:
        """Number of connected components."""
        return _count_components(self.labels)

    def profile(self, name: str | None = None) -> WorkProfile:
        """The run's measured work as a machine-model :class:`WorkProfile`.

        One phase per executed stage (``sample`` is omitted when the spec
        disables it), with the counter-to-cost translation documented on
        the module constants; the raw counters ride along in ``meta``.
        """
        phases = []
        footprint = float(self.meta.get("footprint_bytes", 0))
        for phase_name, c, arcs in (
            ("sample", self.sample_counters, self.meta.get("sample_arcs", 0)),
            ("finish", self.finish_counters, self.meta.get("finish_arcs", 0)),
        ):
            if phase_name == "sample" and self.spec.sampling == "none":
                continue
            phases.append(
                Phase(
                    name=phase_name,
                    alu_ops=(
                        _ALU_PER_UNION * c.unions
                        + _ALU_PER_FIND * c.finds
                        + _ALU_PER_CHASE * c.pointer_chases
                    ),
                    rand_accesses=float(c.pointer_chases + c.hooks + c.compaction_writes),
                    seq_bytes=_ARC_BYTES * float(arcs),
                    atomics=float(c.atomics),
                    footprint_bytes=footprint,
                )
            )
        return WorkProfile(
            name or f"connectit-{self.spec.name}",
            tuple(phases),
            meta={
                "spec": self.spec.to_dict(),
                "counters": self.counters.to_dict(),
                "sample_counters": self.sample_counters.to_dict(),
                "finish_counters": self.finish_counters.to_dict(),
                "sample": self.sample.to_dict(),
                "n_components": self.n_components,
                **self.meta,
                **manifest_meta(),
            },
        )


def _finish_arcs(
    graph: CSRGraph, uf: UnionFind, sample: SampleStats | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Arcs the sample left unresolved, with endpoints mapped to their roots.

    Dropping already-resolved arcs (including all self-loops and every arc
    internal to the sampled giant component) is what makes the finish phase
    cheap; mapping the survivors' endpoints to their current roots keeps
    the finish unions short without changing which trees they merge.  The
    sources' roots are repeated straight from the per-vertex roots, so the
    targets' roots are the one gather.  When the ``sample`` that filled
    ``uf`` is a BFS that was not cut, on a stamped-symmetric CSR, it holds
    the source's whole component, which no arc leaves, so only the
    unreached vertices' arcs are read (same arcs, same CSR order).
    """
    roots = uf.flat_roots()
    if sample is not None and graph.symmetric and not sample.meta.get("bfs_cut", True):
        rest = np.flatnonzero(roots != roots[sample.giant_root])
        starts = graph.offsets[rest]
        counts = graph.offsets[rest + 1] - starts
        idx, _ = gather_ranges(starts, counts)
        rsrc = np.repeat(roots[rest], counts)
        rdst = roots[graph.targets[idx]]
    else:
        rsrc = np.repeat(roots, np.diff(graph.offsets))
        rdst = roots[graph.targets]
    mask = rsrc != rdst
    return rsrc[mask], rdst[mask]


def connect_components(
    graph: CSRGraph, spec: ConnectItSpec | None = None, **spec_kwargs
) -> ConnectItResult:
    """Connected components via one sample-finish composition.

    ``spec`` selects the variant (or pass the spec fields directly as
    keyword arguments, e.g. ``sampling="kout", union_rule="rem"``).  The
    sample and the finish both run in this process.
    """
    if spec is None:
        spec = ConnectItSpec(**spec_kwargs)
    elif spec_kwargs:
        raise GraphError("pass either a ConnectItSpec or spec keyword arguments, not both")
    n = graph.n
    uf = UnionFind(n, union_rule=spec.union_rule, compaction=spec.compaction)
    with span("connectit.components", variant=spec.name, n=n, arcs=graph.n_arcs) as sp:
        with span("connectit.sample", strategy=spec.sampling):
            stats = run_sampling(graph, uf, spec.sampling, k=spec.k)
        sample_counters = uf.counters.snapshot()
        fsrc, fdst = _finish_arcs(graph, uf, stats)
        settled, restarts = uf.settled, uf.restarts
        with span("connectit.finish", arcs=int(fsrc.size)) as fsp:
            uf.union_arcs(fsrc, fdst)
            fsp.set(settled=uf.settled - settled, restarts=uf.restarts - restarts)
        finish_counters = uf.counters.since(sample_counters)
        labels = uf.components()
        sp.set(
            components=_count_components(labels),
            unions=uf.counters.unions,
            finish_arcs=int(fsrc.size),
        )
    METRICS.inc("connectit.runs")
    METRICS.inc("connectit.unions", uf.counters.unions)
    return ConnectItResult(
        labels=labels,
        spec=spec,
        counters=uf.counters,
        sample_counters=sample_counters,
        finish_counters=finish_counters,
        sample=stats,
        meta={
            "n": n,
            "arcs": graph.n_arcs,
            "sample_arcs": int(stats.attempts),
            "finish_arcs": int(fsrc.size),
            "footprint_bytes": uf.memory_bytes() + int(_ARC_BYTES) * graph.n_arcs,
        },
    )
