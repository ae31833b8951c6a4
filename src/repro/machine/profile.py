"""Machine-independent work profiles.

A :class:`WorkProfile` is the contract between the real algorithm
implementations and the machine simulator: kernels *measure* what they did —
instruction-level work, memory traffic and its locality, synchronisation,
load-balance — into one or more :class:`Phase` records, and the cost model in
:mod:`repro.machine.cost` turns those records into simulated execution time
on a given :class:`~repro.machine.spec.MachineSpec`.

Quantities are totals over the whole phase (not per-thread): the simulator
decides how they divide across threads.  Everything is a float because
profiles get scaled to paper-size instances (:mod:`repro.machine.scale`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.errors import ProfileError

__all__ = ["Phase", "WorkProfile", "ProfileBuilder"]

_EXTENSIVE_FIELDS = (
    "alu_ops",
    "seq_bytes",
    "alu_ops_per_thread",
    "seq_bytes_per_thread",
    "rand_accesses",
    "atomics",
    "atomic_max_addr",
    "locks",
    "lock_max_addr",
    "barriers",
)


@dataclass(frozen=True)
class Phase:
    """One parallel phase of an algorithm (e.g. one BFS level, one update sweep).

    Attributes
    ----------
    name:
        Label used in reports.
    alu_ops:
        Integer/branch operations executed, total.
    seq_bytes:
        Bytes touched with streaming (prefetchable) access patterns.
    rand_accesses:
        Dependent random word accesses (pointer chases, hash probes,
        scattered adjacency reads).  Each is a potential cache miss; the
        hit probability is derived from ``footprint_bytes``.
    footprint_bytes:
        Working set the random accesses land in; determines the cache hit
        rate on the simulated machine.  Not scaled by work — it is a size,
        not a count.
    atomics:
        Atomic read-modify-write operations (e.g. the Dyn-arr counter
        increments the paper calls "lock-free, non-blocking insertions").
    atomic_max_addr:
        Largest number of atomics hitting a single address — the hottest
        vertex counter.  Serialises regardless of thread count.
    locks:
        Lock acquire/release pairs (treap per-vertex locks).
    lock_hold_cycles:
        Average cycles of work performed while holding a lock (treap
        rebalancing is the paper's example of coarse lock granularity).
    lock_max_addr:
        Largest number of acquisitions of a single lock.
    barriers:
        Full-machine synchronisation points in the phase.
    span_cycles:
        Inherently serial critical path (cycles) that no amount of threads
        shortens.
    max_unit_frac:
        The largest *indivisible* fraction of this phase's divisible work —
        e.g. one vertex's updates when work is partitioned by vertex.  Caps
        effective parallelism at ``1 / max_unit_frac`` (a value of 0 means
        perfectly divisible).
    parallel:
        If False the phase runs on one thread no matter what (setup code,
        sequential reductions the implementation has not parallelised).
    """

    name: str
    alu_ops: float = 0.0
    seq_bytes: float = 0.0
    #: Work REPLICATED on every thread (not divided by p): e.g. the Vpart
    #: scheme where each thread scans the whole update stream and applies
    #: only the updates it owns (paper section 2.1.3).
    alu_ops_per_thread: float = 0.0
    seq_bytes_per_thread: float = 0.0
    rand_accesses: float = 0.0
    footprint_bytes: float = 0.0
    atomics: float = 0.0
    atomic_max_addr: float = 0.0
    locks: float = 0.0
    lock_hold_cycles: float = 0.0
    lock_max_addr: float = 0.0
    #: Hold time at the hottest lock specifically (its serial chain).  The
    #: average hold (`lock_hold_cycles`) dilutes across shallow structures;
    #: the hottest vertex's structure is the deepest.  0 falls back to the
    #: average.
    lock_hold_max_cycles: float = 0.0
    barriers: float = 0.0
    span_cycles: float = 0.0
    max_unit_frac: float = 0.0
    parallel: bool = True

    def __post_init__(self) -> None:
        for f in _EXTENSIVE_FIELDS + ("footprint_bytes", "lock_hold_cycles", "span_cycles"):
            v = getattr(self, f)
            if v < 0:
                raise ProfileError(f"phase {self.name!r}: {f} must be >= 0, got {v}")
        if not 0.0 <= self.max_unit_frac <= 1.0:
            raise ProfileError(
                f"phase {self.name!r}: max_unit_frac must be in [0, 1], "
                f"got {self.max_unit_frac}"
            )
        if self.atomic_max_addr > self.atomics:
            raise ProfileError(
                f"phase {self.name!r}: atomic_max_addr ({self.atomic_max_addr}) "
                f"exceeds total atomics ({self.atomics})"
            )
        if self.lock_max_addr > self.locks:
            raise ProfileError(
                f"phase {self.name!r}: lock_max_addr ({self.lock_max_addr}) "
                f"exceeds total locks ({self.locks})"
            )

    def scaled(
        self,
        work: float = 1.0,
        *,
        footprint: float | None = None,
        max_addr: float | None = None,
        max_unit_frac: float | None = None,
        barriers: float | None = None,
        span: float | None = None,
    ) -> "Phase":
        """Return a copy with extensive quantities multiplied by ``work``.

        ``footprint`` scales the working set separately (it grows with the
        instance, not with the operation count); ``max_addr`` scales the
        hot-spot counts (hottest-vertex work grows like the maximum degree,
        sub-linearly in the instance for power-law graphs); ``barriers`` and
        ``span`` default to unscaled.
        """
        if work < 0 or (footprint is not None and footprint < 0):
            raise ProfileError("scale factors must be non-negative")
        kw = {f: getattr(self, f) * work for f in _EXTENSIVE_FIELDS}
        if max_addr is not None:
            kw["atomic_max_addr"] = min(self.atomic_max_addr * max_addr, kw["atomics"])
            kw["lock_max_addr"] = min(self.lock_max_addr * max_addr, kw["locks"])
        if barriers is not None:
            kw["barriers"] = self.barriers * barriers
        kw["footprint_bytes"] = self.footprint_bytes * (footprint if footprint is not None else 1.0)
        kw["span_cycles"] = self.span_cycles * (span if span is not None else 1.0)
        if max_unit_frac is not None:
            kw["max_unit_frac"] = min(max(self.max_unit_frac * max_unit_frac, 0.0), 1.0)
        return replace(self, **kw)

    def merged_with(self, other: "Phase") -> "Phase":
        """Combine two phases that run back to back into one record.

        Extensive fields add; the footprint takes the max (the union of two
        working sets in the same structure is bounded by the larger one for
        our use cases); hot-spot counts add conservatively; ``max_unit_frac``
        is recomputed against the merged divisible work using random accesses
        as the proxy for work volume.
        """
        kw = {f: getattr(self, f) + getattr(other, f) for f in _EXTENSIVE_FIELDS}
        kw["footprint_bytes"] = max(self.footprint_bytes, other.footprint_bytes)
        kw["span_cycles"] = self.span_cycles + other.span_cycles
        w_self = self.rand_accesses + self.alu_ops
        w_other = other.rand_accesses + other.alu_ops
        w_total = w_self + w_other
        if w_total > 0:
            kw["max_unit_frac"] = max(
                self.max_unit_frac * w_self / w_total,
                other.max_unit_frac * w_other / w_total,
            )
        hold = max(self.lock_hold_cycles, other.lock_hold_cycles)
        hold_max = max(self.lock_hold_max_cycles, other.lock_hold_max_cycles)
        return Phase(
            name=f"{self.name}+{other.name}",
            lock_hold_cycles=hold,
            lock_hold_max_cycles=hold_max,
            parallel=self.parallel and other.parallel,
            **kw,
        )


@dataclass(frozen=True)
class WorkProfile:
    """A named sequence of phases plus instance metadata.

    ``meta`` records what was run (n, m, update counts, representation name,
    parameters) so that reports and the scaling machinery can interpret the
    numbers later.
    """

    name: str
    phases: tuple[Phase, ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ProfileError(f"profile {self.name!r} has no phases")
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "meta", dict(self.meta))

    def total(self, attr: str) -> float:
        """Sum an extensive attribute over all phases."""
        return float(sum(getattr(p, attr) for p in self.phases))

    @property
    def footprint_bytes(self) -> float:
        """Peak working set over the profile."""
        return max(p.footprint_bytes for p in self.phases)

    def collapsed(self, name: str | None = None) -> "WorkProfile":
        """Merge all phases into a single phase (for coarse comparisons)."""
        merged = self.phases[0]
        for p in self.phases[1:]:
            merged = merged.merged_with(p)
        merged = replace(merged, name=name or self.name)
        return WorkProfile(self.name, (merged,), self.meta)

    def describe(self) -> str:
        """Multi-line human-readable summary (used by example scripts)."""
        lines = [f"WorkProfile {self.name!r}: {len(self.phases)} phase(s)"]
        for p in self.phases:
            lines.append(
                f"  - {p.name}: alu={p.alu_ops:.3g} rand={p.rand_accesses:.3g} "
                f"seq={p.seq_bytes:.3g}B atomics={p.atomics:.3g} "
                f"locks={p.locks:.3g} barriers={p.barriers:.3g} "
                f"footprint={p.footprint_bytes / 1e6:.3g}MB"
            )
        if self.meta:
            lines.append(f"  meta: {self.meta}")
        return "\n".join(lines)


class ProfileBuilder:
    """Incrementally assemble a :class:`WorkProfile`.

    Kernels accumulate plain integer counters on their hot paths (cheap) and
    convert them into phases here at the end of a run:

    >>> b = ProfileBuilder("demo", n=100)
    >>> b.phase("sweep", alu_ops=1e6, rand_accesses=2e5, footprint_bytes=8e5)
    >>> prof = b.build()
    >>> prof.total("alu_ops")
    1000000.0
    """

    def __init__(self, name: str, **meta) -> None:
        self.name = name
        self._phases: list[Phase] = []
        self._meta: dict[str, object] = dict(meta)

    def phase(self, name: str, **kwargs) -> Phase:
        """Append a phase; returns it for inspection."""
        p = Phase(name=name, **kwargs)
        self._phases.append(p)
        return p

    def extend(self, phases: Iterable[Phase]) -> None:
        """Append already-built phases (e.g. from a sub-kernel's profile)."""
        self._phases.extend(phases)

    def meta(self, **extra) -> None:
        """Record metadata entries."""
        self._meta.update(extra)

    def build(self) -> WorkProfile:
        """Finalise into an immutable :class:`WorkProfile`."""
        return WorkProfile(self.name, tuple(self._phases), self._meta)
