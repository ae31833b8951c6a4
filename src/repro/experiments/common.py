"""Shared machinery for the figure experiments.

The experiment pattern (DESIGN.md §1):

1. run the real data structure / kernel at a *measured scale* small enough
   for Python (2^12–2^16 vertices, the paper's R-MAT parameters and edge
   density);
2. extract the measured :class:`~repro.machine.profile.WorkProfile` and the
   structure's footprint coefficients;
3. scale the profile to the *paper's instance* with
   :func:`~repro.machine.scale.scale_profile`;
4. evaluate a thread sweep on the simulated machine and compare shapes
   against the paper's reported curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.adjacency.base import AdjacencyRepresentation
from repro.machine.profile import WorkProfile
from repro.machine.scale import ScaledInstance, scale_profile
from repro.machine.sim import ScalingResult, SimulatedMachine
from repro.machine.spec import MachineSpec
from repro.obs import manifest_meta, span

__all__ = [
    "SeriesSpec",
    "FigureResult",
    "measured_scale",
    "footprint_coefficients",
    "scaled_sweep",
    "T2_THREADS",
    "T1_THREADS",
    "P570_CPUS",
]

#: Thread sweeps matching the paper's x-axes.
T2_THREADS = (1, 2, 4, 8, 16, 32, 64)
T1_THREADS = (1, 2, 4, 8, 16, 32)
P570_CPUS = (1, 2, 4, 8, 16)


def measured_scale(full: int, quick_value: int, quick: bool) -> int:
    """Pick the measured instance scale: smaller under ``quick`` (CI mode)."""
    return quick_value if quick else full


@dataclass(frozen=True)
class SeriesSpec:
    """One plotted series: a label plus its simulated scaling result."""

    label: str
    result: ScalingResult

    def mups_at(self, threads: int) -> float:
        i = self.result.threads.index(threads)
        return float(self.result.mups[i])

    def seconds_at(self, threads: int) -> float:
        i = self.result.threads.index(threads)
        return float(self.result.seconds[i])

    def speedup_at(self, threads: int) -> float:
        i = self.result.threads.index(threads)
        return float(self.result.speedups[i])


@dataclass
class FigureResult:
    """Everything one figure reproduction produced.

    ``checks`` maps a shape assertion's description to (passed, detail);
    benchmarks and tests assert every check passed, and EXPERIMENTS.md
    records the details.
    """

    figure: str
    title: str
    series: list[SeriesSpec] = field(default_factory=list)
    #: Free-form tabular results for figures whose x-axis is not a thread
    #: count (e.g. Figure 1's problem-size sweep).
    rows: list[dict] = field(default_factory=list)
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    notes: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Every figure result is attributable: stamp the run manifest so two
        # exported result files are diffable across commits/seeds/machines.
        self.meta = {**manifest_meta(), **self.meta}

    def check(self, description: str, passed: bool, detail: str = "") -> None:
        self.checks[description] = (bool(passed), detail)

    @property
    def all_passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def failed_checks(self) -> list[str]:
        return [f"{d}: {detail}" for d, (ok, detail) in self.checks.items() if not ok]

    def get(self, label: str) -> SeriesSpec:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.figure}")

    def render(self) -> str:
        """Multi-line report: series/row tables plus check outcomes."""
        lines = [f"== {self.figure}: {self.title} =="]
        if self.notes:
            lines.append(self.notes)
        if self.rows:
            cols = list(self.rows[0].keys())
            widths = {
                c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows)) for c in cols
            }
            lines.append("")
            lines.append(" ".join(c.rjust(widths[c]) for c in cols))
            for r in self.rows:
                lines.append(" ".join(_fmt(r.get(c)).rjust(widths[c]) for c in cols))
        for s in self.series:
            lines.append("")
            lines.append(f"-- {s.label} --")
            lines.append(s.result.table())
        if self.checks:
            lines.append("")
            lines.append("-- shape checks --")
            for desc, (ok, detail) in self.checks.items():
                mark = "PASS" if ok else "FAIL"
                lines.append(f"[{mark}] {desc}" + (f" ({detail})" if detail else ""))
        return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def footprint_coefficients(
    rep: AdjacencyRepresentation, n: int, arcs: int, *, header_bytes_per_vertex: float = 40.0
) -> tuple[float, float]:
    """Split a structure's model footprint (``model_bytes()``) into
    per-vertex/per-arc bytes.

    The per-vertex header estimate covers offset/capacity/count/live/root
    arrays (five-ish words); the remainder is attributed to arcs.  Used to
    recompute the footprint at the paper's instance size.
    """
    mem = float(rep.model_bytes())
    bpe = max(0.0, (mem - header_bytes_per_vertex * n)) / max(arcs, 1)
    return header_bytes_per_vertex, bpe


def scaled_sweep(
    profile: WorkProfile,
    instance: ScaledInstance,
    machine: MachineSpec,
    threads: Sequence[int],
    *,
    n_items: int | None = None,
    label: str = "",
    scale_barriers_with_diameter: bool = False,
    logdeg_correction: bool = False,
) -> SeriesSpec:
    """Scale a measured profile to the target instance and sweep threads."""
    with span("experiments.scaled_sweep", label=label or profile.name):
        scaled = scale_profile(
            profile,
            instance,
            scale_barriers_with_diameter=scale_barriers_with_diameter,
            logdeg_correction=logdeg_correction,
        )
        sim = SimulatedMachine(machine)
        result = sim.sweep(scaled, threads, n_items=n_items)
    return SeriesSpec(label=label or profile.name, result=result)
