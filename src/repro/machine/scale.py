"""Extrapolation of measured profiles to paper-scale instances.

Paper-scale inputs (33.5M–500M vertices) exceed a Python-loop time budget, so
the experiment harness runs each kernel for real at a reduced scale and then
scales the measured :class:`~repro.machine.profile.WorkProfile` to the target
instance before evaluating it on a machine model.  This module holds the
scaling rules and their justification:

* **work** (ALU ops, memory accesses, atomics, locks) is proportional to the
  operation count — updates for stream kernels, edges for traversal kernels.
  This holds because per-operation work in every structure here is O(1) or
  O(log degree); the log-degree terms are measured at the reduced scale and
  grow only by ``log(scale)`` — the scaler applies that correction.
* **footprint** is recomputed from measured bytes-per-vertex and
  bytes-per-edge coefficients at the target (n, m), so cache effects are
  evaluated at the *target* size, which is what makes the Figure 1 cliff and
  the "significantly larger than L2" regime of Figures 2–6 honest.
* **hot-spot counts** (the hottest vertex's updates) grow like the maximum
  degree.  For R-MAT with parameter ``a``, max degree scales as
  ``n ** (log2(1/a) ** -1 ... )``; empirically for (0.6,0.15,0.15,0.1) the
  paper cites O(n^0.6), so hot counts scale as ``(n1/n0) ** 0.6`` while
  totals scale linearly — hot *fractions* shrink at scale, which the scaler
  captures.
* **barriers / span** are per-phase structural costs: BFS level counts grow
  like the graph diameter, O(log n) for small-world instances; the caller
  passes the measured level counts at both scales or accepts the log rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ProfileError
from repro.machine.profile import Phase, WorkProfile

__all__ = [
    "ScaledInstance",
    "scale_profile",
    "rmat_size_biased_growth",
]

#: Paper's R-MAT shaping gives a maximum out-degree of O(n^0.6) (section 1.2).
RMAT_MAX_DEGREE_EXPONENT = 0.6


def rmat_size_biased_growth(scale_measured: int, scale_target: int) -> float:
    """Growth of the size-biased mean degree between two R-MAT scales.

    Random deletions of *existing* edges pick their endpoint with
    probability proportional to its degree, so the expected Dyn-arr probe
    scan is the size-biased mean degree E[d^2]/E[d].  For R-MAT, a vertex's
    expected out-degree factorises over the scale bits (probability
    ``p = a+b`` of a 0-bit, 0.75 for the paper's parameters), giving

        E[d^2]/E[d] = m * (p^2 + (1-p)^2) ** k

    With m ∝ 2^k this quantity grows by a factor of
    ``(2 * (p^2 + (1-p)^2)) ** Δk`` per scale step — 1.25^Δk
    for the paper's parameters — which is precisely why Dyn-arr deletions
    collapse at the paper's 33.5M-vertex scale (Figure 5) while looking
    tolerable at test scale.
    """
    if scale_measured <= 0 or scale_target <= 0:
        raise ProfileError("scales must be positive")
    p = 0.75
    q = p * p + (1.0 - p) * (1.0 - p)
    return (2.0 * q) ** (scale_target - scale_measured)


@dataclass(frozen=True)
class ScaledInstance:
    """Measured-vs-target instance descriptor.

    Parameters
    ----------
    n_measured, m_measured:
        Vertices/edges of the instance the kernel actually ran on.
    n_target, m_target:
        The paper's instance.
    ops_measured, ops_target:
        Operation counts driving the kernel (updates, queries, traversed
        edges).  Defaults to the edge counts when omitted.
    bytes_per_vertex, bytes_per_edge:
        Footprint coefficients measured from the live structure.
    """

    n_measured: int
    m_measured: int
    n_target: int
    m_target: int
    ops_measured: int | None = None
    ops_target: int | None = None
    bytes_per_vertex: float = 0.0
    bytes_per_edge: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_measured", "m_measured", "n_target", "m_target"):
            if getattr(self, name) <= 0:
                raise ProfileError(f"{name} must be positive")

    @property
    def work_scale(self) -> float:
        """Ratio of target to measured operation counts."""
        om = self.ops_measured if self.ops_measured is not None else self.m_measured
        ot = self.ops_target if self.ops_target is not None else self.m_target
        if om <= 0:
            raise ProfileError("measured operation count must be positive")
        return ot / om

    @property
    def footprint_target_bytes(self) -> float:
        """Structure footprint at the target instance size."""
        return self.bytes_per_vertex * self.n_target + self.bytes_per_edge * self.m_target

    @property
    def footprint_measured_bytes(self) -> float:
        return self.bytes_per_vertex * self.n_measured + self.bytes_per_edge * self.m_measured

    @property
    def footprint_scale(self) -> float:
        fm = self.footprint_measured_bytes
        return self.footprint_target_bytes / fm if fm > 0 else 1.0

    def hot_spot_scale(self) -> float:
        """Growth factor of hottest-vertex counts (max degree scaling)."""
        return (self.n_target / self.n_measured) ** RMAT_MAX_DEGREE_EXPONENT

    def diameter_scale(self) -> float:
        """Growth factor for level counts: small-world diameter is O(log n)."""
        return math.log(self.n_target + 1) / math.log(self.n_measured + 1)


def scale_profile(
    profile: WorkProfile,
    instance: ScaledInstance,
    *,
    scale_barriers_with_diameter: bool = False,
    logdeg_correction: bool = False,
) -> WorkProfile:
    """Scale a measured profile to the target instance.

    ``logdeg_correction`` multiplies work by ``log(target degree)/log(measured
    degree)`` for kernels whose per-op cost is O(log degree) (treaps); the
    average degree is m/n at both scales so this is usually ~1, but the
    hottest-vertex treap depth grows with max degree and the correction
    matters for the hot-spot serial term.
    """
    w = instance.work_scale
    if logdeg_correction:
        davg_m = max(2.0, instance.m_measured / instance.n_measured)
        davg_t = max(2.0, instance.m_target / instance.n_target)
        w *= math.log2(davg_t + 2.0) / math.log2(davg_m + 2.0)
    hot = instance.hot_spot_scale()
    # Hot fractions: max_unit counts grow by `hot` while totals grow by `w`.
    frac_scale = hot / w if w > 0 else 1.0
    barrier_scale = instance.diameter_scale() if scale_barriers_with_diameter else 1.0

    phases: list[Phase] = []
    for ph in profile.phases:
        scaled = ph.scaled(
            w,
            footprint=instance.footprint_scale,
            max_addr=hot,  # Phase.scaled applies this to the unscaled counts
            max_unit_frac=frac_scale,
            barriers=barrier_scale,
            span=barrier_scale,
        )
        phases.append(scaled)
    meta = dict(profile.meta)
    meta.update(
        scaled_from={"n": instance.n_measured, "m": instance.m_measured},
        scaled_to={"n": instance.n_target, "m": instance.m_target},
        work_scale=w,
        footprint_scale=instance.footprint_scale,
    )
    return WorkProfile(profile.name, tuple(phases), meta)
