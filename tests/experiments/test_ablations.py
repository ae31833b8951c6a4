"""The ablation sweeps must pass their checks and produce coherent tables."""

import pytest

from repro.experiments import ablations
from repro.experiments.report import ABLATIONS, ablation_runners


def test_registry_matches_module():
    """Every registered key resolves to a runner; every runner is registered."""
    assert [k for k, _ in ablation_runners()] == list(ABLATIONS)
    exported = {name[len("run_"):] for name in ablations.__all__ if name.startswith("run_")}
    assert exported == set(ABLATIONS)


@pytest.mark.parametrize(
    "runner", [fn for _, fn in ablation_runners()], ids=list(ABLATIONS)
)
def test_ablation_checks(runner):
    result = runner(quick=True)
    assert result.rows, "ablation produced no table"
    failures = {d: detail for d, (ok, detail) in result.checks.items() if not ok}
    assert not failures, failures


def test_mix_ratio_monotone_trend():
    """Hybrid/Dyn-arr ratio grows monotonically with the deletion share."""
    result = ablations.run_mix_ratio(quick=True)
    ratios = [r["hybrid/dynarr"] for r in result.rows]
    assert all(b >= a * 0.8 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > ratios[0]


def test_resize_policy_k_zero_worst_copies():
    result = ablations.run_resize_policy(quick=True)
    rows = {(r["k"], r["growth"]): r for r in result.rows}
    assert rows[(0, 2)]["copied_words"] >= rows[(8, 2)]["copied_words"]


def test_degree_thresh_tradeoff_direction():
    result = ablations.run_degree_thresh(quick=True)
    rows = sorted(result.rows, key=lambda r: r["degree_thresh"])
    # fewer treap vertices as the threshold rises
    tv = [r["treap_vertices"] for r in rows]
    assert all(a >= b for a, b in zip(tv, tv[1:]))
