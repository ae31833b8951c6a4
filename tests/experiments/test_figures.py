"""Every figure reproduction must pass its shape checks (quick scale).

These are the repository's statement that the paper's evaluation reproduces:
each ``figNN.run`` returns the plotted series plus checks like "Hybrid ~20x
Dyn-arr for deletions"; a failure here means the reproduction regressed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import FIGURE_MODULES, get_figure
from repro.experiments.report import figure_to_dict

REPO = Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location(
    "regen_figures_golden", REPO / "tools" / "regen_figures_golden.py"
)
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", FIGURE_MODULES)
def test_figure_shape_checks(name):
    result = get_figure(name)(quick=True)
    assert result.checks, f"{name} defines no shape checks"
    failures = result.failed_checks()
    assert not failures, f"{name}: {failures}"


@pytest.mark.parametrize("name", FIGURE_MODULES)
def test_figure_renders(name):
    result = get_figure(name)(quick=True)
    text = result.render()
    assert result.figure in text
    assert "shape checks" in text


def test_figures_deterministic():
    a = get_figure("fig02")(quick=True)
    b = get_figure("fig02")(quick=True)
    sa = a.get("Dyn-arr").result.seconds
    sb = b.get("Dyn-arr").result.seconds
    assert sa == sb
    # The whole exported result, not just one series: no host timing leaks in.
    assert figure_to_dict(a) == figure_to_dict(b)


def test_figures_match_golden():
    """Every figure and ablation equals the committed report
    (``tools/regen_figures_golden.py`` rewrites it)."""
    assert regen.diffs(regen.report(), json.loads(regen.GOLDEN.read_text())) == []


def test_fig05_gap_magnitude():
    """The headline 20x deletion gap, pinned explicitly."""
    result = get_figure("fig05")(quick=True)
    da = result.get("Dyn-arr")
    hy = result.get("Hybrid-arr-treap")
    assert hy.mups_at(64) / da.mups_at(64) > 6.0


def test_fig02_headline_scaling():
    """~25 MUPS / ~28x speedup at 64 T2 threads."""
    result = get_figure("fig02")(quick=True)
    da = result.get("Dyn-arr")
    assert 18.0 <= da.speedup_at(64) <= 40.0
    assert 10.0 <= da.mups_at(64) <= 80.0


def test_regen_names_what_moved():
    """The rewrite's summary: one line per moved result, with its moved
    fields, then the count of unchanged ones; floats to a relative 1e-9."""
    old = {"n_failed": 0, "results": [
        {"figure": "Figure 1", "rows": [1.0, 2], "notes": "a"},
        {"figure": "Figure 2", "rows": [3.0]},
        {"figure": "Ablation A1", "rows": []},
    ]}
    new = {"n_failed": 0, "results": [
        {"figure": "Figure 1", "rows": [1.0 + 1e-12, 3], "notes": "b"},
        {"figure": "Figure 2", "rows": [3.0]},
        {"figure": "Ablation A2", "rows": []},
    ]}
    assert regen.diffs(new["results"][0], old["results"][0]) == [".rows[1]", ".notes"]
    assert regen.changes(new, old) == [
        "changed Figure 1: 2 values in notes, rows",
        "added Ablation A2",
        "removed Ablation A1",
        "unchanged: 1 of 3",
    ]
