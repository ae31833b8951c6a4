"""Every figure reproduction must pass its shape checks (quick scale).

These are the repository's statement that the paper's evaluation reproduces:
each ``figNN.run`` returns the plotted series plus checks like "Hybrid ~20x
Dyn-arr for deletions"; a failure here means the reproduction regressed.
"""

import pytest

from repro.experiments import FIGURE_MODULES, get_figure
from repro.experiments.report import figure_to_dict


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
