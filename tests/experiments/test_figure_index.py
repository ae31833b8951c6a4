"""EXPERIMENTS.md's generated figure index must match the code registry.

Two sync directions are pinned: the markdown block between the
``GENERATED FIGURE INDEX`` markers equals :func:`figure_index_table`
verbatim, and every metadata row matches what the figure module actually
does (title strings in the source).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import FIGURE_MODULES
from repro.experiments.report import FIGURE_INDEX, figure_index_table

REPO = Path(__file__).resolve().parents[2]
BEGIN = "<!-- BEGIN GENERATED FIGURE INDEX -->"
END = "<!-- END GENERATED FIGURE INDEX -->"


def test_index_covers_exactly_the_figure_modules():
    assert list(FIGURE_INDEX) == list(FIGURE_MODULES)


def test_experiments_md_block_is_generated_output():
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert text.count(BEGIN) == 1 and text.count(END) == 1
    block = text.split(BEGIN)[1].split(END)[0].strip()
    assert block == figure_index_table().strip()


def test_titles_match_module_source():
    for name, meta in FIGURE_INDEX.items():
        source = (REPO / "src" / "repro" / "experiments" / f"{name}.py").read_text(
            encoding="utf-8"
        )
        assert meta["title"] in source, f"{name}: title drifted from module"
        assert meta["figure"] in source, f"{name}: figure label drifted from module"
