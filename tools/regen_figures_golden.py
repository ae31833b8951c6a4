#!/usr/bin/env python
"""Rewrite the committed figures-and-ablations golden.

``python tools/regen_figures_golden.py`` runs ``python -m repro.experiments
--ablations --json`` (all figures and ablations at quick scale, a few
seconds), drops the run manifest (``manifest`` and every result's
``meta.manifest_id``) and writes the rest to
``tests/experiments/figures_golden.json``, which
``tests/experiments/test_figures.py::test_figures_match_golden`` compares a
fresh run against.  Rewrite it only for a change meant to move a figure,
and say which figure moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "experiments" / "figures_golden.json"


def report() -> dict:
    """The ``--ablations --json`` report of this tree, manifest stripped."""
    from repro.experiments.__main__ import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["--ablations", "--json", str(path)])
        doc = json.loads(path.read_text())
    del doc["manifest"]
    for result in doc["results"]:
        del result["meta"]["manifest_id"]
    return doc


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    GOLDEN.write_text(json.dumps(report(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
