#!/usr/bin/env python
"""Rewrite the committed figures-and-ablations golden.

``python tools/regen_figures_golden.py`` runs ``python -m repro.experiments
--ablations --json`` (all figures and ablations at quick scale, a few
seconds), drops the run manifest (``manifest`` and every result's
``meta.manifest_id``) and writes the rest to
``tests/experiments/figures_golden.json``, which
``tests/experiments/test_figures.py::test_figures_match_golden`` compares a
fresh run against (:func:`diffs`).  Before writing it prints one line per
figure or ablation that moved, with the fields that moved, and counts the
ones that did not.  Rewrite it only for a change meant to move a figure,
and say which figure moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
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


def diffs(got, want, path: str = "") -> list[str]:
    """Paths at which ``got`` differs from ``want``: floats to a relative
    1e-9, ints, strings and bools exactly, dicts and lists by shape too."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [d for key in want for d in diffs(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in diffs(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=1e-9) else [path]
    return [] if type(got) is type(want) and got == want else [path]


def changes(new: dict, old: dict) -> list[str]:
    """One line per figure or ablation of ``new`` that differs from
    ``old`` (the fields that moved), then the count of those that do not."""
    before = {r["figure"]: r for r in old.get("results", [])}
    lines, same = [], 0
    for result in new["results"]:
        name = result["figure"]
        if name not in before:
            lines.append(f"added {name}")
            continue
        moved = diffs(result, before.pop(name))
        if not moved:
            same += 1
            continue
        fields = sorted({p.split(".")[1].split("[")[0] for p in moved})
        lines.append(f"changed {name}: {len(moved)} values in {', '.join(fields)}")
    lines += [f"removed {name}" for name in before]
    lines += [f"changed {key}" for key in sorted(new)
              if key != "results" and new[key] != old.get(key)]
    lines.append(f"unchanged: {same} of {len(new['results'])}")
    return lines


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    doc = report()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for line in changes(doc, old):
        print(line)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
