"""Machine-readable export of the experiment results.

``collect()`` runs the figure reproductions (and optionally the ablations)
and flattens every series and check into plain dictionaries;
``write_json()`` persists them — the artifact CI jobs archive next to
EXPERIMENTS.md, diffable across calibration changes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import FIGURE_MODULES, FigureResult, get_figure
from repro.obs import ensure_manifest
from repro.util.jsonify import jsonify

__all__ = [
    "ABLATIONS",
    "FIGURE_INDEX",
    "ablation_runners",
    "figure_index_table",
    "figure_to_dict",
    "collect",
    "write_json",
]

#: Ordered registry of the ablation sweeps.  Key ``X`` maps to runner
#: ``repro.experiments.ablations.run_X``; both the CLI (``--ablations``) and
#: :func:`collect` iterate this tuple, so adding a sweep here is the single
#: step that wires it everywhere (the help text derives its count from it).
ABLATIONS: tuple[str, ...] = (
    "resize_policy",
    "degree_thresh",
    "stream_order",
    "mix_ratio",
    "compression",
    "delta_sweep",
    "connectit_matrix",
)

#: Static per-figure metadata: what each reproduction runs.  The fig01–fig11
#: table in EXPERIMENTS.md is *generated* from this dict by :func:`figure_index_table`
#: (``python -m repro.experiments --figure-index``);
#: ``tests/experiments/test_figure_index.py`` asserts they stay in sync.
FIGURE_INDEX: dict[str, dict] = {
    "fig01": {
        "figure": "Figure 1",
        "title": "Dyn-arr-nr insertion MUPS vs problem size (1 core / 8 cores)",
    },
    "fig02": {
        "figure": "Figure 2",
        "title": "Dyn-arr vs Dyn-arr-nr construction MUPS, UltraSPARC T2",
    },
    "fig03": {
        "figure": "Figure 3",
        "title": "Insertion strategies on 8 cores: Dyn-arr-nr vs batched/Vpart/Epart",
    },
    "fig04": {
        "figure": "Figure 4",
        "title": "Construction MUPS: Dyn-arr vs Treaps vs Hybrid, UltraSPARC T2",
    },
    "fig05": {
        "figure": "Figure 5",
        "title": "Deletion MUPS after construction: Dyn-arr vs Treaps vs Hybrid, T2",
    },
    "fig06": {
        "figure": "Figure 6",
        "title": "Mixed updates (75% ins / 25% del): Dyn-arr vs Treaps vs Hybrid, T2",
    },
    "fig07": {
        "figure": "Figure 7",
        "title": "Link-cut tree construction, UltraSPARC T2 (10M vertices / 84M edges)",
    },
    "fig08": {
        "figure": "Figure 8",
        "title": "1M connectivity queries on the link-cut forest, UltraSPARC T2",
    },
    "fig09": {
        "figure": "Figure 9",
        "title": "Induced subgraph kernel (interval (20,70)), UltraSPARC T1",
    },
    "fig10": {
        "figure": "Figure 10",
        "title": "Time-stamped BFS on IBM Power 570 (500M vertices / 4B edges)",
    },
    "fig11": {
        "figure": "Figure 11",
        "title": "Approximate temporal betweenness (256 sources), UltraSPARC T2",
    },
}


def ablation_runners() -> list[tuple[str, object]]:
    """``(key, runner)`` pairs for every registered ablation, in order."""
    from repro.experiments import ablations

    return [(key, getattr(ablations, f"run_{key}")) for key in ABLATIONS]


def figure_index_table() -> str:
    """The generated fig01–fig11 markdown table (from :data:`FIGURE_INDEX`).

    ``python -m repro.experiments --figure-index`` prints it; the block in
    EXPERIMENTS.md between the ``GENERATED FIGURE INDEX`` markers is this
    output verbatim.  The sync test additionally pins each entry's
    title/figure strings against the figure module source.
    """
    lines = [
        "| module | figure | title | run |",
        "|---|---|---|---|",
    ]
    for name in FIGURE_MODULES:
        meta = FIGURE_INDEX[name]
        lines.append(
            f"| `src/repro/experiments/{name}.py` | {meta['figure']} | {meta['title']} "
            f"| `python -m repro.experiments {name} [--full]` |"
        )
    return "\n".join(lines)


def figure_to_dict(result: FigureResult) -> dict:
    """Flatten one figure's series, rows and checks into JSON-safe dicts."""
    out: dict = {
        "figure": result.figure,
        "title": result.title,
        "notes": result.notes,
        "all_passed": result.all_passed,
        "checks": {
            desc: {"passed": ok, "detail": detail}
            for desc, (ok, detail) in result.checks.items()
        },
        "series": [],
        "rows": [_jsonify_row(r) for r in result.rows],
        "meta": jsonify(result.meta),
    }
    for s in result.series:
        r = s.result
        entry = {
            "label": s.label,
            "machine": r.machine,
            "threads": list(r.threads),
            "seconds": [float(x) for x in r.seconds],
            "speedups": [float(x) for x in r.speedups],
        }
        if r.mups is not None:
            entry["mups"] = [float(x) for x in r.mups]
        out["series"].append(entry)
    return out


def _jsonify_row(row: dict) -> dict:
    # One shared coercion path (repro.util.jsonify) — also handles np.bool_
    # and np.ndarray values, which the previous ad-hoc version passed
    # through and which broke ``json.dump``.
    return jsonify(row)


def collect(
    *,
    quick: bool = True,
    figures: list[str] | None = None,
    include_ablations: bool = False,
) -> dict:
    """Run the reproductions and return one JSON-safe document."""
    names = figures if figures is not None else list(FIGURE_MODULES)
    doc: dict = {
        "mode": "quick" if quick else "full",
        "manifest": ensure_manifest().to_dict(),
        "figures": {},
    }
    for name in names:
        doc["figures"][name] = figure_to_dict(get_figure(name)(quick=quick))
    if include_ablations:
        doc["ablations"] = {}
        for key, fn in ablation_runners():
            doc["ablations"][key] = figure_to_dict(fn(quick=quick))
    doc["all_passed"] = all(
        f["all_passed"] for f in doc["figures"].values()
    ) and all(a["all_passed"] for a in doc.get("ablations", {}).values())
    return doc


def write_json(path, **kwargs) -> dict:
    """Collect and persist; returns the document."""
    doc = collect(**kwargs)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))
    return doc
