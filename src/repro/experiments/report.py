"""Machine-readable export of the experiment results.

:func:`figure_to_dict` flattens one figure's series and checks into plain
dictionaries; ``python -m repro.experiments --json`` writes them, one per
figure and ablation, into the one report document — the artifact CI jobs
archive next to EXPERIMENTS.md, diffable across calibration changes, and
the format of the committed golden.
"""

from __future__ import annotations

from repro.experiments import FIGURE_MODULES, FigureResult
from repro.util.jsonify import jsonify

__all__ = [
    "ABLATIONS",
    "FIGURE_INDEX",
    "ablation_runners",
    "figure_index_table",
    "figure_to_dict",
]

#: Ordered registry of the ablation sweeps.  Key ``X`` maps to runner
#: ``repro.experiments.ablations.run_X``; the CLI (``--ablations``) iterates
#: this tuple, so adding a sweep here is the single step that wires it
#: everywhere (the help text derives its count from it).
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
