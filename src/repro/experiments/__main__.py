"""Command-line experiment runner.

Usage::

    python -m repro.experiments                 # all figures, quick scale
    python -m repro.experiments --full          # full measured scale
    python -m repro.experiments fig05 fig06     # a subset
    python -m repro.experiments --ablations     # the ablation sweeps too
    python -m repro.experiments --json report.json   # machine-readable report

Prints each figure's series tables and shape checks (the content recorded in
EXPERIMENTS.md) and exits non-zero if any shape check fails.  ``--json``
additionally writes every result — series numbers, rows, checks, manifest
meta — to a report file; the nightly CI job uploads this as its artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments import FIGURE_MODULES, get_figure
from repro.experiments.report import (
    ABLATIONS,
    ablation_runners,
    figure_index_table,
    figure_to_dict,
)
from repro.obs import ensure_manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures on the simulated machines.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=list(FIGURE_MODULES),
        help=f"figure modules to run (default: all of {', '.join(FIGURE_MODULES)})",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at full measured scale (slower, tighter extrapolation)",
    )
    parser.add_argument(
        "--ablations",
        action="store_true",
        help=(
            f"also run the {len(ABLATIONS)} ablation sweeps "
            f"({', '.join(ABLATIONS)})"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write a machine-readable report of every result",
    )
    parser.add_argument(
        "--memprof",
        action="store_true",
        help="measure peak heap/RSS of each figure's kernel "
             "(measured_peak_bytes lands in host dicts and profile meta)",
    )
    parser.add_argument(
        "--figure-index",
        action="store_true",
        help="print the generated fig01-fig11 index table (EXPERIMENTS.md block) and exit",
    )
    args = parser.parse_args(argv)

    if args.figure_index:
        print(figure_index_table())
        return 0

    if args.memprof:
        from repro.obs.prof import enable_memory_profiling

        enable_memory_profiling()

    failed = 0
    report: list[dict] = []
    for name in args.figures:
        result = get_figure(name)(quick=not args.full)
        print(result.render())
        print()
        report.append({"module": name, **figure_to_dict(result)})
        if not result.all_passed:
            failed += 1

    if args.ablations:
        for _key, fn in ablation_runners():
            result = fn(quick=not args.full)
            print(result.render())
            print()
            report.append({"module": fn.__name__, **figure_to_dict(result)})
            if not result.all_passed:
                failed += 1

    if args.json:
        doc = {
            "manifest": ensure_manifest().to_dict(),
            "full_scale": bool(args.full),
            "n_results": len(report),
            "n_failed": failed,
            "results": report,
        }
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote report for {len(report)} experiment(s) to {args.json}")

    if failed:
        print(f"{failed} experiment(s) had failing shape checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
