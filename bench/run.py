#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                         every workload, both passes
    python3 bench/run.py --workload batch_mixed  one workload, untraced pass
    python3 bench/run.py --workload serve_churn --trace 1 --seed 11
    python3 bench/run.py --repeat 3              noise check across whole sets

With ``--workload`` the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0``, the per-layer ones for
``--trace 1``; the workload runs in a child of that command, which returns
only once every process the child started has ended.  Without it each workload runs in a fresh subprocess of this
file (clean allocator, its own peak RSS), every metric is printed with its
unit and ``bench/results/latest.json`` is rewritten.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import common

SETUPS = 3  # set-ups per run; setup_s is their median
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload in this process; returns the result-line object."""
    common.use_checkout_source()
    common.steady_memory()
    from batch import BatchInsert, BatchMixed, KernelsStatic
    from serve import ServeChurn, ServeSteady
    from spans import Recorder

    from repro.obs.export import validate_chrome_trace

    classes = {c.name: c for c in (BatchInsert, BatchMixed, KernelsStatic, ServeSteady, ServeChurn)}
    rec = Recorder(name)
    workload = classes[name](seed, seconds, tiny, rec, trace)
    setup_seconds = []
    try:
        for i in range(SETUPS):
            if i:
                workload.close()
            before, t0 = common.calibrate(), time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - t0
            setup_seconds.append(common.at_reference_speed(elapsed, before, common.calibrate()))
        workload.run()
        end_to_end, layers = workload.report()
    finally:
        workload.close()
    end_to_end["setup_s"] = statistics.median(setup_seconds)
    if trace:
        layers.setdefault("obs.harness_trace_overhead_share", workload.trace_overhead_share())
        layers.update({f"{layer}.self_share": s for layer, s in rec.self_shares().items()})
        workload.check(validate_chrome_trace(rec.chrome_trace()) == [])
        rec.write(common.RESULTS)
    layers["failed_share"] = workload.failed / workload.checks
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    measured = layers if trace else end_to_end
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"bench: {name} emitted metrics BENCHMARK.json does not name: {unknown}")
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": workload.failed == 0 and finite,
        "attempted": workload.checks,
        "failed": workload.failed,
        "metrics": metrics,
    }


def meta(seed: int, seconds: float) -> dict:
    """What the numbers were measured on; recorded beside them, never compared."""
    common.use_checkout_source()
    import numpy

    from repro import kernels

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown", "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "kernel_tier": kernels.default_tier(), "numba": kernels.numba_available(),
        "seed": seed, "seconds": seconds, "setups": SETUPS,
    }


def spawn(name: str, args: argparse.Namespace, trace: int) -> dict:
    """One workload in a fresh subprocess of this file; its result line."""
    cmd = [
        sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {name} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_all(args: argparse.Namespace) -> dict:
    """Both passes of every workload; prints each metric with its unit."""
    results = {}
    for name in WORKLOADS:
        untraced, traced = spawn(name, args, 0), spawn(name, args, 1)
        results[name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"], "failed": untraced["failed"],
            "end_to_end": {k: m["value"] for k, m in untraced["metrics"].items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items() if m["value"]},
        }
        print(f"== {name}: {'ok' if results[name]['correct'] else 'WRONG ANSWERS'}, "
              f"{untraced['failed']} of {untraced['attempted']} checks failed")
        for section in ("end_to_end", "per_layer"):
            for metric, value in results[name][section].items():
                print(f"  {metric:<36} {value:>16.6g} {UNITS[metric]}")
    return results


def repeat(args: argparse.Namespace) -> int:
    """Run the untraced set ``--repeat`` times; fail if two sets disagree."""
    sets = [
        {name: spawn(name, args, 0) for name in WORKLOADS} for _ in range(args.repeat)
    ]
    noise, worst = {}, 0
    for name in WORKLOADS:
        for m in SPEC["end_to_end"]:
            values = sorted(s[name]["metrics"][m["name"]]["value"] for s in sets)
            mid = statistics.median(values)
            spread = (values[-1] - values[0]) / mid
            ok = spread <= m["bound"]
            worst += not ok
            noise[f"{name}.{m['name']}"] = {
                "min": values[0], "median": mid, "max": values[-1],
                "spread": spread, "bound": m["bound"], "within_bound": ok,
            }
            print(f"{name + '.' + m['name']:<40} min {values[0]:<12.6g} median {mid:<12.6g} "
                  f"max {values[-1]:<12.6g} spread {spread:6.1%} of bound {m['bound']:.0%}"
                  f"{'' if ok else '  DISAGREE'}")
    correct = all(s[name]["correct"] for s in sets for name in WORKLOADS)
    write_json("noise.json", {"meta": meta(args.seed, args.seconds), "sets": args.repeat,
                              "correct": correct, "metrics": noise})
    return 0 if correct and not worst else 1


def write_json(filename: str, doc: dict) -> None:
    common.RESULTS.mkdir(parents=True, exist_ok=True)
    (common.RESULTS / filename).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: record harness spans and report the per-layer metrics")
    ap.add_argument("--repeat", type=int, default=0, metavar="K",
                    help="run every workload K times and compare the sets")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload and not args.supervised:
        # The workload runs in a child of this process, which ends only when nothing
        # the child started is left.
        return common.supervise([sys.executable, __file__, *sys.argv[1:], "--supervised"])
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        print(json.dumps(result))
        return 0
    if args.repeat:
        return repeat(args)
    results = run_all(args)
    if not args.tiny:
        write_json("latest.json", {"meta": meta(args.seed, args.seconds), "workloads": results})
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
