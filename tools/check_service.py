#!/usr/bin/env python
"""CI smoke driver for the streaming connectivity service.

Stdlib-only.  Pointed at a running ``python -m repro serve`` endpoint
(the URL, or a ``--url-file`` written by the server), it:

1. fires ``--queries`` concurrent queries from ``--threads`` client
   threads (a mix of ``/connected``, ``/bfs``, ``/component``,
   ``/components`` and ``/stats``), asserting every one answers 200 with
   a well-formed JSON body naming its epoch;
2. reads ``/metrics.json`` and checks the registry snapshot against the
   storm: exactly ``counters``, ``gauges`` and ``histograms``, every
   value finite, ``p50 <= p99 <= max`` in every non-empty histogram, and
   the ``service.queries`` counter and ``service.query.seconds`` count
   each at least the storm's answered queries;
3. cross-checks consistency: ``/connected`` answers agree with the
   labels of a ``/components?full=1`` snapshot from the same epoch;
4. pulls ``/debug/slow?sampled=1`` after the storm and (with
   ``--chrome-out``) exports the slowest captured request's span tree as
   a validated Chrome-trace artifact;
5. writes a JSON latency report (count, mean, p50, p99, per-endpoint
   breakdown, slow-query capture counts) to ``--report`` for the CI
   artifact upload.

Exit status: 0 on success, 1 on any failed query/validation, 2 on usage
errors (endpoint unreachable, bad URL file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path


def _get(url: str, timeout: float) -> tuple[dict | str, float]:
    """One GET; returns (parsed body, elapsed seconds)."""
    t0 = time.perf_counter()
    with urllib.request.urlopen(url, timeout=timeout) as r:
        raw = r.read().decode()
        if r.status != 200:
            raise RuntimeError(f"{url} -> HTTP {r.status}")
    elapsed = time.perf_counter() - t0
    body = json.loads(raw) if raw.lstrip().startswith(("{", "[")) else raw
    return body, elapsed


def _quantile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1) + 0.5))
    return sorted_vals[i]


def _check_metrics(snapshot: dict, answered: int) -> list[str]:
    """What is wrong with a ``/metrics.json`` snapshot after ``answered`` queries."""
    if sorted(snapshot) != ["counters", "gauges", "histograms"]:
        return [f"snapshot sections {sorted(snapshot)}"]
    problems = []
    for section in ("counters", "gauges"):
        for name, value in snapshot[section].items():
            if not math.isfinite(value):
                problems.append(f"{section} {name} = {value}")
    for name, h in snapshot["histograms"].items():
        problems += [f"histogram {name} {k} = {v}" for k, v in h.items() if not math.isfinite(v)]
        if h["count"] and not h["p50"] <= h["p99"] <= h["max"]:
            problems.append(f"histogram {name}: p50 {h['p50']} p99 {h['p99']} max {h['max']}")
    queries = snapshot["counters"].get("service.queries", 0)
    timed = snapshot["histograms"].get("service.query.seconds", {}).get("count", 0)
    for label, value in (("service.queries", queries), ("service.query.seconds count", timed)):
        if value < answered:
            problems.append(f"{label} {value} < {answered} answered queries")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("url", nargs="?", default=None,
                        help="service base URL (or use --url-file)")
    parser.add_argument("--url-file", default=None,
                        help="file holding the base URL (server's --url-file)")
    parser.add_argument("--queries", type=int, default=200,
                        help="total queries to fire (default: 200)")
    parser.add_argument("--threads", type=int, default=4,
                        help="concurrent client threads (default: 4)")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON latency report here")
    parser.add_argument("--chrome-out", default=None, metavar="PATH",
                        help="write a Chrome trace of the slowest captured "
                             "request here (needs server-side reqtrace)")
    args = parser.parse_args(argv)

    base = args.url
    if base is None and args.url_file:
        try:
            base = Path(args.url_file).read_text().strip()
        except OSError as exc:
            print(f"error: cannot read --url-file: {exc}")
            return 2
    if not base:
        print("error: no endpoint given (positional URL or --url-file)")
        return 2
    base = base.rstrip("/")

    try:
        stats, _ = _get(base + "/stats", args.timeout)
    except (urllib.error.URLError, OSError, RuntimeError) as exc:
        print(f"error: endpoint {base} unreachable: {exc}")
        return 2
    n = int(stats["epoch"] is not None and _get(base + "/components", args.timeout)[0]["n"])
    print(f"endpoint up: n={n}, epoch={stats['epoch']}, "
          f"updates_applied={stats['updates_applied']}")

    # ---- 1. concurrent query storm ----------------------------------- #
    per_thread = max(1, args.queries // args.threads)
    latencies: dict[str, list[float]] = {}
    errors: list[str] = []
    lock = threading.Lock()

    def storm(tid: int) -> None:
        for k in range(per_thread):
            u = (7 * tid + 13 * k) % n
            v = (11 * tid + 3 * k + 1) % n
            route, url = [
                ("/connected", f"{base}/connected?u={u}&v={v}"),
                ("/bfs", f"{base}/bfs?source={u}"),
                ("/component", f"{base}/component?v={v}"),
                ("/stats", f"{base}/stats"),
            ][k % 4]
            try:
                body, elapsed = _get(url, args.timeout)
                if route != "/stats" and "epoch" not in body:
                    raise RuntimeError(f"{route} answer names no epoch: {body}")
                with lock:
                    latencies.setdefault(route, []).append(elapsed)
            except Exception as exc:  # noqa: BLE001 - collected and reported
                with lock:
                    errors.append(f"{url}: {exc}")

    threads = [threading.Thread(target=storm, args=(t,)) for t in range(args.threads)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    total = sum(len(v) for v in latencies.values())
    print(f"fired {total} concurrent queries from {args.threads} thread(s) "
          f"in {wall:.2f}s ({total / wall:.0f}/s); {len(errors)} error(s)")
    for e in errors[:5]:
        print(f"  FAIL {e}")

    # ---- 2. metrics snapshot against the storm ------------------------ #
    answered = total - len(latencies.get("/stats", []))  # /stats is no query
    snapshot = _get(base + "/metrics.json", args.timeout)[0]["snapshot"]
    problems = _check_metrics(snapshot, answered)
    for p in problems:
        print(f"error: /metrics.json: {p}")
    if problems:
        return 1
    print(f"/metrics.json consistent with the storm: "
          f"{snapshot['counters']['service.queries']} queries counted, "
          f"{answered} answered")

    # ---- 3. consistency cross-check ----------------------------------- #
    comp, _ = _get(base + "/components?full=1", args.timeout)
    labels = comp["labels"]
    mismatches = 0
    for u, v in [(0, 1), (1, 2), (3, n // 2), (n - 1, n - 2)]:
        body, _ = _get(f"{base}/connected?u={u}&v={v}", args.timeout)
        if body["mutations"] == comp["mutations"]:  # same structural state
            if body["connected"] != (labels[u] == labels[v]):
                mismatches += 1
                print(f"  INCONSISTENT /connected?u={u}&v={v}: {body}")
    print(f"consistency cross-check: {mismatches} mismatch(es)")

    # ---- 4. slow-query store + Chrome trace artifact ------------------ #
    debug, _ = _get(base + "/debug/slow?sampled=1", args.timeout)
    n_slow = len(debug.get("slow", []))
    n_sampled = len(debug.get("sampled", []))
    print(f"/debug/slow: tracing {'on' if debug.get('enabled') else 'off'}, "
          f"{n_slow} slow + {n_sampled} head-sampled capture(s)")
    if args.chrome_out:
        from repro.obs.export import to_chrome_trace, validate_chrome_trace

        # Prefer a tail-sampled (slow) tree; fall back to head-sampled.
        captured = sorted(
            debug.get("slow", []) + debug.get("sampled", []),
            key=lambda r: r.get("duration_seconds", 0.0),
            reverse=True,
        )
        if not captured:
            print("error: --chrome-out given but no request traces captured "
                  "(server started with --no-reqtrace or head/tail never hit?)")
            return 1
        slowest = captured[0]
        trace = to_chrome_trace(slowest["events"])
        validate_chrome_trace(trace)
        Path(args.chrome_out).write_text(json.dumps(trace, indent=2) + "\n")
        print(f"wrote Chrome trace of {slowest['trace_id']} "
              f"({slowest['name']}, {1e3 * slowest['duration_seconds']:.2f}ms, "
              f"{len(slowest['events'])} spans) -> {args.chrome_out}")

    # ---- 5. latency report -------------------------------------------- #
    all_lat = sorted(x for v in latencies.values() for x in v)
    report = {
        "endpoint": base,
        "queries": total,
        "threads": args.threads,
        "wall_seconds": round(wall, 4),
        "queries_per_second": round(total / wall, 1) if wall > 0 else None,
        "errors": len(errors),
        "mismatches": mismatches,
        "latency_ms": {
            "mean": round(1e3 * sum(all_lat) / len(all_lat), 3) if all_lat else None,
            "p50": round(1e3 * _quantile(all_lat, 0.50), 3),
            "p99": round(1e3 * _quantile(all_lat, 0.99), 3),
        },
        "per_endpoint_ms": {
            route: {
                "count": len(v),
                "p50": round(1e3 * _quantile(sorted(v), 0.50), 3),
                "p99": round(1e3 * _quantile(sorted(v), 0.99), 3),
            }
            for route, v in sorted(latencies.items())
        },
        "metrics": {
            section: len(snapshot[section]) for section in ("counters", "gauges", "histograms")
        },
        "reqtrace": {
            "enabled": bool(debug.get("enabled")),
            "slow_captured": n_slow,
            "head_sampled_captured": n_sampled,
        },
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote latency report -> {args.report}")
    else:
        print(json.dumps(report, indent=2))
    return 1 if (errors or mismatches) else 0


if __name__ == "__main__":
    sys.exit(main())
