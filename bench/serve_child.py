"""Served-workload child: one ``GraphService`` on a free port, driven over stdin.

Built from ``repro.api`` / ``repro.service`` with default constructor
arguments (default ``hybrid`` structure).  Protocol, one line each way:

* the child prints ``READY {...}`` (port, arcs, the CPUs it ended up on) once
  epoch 0 is served;
* ``go`` on stdin starts the update feeder: batch *b* is due at
  ``t_go + b * period`` and is submitted only once batch *b-1* is visible,
  so exactly one batch is in flight and each batch is its own epoch;
* ``stop`` (or end of input) shuts the service down and prints
  ``REPORT {...}``: the ``(batch, epoch)`` log with due / submitted /
  published times and a calibration on either side, the metrics registry,
  counters read off the service's public attributes, and the harness spans
  recorded in this process.

Times are ``time.perf_counter`` / ``time.monotonic``, which on Linux are
one system-wide clock, so the parent can subtract them from its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import common

common.use_checkout_source()

from inputs import mixed_inputs  # noqa: E402
from spans import Recorder  # noqa: E402

from repro.api import DynamicGraph  # noqa: E402
from repro.obs import METRICS  # noqa: E402
from repro.service import GraphService  # noqa: E402

PIN_RELEASE_LOOPS = 2000


def feed(service: GraphService, batches, period: float, rec: Recorder) -> dict:
    """Submit ``batches`` on the fixed schedule; log when each became visible."""
    log, live_max, depth_max = [], 0, 0
    speed = common.calibrate()
    t_go = time.perf_counter()
    for b, batch in enumerate(batches):
        due = t_go + b * period
        time.sleep(max(0.0, due - time.perf_counter()))
        before = service.store.current.id
        with rec.span("drainer.submit_to_visible"):
            submitted = time.perf_counter()
            service.submit(batch)
            depth_max = max(depth_max, service.drainer.queue_depth)
            while (epoch := service.store.current).id == before:
                time.sleep(0.001)
        live_max = max(live_max, service.store.n_live)
        # one calibration per batch, once it is visible: the next one's "before"
        log.append([b, epoch.id, due, submitted, epoch.published_at,
                    speed, speed := common.calibrate()])
    return {"log": log, "live_max": live_max, "queue_depth_max": depth_max}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batches", type=int, default=0)
    ap.add_argument("--batch-size", type=int, default=0)
    ap.add_argument("--period", type=float, default=0.0)
    ap.add_argument("--cpu", type=int, required=True, help="id of the CPU to run on")
    ap.add_argument("--reqtrace", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    common.pin_to_cpu(args.cpu)
    rec = Recorder("serve_child")
    rec.enabled = bool(args.trace)
    base, batches = mixed_inputs(args.seed, args.scale, args.batches, args.batch_size)
    graph = DynamicGraph.from_edgelist(base)
    # reqtrace=False only exists for the obs layer's on/off comparison.
    service = GraphService(graph) if args.reqtrace else GraphService(graph, reqtrace=False)
    handle = service.start_background()
    fed: dict = {"log": [], "live_max": 1, "queue_depth_max": 0}
    try:
        print("READY " + json.dumps({
            "port": handle.port, "arcs": graph.rep.n_arcs,
            "cpus": sorted(os.sched_getaffinity(0)),
        }), flush=True)
        for line in sys.stdin:
            if line.strip() == "go":
                fed = feed(service, batches, args.period, rec)
            elif line.strip() == "stop":
                break
        with rec.span("epoch.pin_release"):
            t0 = time.perf_counter()
            for _ in range(PIN_RELEASE_LOOPS):
                with service.store.reading():
                    pass
            pin_release_us = (time.perf_counter() - t0) / PIN_RELEASE_LOOPS * 1e6
        with rec.span("obs.metrics_snapshot"):
            registry = METRICS.snapshot()
    finally:
        handle.close()
    report = {
        **fed,
        "registry": registry,
        "pin_release_us": pin_release_us,
        "epochs_published": service.store.n_published,
        "batches_applied": service.drainer.n_batches,
        "delete_misses": service.drainer.n_misses,
        "max_epoch_lag": service.drainer.max_observed_lag,
        "queries": service.n_queries,
        "arcs": graph.rep.n_arcs,
        "memory_bytes": graph.memory_bytes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": rec.spans,
    }
    print("REPORT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
