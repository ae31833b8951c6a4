#!/usr/bin/env python
"""Streaming firehose: a sliding-window interaction monitor.

The scenario the paper's introduction motivates — "temporal data streams
from socio-economic interactions, social networking web sites, communication
traffic" — as a runnable pipeline:

* interactions arrive in batches (a firehose of R-MAT-distributed edges);
* the monitor keeps only the *last W ticks* via
  :class:`repro.core.window.SlidingWindowGraph`: new edges insert, expired
  edges delete — exactly the sustained insert+delete mix the paper's
  Hybrid-arr-treap structure is built for — while an incremental
  connectivity index (link-cut forest) stays current;
* after every batch the monitor answers connectivity questions about
  watched entity pairs and reports component structure;
* every batch ticks the process-wide :data:`repro.obs.METRICS` registry
  (counters, gauges, a latency histogram), and the run's summary is read
  straight back from it.

Run:  python examples/streaming_firehose.py
"""

from __future__ import annotations

from repro import obs
from repro.core.window import SlidingWindowGraph
from repro.generators.rmat import rmat_edges
from repro.util.seeding import make_rng
from repro.util.timing import Timer

SCALE = 11                 # 2048 entities
BATCH = 2_000              # interactions per tick
WINDOW = 8                 # ticks an interaction stays relevant
TICKS = 24
WATCHED = [(0, 1), (2, 3), (10, 500)]


def main() -> None:
    n = 1 << SCALE
    rng = make_rng(99)
    monitor = SlidingWindowGraph(
        n, window=WINDOW, representation="hybrid",
        track_connectivity=True, seed=1,
    )

    obs.METRICS.reset()
    print(f"monitoring {n} entities, window = {WINDOW} ticks x {BATCH} interactions")
    print(f"{'tick':>5} {'edges':>8} {'comps':>6} {'expired':>8} {'mem MB':>7} "
          + " ".join(f"{u}~{v}" for u, v in WATCHED))

    with Timer() as total:
        for tick in range(TICKS):
            src, dst = rmat_edges(SCALE, BATCH + 256, seed=rng)
            keep = src != dst
            src, dst = src[keep][:BATCH], dst[keep][:BATCH]
            with Timer() as batch_t:
                expired = monitor.advance(src, dst)
            answers = " ".join(
                "Y" if monitor.connected(u, v) else "." for u, v in WATCHED
            )
            obs.METRICS.inc("firehose.batches")
            obs.METRICS.inc("firehose.interactions", len(src))
            obs.METRICS.inc("firehose.expired", int(expired))
            obs.METRICS.set("firehose.live_edges", float(monitor.n_edges))
            obs.METRICS.set("firehose.components", float(monitor.n_components()))
            obs.METRICS.observe("firehose.batch_seconds", batch_t.elapsed)
            print(
                f"{tick:>5} {monitor.n_edges:>8} {monitor.n_components():>6} "
                f"{expired:>8} {monitor.rep.memory_bytes() / 1e6:>7.2f}   {answers}"
            )

    monitor.validate()
    counters = obs.METRICS.snapshot()["counters"]
    lat = obs.METRICS.histogram("firehose.batch_seconds")
    print(f"\nmetrics: {counters['firehose.batches']} batches, "
          f"{counters['firehose.interactions']} interactions, "
          f"{counters['firehose.expired']} expired; batch rate "
          f"{lat.count / total.elapsed:.1f}/s; batch latency p50 "
          f"{1e3 * lat.quantile(0.5):.0f}ms p99 {1e3 * lat.quantile(0.99):.0f}ms")
    assert monitor.n_edges == WINDOW * BATCH
    print(f"\nsteady state: {monitor.n_edges} live edges "
          f"({monitor.rep.n_treap_vertices()} hot vertices in treaps); "
          f"processed {TICKS * BATCH} insertions and "
          f"{(TICKS - WINDOW) * BATCH} deletions in {total.elapsed:.1f}s host time")

    # What would this churn cost on the paper's 64-thread UltraSPARC T2?
    from repro.core.update_engine import apply_stream
    from repro.edgelist import EdgeList
    from repro.generators.streams import mixed_stream
    from repro.machine.sim import SimulatedMachine
    from repro.adjacency.hybrid import HybridAdjacency

    probe = HybridAdjacency(n, seed=2)
    src, dst = rmat_edges(SCALE, 20_000, seed=rng)
    base = EdgeList(n, src, dst)
    probe_res = apply_stream(
        probe, mixed_stream(base, 20_000, 0.5, seed=4), phase_name="window-churn"
    )
    t2 = SimulatedMachine("t2")
    print(f"simulated steady-state churn rate on UltraSPARC T2 (64 threads): "
          f"{t2.mups_at(probe_res.profile, 64, 20_000):.1f} MUPS")


if __name__ == "__main__":
    main()
