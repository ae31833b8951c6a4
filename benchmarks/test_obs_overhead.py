"""Gate: live-telemetry collector overhead on a real workload.

With the background collector scraping at an aggressive interval, a
representative update+components workload must run within 2% of its
no-collector wall clock, with bit-identical results.

Shared machines show ±10-40% *per-round* wall-clock noise, so a naive A/B
comparison flakes regardless of round count.  The gate instead runs
adjacent (baseline, live) pairs — the two rounds of a pair share machine
state far better than rounds minutes apart — and asserts on the **minimum
per-pair ratio**: a true collector cost of X% inflates *every* pair by
~X%, while a noise spike inflates one side of *some* pairs, so the min
ratio isolates the systematic component.
"""

import numpy as np

from benchmarks.conftest import best_of
from repro import obs
from repro.api import DynamicGraph
from repro.generators import mixed_stream, rmat_graph

SCALE = 11
UPDATES = 4000
PAIRS = 7
INTERVAL = 0.05  # aggressive scrape cadence: several ticks per round


def workload():
    graph = rmat_graph(SCALE, 8, seed=77, ts_range=(1, 100))
    g = DynamicGraph.from_edgelist(graph, representation="hybrid")
    res = g.apply(mixed_stream(graph, UPDATES, insert_frac=0.75, seed=2))
    comps = g.connected_components()
    return res.n_updates, comps.labels


def test_obs_collector_overhead():
    workload()  # warmup: imports, allocator, caches

    ratios = []
    baseline_out = live_out = None
    n_ticks = n_series = 0
    for _ in range(PAIRS):
        baseline_s, baseline_out = best_of(workload, 1)
        obs.enable_live_telemetry(interval=INTERVAL)
        try:
            live_s, live_out = best_of(workload, 1)
            collector = obs.current_collector()
            n_ticks += collector.n_ticks
            n_series = max(n_series, len(collector.store))
        finally:
            obs.disable_live_telemetry()
        ratios.append(live_s / baseline_s)

    overhead_pct = 100.0 * (min(ratios) - 1.0)
    # Telemetry observes; it never participates.
    assert live_out[0] == baseline_out[0]
    assert np.array_equal(live_out[1], baseline_out[1])
    assert n_ticks > 0 and n_series > 0
    assert overhead_pct < 2.0, (
        f"collector overhead {overhead_pct:.2f}% "
        f"(per-pair ratios: {[round(r, 3) for r in ratios]})"
    )
