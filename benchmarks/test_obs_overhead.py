"""Gate: the cost of an external ``/metrics.json`` scraper on a real workload.

With a background thread rendering the process registry's
``/metrics.json`` body (``json.dumps`` of its snapshot, what every
``GET /metrics.json`` does) at an aggressive interval, a representative
update+components workload must run within 2% of its unscraped wall
clock, with bit-identical results.

Shared machines show ±10-40% *per-round* wall-clock noise, so a naive A/B
comparison flakes regardless of round count.  The gate instead runs
adjacent (baseline, scraped) pairs — the two rounds of a pair share machine
state far better than rounds minutes apart — and asserts on the **minimum
per-pair ratio**: a true scrape cost of X% inflates *every* pair by
~X%, while a noise spike inflates one side of *some* pairs, so the min
ratio isolates the systematic component.
"""

import json
import threading

import numpy as np

from benchmarks.conftest import best_of
from repro import obs
from repro.api import DynamicGraph
from repro.generators import mixed_stream, rmat_graph

SCALE = 11
UPDATES = 4000
PAIRS = 7
INTERVAL = 0.005  # aggressive scrape cadence: several renders per ≈ 30 ms round


def workload():
    graph = rmat_graph(SCALE, 8, seed=77, ts_range=(1, 100))
    g = DynamicGraph.from_edgelist(graph, representation="hybrid")
    res = g.apply(mixed_stream(graph, UPDATES, insert_frac=0.75, seed=2))
    comps = g.connected_components()
    return res.n_updates, comps.labels


class Scraper:
    """A daemon thread rendering ``/metrics.json`` every ``INTERVAL`` seconds."""

    def __init__(self) -> None:
        self.n_renders = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="scraper", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL):
            json.dumps({"snapshot": obs.METRICS.snapshot()}, sort_keys=True)
            self.n_renders += 1

    def __enter__(self) -> "Scraper":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()


def test_obs_collector_overhead():
    workload()  # warmup: imports, allocator, caches

    ratios = []
    baseline_out = scraped_out = None
    renders = []
    for _ in range(PAIRS):
        baseline_s, baseline_out = best_of(workload, 1)
        with Scraper() as scraper:
            scraped_s, scraped_out = best_of(workload, 1)
        renders.append(scraper.n_renders)
        ratios.append(scraped_s / baseline_s)

    overhead_pct = 100.0 * (min(ratios) - 1.0)
    # Scraping observes; it never participates.
    assert scraped_out[0] == baseline_out[0]
    assert np.array_equal(scraped_out[1], baseline_out[1])
    assert min(renders) > 0, f"a scraped round rendered nothing (renders per round: {renders})"
    assert overhead_pct < 2.0, (
        f"scrape overhead {overhead_pct:.2f}% "
        f"(per-pair ratios: {[round(r, 3) for r in ratios]})"
    )
