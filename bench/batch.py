"""The three in-process workloads: batch_insert, batch_mixed, kernels_static.

Each repetition runs the paper's batch pipeline through the public API
(generate, apply, snapshot, kernels), timed from outside around each call,
and every answer is compared with ``oracle``.  Counts come from the result
objects the program returns and must repeat exactly across repetitions.
"""

from __future__ import annotations

import os
import resource
import time
from statistics import median

import numpy as np

import oracle
from common import REFERENCE_CALIBRATION_S, at_reference_speed, calibrate
from inputs import EDGE_FACTOR, mixed_inputs, stream_arrays
from spans import Recorder

from repro import kernels
from repro.api import DynamicGraph
from repro.connectit import connect_components
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.generators import rmat_graph
from repro.generators.parallel import iter_update_chunks
from repro.parallel import ProcessBackend

T = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Set-up / timed repetitions / report protocol shared by all workloads.

    ``setup`` may be called again after ``close`` (the runner sets up
    several times to report a median set-up time).  A repetition is a dict:
    ``stages`` is the ordered list of ``(stage, seconds, calibration just
    before)`` it timed, the same stages in every repetition, ``calibrated``
    the calibration after the last one, and ``n.*`` entries are exact
    counts.  ``checks`` and ``failed`` count verified answers.
    """

    name = ""
    min_reps = 3

    def __init__(
        self, seed: int, seconds: float, tiny: bool, rec: Recorder, trace: bool
    ) -> None:
        self.seed, self.seconds, self.tiny = seed, seconds, tiny
        self.rec, self.trace = rec, trace
        self.reps: list[dict] = []
        self.checks = 0
        self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def repetition(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` acquired (processes, pools)."""

    def check(self, ok: bool) -> None:
        self.checks += 1
        self.failed += 0 if ok else 1

    def timed(self, rep: dict, stage: str, span: str, fn):
        """Call ``fn`` under a harness span and log its time as one stage."""
        with self.rec.span("harness.calibrate"):
            speed = calibrate()
        t0 = T()
        with self.rec.span(span):
            out = fn()
        rep.setdefault("stages", []).append((stage, T() - t0, speed))
        return out

    def run(self) -> None:
        """Repeat until the next repetition would overrun ``self.seconds``.

        In the traced pass every other repetition records spans, so the two
        halves of one run give the recorder's own overhead.
        """
        start = T()
        while True:
            self.rec.enabled = self.trace and len(self.reps) % 2 == 0
            t0 = T()
            with self.rec.span("harness.repetition"):
                rep = self.repetition()
            rep["calibrated"] = calibrate()
            rep["traced"] = self.rec.enabled
            self.rec.enabled = False
            self.reps.append(rep)
            now = T()
            if len(self.reps) >= self.min_reps and (now - start) + (now - t0) > self.seconds:
                break

    # -- aggregation ----------------------------------------------------- #

    def busy(self, *stages: str, kind: str | None = None, traced: bool | None = None,
             raw: bool = False) -> float:
        """Seconds the named stages (all, if none named) take in one repetition.

        Each stage position contributes its median across the repetitions
        of ``kind``, each sample first scaled to reference speed by the
        calibrations on either side of it (``raw`` leaves it as measured).
        """
        total = 0.0
        reps = [r for r in self.reps if r.get("kind") == kind and traced in (None, r["traced"])]
        for i, (stage, _, _) in enumerate(reps[0]["stages"] if reps else ()):
            if stages and stage not in stages:
                continue
            samples = []
            for r in reps:
                _, seconds, before = r["stages"][i]
                after = r["stages"][i + 1][2] if i + 1 < len(r["stages"]) else r["calibrated"]
                samples.append(seconds if raw else at_reference_speed(seconds, before, after))
            total += median(samples)
        return total

    def slowdown(self) -> float:
        """Median calibration over the reference: 1.0 on a quiet box."""
        return median(s[2] for r in self.reps for s in r["stages"]) / REFERENCE_CALIBRATION_S

    def exact(self, key: str, kind: str | None = None) -> int:
        """A count that must be identical in every repetition."""
        values = {r[key] for r in self.reps if r.get("kind") == kind}
        self.check(len(values) == 1)
        return int(max(values))

    def trace_overhead_share(self, kind: str | None = None) -> float:
        """Traced over untraced repetition time, minus one (0.0 untraced)."""
        on, off = self.busy(kind=kind, traced=True), self.busy(kind=kind, traced=False)
        return on / off - 1.0 if on and off else 0.0

    def report(self) -> tuple[dict, dict]:
        """(end-to-end metrics, per-layer metrics) of the finished run."""
        raise NotImplementedError


def _degree_argmax(n: int, src: np.ndarray, dst: np.ndarray) -> int:
    return int(np.argmax(np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)))


def _apply_counts(rep: dict, res) -> None:
    """Fold one ``UpdateResult`` into a repetition's exact counts."""
    stats = getattr(res.rep, "combined_stats", lambda: res.rep.stats)()
    for key, n in (
        ("n.arc_ops", res.n_arc_ops), ("n.delete_misses", res.misses),
        ("n.probe_words", stats.probe_words),
        ("n.resize_copied_words", stats.resize_copied_words),
        ("n.vectorised", int(bool(res.meta["vectorised"]))), ("n.applies", 1),
    ):
        rep[key] = rep.get(key, 0) + n


def _update_layers(w: Workload, n_updates: int, kind: str | None = None) -> dict:
    """adjacency and csr metrics of a workload that applies and snapshots."""
    apply, snapshot = w.busy("apply", kind=kind), w.busy("snapshot", kind=kind)
    arc_ops, snapshots = w.exact("n.arc_ops", kind), w.exact("n.snapshots", kind)
    return {
        "update_mups": n_updates / (apply + snapshot) / 1e6,
        "adjacency.apply_busy_s": apply,
        "adjacency.us_per_arc_op": apply / arc_ops * 1e6,
        "adjacency.arc_ops": arc_ops,
        "adjacency.probe_words": w.exact("n.probe_words", kind),
        "adjacency.resize_copied_words": w.exact("n.resize_copied_words", kind),
        "adjacency.delete_misses": w.exact("n.delete_misses", kind),
        "adjacency.vectorised_share": w.exact("n.vectorised", kind) / w.exact("n.applies", kind),
        "adjacency.memory_bytes": w.exact("n.memory_bytes", kind),
        "csr.snapshot_busy_s": snapshot,
        "csr.snapshots": snapshots,
        "csr.ns_per_arc": snapshot / w.exact("n.snapshot_arcs", kind) * 1e9,
        "csr.ms_per_rotation": snapshot / snapshots * 1e3,
    }


class BatchInsert(Workload):
    """R-MAT construction as a chunked insertion stream into ``dynarr``."""

    name = "batch_insert"

    def setup(self) -> None:
        self.scale, self.chunk = (11, 512) if self.tiny else (17, 65536)
        self.n = 1 << self.scale
        kernels.warmup()
        chunks = list(self._chunks())
        src = np.concatenate([c.src for c in chunks])
        dst = np.concatenate([c.dst for c in chunks])
        self.n_updates = int(src.size)
        self.source = _degree_argmax(self.n, src, dst)
        u, v = oracle.net_edges(self.n, np.ones(src.size, np.int8), src, dst)
        self.ref_labels = oracle.component_labels(self.n, u, v)
        self.ref_dist = oracle.bfs_distances(self.n, u, v, self.source)
        self.repetition()  # warm-up: first snapshot, allocator high-water mark

    def _chunks(self):
        return iter_update_chunks(
            self.scale, edge_factor=EDGE_FACTOR, seed=self.seed, chunk_edges=self.chunk
        )

    def repetition(self) -> dict:
        rep: dict = {}
        g = DynamicGraph(self.n, "dynarr")
        chunks = self._chunks()
        while (chunk := self.timed(rep, "generate", "generators.iter_update_chunks",
                                   lambda: next(chunks, None))) is not None:
            _apply_counts(rep, self.timed(rep, "apply", "adjacency.apply",
                                          lambda: g.apply(chunk)))
        snap = self.timed(rep, "snapshot", "csr.snapshot", g.snapshot)
        cc = self.timed(rep, "cc", "core.connected_components", g.connected_components)
        reach = self.timed(rep, "bfs", "core.bfs", lambda: g.bfs(self.source))
        rep.update({
            "n.snapshots": 1, "n.snapshot_arcs": snap.n_arcs,
            "n.memory_bytes": g.memory_bytes(), "n.arcs": g.rep.n_arcs,
            "n.cc_passes": cc.n_passes, "n.bfs_edges": reach.total_edges_scanned,
        })
        self.check(np.array_equal(cc.labels, self.ref_labels))
        self.check(np.array_equal(reach.dist, self.ref_dist))
        return rep

    def report(self) -> tuple[dict, dict]:
        update_layers = _update_layers(self, self.n_updates)
        end_to_end = {
            "time_to_result_s": self.busy(),
            "ops_per_s": update_layers["update_mups"] * 1e6,
            "mem_bytes_per_arc": self.exact("n.memory_bytes") / self.exact("n.arcs"),
            "peak_rss_mb": peak_rss_mb(),
        }
        layers = {
            "time_to_result_raw_s": self.busy(raw=True),
            "box_slowdown": self.slowdown(),
            **update_layers,
            "generators.busy_s": self.busy("generate"),
            "generators.medges_per_s": self.n_updates / self.busy("generate") / 1e6,
            "core.cc_busy_s": self.busy("cc"),
            "core.cc_passes": self.exact("n.cc_passes"),
            "core.bfs_busy_s": self.busy("bfs"),
            "core.bfs_edges_scanned": self.exact("n.bfs_edges"),
            "bfs_mteps": self.exact("n.bfs_edges") / self.busy("bfs") / 1e6,
        }
        return end_to_end, layers


class BatchMixed(Workload):
    """Small mixed batches with a snapshot after each: the rotation pattern.

    The default ``hybrid`` structure carries the end-to-end numbers; the
    same stream on ``dynarr`` gives ``update_mups_dynarr``.  Each repetition
    rebuilds the base graph (its own stage, not part of time to result),
    so every one starts from one state.
    """

    name = "batch_mixed"
    min_reps = 6  # 3 quick ones on dynarr, then at least 3 on hybrid
    dynarr_reps = 3
    stream_stages = ("apply", "snapshot", "cc")

    def setup(self) -> None:
        scale, n_batches, size = (9, 4, 128) if self.tiny else (14, 12, 4096)
        self.n = 1 << scale
        kernels.warmup()
        self.base, self.batches = mixed_inputs(self.seed, scale, n_batches, size)
        self.n_updates = n_batches * size
        u, v = oracle.net_edges(
            self.n, *stream_arrays(self.batches), base=(self.base.src, self.base.dst)
        )
        self.ref_labels = oracle.component_labels(self.n, u, v)
        self.repetition()  # warm-up (dynarr): first snapshot, dispatch probes

    def repetition(self) -> dict:
        kind = "dynarr" if len(self.reps) < self.dynarr_reps else "hybrid"
        rep: dict = {"kind": kind, "n.snapshot_arcs": 0}

        def build():
            g = DynamicGraph.from_edgelist(self.base, representation=kind)
            g.snapshot()
            return g

        g = self.timed(rep, "base_build", "adjacency.from_edgelist", build)
        for batch in self.batches:
            _apply_counts(rep, self.timed(rep, "apply", "adjacency.apply",
                                          lambda: g.apply(batch)))
            snap = self.timed(rep, "snapshot", "csr.snapshot", g.snapshot)
            rep["n.snapshot_arcs"] += snap.n_arcs
        cc = self.timed(rep, "cc", "core.connected_components", g.connected_components)
        rep.update({
            "n.snapshots": len(self.batches), "n.memory_bytes": g.memory_bytes(),
            "n.arcs": g.rep.n_arcs, "n.cc_passes": cc.n_passes,
        })
        self.check(np.array_equal(cc.labels, self.ref_labels))
        return rep

    def trace_overhead_share(self) -> float:
        return super().trace_overhead_share("hybrid")

    def report(self) -> tuple[dict, dict]:
        update_layers = _update_layers(self, self.n_updates, "hybrid")
        end_to_end = {
            "time_to_result_s": self.busy(*self.stream_stages, kind="hybrid"),
            "ops_per_s": update_layers["update_mups"] * 1e6,
            "mem_bytes_per_arc":
                self.exact("n.memory_bytes", "hybrid") / self.exact("n.arcs", "hybrid"),
            "peak_rss_mb": peak_rss_mb(),
        }
        layers = {
            "time_to_result_raw_s": self.busy(*self.stream_stages, kind="hybrid", raw=True),
            "box_slowdown": self.slowdown(),
            **update_layers,
            "update_mups_dynarr":
                _update_layers(self, self.n_updates, "dynarr")["update_mups"],
            "adjacency.base_build_s": self.busy("base_build", kind="hybrid"),
            "core.cc_busy_s": self.busy("cc", kind="hybrid"),
            "core.cc_passes": self.exact("n.cc_passes", "hybrid"),
        }
        return end_to_end, layers


class KernelsStatic(Workload):
    """Every connectivity kernel, serial and on a process pool, on one CSR."""

    name = "kernels_static"
    query_rounds = 4

    def setup(self) -> None:
        scale, self.n_queries, n_sources = (10, 10_000, 4) if self.tiny else (16, 1_000_000, 16)
        n = 1 << scale
        kernels.warmup()
        edges = rmat_graph(scale, EDGE_FACTOR, seed=self.seed)
        self.csr = DynamicGraph.from_edgelist(edges, representation="dynarr").snapshot()
        rng = np.random.default_rng(self.seed)
        self.us = rng.integers(0, n, self.n_queries, dtype=np.int64)
        self.vs = rng.integers(0, n, self.n_queries, dtype=np.int64)
        u, v = oracle.net_edges(n, np.ones(edges.m, np.int8), edges.src, edges.dst)
        self.ref_labels = oracle.component_labels(n, u, v)
        self.ref_answers = self.ref_labels[self.us] == self.ref_labels[self.vs]
        self.ref_sizes = np.bincount(self.ref_labels, minlength=n)
        # Sources in the giant component: a third of R-MAT vertices are isolated,
        # and how many of 16 random ones are would decide the BFS time by seed.
        giant = np.flatnonzero(self.ref_labels == np.argmax(self.ref_sizes))
        self.sources = [int(s) for s in rng.choice(giant, n_sources, replace=False)]
        self.ref_dist = oracle.bfs_distances(n, u, v, self.sources[0])
        t0 = T()
        self.pool = ProcessBackend(workers=min(2, os.cpu_count() or 1))
        self.pool.connected_components(self.csr)  # first call starts the workers
        self.pool_start_s = T() - t0

    def close(self) -> None:
        pool, self.pool = getattr(self, "pool", None), None
        if pool is not None:
            pool.close()

    def repetition(self) -> dict:
        rep: dict = {}
        csr, labels, pool = self.csr, self.ref_labels, self.pool
        cc = self.timed(rep, "cc", "core.connected_components",
                        lambda: connected_components(csr))
        self.check(np.array_equal(cc.labels, labels))
        serial_bfs = []
        for s in self.sources:
            res = self.timed(rep, "bfs", "core.bfs", lambda: bfs(csr, s))
            self.check(res.n_reached == self.ref_sizes[labels[s]])
            serial_bfs.append(res)
        self.check(np.array_equal(serial_bfs[0].dist, self.ref_dist))
        default = self.timed(rep, "connectit", "connectit.default",
                             lambda: connect_components(csr))
        kout = self.timed(
            rep, "kout", "connectit.kout_rem",
            lambda: connect_components(csr, sampling="kout", union_rule="rem"),
        )
        self.check(np.array_equal(default.labels, labels))
        self.check(np.array_equal(kout.labels, labels))
        index = self.timed(rep, "linkcut", "core.linkcut_build",
                           lambda: ConnectivityIndex.from_csr(csr))
        for _ in range(self.query_rounds):  # one 80 ms call is too short to time alone
            answers = self.timed(rep, "query", "core.query_batch",
                                 lambda: index.query_batch(self.us, self.vs))
            self.check(np.array_equal(answers.connected, self.ref_answers))
        pcc = self.timed(rep, "pcc", "parallel.connected_components",
                         lambda: pool.connected_components(csr))
        self.check(np.array_equal(pcc.labels, cc.labels) and pcc.n_passes == cc.n_passes)
        for s, want in zip(self.sources[:4], serial_bfs):
            got = self.timed(rep, "pbfs", "parallel.bfs", lambda: pool.bfs(csr, s))
            self.check(np.array_equal(got.dist, want.dist)
                       and np.array_equal(got.parent, want.parent))
        panswers = self.timed(
            rep, "pquery", "parallel.query_batch",
            lambda: index.query_batch(self.us, self.vs, backend=pool),
        )
        self.check(np.array_equal(panswers.connected, answers.connected)
                   and panswers.total_hops == answers.total_hops)
        rep.update({
            "n.cc_passes": cc.n_passes,
            "n.bfs_edges": sum(r.total_edges_scanned for r in serial_bfs),
            "n.query_hops": answers.total_hops,
            "n.finds": default.counters.finds,
            "n.pointer_chases": default.counters.pointer_chases,
            "n.hooks": default.counters.hooks,
            # what answering connectivity queries on this graph keeps resident
            "n.memory_bytes": csr.memory_bytes() + index.forest.memory_bytes(),
        })
        return rep

    def report(self) -> tuple[dict, dict]:
        end_to_end = {
            "time_to_result_s": self.busy(),
            "ops_per_s": self.query_rounds * self.n_queries / self.busy("query"),
            "mem_bytes_per_arc": self.exact("n.memory_bytes") / self.csr.n_arcs,
            "peak_rss_mb": peak_rss_mb(),
        }
        layers = {
            "time_to_result_raw_s": self.busy(raw=True),
            "box_slowdown": self.slowdown(),
            "core.cc_busy_s": self.busy("cc"),
            "core.cc_passes": self.exact("n.cc_passes"),
            "core.bfs_busy_s": self.busy("bfs"),
            "core.bfs_edges_scanned": self.exact("n.bfs_edges"),
            "bfs_mteps": self.exact("n.bfs_edges") / self.busy("bfs") / 1e6,
            "core.linkcut_build_s": self.busy("linkcut"),
            "core.query_busy_s": self.busy("query"),
            "core.query_hops": self.exact("n.query_hops"),
            "conn_queries_per_s": self.query_rounds * self.n_queries / self.busy("query"),
            "connectit.default_busy_s": self.busy("connectit"),
            "connectit.kout_busy_s": self.busy("kout"),
            "connectit.finds": self.exact("n.finds"),
            "connectit.pointer_chases": self.exact("n.pointer_chases"),
            "connectit.hooks": self.exact("n.hooks"),
            "parallel.cc_busy_s": self.busy("pcc"),
            "parallel.bfs_busy_s": self.busy("pbfs"),
            "parallel.query_busy_s": self.busy("pquery"),
            "parallel.cc_ratio_vs_serial": self.busy("pcc") / self.busy("cc"),
            "parallel.pool_start_s": self.pool_start_s,
        }
        return end_to_end, layers
