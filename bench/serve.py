"""The two served workloads, parent side: serve_steady and serve_churn.

The server runs in a child process (``serve_child.py``) so client and
server do not share an interpreter lock; this process is the single client
connection, pinned beside or apart from the child (``common.pin_to_cpu``).
Requests go over a raw socket so connect time and time to first byte are
seen separately, and every answer is verified against oracle labels for the
epoch the answer names.
"""

from __future__ import annotations

import json
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import NamedTuple

import numpy as np

import oracle
from batch import Workload
from common import (
    ALLOWED_CPUS, BENCH_DIR, REFERENCE_CALIBRATION_S, at_reference_speed, calibrate, child_env,
    pin_to_cpu, quantile,
)
from inputs import mixed_inputs, stream_arrays

T = time.perf_counter
CHILD_START_TIMEOUT = 120.0
REQUEST_TIMEOUT = 10.0
N_PAIRS = 1 << 16


@dataclass(slots=True)
class Request:
    """One logged request; ``due`` is when it was (or could first be) sent."""

    kind: str
    pair: tuple[int, int]
    due: float
    sent: float
    done: float
    connect: float
    ttfb: float
    status: int
    body: dict

    @property
    def latency(self) -> float:
        return self.done - self.due


class Batch(NamedTuple):
    """One row of the child's feeder log (times on the shared monotonic clock)."""

    index: int
    epoch: int
    due: float
    submitted: float
    published: float
    speed_before: float
    speed_after: float


class Child:
    """One served child process and the client's view of it."""

    def __init__(self, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_child.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"served child did not come up: {line!r}")
            ready = json.loads(line[6:])
            self.addr, self.cpus = ("127.0.0.1", ready["port"]), ready["cpus"]
        except BaseException:
            self.kill()
            raise

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def get(self, path: str) -> tuple[int, dict, float, float]:
        """One GET: (status, body, connect seconds, seconds to first byte)."""
        t0 = T()
        with socket.create_connection(self.addr, timeout=REQUEST_TIMEOUT) as sock:
            t1 = T()
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
            chunks = [sock.recv(65536)]
            t2 = T()
            while chunks[-1]:  # the server closes after one response
                chunks.append(sock.recv(65536))
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(body), t1 - t0, t2 - t0

    def stop(self) -> dict:
        """Ask for a clean shutdown and return the child's report."""
        out, _ = self.proc.communicate("stop\n", timeout=60.0)
        for line in out.splitlines():
            if line.startswith("REPORT "):
                return json.loads(line[7:])
        raise RuntimeError(f"served child exited {self.proc.returncode} without a report")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


class Served(Workload):
    """Child lifecycle, request log and verification shared by both workloads."""

    scale = tiny_scale = 0
    n_batches = batch_size = 0
    period = 0.0
    warmup_requests = 200
    #: Whether the child runs on another CPU than this process, which takes
    #: the first allowed one (``common.pin_to_cpu`` says why the two differ).
    child_apart = False
    #: 19 of 20 requests are ``/connected``; whether the 20th rotates over
    #: the three heavier routes or is ``/connected`` too.
    heavy_routes = False

    def setup(self) -> None:
        scale = self.tiny_scale if self.tiny else self.scale
        self.n = 1 << scale
        self.child_cpu = ALLOWED_CPUS[-1 if self.child_apart else 0]
        pin_to_cpu(ALLOWED_CPUS[0])
        self.child_args = [
            "--scale", str(scale), "--seed", str(self.seed),
            "--batches", str(self.n_batches), "--batch-size", str(self.batch_size),
            "--period", str(self.period), "--trace", str(int(self.trace)),
            "--cpu", str(self.child_cpu),
        ]
        self.base, self.batches = mixed_inputs(self.seed, scale, self.n_batches, self.batch_size)
        rng = np.random.default_rng(self.seed)
        self.us = rng.integers(0, self.n, N_PAIRS).tolist()
        self.vs = rng.integers(0, self.n, N_PAIRS).tolist()
        self.labels_by_epoch = {0: self.reference_labels(0)}
        self.requests: list[Request] = []
        self.children: list[Child] = []
        self.start_child()

    def start_child(self, *extra_args: str) -> None:
        """Start one more child, see that it runs where it should, and warm it up."""
        child = Child([*self.child_args, *extra_args])
        self.children.append(child)
        # A mask inherited from this process once put a child meant to run apart on its core.
        self.check(child.cpus == [self.child_cpu])
        self.warm_up(child)

    def reference_labels(self, n_applied: int) -> np.ndarray:
        """Oracle labels of the base graph after the first ``n_applied`` updates."""
        op, src, dst = (a[:n_applied] for a in stream_arrays(self.batches))
        u, v = oracle.net_edges(self.n, op, src, dst, base=(self.base.src, self.base.dst))
        return oracle.component_labels(self.n, u, v)

    def warm_up(self, child: Child) -> None:
        """First label miss, every route once, sockets: not part of the log."""
        for k in range(self.warmup_requests):
            self.request(child, k)
        self.requests.clear()

    def close(self) -> None:
        children, self.children = getattr(self, "children", []), []
        for child in children:
            child.kill()

    def request(self, child: Child, k: int, due: float | None = None) -> None:
        """Send request number ``k`` of the mix and log it (failures included)."""
        u, v = self.us[k % N_PAIRS], self.vs[k % N_PAIRS]
        kind = ("component", "components", "bfs")[k // 20 % 3] if (
            self.heavy_routes and k % 20 == 19) else "connected"
        path = {
            "connected": f"/connected?u={u}&v={v}", "component": f"/component?v={v}",
            "components": "/components", "bfs": f"/bfs?source={u}",
        }[kind]
        sent = T()
        with self.rec.span(f"server.{kind}"):
            try:
                status, body, connect, ttfb = child.get(path)
            except (OSError, ValueError, IndexError):  # refused, timed out, garbled
                status, body, connect, ttfb = 0, {}, 0.0, 0.0
        self.requests.append(Request(
            kind, (u, v), sent if due is None else due, sent, T(), connect, ttfb, status, body
        ))

    def verify(self) -> None:
        """Check every logged answer against the labels of the epoch it names."""
        sizes: dict[int, np.ndarray] = {}
        for r in self.requests:
            labels = self.labels_by_epoch.get(r.body.get("epoch"))
            (u, v), body = r.pair, r.body
            if r.status != 200 or labels is None:
                self.check(False)
            elif r.kind == "connected":
                self.check(body["connected"] == bool(labels[u] == labels[v]))
            elif r.kind == "component":
                self.check(body["label"] == labels[v]
                           and body["size"] == np.count_nonzero(labels == labels[v]))
            elif r.kind == "components":
                roots, counts = np.unique(labels, return_counts=True)
                self.check(body["n_components"] == roots.size
                           and body["largest"][1] == counts.max())
            else:
                epoch = body["epoch"]
                if epoch not in sizes:
                    sizes[epoch] = np.bincount(labels, minlength=self.n)
                self.check(body["n_reached"] == sizes[epoch][labels[u]])

    def shared_metrics(self, report: dict, requests: list[Request]) -> tuple[dict, dict]:
        """What both workloads read off the child's report and the request log.

        The server layer sets the client's round trip against the time the
        service itself measured: the difference is HTTP, JSON and the hop.
        """
        ok = [r for r in requests if r.kind == "connected" and r.status == 200]
        client_p50 = quantile([r.done - r.sent for r in ok], 0.5)
        inproc_p50 = report["registry"]["histograms"]["service.query.seconds"]["p50"]
        counters = report["registry"]["counters"]
        hits = counters.get("service.epoch.cache_hits", 0)
        misses = counters.get("service.epoch.cache_misses", 0)
        end_to_end = {
            "mem_bytes_per_arc": report["memory_bytes"] / report["arcs"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        layers = {
            "server.connect_ms": quantile([r.connect for r in ok], 0.5) * 1e3,
            "server.ttfb_ms": quantile([r.ttfb for r in ok], 0.5) * 1e3,
            "server.inproc_query_ms": inproc_p50 * 1e3,
            "server.http_overhead_ms": (client_p50 - inproc_p50) * 1e3,
            "server.http_overhead_share": (client_p50 - inproc_p50) / client_p50,
            "server.late_max_ms": max(r.sent - r.due for r in requests) * 1e3,
            "epoch.published": report["epochs_published"],
            "epoch.live_max": report["live_max"],
            "epoch.label_hits": hits,
            "epoch.label_misses": misses,
            "epoch.label_hit_ratio": hits / (hits + misses),
            "epoch.pin_release_us": report["pin_release_us"],
            "adjacency.memory_bytes": report["memory_bytes"],
        }
        return end_to_end, layers


class ServeSteady(Served):
    """Closed loop against a static graph: the request path alone.

    One client sends its next request when the previous one completes.
    The run is cut into short segments with a calibration between them; a
    segment's value is its seconds per completed request at
    reference speed and each metric is the median of the segment values.  In the
    traced pass odd segments go to a second child started with
    ``reqtrace=False`` (the obs layer's cost) and every other even segment
    records harness spans (the recorder's own cost).
    """

    name = "serve_steady"
    scale, tiny_scale = 14, 9
    heavy_routes = True
    segment_seconds = 0.25

    def setup(self) -> None:
        super().setup()
        if self.trace:
            self.start_child("--reqtrace", "0")

    def run(self) -> None:
        self.segments, k, speed = [], 0, calibrate()
        for i in range(max(8, int(self.seconds / self.segment_seconds))):
            plain = self.trace and i % 2 == 1
            self.rec.enabled = traced = self.trace and i % 4 == 0
            start, first = T(), len(self.requests)
            with self.rec.span("harness.segment"):
                while T() - start < self.segment_seconds:
                    self.request(self.children[1 if plain else 0], k)
                    k += 1
            seconds, before, speed = T() - start, speed, calibrate()
            self.rec.enabled = False
            self.segments.append({
                "plain": plain, "traced": traced, "seconds": seconds,
                "speeds": (before, speed), "requests": self.requests[first:],
            })

    def per_request_s(self, plain: bool, traced: bool | None = None, raw: bool = False) -> float:
        """Median over the chosen segments of seconds per completed request."""
        return median(
            s["seconds"] / len(s["requests"]) if raw
            else at_reference_speed(s["seconds"] / len(s["requests"]), *s["speeds"])
            for s in self.segments if s["plain"] == plain and traced in (None, s["traced"])
        )

    def report(self) -> tuple[dict, dict]:
        self.verify()
        reports = [child.stop() for child in self.children]
        for r in reports:
            self.rec.adopt(r["spans"])
        served = [s for s in self.segments if not s["plain"]]
        requests = [r for s in served for r in s["requests"]]
        scaled = {
            kind: [at_reference_speed(r.latency, *s["speeds"]) for s in served
                   for r in s["requests"] if r.kind == kind and r.status == 200]
            for kind in ("connected", "bfs", "component", "components")
        }
        per_request = self.per_request_s(plain=False)
        end_to_end, layers = self.shared_metrics(reports[0], requests)
        end_to_end.update({
            "time_to_result_s": per_request,
            "ops_per_s": 1.0 / per_request,
        })
        layers.update({
            "time_to_result_raw_s": self.per_request_s(plain=False, raw=True),
            "box_slowdown":
                median(c for s in served for c in s["speeds"]) / REFERENCE_CALIBRATION_S,
            "queries_per_s": 1.0 / per_request,
            "connected_p50_ms": quantile(scaled["connected"], 0.5) * 1e3,
            "connected_p99_ms": quantile(scaled["connected"], 0.99) * 1e3,
            **{f"server.{kind}_p50_ms": quantile(scaled[kind], 0.5) * 1e3
               for kind in ("bfs", "component", "components")},
        })
        if self.trace:
            layers["obs.reqtrace_delta_share"] = per_request / self.per_request_s(True) - 1.0
            layers["obs.harness_trace_overhead_share"] = (
                self.per_request_s(False, True) / self.per_request_s(False, False) - 1.0
            )
        return end_to_end, layers


class ServeChurn(Served):
    """Open loop reads beside a fixed schedule of update batches.

    Requests are due every ``1 / rate`` seconds whatever the server does
    and are timed from when they were due; the one client sends them in
    order, so a stall delays the requests behind it and that wait counts.
    Request latencies are reported as measured: they are waits on a clock
    schedule, not work.  What the child's writer takes per batch is work,
    and is scaled by the calibrations the child read on either side of it.
    """

    name = "serve_churn"
    scale, tiny_scale = 13, 9
    child_apart = True
    rate = 100.0
    #: The issue's limit on ``/connected`` p99 under churn.  Reported
    #: (``connected_over_limit_share``), not a failed check: one run in forty
    #: here met a box twice as slow from start to end, and a correct program
    #: must not read as a wrong one for that.
    limit_s = 0.050
    #: How long past the schedule to keep asking until the last batch is seen.
    patience_s = 10.0

    def __init__(self, seed, seconds, tiny, rec, trace) -> None:
        super().__init__(seed, seconds, tiny, rec, trace)
        self.period, self.batch_size = (0.05, 64) if tiny else (0.40, 1024)
        self.n_batches = max(3, int(seconds / self.period))

    def run(self) -> None:
        child = self.children[0]
        scheduled = int(self.n_batches * self.period * self.rate)
        self.rec.enabled = self.trace
        child.send("go")
        t_go = T()
        with self.rec.span("harness.run"):
            # Every batch is its own epoch, so the last one names ``n_batches``.  Ask on
            # past the schedule until an answer does: a slow box is not a failed batch.
            for k in range(scheduled + int(self.patience_s * self.rate)):
                if k >= scheduled and self.requests[-1].body.get("epoch", 0) >= self.n_batches:
                    break
                due = t_go + k / self.rate
                time.sleep(max(0.0, due - T()))
                self.request(child, k, due)
        self.rec.enabled = False

    def report(self) -> tuple[dict, dict]:
        report = self.children[0].stop()
        self.rec.adopt(report["spans"])
        log = [Batch(*row) for row in report["log"]]
        self.check(len(log) == self.n_batches and report["delete_misses"] == 0)
        for b in log:
            self.labels_by_epoch[b.epoch] = self.reference_labels((b.index + 1) * self.batch_size)
            self.check(any(r.body.get("epoch", 0) >= b.epoch for r in self.requests))
        self.verify()
        answered = [r for r in self.requests if r.status == 200]
        lat = [r.latency for r in answered]
        first_on_epoch, seen = [], {0}
        for r in answered:
            if r.body["epoch"] not in seen:
                seen.add(r.body["epoch"])
                first_on_epoch.append(r.latency)
        # Requests that fall due while a batch is in flight wait for the writer to let go of
        # the interpreter.  The median over all requests sits on the edge between the two
        # kinds and flips from run to run, so the contended ones get a median of their own.
        in_flight = [(b.submitted, b.published) for b in log]
        beside_write = [r.latency for r in answered
                        if any(t0 <= r.due <= t1 for t0, t1 in in_flight)]
        speeds = [(b.speed_before, b.speed_after) for b in log]
        visible = [at_reference_speed(b.published - b.due, *c) for b, c in zip(log, speeds)]
        busy_raw = sum(b.published - b.submitted for b in log)
        busy = sum(at_reference_speed(b.published - b.submitted, *c) for b, c in zip(log, speeds))
        # The child's registry timed the apply alone; scale it like the interval around it.
        applied = report["registry"]["histograms"]["service.updates.batch_seconds"]["total"]
        applied *= busy / busy_raw
        end_to_end, layers = self.shared_metrics(report, self.requests)
        end_to_end.update({
            "time_to_result_s": median(visible),
            "ops_per_s": self.n_batches * self.batch_size / busy,
        })
        over_limit = sum(r.status != 200 or r.latency > self.limit_s for r in self.requests)
        layers.update({
            "time_to_result_raw_s": median(b.published - b.due for b in log),
            "box_slowdown": median(c for pair in speeds for c in pair) / REFERENCE_CALIBRATION_S,
            "connected_p50_ms": quantile(lat, 0.5) * 1e3,
            "connected_p99_ms": quantile(lat, 0.99) * 1e3,
            "connected_beside_write_p50_ms": quantile(beside_write, 0.5) * 1e3,
            "connected_over_limit_share": over_limit / len(self.requests),
            "update_visible_p50_ms": quantile(visible, 0.5) * 1e3,
            "update_visible_p90_ms": quantile(visible, 0.9) * 1e3,
            "update_mups": self.n_batches * self.batch_size / busy / 1e6,
            "adjacency.apply_busy_s": applied,
            "csr.snapshot_busy_s": busy - applied,
            "csr.snapshots": len(log),
            "csr.ms_per_rotation": (busy - applied) / len(log) * 1e3,
            "epoch.label_miss_ms": (median(first_on_epoch) - quantile(lat, 0.5)) * 1e3,
            "drainer.batches": report["batches_applied"],
            "drainer.batch_busy_s": busy,
            "drainer.utilisation": busy_raw / (self.n_batches * self.period),
            "drainer.queue_depth_max": report["queue_depth_max"],
            "drainer.max_epoch_lag": report["max_epoch_lag"],
        })
        return end_to_end, layers
