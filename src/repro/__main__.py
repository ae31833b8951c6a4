"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — synthesise an R-MAT / Watts–Strogatz / Erdős–Rényi graph
  to ``.npz`` or text;
* ``stats`` — small-world statistics of a stored graph (degrees,
  clustering, effective diameter, components);
* ``connectivity`` — build the link-cut spanning forest and answer
  s–t queries;
* ``simulate`` — construct the graph on a chosen representation and sweep
  a simulated machine (the Figure 2/4 style table for *your* graph);
* ``trace`` — run a canned workload with span tracing enabled, print the
  span tree (host time, simulated time, top counters) and export the
  manifest-stamped JSONL trace (see docs/OBSERVABILITY.md).  Takes
  ``--backend process --workers N`` to execute the analysis kernels on the
  shared-memory worker pool (docs/PARALLEL.md); the ``fig08``/``fig10``
  workloads then also time serial vs process, verify bit-identity (exit
  non-zero on a mismatch) and print the measured comparison; the
  ``genscale`` workload does the same for communication-free parallel
  R-MAT generation plus chunked-stream construction (docs/GENERATORS.md);
  the ``connectit`` workload runs the default composition and the
  unsampled baseline on one snapshot and exits non-zero unless their
  labels are bit-identical.
  Nothing but ``--out`` and the requested exports is written: host timings
  are recorded by ``bench/`` alone (``bench/README.md``).
  ``--chrome``/``--speedscope``/``--folded`` additionally export the trace
  for ``chrome://tracing``, speedscope and flamegraph tools; ``--quiet``
  and ``--no-manifest`` trim the output/provenance for scripted runs;
* ``serve`` — the streaming connectivity service (docs/SERVICE.md): boot
  an HTTP query front end over epoch-rotated CSR snapshots while a writer
  thread drains an R-MAT update stream into the dynamic structure.
  ``--duration`` holds the server up for ``/metrics`` scrapes
  and external query drivers; ``--report`` writes a JSON
  latency/throughput summary.

The figure reproductions live under ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np


def _say(args: argparse.Namespace, *parts: object) -> None:
    """Print unless the command was invoked with ``--quiet``."""
    if not getattr(args, "quiet", False):
        print(*parts)


def _load(path: str):
    from repro.io import load_npz, read_edgelist

    p = Path(path)
    if p.suffix == ".npz":
        return load_npz(p)
    return read_edgelist(p)


def _save(path: str, graph) -> None:
    from repro.io import save_npz, write_edgelist

    p = Path(path)
    if p.suffix == ".npz":
        save_npz(p, graph)
    else:
        write_edgelist(p, graph)


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.generators import erdos_renyi, rmat_graph, watts_strogatz

    if args.model == "rmat":
        ts_range = (args.ts_min, args.ts_max) if args.ts_max >= 0 else None
        g = rmat_graph(
            args.scale, args.edge_factor, seed=args.seed, ts_range=ts_range,
            shuffle=args.shuffle,
        )
    elif args.model == "ws":
        g = watts_strogatz(1 << args.scale, args.k, args.beta, seed=args.seed)
    else:
        g = erdos_renyi(1 << args.scale, args.p, seed=args.seed)
    _save(args.out, g)
    print(f"wrote {g} -> {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.adjacency.csr import build_csr
    from repro.core.metrics import (
        average_clustering,
        degree_stats,
        effective_diameter,
        giant_component_fraction,
    )

    g = _load(args.graph)
    csr = build_csr(g)
    s = degree_stats(csr)
    print(f"graph: n={s.n} arcs={s.n_arcs}")
    print(f"degrees: min={s.min} mean={s.mean:.2f} median={s.median:.0f} max={s.max}")
    print(f"top-1% vertices hold {100 * s.top1pct_arc_share:.1f}% of arcs "
          f"(log-log slope {s.loglog_slope:.2f})")
    samples = min(args.samples, max(1, csr.n))
    cc = average_clustering(csr, samples=samples, seed=0)
    eff, ecc = effective_diameter(csr, samples=min(8, max(1, csr.n)), seed=0)
    print(f"clustering (sampled): {cc:.4f}")
    print(f"effective diameter (90th pct): {eff:.1f}; max observed ecc: {ecc}")
    print(f"giant component: {100 * giant_component_fraction(csr):.1f}% of vertices")
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    from repro.adjacency.csr import build_csr
    from repro.core.connectivity import ConnectivityIndex

    g = _load(args.graph)
    index = ConnectivityIndex.from_csr(build_csr(g))
    print(f"forest built: {index.forest.n_trees()} trees over {g.n} vertices")
    if args.pairs:
        for pair in args.pairs:
            u, v = (int(x) for x in pair.split(","))
            print(f"connected({u}, {v}) = {index.query(u, v)}")
    if args.random > 0:
        res = index.random_query_batch(args.random, seed=args.seed)
        frac = float(res.connected.mean()) if res.n_queries else 0.0
        print(f"{args.random} random queries: {100 * frac:.1f}% connected, "
              f"{res.hops_per_query:.1f} hops/query")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.adjacency.registry import make_representation
    from repro.core.update_engine import construct
    from repro.machine import SimulatedMachine

    g = _load(args.graph)
    kwargs = {}
    if args.representation in ("treap", "hybrid"):
        kwargs["seed"] = args.seed
    if args.representation == "dynarr":
        kwargs["expected_m"] = 2 * g.m
    if args.representation == "dynarr-nr":
        deg = np.bincount(g.src, minlength=g.n) + np.bincount(g.dst, minlength=g.n)
        kwargs["degrees"] = deg
    rep = make_representation(args.representation, g.n, **kwargs)
    res = construct(rep, g)
    sim = SimulatedMachine(args.machine)
    print(f"constructed {g.m} edges on {args.representation!r} "
          f"(host {res.host_seconds:.2f}s)")
    print(sim.sweep(res.profile, n_items=g.m).table())
    return 0


def _resolve_trace_backend(args: argparse.Namespace):
    """Build the (possibly pooled) execution backend the trace asked for."""
    from repro.parallel.backend import resolve_backend

    be, _ = resolve_backend(args.backend, workers=args.workers)
    return be


def _trace_workload(args: argparse.Namespace, backend) -> None:
    """The traced workloads: small end-to-end slices of the library."""
    from repro import obs
    from repro.api import DynamicGraph
    from repro.core.bfs import bfs_profile
    from repro.generators import mixed_stream, rmat_graph
    from repro.machine import SimulatedMachine

    sim = SimulatedMachine(args.machine)
    graph = rmat_graph(
        args.scale, args.edge_factor, seed=args.seed, ts_range=(1, 100)
    )
    with obs.span("trace.build_graph", n=graph.n, m=graph.m):
        g = DynamicGraph.from_edgelist(graph, representation=args.representation)

    if args.workload in ("quickstart", "updates"):
        stream = mixed_stream(graph, args.updates, insert_frac=0.75, seed=args.seed)
        res = g.apply(stream)
        sim.sweep(res.profile, n_items=res.n_updates)
    if args.workload in ("quickstart", "connectivity"):
        index = g.spanning_forest()
        queries = index.random_query_batch(
            args.queries, seed=args.seed, backend=backend
        )
        sim.sweep(queries.profile, n_items=queries.n_queries)
    if args.workload in ("quickstart", "components"):
        g.connected_components(backend=backend)
    if args.workload in ("quickstart", "connectit"):
        from repro.connectit import ConnectItSpec, connect_components

        snap = g.snapshot()
        res = connect_components(snap, backend=backend)
        sim.sweep(res.profile(), n_items=max(res.counters.unions, 1))
        if args.workload == "connectit":
            base = connect_components(snap, ConnectItSpec(sampling="none"), backend=backend)
            if not np.array_equal(res.labels, base.labels):
                raise SystemExit(
                    f"connectit: {res.spec.name} labels differ from the unsampled "
                    f"baseline {base.spec.name}"
                )
            _say(
                args,
                f"connectit: default {res.spec.name} {res.counters.unions} unions, "
                f"baseline {base.spec.name} {base.counters.unions} unions "
                f"[labels identical; {res.n_components} components]",
            )
    if args.workload in ("quickstart", "bfs"):
        res = g.bfs(0, ts_range=(20, 70), backend=backend)
        profile = bfs_profile(g.snapshot(), res)
        sim.sweep(profile, n_items=max(res.total_edges_scanned, 1))


def _compare_with_serial(args, backend, run_serial, run_backend, same, detail):
    """Time ``run_serial()`` against ``run_backend()`` and print the comparison.

    Exits non-zero unless ``same(serial, other)``: the backend's result must
    be bit-identical to the serial kernel's.  ``detail(serial)`` words what
    was computed.  Host seconds are printed, not recorded — ``bench/`` is
    the only ledger (``bench/README.md``).
    """
    import time

    t0 = time.perf_counter()
    serial = run_serial()
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    other = run_backend()
    other_s = time.perf_counter() - t0
    if not same(serial, other):
        raise SystemExit(
            f"backend {backend.name!r} results differ from serial — "
            "determinism contract violated"
        )
    speedup = serial_s / other_s if other_s > 0 else float("inf")
    _say(
        args,
        f"{args.workload}: serial {serial_s:.3f}s vs {backend.name} "
        f"({getattr(backend, 'workers', 1)} workers) {other_s:.3f}s -> "
        f"speedup {speedup:.2f}x [results identical; {detail(serial)}]",
    )


def _trace_backend_compare(args: argparse.Namespace, backend) -> None:
    """The ``fig08`` / ``fig10`` workloads: measured serial-vs-process runs.

    Runs the figure's kernel once on the serial backend and once on the
    requested one, asserts the results are bit-identical and prints the
    measured wall-clock comparison.
    """
    from repro import obs
    from repro.adjacency.csr import build_csr
    from repro.core.bfs import bfs
    from repro.core.connectivity import ConnectivityIndex
    from repro.generators import rmat_graph

    ts_range = (0, 1000)
    graph = rmat_graph(args.scale, args.edge_factor, seed=args.seed, ts_range=ts_range)
    with obs.span("trace.build_graph", n=graph.n, m=graph.m):
        csr = build_csr(graph)

    if args.workload == "fig10":
        source = int(np.argmax(csr.degrees()))
        _compare_with_serial(
            args, backend,
            lambda: bfs(csr, source, ts_range=ts_range),
            lambda: backend.bfs(csr, source, ts_range=ts_range),
            lambda a, b: np.array_equal(a.dist, b.dist)
            and np.array_equal(a.parent, b.parent),
            lambda r: f"{r.n_levels} levels, {r.n_reached}/{csr.n} reached",
        )
    else:  # fig08
        index = ConnectivityIndex.from_csr(csr)
        _compare_with_serial(
            args, backend,
            lambda: index.random_query_batch(args.queries, seed=args.seed),
            lambda: index.random_query_batch(
                args.queries, seed=args.seed, backend=backend
            ),
            lambda a, b: np.array_equal(a.connected, b.connected),
            lambda r: f"{args.queries} queries, {r.hops_per_query:.1f} hops/query",
        )


def _trace_genscale(args: argparse.Namespace, backend) -> None:
    """The ``genscale`` workload: measured serial-vs-backend generation.

    Times the serial ``rmat_edges`` draw against the backend's
    communication-free sliced generation of the same stream, asserts
    bit-identity, then rebuilds the graph through the streaming
    :func:`~repro.generators.parallel.iter_edge_chunks` path into a
    :class:`~repro.api.DynamicGraph` and reports construction MUPS.
    """
    import time

    from repro import obs
    from repro.api import DynamicGraph
    from repro.generators.parallel import iter_edge_chunks
    from repro.generators.rmat import rmat_edges

    m = args.edge_factor * (1 << args.scale)

    def draw_serial():
        with obs.span("trace.generate_serial", scale=args.scale, m=m):
            return rmat_edges(args.scale, m, seed=args.seed)

    def draw_backend():
        with obs.span("trace.generate_backend", backend=backend.name, m=m):
            return backend.rmat_edges(args.scale, m, seed=args.seed)

    _compare_with_serial(
        args, backend, draw_serial, draw_backend,
        lambda a, b: np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]),
        lambda r: f"{m} edges",
    )
    with obs.span("trace.chunked_construction", scale=args.scale, m=m):
        t0 = time.perf_counter()
        g = DynamicGraph.from_edge_chunks(
            1 << args.scale,
            iter_edge_chunks(args.scale, m, seed=args.seed, ts_range=(0, 1000)),
            representation=args.representation,
        )
        construct_s = time.perf_counter() - t0
    mups = m / construct_s / 1e6 if construct_s > 0 else float("inf")
    _say(
        args,
        f"genscale: chunked construction {g.n_edges} stored edges "
        f"at {mups:.2f} MUPS",
    )


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    if args.scale is None:
        # The figure workloads default to a scale-12 R-MAT instance;
        # genscale defaults a bit larger (it is generation-bound); the
        # quickstart slices stay smaller.
        if args.workload in ("fig08", "fig10"):
            args.scale = 12
        elif args.workload == "genscale":
            args.scale = 14
        else:
            args.scale = 11
    manifest = None
    if not args.no_manifest:
        manifest = obs.RunManifest.capture(
            seed=args.seed,
            machine=args.machine,
            workload=args.workload,
            backend=args.backend,
            workers=args.workers,
        )
        obs.set_manifest(manifest)
    out = Path(args.out) if args.out else Path(f"trace-{args.workload}.jsonl")
    memory = obs.MemorySink()
    jsonl = obs.JsonlSink(out)
    obs.METRICS.reset()
    obs.enable_tracing(obs.TeeSink(memory, jsonl), manifest=manifest)
    backend = _resolve_trace_backend(args)
    try:
        with obs.span(
            f"trace.{args.workload}", workload=args.workload, backend=backend.name
        ):
            if args.workload in ("fig08", "fig10"):
                _trace_backend_compare(args, backend)
            elif args.workload == "genscale":
                _trace_genscale(args, backend)
            else:
                _trace_workload(args, backend)
    finally:
        backend.close()
        obs.disable_tracing()
        jsonl.close()
    if manifest is not None:
        _say(args, manifest.summary())
        _say(args)
    _say(args, obs.describe(memory.events, metrics=obs.METRICS))
    _say(args)
    _say(args, f"wrote {jsonl.n_written} trace events -> {out}")
    manifest_dict = manifest.to_dict() if manifest is not None else None
    if args.chrome:
        p = obs.write_chrome_trace(args.chrome, memory.events, manifest=manifest_dict)
        _say(args, f"wrote Chrome trace (chrome://tracing, Perfetto) -> {p}")
    if args.speedscope:
        p = obs.write_speedscope(
            args.speedscope, memory.events, name=f"repro trace {args.workload}"
        )
        _say(args, f"wrote speedscope profile (speedscope.app) -> {p}")
    if args.folded:
        p = obs.write_folded(args.folded, memory.events)
        _say(args, f"wrote folded stacks (flamegraph.pl et al.) -> {p}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the streaming connectivity service over an R-MAT update stream.

    A feeder thread pushes :func:`~repro.generators.parallel
    .iter_update_chunks` batches through the service's writer while the
    asyncio front end answers queries from pinned epochs.  The server stays
    up until the stream is drained *and* ``--duration`` has elapsed, so an
    external driver (CI's ``tools/check_service.py``, a ``/metrics``
    scraper) has a live endpoint to hit.  ``--url-file`` publishes the bound URL;
    ``--report`` writes a JSON summary (stats + query-latency quantiles).
    """
    import json
    import threading
    import time as time_mod

    from repro import obs
    from repro.api import DynamicGraph
    from repro.generators.parallel import iter_update_chunks
    from repro.service import GraphService

    obs.METRICS.reset()
    obs.EXEMPLARS.clear()
    n = 1 << args.scale
    graph = DynamicGraph(n, representation=args.representation)
    tracer = (
        None
        if args.no_reqtrace
        else obs.RequestTracer(
            head_every=args.head_every,
            slow_threshold_seconds=args.slow_ms / 1000.0,
        )
    )
    service = GraphService(
        graph,
        query_threads=args.query_threads,
        rotate_min_interval=args.rotate_interval,
        reqtrace=tracer if tracer is not None else False,
    )
    handle = service.start_background(host=args.host, port=args.port)
    if args.url_file:
        Path(args.url_file).write_text(handle.url + "\n")
    _say(args, f"serving {args.representation} graph n=2^{args.scale} on {handle.url}")

    total_edges = args.edges if args.edges else n * args.edge_factor
    feeder_error: list[BaseException] = []

    def feed() -> None:
        try:
            for chunk in iter_update_chunks(
                args.scale, total_edges, edge_factor=args.edge_factor,
                seed=args.seed, chunk_edges=args.chunk_edges,
            ):
                handle.submit(chunk)
                if args.throttle:
                    time_mod.sleep(args.throttle)
        except BaseException as exc:  # noqa: BLE001 - reported by the parent
            feeder_error.append(exc)

    feeder = threading.Thread(target=feed, name="repro-serve-feeder", daemon=True)
    started = time_mod.monotonic()
    feeder.start()
    try:
        feeder.join()
        remaining = args.duration - (time_mod.monotonic() - started)
        if remaining > 0:
            _say(args, f"stream drained; holding the server up {remaining:.1f}s more")
            time_mod.sleep(remaining)
    except KeyboardInterrupt:
        _say(args, "interrupted; shutting down")
    finally:
        stats = service._q_stats()
        lat = obs.METRICS.histogram("service.query.seconds")
        report = {
            "url": handle.url,
            "scale": args.scale,
            "stats": stats,
            "max_epoch_lag": service.drainer.max_observed_lag,
            "query_latency_seconds": {
                "count": lat.count,
                "p50": lat.quantile(0.50),
                "p99": lat.quantile(0.99),
            },
            "reqtrace": {
                "config": tracer.config() if tracer is not None else None,
                "slow_captured": len(tracer.slow()) if tracer is not None else 0,
                "slow": tracer.slow() if tracer is not None else [],
            },
        }
        if args.report:
            Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
            _say(args, f"wrote service report -> {args.report}")
        handle.close()
        _say(args, f"applied {stats['updates_applied']} updates in "
                   f"{stats['batches_applied']} batch(es) across "
                   f"{stats['epochs_published']} epoch(s); "
                   f"answered {stats['queries']} query(ies)")
    if feeder_error:
        print(f"error: update feeder failed: {feeder_error[0]!r}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.adjacency.registry import REPRESENTATIONS
    from repro.machine.spec import MACHINES

    representations, machines = list(REPRESENTATIONS), list(MACHINES)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Dynamic small-world graph analysis (Madduri & Bader 2009 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a graph")
    p.add_argument("--model", choices=["rmat", "ws", "er"], default="rmat")
    p.add_argument("--scale", type=int, default=12, help="n = 2^scale")
    p.add_argument("--edge-factor", type=int, default=10, help="m = edge_factor * n (rmat)")
    p.add_argument("--k", type=int, default=4, help="ring degree (ws)")
    p.add_argument("--beta", type=float, default=0.1, help="rewiring prob (ws)")
    p.add_argument("--p", type=float, default=0.001, help="edge prob (er)")
    p.add_argument("--ts-min", type=int, default=1)
    p.add_argument("--ts-max", type=int, default=-1,
                   help="assign uniform time-stamps in [ts-min, ts-max] (rmat)")
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help=".npz or text path")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("stats", help="small-world statistics of a graph")
    p.add_argument("graph")
    p.add_argument("--samples", type=int, default=200, help="clustering sample size")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("connectivity", help="spanning-forest connectivity queries")
    p.add_argument("graph")
    p.add_argument("--pairs", nargs="*", default=[], metavar="U,V")
    p.add_argument("--random", type=int, default=0, help="also run N random queries")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_connectivity)

    p = sub.add_parser(
        "trace", help="run a workload with tracing on; print/export the span tree"
    )
    p.add_argument("workload", nargs="?", default="quickstart",
                   choices=["quickstart", "updates", "bfs", "connectivity",
                            "components", "connectit", "fig08", "fig10",
                            "genscale"])
    p.add_argument("--scale", type=int, default=None,
                   help="n = 2^scale (default: 11; 12 for fig08/fig10; "
                        "14 for genscale)")
    p.add_argument("--edge-factor", type=int, default=8)
    p.add_argument("--updates", type=int, default=2000,
                   help="mixed-stream length for the update workloads")
    p.add_argument("--queries", type=int, default=10_000,
                   help="connectivity query count")
    p.add_argument("--representation", default="hybrid", choices=representations)
    p.add_argument("--machine", default="t2", choices=machines)
    p.add_argument("--backend", default="serial", choices=["serial", "process"],
                   help="execution backend for the analysis kernels "
                        "(process = shared-memory worker pool)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-backend worker count (default: visible CPUs)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None,
                   help="JSONL trace path (default: trace-<workload>.jsonl)")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="also export a Chrome trace-event JSON "
                        "(chrome://tracing / Perfetto)")
    p.add_argument("--speedscope", default=None, metavar="PATH",
                   help="also export a speedscope profile (speedscope.app)")
    p.add_argument("--folded", default=None, metavar="PATH",
                   help="also export folded stacks for flamegraph tools")
    p.add_argument("--quiet", "-q", action="store_true",
                   help="suppress the summary output (artifacts still written)")
    p.add_argument("--no-manifest", action="store_true",
                   help="skip run-manifest capture/stamping (fast scripted runs)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="streaming connectivity service: queries over epoch-rotated snapshots",
    )
    p.add_argument("--scale", type=int, default=14, help="n = 2^scale (default: 14)")
    p.add_argument("--edge-factor", type=int, default=8)
    p.add_argument("--edges", type=int, default=None,
                   help="total stream edges (default: n * edge-factor)")
    p.add_argument("--chunk-edges", type=int, default=4096,
                   help="edges per update batch (default: 4096)")
    p.add_argument("--representation", default="hybrid", choices=representations)
    p.add_argument("--query-threads", type=int, default=4,
                   help="query executor width (default: 4)")
    p.add_argument("--rotate-interval", type=float, default=0.0,
                   help="min seconds between epoch publishes (default: 0 = "
                        "rotate every batch)")
    p.add_argument("--throttle", type=float, default=0.0,
                   help="seconds to sleep between stream batches (default: 0)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="keep serving at least this many seconds (default: "
                        "0 = exit once the stream drains)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral; see --url-file)")
    p.add_argument("--url-file", default=None, metavar="PATH",
                   help="write the bound base URL here once serving")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write a JSON stats + latency report on shutdown")
    p.add_argument("--head-every", type=int, default=10,
                   help="head sampling: keep every Nth request trace "
                        "(default: 10; 0 keeps only slow requests)")
    p.add_argument("--slow-ms", type=float, default=100.0,
                   help="tail sampling: requests at or above this latency are "
                        "always captured into /debug/slow (default: 100)")
    p.add_argument("--no-reqtrace", action="store_true",
                   help="disable per-request tracing and slow-query capture")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quiet", "-q", action="store_true")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("simulate", help="sweep a workload on a simulated machine")
    p.add_argument("graph")
    p.add_argument("--representation", default="hybrid", choices=representations)
    p.add_argument("--machine", default="t2", choices=machines)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
