#!/usr/bin/env python
"""Generation gates: slice-protocol determinism and bounded-RSS streaming.

Run by the CI jobs (and locally) in two modes:

``python tools/check_generation.py determinism``
    The *generation determinism gate*: generate a scale-16 R-MAT edge
    stream serially, then re-derive it slice-by-slice for each slice
    count in ``--slices`` (default 1, 4, 7) and chunk-by-chunk through
    the streaming iterator, hash every concatenated result (SHA-256 over
    the raw int64 bytes) and fail on any mismatch.  This pins the
    communication-free slice protocol of
    :mod:`repro.generators.parallel`: concatenation must be
    bit-identical to serial ``rmat_edges`` for every partition.

``python tools/check_generation.py smoke``
    The *streaming-generation smoke* (nightly): stream a scale-20 edge
    list through ``iter_edge_chunks`` without ever materialising it,
    checking that peak RSS stays under ``--max-rss-mb`` (a full
    materialisation at this scale would blow well past the bound), then
    construct a scale-20 :class:`~repro.api.DynamicGraph` through
    ``DynamicGraph.from_edge_chunks`` and report the stored edge count and
    the bytes per stored arc, host (``memory_bytes()``) and model
    (``model_bytes()``).

Exit status: 0 clean, 1 gate failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time


def _sha256(*arrays) -> str:
    """SHA-256 over the concatenated raw bytes of int64 arrays."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _max_rss_mb() -> float:
    """Peak RSS of this process so far, in MiB (Linux ru_maxrss is KiB)."""
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - mac reports bytes
        return rss / (1024 * 1024)
    return rss / 1024


def run_determinism(args: argparse.Namespace) -> int:
    """Hash-compare serial vs sliced vs chunked generation."""
    import numpy as np

    from repro.generators.parallel import iter_edge_chunks, rmat_edges_slice
    from repro.generators.rmat import PAPER_RMAT, rmat_edges

    m = args.edge_factor * (1 << args.scale)
    t0 = time.perf_counter()
    src, dst = rmat_edges(args.scale, m, PAPER_RMAT, args.seed)
    reference = _sha256(src, dst)
    print(f"serial    scale={args.scale} m={m} "
          f"({time.perf_counter() - t0:.2f}s)  {reference}")

    failures = 0
    for n_slices in args.slices:
        t0 = time.perf_counter()
        parts = [
            rmat_edges_slice(PAPER_RMAT, args.scale, m, args.seed, i, n_slices)
            for i in range(n_slices)
        ]
        digest = _sha256(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )
        ok = digest == reference
        failures += 0 if ok else 1
        print(f"slices={n_slices:<3} {'ok  ' if ok else 'FAIL'} "
              f"({time.perf_counter() - t0:.2f}s)  {digest}")

    # An odd chunk size exercises the uneven remainder in the streaming path.
    chunk = max(1, (m // 13) | 1)
    t0 = time.perf_counter()
    chunks = list(iter_edge_chunks(
        args.scale, m, seed=args.seed, chunk_edges=chunk
    ))
    digest = _sha256(
        np.concatenate([c.src for c in chunks]),
        np.concatenate([c.dst for c in chunks]),
    )
    ok = digest == reference
    failures += 0 if ok else 1
    print(f"chunked({chunk}) {'ok  ' if ok else 'FAIL'} "
          f"({time.perf_counter() - t0:.2f}s)  {digest}")

    if failures:
        print(f"{failures} generation mismatch(es) — slice protocol broken",
              file=sys.stderr)
        return 1
    print("all sliced/chunked generations bit-identical to serial")
    return 0


def run_smoke(args: argparse.Namespace) -> int:
    """Bounded-RSS streaming scan, then chunked graph construction."""
    from repro.api import DynamicGraph
    from repro.generators.parallel import iter_edge_chunks

    m = args.edge_factor * (1 << args.scale)
    full_mb = 2 * 8 * m / (1024 * 1024)
    print(f"streaming scan: scale={args.scale} m={m} "
          f"(materialised list would be {full_mb:.0f} MiB + generation scratch)")
    t0 = time.perf_counter()
    edges = 0
    checksum = 0
    for c in iter_edge_chunks(args.scale, m, seed=args.seed):
        edges += c.m
        checksum ^= int(c.src[-1]) ^ int(c.dst[-1]) if c.m else 0
    scan_s = time.perf_counter() - t0
    peak = _max_rss_mb()
    rate = edges / scan_s / 1e6 if scan_s > 0 else float("inf")
    print(f"streamed {edges} edges in {scan_s:.1f}s ({rate:.1f} M edges/s), "
          f"checksum {checksum:#x}, peak RSS {peak:.0f} MiB "
          f"(bound {args.max_rss_mb} MiB)")
    if edges != m:
        print(f"stream covered {edges} of {m} edges", file=sys.stderr)
        return 1
    if peak > args.max_rss_mb:
        print(f"peak RSS {peak:.0f} MiB exceeds the {args.max_rss_mb} MiB "
              "bound — the stream is materialising", file=sys.stderr)
        return 1

    cm = args.construct_edge_factor * (1 << args.scale)
    print(f"chunked construction: scale={args.scale} m={cm} "
          f"({args.representation!r} representation)")
    t0 = time.perf_counter()
    g = DynamicGraph.from_edge_chunks(
        1 << args.scale,
        iter_edge_chunks(args.scale, cm, seed=args.seed, ts_range=(0, 10_000)),
        representation=args.representation,
    )
    build_s = time.perf_counter() - t0
    mups = cm / build_s / 1e6 if build_s > 0 else float("inf")
    print(f"constructed {g.n_edges} stored edges in {build_s:.1f}s "
          f"({mups:.2f} MUPS), final peak RSS {_max_rss_mb():.0f} MiB")
    arcs = max(g.rep.n_arcs, 1)
    print(f"footprint per stored arc: {g.memory_bytes() / arcs:.1f} B host, "
          f"{g.rep.model_bytes() / arcs:.1f} B model")
    if g.n_edges == 0:
        print("construction stored no edges", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("determinism", help="slice/chunk bit-identity hash gate")
    p.add_argument("--scale", type=int, default=16)
    p.add_argument("--edge-factor", type=int, default=10)
    p.add_argument("--seed", type=int, default=20090525)
    p.add_argument("--slices", type=int, nargs="+", default=[1, 4, 7])
    p.set_defaults(fn=run_determinism)

    p = sub.add_parser("smoke", help="bounded-RSS scale-20 streaming smoke")
    p.add_argument("--scale", type=int, default=20)
    p.add_argument("--edge-factor", type=int, default=10)
    p.add_argument("--construct-edge-factor", type=int, default=2,
                   help="edge factor for the graph-construction phase "
                        "(smaller: adjacency structures cost real memory)")
    p.add_argument("--seed", type=int, default=20090525)
    p.add_argument("--max-rss-mb", type=float, default=400.0,
                   help="peak-RSS bound for the scan phase; a materialised "
                        "scale-20 list cannot fit under it")
    p.add_argument("--representation", default="hybrid")
    p.set_defaults(fn=run_smoke)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
