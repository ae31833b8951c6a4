"""Graph persistence: numpy archives and text edge lists.

A complex-network framework needs to get data in and out; this module keeps
the formats deliberately boring:

* **`.npz`** — the fast native format: the :class:`~repro.edgelist.EdgeList`
  arrays plus metadata, via :func:`numpy.savez_compressed`;
* **text edge lists** — the lingua franca of graph datasets: one edge per
  line, whitespace-separated ``src dst [ts [w]]`` columns, ``#`` comments,
  matching what SNAP-style tools exchange.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.edgelist import EdgeList
from repro.errors import GraphError

__all__ = ["save_npz", "load_npz", "write_edgelist", "read_edgelist"]


def save_npz(path, graph: EdgeList) -> None:
    """Save an edge list to a compressed numpy archive."""
    path = Path(path)
    arrays = {
        "n": np.asarray(graph.n, dtype=np.int64),
        "src": graph.src,
        "dst": graph.dst,
        "directed": np.asarray(graph.directed),
        "meta": np.frombuffer(
            json.dumps(graph.meta, default=str).encode("utf-8"), dtype=np.uint8
        ),
    }
    if graph.ts is not None:
        arrays["ts"] = graph.ts
    if graph.w is not None:
        arrays["w"] = graph.w
    np.savez_compressed(path, **arrays)


def load_npz(path) -> EdgeList:
    """Load an edge list saved by :func:`save_npz`."""
    path = Path(path)
    with np.load(path) as z:
        meta = {}
        if "meta" in z:
            try:
                meta = json.loads(bytes(z["meta"]).decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise GraphError(f"{path}: corrupt metadata block: {exc}") from exc
        return EdgeList(
            int(z["n"]),
            z["src"],
            z["dst"],
            ts=z["ts"] if "ts" in z else None,
            w=z["w"] if "w" in z else None,
            directed=bool(z["directed"]),
            meta=meta,
        )


def write_edgelist(path, graph: EdgeList, *, header: bool = True) -> None:
    """Write a whitespace-separated text edge list.

    Columns: ``src dst``, plus ``ts`` when present, plus ``w`` when present.
    """
    path = Path(path)
    cols = [graph.src, graph.dst]
    names = ["src", "dst"]
    if graph.ts is not None:
        cols.append(graph.ts)
        names.append("ts")
    if graph.w is not None:
        cols.append(graph.w)
        names.append("w")
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# repro edge list: n={graph.n} m={graph.m} "
                     f"directed={int(graph.directed)} columns={','.join(names)}\n")
        for row in zip(*(c.tolist() for c in cols)):
            fh.write(" ".join(str(x) for x in row) + "\n")


def read_edgelist(
    path,
    *,
    n: int | None = None,
    directed: bool = False,
) -> EdgeList:
    """Read a whitespace-separated text edge list.

    Column layout is inferred from the first data line: 2 columns =
    endpoints only, 3 = +ts, 4 = +ts+w.
    ``n`` defaults to ``max(id) + 1``.  Lines starting with ``#`` are
    skipped; a header written by :func:`write_edgelist` restores ``n`` and
    directedness automatically (explicit arguments win).
    """
    path = Path(path)
    header_n = None
    header_directed = None
    rows: list[list[int]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "repro edge list" in line:
                    for token in line.split():
                        if token.startswith("n="):
                            header_n = int(token[2:])
                        elif token.startswith("directed="):
                            header_directed = bool(int(token[len("directed="):]))
                continue
            parts = line.split()
            if width is None:
                width = len(parts)
                if width < 2 or width > 4:
                    raise GraphError(
                        f"{path}:{lineno}: expected 2-4 columns, got {width}"
                    )
            elif len(parts) != width:
                raise GraphError(
                    f"{path}:{lineno}: inconsistent column count "
                    f"({len(parts)} vs {width})"
                )
            try:
                rows.append([int(x) for x in parts])
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: non-integer field: {exc}") from exc

    if width is None:
        width = 2
    data = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    src, dst = data[:, 0], data[:, 1]
    ts = data[:, 2] if width >= 3 else None
    w = data[:, 3] if width >= 4 else None
    if n is None:
        n = header_n
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if len(rows) else 0
    if directed is False and header_directed is not None:
        directed = header_directed
    return EdgeList(n, src, dst, ts=ts, w=w, directed=directed,
                    meta={"source_file": str(path)})
