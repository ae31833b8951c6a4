"""In-memory span recorder for the traced pass.

Spans are opened by the harness around each call into a layer's public
functions and are named ``<layer>.<call>`` (``harness.*`` for the harness's
own repetition, segment and run windows); nothing inside the program is
instrumented.  A layer's self time is the sum over its spans of duration
minus the part covered by child spans.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

#: Layer (module) names, in pipeline order; every span name starts with one.
LAYERS = (
    "generators", "adjacency", "csr", "core", "connectit", "parallel",
    "epoch", "drainer", "server", "obs",
)


class Recorder:
    """Spans of one workload run: ``[name, start, end, parent index]`` rows.

    Disabled (the default) ``span`` costs one attribute test, so the same
    workload code serves the untraced pass.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        row = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def adopt(self, rows: list[list]) -> None:
        """Append spans recorded in another process (same monotonic clock)."""
        base = len(self.spans)
        self.spans.extend(
            [name, t0, t1, parent + base if parent >= 0 else -1]
            for name, t0, t1, parent in rows
        )

    def self_shares(self) -> dict[str, float]:
        """Per layer, self time as a share of the traced wall time.

        Traced wall time is what the ``harness.*`` root spans of this
        process cover, less the ``harness.*`` spans nested in them (the
        harness's own calibrations); a layer absent from the run reads
        zero.  Spans adopted from a child run beside this process's, so
        shares of a served workload need not add up to one.
        """
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out, wall = dict.fromkeys(LAYERS, 0.0), 0.0
        for (name, t0, t1, parent), inner in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (t1 - t0) - inner
            elif layer == "harness":
                wall += (t1 - t0) if parent < 0 else -(t1 - t0)
        return {layer: s / wall if wall else 0.0 for layer, s in out.items()}

    def chrome_trace(self) -> dict:
        """Chrome-trace document (complete events, microseconds)."""
        origin = min((row[1] for row in self.spans), default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": os.getpid(), "tid": 0,
                "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"span_id": i, "parent_id": parent, "workload": self.workload},
            }
            for i, (name, t0, t1, parent) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"trace-{self.workload}.json"
        path.write_text(json.dumps(self.chrome_trace()) + "\n")
        return path
