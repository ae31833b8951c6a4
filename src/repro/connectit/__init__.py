"""ConnectIt-style pluggable connectivity framework.

Composable union-find variants (union rules × compaction rules), optional
sampling phases (k-out, BFS-from-max-degree), and a sample-finish driver
producing canonical component labels bit-identical across variants.  See
docs/CONNECTIVITY.md for the design and docs/ARCHITECTURE.md for where the
package sits in the system.
"""

from repro.connectit.framework import (
    ConnectItResult,
    ConnectItSpec,
    connect_components,
    variant_matrix,
)
from repro.connectit.sampling import SAMPLING_RULES, SampleStats, run_sampling
from repro.connectit.unionfind import (
    COMPACTION_RULES,
    UNION_RULES,
    UnionFind,
    WorkCounters,
)

__all__ = [
    "ConnectItResult",
    "ConnectItSpec",
    "connect_components",
    "variant_matrix",
    "SAMPLING_RULES",
    "SampleStats",
    "run_sampling",
    "COMPACTION_RULES",
    "UNION_RULES",
    "UnionFind",
    "WorkCounters",
]
