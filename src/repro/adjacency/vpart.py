"""``Vpart`` — vertex-partitioned updates (paper section 2.1.3).

Vertices are assigned to threads (deterministically, by id) so that no two
threads ever update the same adjacency list: locking and atomics disappear.
The price the paper identifies is that *every thread reads the entire update
stream* and applies only the updates it owns — replicated scan work that
grows with the thread count and caps scalability ("this approach might work
well for a small number of threads").

Storage is identical to :class:`~repro.adjacency.dynarr.DynArrAdjacency` —
including the vectorised bulk kernels (grouped ``apply_arcs`` /
``bulk_insert`` from :mod:`repro.adjacency.bulkops`) and the gathered
``to_csr`` export, which are inherited unchanged; what changes
is the parallel cost profile: no synchronisation, but a per-thread
replicated stream scan.
"""

from __future__ import annotations

from repro.adjacency.base import HotStats
from repro.adjacency.dynarr import DynArrAdjacency
from repro.machine.profile import Phase

__all__ = ["VPartAdjacency"]

#: Bytes per update record scanned by each thread: (op, src, dst, ts) words.
_UPDATE_RECORD_BYTES = 32.0
#: ALU ops per scanned update for the ownership test (hash/mod + branch).
_ALU_PER_SCANNED_UPDATE = 4.0


class VPartAdjacency(DynArrAdjacency):
    """Dyn-arr storage with vertex-ownership parallel semantics."""

    kind = "vpart"

    def owner(self, u: int, p: int) -> int:
        """Thread owning vertex ``u`` when running with ``p`` threads."""
        self.check_vertex(u)
        if p <= 0:
            raise ValueError(f"thread count must be positive, got {p}")
        return u % p

    def _sync_kwargs(self, hot: HotStats) -> dict:
        # Ownership removes all races: no atomics, no locks.
        return {}

    def phase(self, name: str, hot: HotStats | None = None) -> Phase:
        base = super().phase(name, hot)
        s = self.stats
        ops = float(s.inserts + s.deletes + s.delete_misses)
        return Phase(
            name=base.name,
            alu_ops=base.alu_ops,
            seq_bytes=base.seq_bytes,
            alu_ops_per_thread=_ALU_PER_SCANNED_UPDATE * ops,
            seq_bytes_per_thread=_UPDATE_RECORD_BYTES * ops,
            rand_accesses=base.rand_accesses,
            footprint_bytes=base.footprint_bytes,
            # One vertex's updates all land on its single owner thread, so
            # the hottest vertex is a load-imbalance cap exactly as in
            # Dyn-arr — ownership does not spread it.
            max_unit_frac=base.max_unit_frac,
        )
