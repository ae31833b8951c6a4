"""Update drainer: batches applied in order, epochs rotate, errors surface."""

import subprocess
import sys

import numpy as np
import pytest

from repro.api import DynamicGraph
from repro.core.components import connected_components
from repro.errors import ServiceError
from repro.generators.parallel import iter_update_chunks
from repro.service import EpochStore, UpdateDrainer
from repro.service import drainer as drainer_mod

SCALE = 9


def chunks(seed=11, n_edges=None):
    n_edges = n_edges if n_edges is not None else 2 * (1 << SCALE)
    return list(iter_update_chunks(SCALE, n_edges, seed=seed, chunk_edges=512))


class TestDrain:
    def test_all_batches_applied_and_published(self):
        g = DynamicGraph(1 << SCALE)
        store = EpochStore()
        batches = chunks()
        with UpdateDrainer(g, store) as drainer:
            for c in batches:
                drainer.submit(c)
        assert drainer.n_batches == len(batches)
        assert drainer.n_updates == sum(len(c) for c in batches)
        cur = store.current
        assert cur is not None
        # final epoch reflects the fully-applied structure
        assert cur.mutation_count == g.rep.mutation_count
        assert cur.snapshot.n_arcs == g.rep.n_arcs
        assert store.n_live == 1

    def test_final_epoch_bit_identical_to_offline_build(self):
        batches = chunks(seed=23)
        g = DynamicGraph(1 << SCALE)
        store = EpochStore()
        with UpdateDrainer(g, store) as drainer:
            for c in batches:
                drainer.submit(c)
        served = connected_components(store.current.snapshot).labels
        offline = DynamicGraph(1 << SCALE)
        for c in batches:
            offline.apply(c)
        expected = connected_components(offline.snapshot()).labels
        assert np.array_equal(served, expected)

    def test_coalescing_still_publishes_final_state(self):
        g = DynamicGraph(1 << SCALE)
        store = EpochStore()
        # An hour between rotations: every intermediate rotation is
        # coalesced away, yet close() must still publish the final state.
        with UpdateDrainer(g, store, rotate_min_interval=3600.0) as drainer:
            for c in chunks():
                drainer.submit(c)
        cur = store.current
        assert cur is not None
        assert cur.mutation_count == g.rep.mutation_count
        assert drainer.max_observed_lag > 0  # the lag was seen and recorded

    def test_submit_after_close_raises(self):
        g = DynamicGraph(8)
        drainer = UpdateDrainer(g, EpochStore()).start()
        drainer.close()
        with pytest.raises(ServiceError):
            drainer.submit(chunks()[0])

    def test_drain_error_surfaces_on_close(self):
        g = DynamicGraph(4)  # far too small for the stream's vertex ids
        drainer = UpdateDrainer(g, EpochStore()).start()
        drainer.submit(chunks()[0])
        with pytest.raises(ServiceError, match="drainer died"):
            drainer.close()


# Arrays that each outgrow the last by a page, as the exports of a graph
# under inserts do, counting those glibc had to map afresh.
_GROWING_BLOCKS = """
import ctypes, sys
import numpy as np
from repro.service.drainer import keep_large_blocks_on_heap

class MallInfo(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

try:
    mallinfo2 = ctypes.CDLL(None).mallinfo2
except (OSError, AttributeError):
    sys.exit(3)
mallinfo2.restype = MallInfo

def mapped_afresh(first_words):
    n = 0
    for k in range(8):
        before = mallinfo2().hblks
        block = np.empty(first_words + 512 * k, dtype=np.int64)
        n += mallinfo2().hblks > before
        del block
    return n

history_decides = mapped_afresh(1 << 17)
if not keep_large_blocks_on_heap():
    sys.exit(3)
print(history_decides, mapped_afresh(1 << 18))
"""


class TestAllocatorPolicy:
    def test_growing_blocks_are_recycled_once_the_policy_is_set(self):
        done = subprocess.run(
            [sys.executable, "-c", _GROWING_BLOCKS], capture_output=True, text=True
        )
        if done.returncode == 3:
            pytest.skip("no glibc mallopt / mallinfo2 here")
        assert done.returncode == 0, done.stderr
        # Left to its history glibc maps every one of them; afterwards none.
        assert done.stdout.split() == ["8", "0"]

    def test_start_sets_it_and_survives_its_absence(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            drainer_mod, "keep_large_blocks_on_heap", lambda: calls.append(1) or False
        )
        with UpdateDrainer(DynamicGraph(8), EpochStore()):
            pass
        assert calls == [1]
