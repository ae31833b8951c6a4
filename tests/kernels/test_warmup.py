"""The warmup stub: ``bench/batch.py`` calls it before timed sections.

There is nothing to compile, so it must cost nothing and return nothing.
"""

from repro import kernels


def test_warmup_without_numba_is_a_noop():
    assert not kernels.numba_available()
    assert kernels.warmup() is None
    assert kernels.warmup() is None
