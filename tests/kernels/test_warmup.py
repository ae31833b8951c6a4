"""The warmup contract: compile cost measured once, reported separately.

Benchmark plumbing (``benchmarks/conftest.py``, ``repro trace``) calls
:func:`repro.kernels.warmup` before any timed section, so first-call JIT
compilation can never contaminate kernel timings — it is reported as
``compile_seconds`` instead.
"""

import numpy as np

from repro import kernels


def test_warmup_shape_and_caching():
    info = kernels.warmup(force=True)
    assert info["available"] == kernels.numba_available()
    assert info["tier"] == kernels.default_tier()
    for key in ("cold_seconds", "warm_seconds", "compile_seconds"):
        assert info[key] >= 0.0
    assert info["cached"] is False
    again = kernels.warmup()
    assert again["cached"] is True
    assert again["compile_seconds"] == info["compile_seconds"]


def test_warmup_without_numba_is_a_noop():
    if kernels.numba_available():
        return  # the compiled branch is covered by the numba CI leg
    info = kernels.warmup(force=True)
    assert info["kernels"] == {}
    assert info["compile_seconds"] == 0.0


def test_warmup_compiles_every_kernel():
    if not kernels.numba_available():
        return
    info = kernels.warmup(force=True)
    assert set(info["kernels"]) == set(kernels.KERNEL_NAMES)
    # Cold (compile) vs warm (steady-state) recorded separately per kernel.
    for stats in info["kernels"].values():
        assert stats["cold_seconds"] >= stats["warm_seconds"] >= 0.0
        assert stats["compile_seconds"] == max(
            stats["cold_seconds"] - stats["warm_seconds"], 0.0
        )


def test_warmup_calls_are_valid_invocations():
    # The tiny warmup inputs must satisfy every kernel's contract when run
    # through the pure-Python bodies (so a numba compile of the same calls
    # cannot type-fail either).
    for name, args in kernels._warmup_calls():
        fn = getattr(kernels.loops, name)
        fn = fn.py_func if hasattr(fn, "py_func") else fn
        result = fn(*[a.copy() if isinstance(a, np.ndarray) else a for a in args])
        if name == "delete_match":
            n_miss, n_succ, probe = result
            assert (n_miss, n_succ) == (0, 1)  # the delete consumes the insert
