"""Input-validation helpers shared across the library.

Graph kernels written against raw numpy arrays fail in confusing ways when
handed bad ids or mismatched array lengths; these helpers convert such
mistakes into precise :mod:`repro.errors` exceptions at API boundaries.
Internal hot loops never call them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GraphError, VertexError

__all__ = [
    "as_index_array",
    "check_vertex_ids",
    "check_same_length",
    "check_op_codes",
    "check_probability",
]


def as_index_array(values, name: str = "array") -> np.ndarray:
    """Coerce ``values`` to a 1-D int64 array, rejecting floats with fractions.

    Accepts Python sequences, scalars are rejected (a common bug is passing a
    single vertex where an array is expected).
    """
    arr = np.asarray(values)
    if arr.ndim == 0:
        raise GraphError(f"{name} must be a 1-D sequence, got a scalar")
    if arr.ndim != 1:
        raise GraphError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        if arr.size and not np.all(arr == np.floor(arr)):
            raise GraphError(f"{name} contains non-integral floats")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind in ("i", "u"):
        arr = arr.astype(np.int64, copy=False)
    elif arr.dtype.kind == "b":
        raise GraphError(f"{name} must contain integers, got booleans")
    else:
        raise GraphError(f"{name} must contain integers, got dtype {arr.dtype}")
    return arr


def check_vertex_ids(ids, n_vertices: int, name: str = "vertices") -> np.ndarray:
    """Validate that every id is in ``[0, n_vertices)``; returns int64 array."""
    arr = as_index_array(ids, name)
    if arr.size:
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi >= n_vertices:
            bad = lo if lo < 0 else hi
            raise VertexError(
                f"{name}: vertex id {bad} out of range [0, {n_vertices})"
            )
    return arr


def check_same_length(named_arrays: Iterable[tuple[str, np.ndarray]]) -> int:
    """Ensure all arrays share one length; returns it (0 if no arrays)."""
    length = None
    first_name = ""
    for name, arr in named_arrays:
        if length is None:
            length = len(arr)
            first_name = name
        elif len(arr) != length:
            raise GraphError(
                f"length mismatch: {first_name} has {length} entries but "
                f"{name} has {len(arr)}"
            )
    return length or 0


def check_op_codes(op, name: str = "op") -> np.ndarray:
    """Validate +1 (insert) / -1 (delete) update codes; returns an int8 array.

    Checked before the narrowing cast, so a code such as 257 cannot wrap
    into a valid one.
    """
    arr = np.asarray(op)
    if arr.ndim != 1:
        raise GraphError(f"{name} must be 1-D, got shape {arr.shape}")
    bad = arr[(arr != 1) & (arr != -1)]
    if bad.size:
        raise GraphError(
            f"{name}: update code {bad[0]} is neither +1 (insert) nor -1 (delete)"
        )
    return arr.astype(np.int8, copy=False)


def check_probability(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value
