"""Shared utilities: deterministic seeding, timing, MUPS math, validation.

These helpers are deliberately tiny and dependency-free (numpy only) so that
every other subpackage can import them without cycles.
"""

from repro.util.seeding import DEFAULT_SEED, make_rng, mix_seed
from repro.util.timing import Timer, format_seconds
from repro.util.jsonify import jsonify
from repro.util.mups import mups, updates_per_second, speedup_series
from repro.util.validation import (
    as_index_array,
    check_vertex_ids,
    check_same_length,
    check_probability,
)

__all__ = [
    "DEFAULT_SEED",
    "make_rng",
    "mix_seed",
    "Timer",
    "format_seconds",
    "jsonify",
    "mups",
    "updates_per_second",
    "speedup_series",
    "as_index_array",
    "check_vertex_ids",
    "check_same_length",
    "check_probability",
]
