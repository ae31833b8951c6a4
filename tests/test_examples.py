"""The self-checking examples run to the end.

``examples/incremental_connectivity.py`` asserts on every batch that the
maintained forest and a from-scratch rebuild answer the same queries, and
ends with :meth:`ConnectivityIndex.validate`.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_incremental_connectivity_example():
    spec = importlib.util.spec_from_file_location(
        "incremental_connectivity", REPO / "examples" / "incremental_connectivity.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.main()
