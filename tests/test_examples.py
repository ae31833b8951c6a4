"""Every example runs to the end.

``examples/incremental_connectivity.py`` asserts on every batch that the
maintained forest and a from-scratch rebuild answer the same queries, and
ends with :meth:`ConnectivityIndex.validate`.  The other examples run in a
subprocess from an empty working directory: each must exit 0 and, since no
example writes files, leave the directory empty.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(
    p.stem for p in (REPO / "examples").glob("*.py") if p.stem != "incremental_connectivity"
)


def test_incremental_connectivity_example():
    spec = importlib.util.spec_from_file_location(
        "incremental_connectivity", REPO / "examples" / "incremental_connectivity.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.main()


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
