"""Every public name under ``src/repro`` is reached by the program.

A name listed in a module's ``__all__`` must be referenced somewhere in
``src/``, ``bench/``, ``benchmarks/``, ``tools/``, ``examples/`` or
``.github/`` other than by its own definition and its re-exports (an
``import`` of it or its string in an ``__all__``).  Tests do not count: a
name only tests reach is code nothing runs.  ``KEEP`` lists the exceptions,
each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "bench", "benchmarks", "tools", "examples", ".github")

#: ``module:name`` -> why the name stays although nothing above reaches it.
_ABLATION = "an ablation: experiments.report runs it as getattr(ablations, f'run_{key}')"
_REFERENCE_GRAPH = "test seam: a reference graph the tests build their cases from"
KEEP = {
    **{
        f"repro.experiments.ablations:run_{key}": _ABLATION
        for key in (
            "resize_policy", "degree_thresh", "stream_order", "mix_ratio",
            "compression", "delta_sweep", "connectit_matrix",
        )
    },
    **{
        f"repro.generators.reference:{name}_graph": _REFERENCE_GRAPH
        for name in ("complete", "cycle", "grid", "path", "star")
    },
    "repro.generators.reference:to_networkx": "test seam: the bridge to the "
    "networkx oracles the kernels are checked against",
    "repro.core.betweenness:temporal_bc_exact": "reference implementation: the "
    "path-enumerating oracle temporal_betweenness is checked against",
    "repro.obs.manifest:current_manifest": "test seam: tests/obs/conftest.py "
    "saves and restores the process manifest through it",
    "repro.obs.sink:read_jsonl": "test seam: the CLI tests read what "
    "`repro trace --out` writes through it",
    "repro.obs.trace:current_tracer": "test seam: tests assert which tracer a "
    "span records into",
    "repro.obs.trace:tracing_enabled": "test seam: tests assert that no "
    "process tracer is left installed",
}


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def _defined(tree: ast.Module) -> set[str]:
    """Names a module binds itself (not through an import)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        names.add(n.id)
    return names


def _python_uses(tree: ast.Module) -> set[str]:
    """Identifiers a module reads: loaded names and attribute accesses."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def public_definitions() -> dict[str, str]:
    """``name -> module:name`` for every ``__all__`` entry a module defines."""
    found: dict[str, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _defined(tree)
        for name in _all_names(tree):
            if name in own:
                found.setdefault(name, f"{_module_name(path)}:{name}")
    return found


def referenced_identifiers() -> set[str]:
    used: set[str] = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8", errors="ignore")
            if path.suffix == ".py":
                used |= _python_uses(ast.parse(text))
            else:
                used |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return used


def test_every_public_name_is_reached_outside_tests():
    used = referenced_identifiers()
    unreached = sorted(
        qual for name, qual in public_definitions().items() if name not in used
    )
    unexplained = [q for q in unreached if q not in KEEP]
    assert not unexplained, (
        "public names nothing outside tests/ reaches (delete them, or add "
        f"them to KEEP with a reason): {unexplained}"
    )


def test_keep_list_is_current():
    defined = set(public_definitions().values())
    used = referenced_identifiers()
    stale = [q for q in KEEP if q not in defined or q.split(":")[1] in used]
    assert not stale, f"KEEP entries that are gone or now reached: {stale}"
