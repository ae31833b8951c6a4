"""The documentation gate, runnable as part of the tier-1 suite.

Two halves: the repo's actual documentation must pass both
``tools/check_docs.py`` modes (no broken links, every ``pycon`` example
executes), and the checker itself must catch the failure classes it
exists for (broken links, missing paths, wrong doctest output) — a
checker that silently passes everything would make the CI job
decorative.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location("check_docs", REPO / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


# --------------------------------------------------------------------- #
# the real documentation passes
# --------------------------------------------------------------------- #


def test_doc_set_contains_the_expected_files():
    names = {p.name for p in check_docs.doc_files()}
    for required in ("README.md", "ARCHITECTURE.md", "CONNECTIVITY.md", "PARALLEL.md"):
        assert required in names


def test_repo_docs_have_no_broken_links():
    problems = []
    for path in check_docs.doc_files():
        problems.extend(check_docs.check_links(path))
    assert problems == []


def test_repo_doc_examples_pass_doctest():
    total = 0
    problems = []
    for path in check_docs.doc_files():
        n, probs = check_docs.run_doctests(path)
        total += n
        problems.extend(probs)
    assert problems == []
    assert total >= 15  # the architecture + connectivity walk-throughs


def test_cli_exit_status_is_problem_count():
    assert check_docs.main([]) == 0


# --------------------------------------------------------------------- #
# the checker catches what it is for
# --------------------------------------------------------------------- #


@pytest.fixture
def doc_dir(tmp_path, monkeypatch):
    """A throwaway repo root the checker is pointed at."""
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    (tmp_path / "docs").mkdir()
    return tmp_path


def test_detects_broken_relative_link(doc_dir):
    md = doc_dir / "docs" / "X.md"
    md.write_text("see [the design](../MISSING.md) for details\n")
    problems = check_docs.check_links(md)
    assert len(problems) == 1 and "MISSING.md" in problems[0]


def test_accepts_valid_link_and_skips_urls_and_anchors(doc_dir):
    (doc_dir / "DESIGN.md").write_text("# design\n")
    md = doc_dir / "docs" / "X.md"
    md.write_text(
        "[ok](../DESIGN.md) [web](https://example.com) [anchor](#section)\n"
        "[badge](../../actions/workflows/ci.yml)\n"  # escapes the repo root
    )
    assert check_docs.check_links(md) == []


def test_detects_missing_path_reference(doc_dir):
    md = doc_dir / "docs" / "X.md"
    md.write_text("the kernel lives in `src/repro/nope.py` today\n")
    problems = check_docs.check_links(md)
    assert len(problems) == 1 and "src/repro/nope.py" in problems[0]


def test_no_path_is_exempt_for_being_a_run_artifact(doc_dir):
    # A fresh checkout must satisfy the docs: a named path that does not
    # exist is a problem even when it is a gitignored output such as
    # ``report.json``.
    md = doc_dir / "docs" / "X.md"
    md.write_text(
        "the run writes `benchmarks/results.jsonl` and [a report](../report.json)\n"
    )
    problems = check_docs.check_links(md)
    assert len(problems) == 2 and all(p.startswith("docs/X.md:1:") for p in problems)


def test_path_references_inside_code_fences_are_ignored(doc_dir):
    md = doc_dir / "docs" / "X.md"
    md.write_text("```\n`src/repro/nope.py` [broken](../MISSING.md)\n```\n")
    assert check_docs.check_links(md) == []


def test_doctest_failure_is_reported(doc_dir):
    md = doc_dir / "docs" / "X.md"
    md.write_text("```pycon\n>>> 1 + 1\n3\n```\n")
    n, problems = check_docs.run_doctests(md)
    assert n == 1 and len(problems) == 1


def test_doctest_globals_are_shared_across_blocks(doc_dir):
    md = doc_dir / "docs" / "X.md"
    md.write_text(
        "```pycon\n>>> x = 21\n```\nprose between blocks\n```pycon\n>>> x * 2\n42\n```\n"
    )
    n, problems = check_docs.run_doctests(md)
    assert n == 2 and problems == []
