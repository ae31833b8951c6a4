#!/usr/bin/env python
"""Documentation checker: links, path references, and runnable examples.

Stdlib-only, run by the ``docs`` CI job (and locally) in two modes:

``python tools/check_docs.py``
    Verify that every relative markdown link in the documentation set
    resolves to a real file, and that every back-ticked repository path
    (``src/repro/...``, ``docs/...``, ``tests/...``, ...) names something
    that actually exists.  Absolute URLs, anchors and badge links that
    escape the repository root are skipped.

``python tools/check_docs.py --doctest``
    Extract every fenced ``pycon`` block from the documentation set and
    execute it under :mod:`doctest`.  Blocks within one file share a
    globals namespace (so a later example can use an earlier import),
    and any output mismatch fails the run.

The documentation set is README.md, DESIGN.md, EXPERIMENTS.md,
ROADMAP.md and ``docs/*.md``.  Exit status is the number of problems.
"""

from __future__ import annotations

import argparse
import doctest
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: The documentation set the checks cover.
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")

#: Markdown inline links: [text](target).  Images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Back-ticked repository paths, e.g. `src/repro/core/bfs.py`.
_PATH_RE = re.compile(
    r"`((?:src|docs|tests|benchmarks|examples|tools|\.github)/[A-Za-z0-9_./-]+)`"
)

#: Fenced pycon examples: ```pycon ... ```.
_PYCON_RE = re.compile(r"```pycon\n(.*?)```", re.DOTALL)


def doc_files() -> list[Path]:
    """The markdown files under check, in a stable order."""
    files = [REPO / name for name in DOC_FILES if (REPO / name).is_file()]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return files


def _iter_outside_code_fences(text: str):
    """Yield (line_number, line) for lines outside fenced code blocks.

    Fenced blocks hold example shell output and ASCII diagrams whose
    bracket syntax is not markdown; link checking only applies outside.
    """
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def check_links(path: Path) -> list[str]:
    """Problems with the markdown links and path references of one file."""
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(REPO)

    for lineno, line in _iter_outside_code_fences(text):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure in-page anchor
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.is_relative_to(REPO):
                # e.g. the README CI badge (../../actions/...), which is a
                # GitHub-site path, not a repository file.
                continue
            if not resolved.exists():
                problems.append(f"{rel}:{lineno}: broken link -> {target}")

        for match in _PATH_RE.finditer(line):
            token = match.group(1)
            if any(ch in token for ch in "*{<") or "..." in token:
                continue  # glob, placeholder or ellipsis, not a literal path
            if not (REPO / token).exists():
                problems.append(f"{rel}:{lineno}: missing path -> {token}")

    return problems


def run_doctests(path: Path) -> tuple[int, list[str]]:
    """Execute the file's ``pycon`` fences; returns (n_examples, problems)."""
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(REPO)
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    globs: dict = {}  # shared across the file's blocks, like a fresh REPL
    n_examples = 0
    problems: list[str] = []
    for i, match in enumerate(_PYCON_RE.finditer(text)):
        block = match.group(1)
        lineno = text[: match.start()].count("\n") + 1
        test = parser.get_doctest(block, globs, f"{rel}[block {i}]", str(rel), lineno)
        if not test.examples:
            continue
        n_examples += len(test.examples)
        out: list[str] = []
        result = runner.run(test, out=out.append, clear_globs=False)
        globs.update(test.globs)  # get_doctest copies; carry state forward
        if result.failed:
            problems.append(f"{rel}:{lineno}: {result.failed} doctest failure(s)\n" + "".join(out))
    return n_examples, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--doctest",
        action="store_true",
        help="execute fenced pycon examples instead of checking links",
    )
    args = ap.parse_args(argv)

    files = doc_files()
    problems: list[str] = []
    if args.doctest:
        total = 0
        for path in files:
            n, probs = run_doctests(path)
            total += n
            problems.extend(probs)
        print(f"ran {total} doctest examples across {len(files)} files")
    else:
        for path in files:
            problems.extend(check_links(path))
        print(f"checked links and path references in {len(files)} files")

    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
