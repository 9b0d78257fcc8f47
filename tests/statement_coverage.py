"""Statement coverage of src/fabric_est under the tier-1 suite, stdlib only.

Runs the tier-1 tests in this process under sys.settrace, keeps the line
events of src/fabric_est, and lists every statement that never ran:

    PYTHONPATH=src python tests/statement_coverage.py

Docstrings, `def`, `class` and imports are not counted.  A compound
statement counts as run when any line of its header runs (so a
multi-line `if (` does), or the first line of its body, since a `try:`
need not give a line event; a simple statement when any line of it runs.
The script exits 1 when a statement outside ALLOWED never ran or an
ALLOWED one did, and with pytest's code when the tests fail.  pytest
does not collect this file; it takes about three times as long as the
plain suite.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fabric_est"

# Statements no in-process test can run, as (file, first source line).
ALLOWED = {
    # The CLI tests run the module as __main__ in a child process only.
    ("cli.py", "raise SystemExit(main())"),
    # Every tag has semantics; the raise guards a tag added without any.
    ("ir.py", 'raise EvaluationError(f"no semantics for {tag.opname}")'),
}


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on tier-1, and the lines run per package file."""
    prefix = os.path.join(PACKAGE, "")
    ran: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def tracer_for(filename: str):
        if not filename.startswith(prefix):
            return None
        add = ran.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def statements(tree: ast.Module):
    """Every counted statement of a module with the lines that run it."""
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    skipped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, skipped) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        if body:  # a compound statement: its header and its body's first line
            lines = range(node.lineno, body[0].lineno + 1)
        else:
            lines = range(node.lineno, node.end_lineno + 1)
        yield node, lines


def main() -> int:
    code, ran = run_traced()
    unexpected, stale = [], set(ALLOWED)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        source_lines = source.splitlines()
        lines_run = ran.get(str(path), set())
        for node, lines in statements(ast.parse(source, str(path))):
            key = (path.name, source_lines[node.lineno - 1].strip())
            if lines_run.isdisjoint(lines):
                stale.discard(key)
                if key not in ALLOWED:
                    unexpected.append((path, node.lineno, key[1]))
    for path, lineno, text in sorted(unexpected):
        print(f"{path.relative_to(ROOT)}:{lineno}: {text}")
    for name, text in sorted(stale):
        print(f"ran or is gone, so drop it from ALLOWED: {name}: {text}")
    print(f"{len(unexpected)} statements never ran")
    if code:
        return code
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
