#!/usr/bin/env python3
"""List the statements of `src/diffalg` that a pytest run never executes.

    python3 scripts/unrun_lines.py                         # pytest tests -q
    python3 scripts/unrun_lines.py -- tests/test_monoid.py -q

Arguments after `--` go to pytest.  The run happens in this process, under
`sys.settrace` and `threading.settrace`, with the tracer installed before
`diffalg` is imported, so the statements that run at import time count.
Only the standard library is used.  Code that runs only in a subprocess
(the CLI's `__main__` block, say) is not seen.

A statement is an `ast.stmt` node, named by its first line; docstrings do
not count.  It has run when a line event fired on any of its lines.  The
output is one `module: lines` row for each module with unrun statements,
then the total; the exit code is pytest's.
"""

import ast
import os
import sys
import threading

from code_lines import docstrings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "diffalg")


def statements(source: str) -> dict[int, range]:
    """The first line of each statement, with the lines it spans."""
    tree = ast.parse(source)
    skipped = docstrings(tree)
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in skipped:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            spans[node.lineno] = range(start, node.end_lineno + 1)
    return spans


def unrun(path: str, hit: set[int]) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        spans = statements(fh.read())
    return sorted(first for first, span in spans.items() if hit.isdisjoint(span))


def main(argv: list[str]) -> int:
    args = argv[argv.index("--") + 1 :] if "--" in argv else ["tests", "-q"]
    hits: dict[str, set[int]] = {}
    # one local tracer per file: a tracer returns itself, so one made per
    # call would leave a reference cycle for the collector after every call
    tracers = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        local = tracers.get(path)
        if local is None:
            lines = hits.setdefault(path, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            tracers[path] = local
        return local

    import pytest

    sys.path.insert(0, os.path.dirname(PACKAGE))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            missed = unrun(path, hits.get(path, set()))
            if missed:
                print(f"{name[:-3]}: {', '.join(map(str, missed))}")
            total += len(missed)
    print(f"total: {total} unrun statements")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
