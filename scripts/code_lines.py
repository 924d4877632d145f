#!/usr/bin/env python3
"""Count the code lines of each `src/diffalg` module.

A code line holds a token of the program: blank lines, comment lines and
docstrings (the string that opens a module, class or function body) do not
count.  A statement or string that spans several lines counts each of them.

    python3 scripts/code_lines.py                 # the working tree
    python3 scripts/code_lines.py --against HEAD~1

--against REF reads the modules of that git ref through `git show` and
prints both counts and their difference, module by module.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/diffalg"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstrings(tree: ast.AST) -> list[ast.Expr]:
    """The string statements that open a module, class or function body."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.append(first)
    return out


def code_lines(source: str) -> int:
    skipped = {line for doc in docstrings(ast.parse(source)) for line in range(doc.lineno, doc.end_lineno + 1)}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skipped)


def working_tree() -> dict[str, str]:
    folder = os.path.join(ROOT, PACKAGE)
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def at_ref(ref: str) -> dict[str, str]:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout

    names = git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {name: git("show", f"{ref}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", help="also count the modules of this git ref")
    args = parser.parse_args(argv)
    now = {name: code_lines(text) for name, text in working_tree().items()}
    if args.against is None:
        for name, count in now.items():
            print(f"{name:16} {count:6}")
        print(f"{'total':16} {sum(now.values()):6}")
        return 0
    try:
        before = {name: code_lines(text) for name, text in at_ref(args.against).items()}
    except subprocess.CalledProcessError as err:
        print(f"code_lines.py: cannot read {args.against}: {err.stderr.strip()}", file=sys.stderr)
        return 2
    print(f"{'module':16} {args.against[:12]:>12} {'now':>6} {'change':>7}")
    for name in sorted(before.keys() | now.keys()):
        a, b = before.get(name, 0), now.get(name, 0)
        print(f"{name:16} {a:12} {b:6} {b - a:+7}")
    a, b = sum(before.values()), sum(now.values())
    print(f"{'total':16} {a:12} {b:6} {b - a:+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
