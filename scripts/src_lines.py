#!/usr/bin/env python3
"""Code lines per module under ``src/``, for this tree and optionally a base
revision, with the change between them.

    python3 scripts/src_lines.py              # this tree
    python3 scripts/src_lines.py --base HEAD  # HEAD, this tree and the change

A code line is a line that holds a token other than a comment, a newline or
an indent, and that token is not a docstring: the string literal that opens
a module, class or function body. A token that spans lines, such as a
multi-line string that is not a docstring, counts on every line it spans.
Blank lines, comment lines and docstrings therefore count for nothing.

The tree is counted as it is on disk, so the script also runs in a copy
without ``.git``, such as an export that ``bench_pairs.py`` makes. ``--base``
reads the revision from a ``git archive`` export, which needs a git work
tree; without one it prints so and exits 2.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tempfile
import tokenize

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, export_revision  # noqa: E402

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in the Python module ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_tree(root: str) -> dict[str, int]:
    """Code lines of each ``.py`` file under ``root/src``, keyed by its path
    relative to ``src`` with ``/`` separators."""
    src = os.path.join(root, "src")
    counts = {}
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    counts[os.path.relpath(path, src).replace(os.sep, "/")] = code_lines(f.read())
    return counts


def table(tree: dict[str, int], base: dict[str, int] | None = None) -> str:
    """One line per module and a total: the tree's count, or the base's, the
    tree's and the change. A module on one side only counts 0 on the other."""
    if base is None:
        rows = [(name, str(n)) for name, n in sorted(tree.items())] + [("total", str(sum(tree.values())))]
    else:
        rows = [("module", "base tree change")]
        for name in sorted(base.keys() | tree.keys()):
            b, t = base.get(name, 0), tree.get(name, 0)
            rows.append((name, f"{b:4d} {t:4d} {t - b:+6d}"))
        b, t = sum(base.values()), sum(tree.values())
        rows.append(("total", f"{b:4d} {t:4d} {t - b:+6d}"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {cells}" for name, cells in rows)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="git revision to compare against, e.g. HEAD or main")
    args = p.parse_args(argv)
    base = None
    if args.base is not None:
        in_git = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT, capture_output=True)
        if in_git.returncode != 0:
            print(f"src_lines.py: --base needs a git work tree, and {ROOT} is not in one", file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory(prefix="src-lines-") as tmp:
            export_revision(ROOT, args.base, tmp)
            base = count_tree(tmp)
    print(table(count_tree(ROOT), base))
    return 0


if __name__ == "__main__":
    sys.exit(main())
