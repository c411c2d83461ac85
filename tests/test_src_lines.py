"""``scripts/src_lines.py``: the code lines of a module, and the per-module
table of a revision against the working tree."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import script

src_lines = script("src_lines")

MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment line
class A:
    """Class docstring."""

    x = """a string
that is not a docstring"""

    def f(self):
        """Function docstring."""
        return (1,
                2)


def g(): return "no docstring here"
'''


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines():
    # import, class, x (two lines), def f, return (two lines), def g
    assert src_lines.code_lines(MODULE) == 8
    assert src_lines.code_lines("") == 0
    assert src_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0
    assert src_lines.code_lines('x = 1\n"""A string after code is no docstring."""\n') == 2


def test_base_against_the_working_tree(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv], cwd=repo, check=True,
                       capture_output=True)

    (repo / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (repo / "src" / "pkg" / "gone.py").write_text("z = 3\n", encoding="utf-8")
    (repo / "notes.py").write_text("outside = 1\n", encoding="utf-8")  # not under src/
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (repo / "src" / "pkg" / "gone.py").unlink()
    (repo / "src" / "pkg" / "new.py").write_text(MODULE, encoding="utf-8")
    assert src_lines.count_tree(str(repo)) == {"pkg/a.py": 1, "pkg/new.py": 8}
    monkeypatch.setattr(src_lines, "ROOT", str(repo))
    assert src_lines.main(["--base", "HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "base", "tree", "change"],
        ["pkg/a.py", "2", "1", "-1"],
        ["pkg/gone.py", "1", "0", "-1"],
        ["pkg/new.py", "0", "8", "+8"],
        ["total", "3", "9", "+6"],
    ]
    assert src_lines.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "9"]


def test_outside_a_git_work_tree(tmp_path):
    # an export of the repository's scripts and src/, with no .git above it
    root = tmp_path / "export"
    (root / "scripts").mkdir(parents=True)
    (root / "src" / "pkg").mkdir(parents=True)
    for name in ("src_lines.py", "bench_pairs.py"):
        (root / "scripts" / name).write_text(Path(src_lines.__file__).with_name(name).read_text(encoding="utf-8"),
                                             encoding="utf-8")
    (root / "src" / "pkg" / "a.py").write_text(MODULE, encoding="utf-8")
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path)}

    def run(*argv):
        return subprocess.run([sys.executable, "scripts/src_lines.py", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)

    on_disk = run()
    assert on_disk.returncode == 0, on_disk.stderr
    assert on_disk.stdout.splitlines() == ["pkg/a.py  8", "total     8"]
    with_base = run("--base", "HEAD")
    assert with_base.returncode == 2
    assert with_base.stdout == ""
    assert len(with_base.stderr.splitlines()) == 1 and "needs a git work tree" in with_base.stderr
