"""``scripts/bench_pairs.py``'s verdict on the (base, tree) pairs of one
metric, the CPU time it reports per run, the two trees it exports and the
pairs it makes of their runs."""

import os
import subprocess
import sys

import pytest

from helpers import script

bench_pairs = script("bench_pairs")
verdict = bench_pairs.verdict


def pairs(bases, trees):
    return list(zip(bases, trees))


def won(vals, direction):
    return sum((t > b) if direction == "higher" else (t < b) for b, t in vals)


@pytest.mark.parametrize(
    "bases, trees, direction, expected",
    [
        # every tree run beats every base run, but the base's spread (IQR 1950)
        # is wider than the bound and than the median gain: not unresolved
        pytest.param([3000, 3100, 5000, 5100], [5200, 5250, 5300, 5350], "higher", "no change",
                     id="wide-spread-every-tree-run-better"),
        pytest.param([3000, 2900, 1000, 900], [800, 750, 700, 650], "lower", "no change",
                     id="wide-spread-every-tree-run-lower"),
        pytest.param([3000, 3100, 5000, 5100], [3050, 5200, 5250, 5300], "higher", "unresolved",
                     id="wide-spread-overlapping-runs"),
        pytest.param([100, 101, 102, 103], [110, 111, 112, 113], "higher", "gain", id="gain"),
        pytest.param([100, 101, 102, 103], [70, 71, 72, 73], "higher", "regression", id="regression"),
        pytest.param([100, 101, 102, 103], [100, 102, 101, 103], "higher", "no change", id="no-change"),
    ],
)
def test_verdict(bases, trees, direction, expected):
    vals = pairs(bases, trees)
    assert verdict(vals, won(vals, direction), direction, 0.24) == expected


def test_run_child_counts_the_cpu_time_of_that_run_alone():
    # a child that spins for 0.4 s of CPU time, then one that sleeps 0.4 s
    spin = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.4: pass\nprint('spun')"
    stdout, busy = bench_pairs.run_child([sys.executable, "-c", spin], ".")
    assert stdout == "spun\n"
    assert 0.4 <= busy < 2.0
    _, idle = bench_pairs.run_child([sys.executable, "-c", "import time; time.sleep(0.4)"], ".")
    assert idle < 0.35
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.run_child([sys.executable, "-c", "raise SystemExit(3)"], ".")


def test_export_worktree_copies_edits_and_untracked_files_but_not_ignored_ones(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    repo.mkdir()

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv], cwd=repo, check=True,
                       capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n", encoding="utf-8")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (repo / "gone.py").write_text("", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("x = 2\n", encoding="utf-8")  # an uncommitted edit
    (repo / "pkg" / "new.py").write_text("y = 3\n", encoding="utf-8")  # untracked
    (repo / "pkg" / "run.log").write_text("ignored\n", encoding="utf-8")
    (repo / "gone.py").unlink()
    bench_pairs.export_worktree(str(repo), str(dest))
    exported = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert exported == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text(encoding="utf-8") == "x = 2\n"
    bench_pairs.export_revision(str(repo), "HEAD", str(tmp_path / "base"))
    assert (tmp_path / "base" / "pkg" / "mod.py").read_text(encoding="utf-8") == "x = 1\n"


def test_every_pair_holds_one_run_of_each_side(monkeypatch, capsys):
    # each side's export holds a file naming it; every run reports the side
    # it ran in, so a pair that ran one side twice shows in the output
    def mark(side):
        def export(*args):
            with open(os.path.join(args[-1], "side"), "w", encoding="utf-8") as f:
                f.write(side)
        return export

    def fake_run(tree, workload, seed, seconds):
        with open(os.path.join(tree, "side"), encoding="utf-8") as f:
            side = f.read()
        return {"tokens_per_s": {"base": 1.0, "tree": 2.0}[side], "fail_rate": 0.0, "cpu_s": 0.0}, side

    monkeypatch.setattr(bench_pairs, "export_revision", mark("base"))
    monkeypatch.setattr(bench_pairs, "export_worktree", mark("tree"))
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--workload", "w", "--base", "HEAD", "--seeds", "1", "2", "3"])
    assert bench_pairs.main() == 0
    out = capsys.readouterr().out
    assert out.count(": tokens_per_s 1 -> 2,") == 3
    assert "tree won 3/3" in out
