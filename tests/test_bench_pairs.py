"""``scripts/bench_pairs.py``'s verdict on the (base, tree) pairs of one
metric, the CPU time it reports per run, the two trees it exports and the
pairs it makes of their runs."""

import json
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


def mark(side):
    """An export that writes a file naming ``side`` into its destination."""
    def export(*args):
        with open(os.path.join(args[-1], "side"), "w", encoding="utf-8") as f:
            f.write(side)
    return export


def test_every_pair_holds_one_run_of_each_side(monkeypatch, capsys):
    # each side's export holds a file naming it; every run reports the side
    # it ran in, so a pair that ran one side twice shows in the output
    def fake_run(tree, workload, seed, seconds):
        with open(os.path.join(tree, "side"), encoding="utf-8") as f:
            side = f.read()
        return {"tokens_per_s": {"base": 1.0, "tree": 2.0}[side], "fail_rate": 0.0, "cpu_s": 0.0}, side, None

    monkeypatch.setattr(bench_pairs, "export_revision", mark("base"))
    monkeypatch.setattr(bench_pairs, "export_worktree", mark("tree"))
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--workload", "w", "--base", "HEAD", "--seeds", "1", "2", "3"])
    assert bench_pairs.main() == 0
    out = capsys.readouterr().out
    assert out.count(": tokens_per_s 1 -> 2,") == 3
    assert "tree won 3/3" in out


def seeded_run(tree, workload, seed, seconds):
    """A run that reports the side it ran in: its tokens_per_s, digest and env."""
    with open(os.path.join(tree, "side"), encoding="utf-8") as f:
        side = f.read()
    tokens = {"base": 1.0, "tree": 2.0}[side] * seed
    return {"tokens_per_s": tokens, "fail_rate": 0.0, "cpu_s": 0.0}, f"d{seed}", {"side": side, "seed": seed}


def bench(monkeypatch, *argv):
    monkeypatch.setattr(bench_pairs, "export_revision", mark("base"))
    monkeypatch.setattr(bench_pairs, "export_worktree", mark("tree"))
    monkeypatch.setattr(bench_pairs, "run", seeded_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", *argv])
    return bench_pairs.main()


def test_out_writes_the_series_under_its_workload_and_keeps_the_others(monkeypatch, tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"other": {"kept": True}, "w": {"replaced": True}}), encoding="utf-8")
    assert bench(monkeypatch, "--workload", "w", "--seeds", "1", "2", "4", "--out", str(out)) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(doc) == ["other", "w"] and doc["other"] == {"kept": True}
    series = doc["w"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench_pairs.ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()
    assert series["base"] == series["tree"] == head
    assert series["seeds"] == [1, 2, 4] and series["workload"] == "w" and series["failed"] == []
    assert [r["seed"] for r in series["runs"]] == [1, 2, 4]
    assert [r["first"] for r in series["runs"]] == ["base", "tree", "base"]
    assert all(r[side] == {"digest": f"d{r['seed']}", "env": {"side": side, "seed": r["seed"]}}
               for r in series["runs"] for side in ("base", "tree"))
    tokens = series["metrics"]["tokens_per_s"]
    assert tokens["seeds"] == [1, 2, 4] and tokens["base"] == [1.0, 2.0, 4.0] and tokens["tree"] == [2.0, 4.0, 8.0]
    assert tokens["quartiles"] == {"base": [1.5, 2.0, 3.0], "tree": [3.0, 4.0, 6.0]}
    assert tokens["won"] == 3 and tokens["better"] == "higher"
    assert tokens["verdict"] == "gain" and tokens["bound"] == 0.24
    assert "verdict" not in series["metrics"]["cpu_s"]  # cpu_s has no bound


@pytest.mark.parametrize("content", ["[]", "{not json"], ids=["a-list", "not-json"])
def test_out_that_holds_no_json_object_is_a_usage_error_before_any_run(monkeypatch, tmp_path, capsys, content):
    out = tmp_path / "BENCH.json"
    out.write_text(content, encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "run", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        bench(monkeypatch, "--workload", "w", "--seeds", "1", "2", "--out", str(out))
    assert exc.value.code == 2
    assert out.read_text(encoding="utf-8") == content


def test_run_reads_the_metrics_the_digest_and_the_env_line(monkeypatch):
    stdout = ('env {"nproc": 2, "numpy": "2.0"}\ndigest=abc\n'
              '{"metrics": {"setup_s": {"value": 0.1}}, "failed": 1, "attempted": 4}\n')
    monkeypatch.setattr(bench_pairs, "run_child", lambda argv, cwd: (stdout, 1.5))
    values, digest, env = bench_pairs.run(".", "w", 1, 10)
    assert values == {"setup_s": 0.1, "fail_rate": 0.25, "cpu_s": 1.5}
    assert digest == "abc" and env == {"nproc": 2, "numpy": "2.0"}
