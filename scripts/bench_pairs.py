#!/usr/bin/env python3
"""Alternating benchmark runs of a base revision and this tree, paired by seed.

    python3 scripts/bench_pairs.py --workload pretrain_medium --base HEAD --seeds 31 32 33 34

The base revision is exported with ``git archive`` into a temporary directory,
and this tree's files are copied into another as they are on disk: tracked
files with their uncommitted edits, and untracked files that are not ignored.
So both sides run from fresh directories. Run in place, the tree read
predict_smoke 7-10% slower than an export of the same code. An export,
unlike a worktree, leaves nothing in the repository if the script is killed.
Per seed ``perfbench/run.py`` runs once from each export, the side that goes
first alternating, so drift in the host's speed falls on both sides.
Each run's last output line is its JSON result. Each pair is printed as it
completes. A failed run prints its seed, side, exit code and the tail of its
stderr, and the script goes on with the next seed. At the end, for every
end-to-end metric the script prints the pairs (base -> tree), each side's
median [quartiles], the pairs this tree won and a verdict from the metric's
``better`` and ``bound`` in BENCHMARK.json, then the seeds whose output
digests matched and the runs that failed. With ``--out PATH`` it also writes
the series into the JSON file at PATH, under the workload's name, keeping
what the file holds for other workloads: the base and tree revisions, the
seeds, each run's environment line and output digest, and per metric both
sides' values seed by seed, their medians and quartiles, the pairs the tree
won and the verdict. Beside the benchmark's metrics it
reports ``cpu_s``, the CPU seconds (user plus system, all threads) each run
took, so that a change that buys wall-clock time with a second core shows
what it spends; ``cpu_s`` gets no verdict. The verdicts:

- gain: the tree won at least 9/10 of the pairs, and its median is better
  than the base's by more than the base's interquartile range;
- regression: the tree's median is worse than the base's by more than the
  bound, a fraction of the base's median;
- unresolved: neither, the base's interquartile range is wider than the
  bound, and some run of the tree is no better than some run of the base;
- no change: none of these (a spread wider than the bound is no doubt about
  a regression when every tree run beats every base run).
"""

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STDERR_TAIL = 20  # lines of a failed run's stderr to print


def export_revision(root: str, rev: str, dest: str) -> None:
    """The files of revision ``rev`` of the repository at ``root``, written into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=root, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(root: str, dest: str) -> None:
    """The files of the working tree at ``root`` as they are on disk, copied
    into ``dest``: tracked files, edited or not, and untracked files that are
    not ignored. A tracked file deleted from the tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, capture_output=True, check=True).stdout
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        if os.path.isfile(os.path.join(root, name)):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(root, name), os.path.join(dest, name))


def run_child(argv: list[str], cwd: str) -> tuple[str, float]:
    """Run ``argv`` to its end: its stdout and the CPU seconds, user plus
    system, that it and the children it waited for used. A run that exits
    non-zero raises CalledProcessError, which holds its stderr."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    stdout = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=True).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return stdout, after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime


def run(tree: str, workload: str, seed: int, seconds: int) -> tuple[dict, str | None, dict | None]:
    """One benchmark run: each metric's value, with fail_rate and cpu_s added,
    the output digest and the environment (numpy, BLAS, nproc, Python,
    thread pins) that the run reports."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    stdout, cpu_s = run_child(argv, tree)
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["fail_rate"] = result["failed"] / result["attempted"]
    values["cpu_s"] = cpu_s
    digest = next((line[len("digest="):] for line in lines if line.startswith("digest=")), None)
    env = next((json.loads(line[len("env "):]) for line in lines if line.startswith("env ")), None)
    return values, digest, env


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(xs: list[float]) -> str:
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(vals: list[tuple[float, float]], won: int, direction: str, bound: float) -> str:
    """The verdict on (base, tree) pairs of one metric; see the module docstring."""
    bases, trees = [b for b, _ in vals], [t for _, t in vals]
    q1, base, q3 = quartiles(bases)
    gain = statistics.median(trees) - base
    every_run_better = min(trees) > max(bases)
    if direction == "lower":
        gain = -gain
        every_run_better = max(trees) < min(bases)
    if won >= 0.9 * len(vals) and gain > q3 - q1:
        return "gain"
    if -gain > bound * abs(base):
        return "regression"
    if q3 - q1 > bound * abs(base) and not every_run_better:
        return "unresolved"
    return "no change"


def revisions(root: str, base: str) -> dict:
    """The commit ``base`` names and the tree's: its HEAD commit and whether
    it holds changes not committed there."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True, check=True).stdout.strip()
    return {"base": git("rev-parse", "--verify", f"{base}^{{commit}}"), "tree": git("rev-parse", "HEAD"),
            "tree_uncommitted": bool(git("status", "--porcelain", "--untracked-files=normal"))}


def read_series_file(path: str) -> dict:
    """The JSON object in the file at ``path``, keyed by workload; {} if
    there is no file yet."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD or main")
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed (at least 2)")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--out", help="JSON file to write the series into, under the workload's name")
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("give at least 2 seeds")
    try:  # before any run, so a bad file costs no runs
        series_file = read_series_file(args.out) if args.out else {}
    except ValueError as e:  # also a file that is not JSON
        p.error(f"--out: {e}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    better["fail_rate"] = better["cpu_s"] = "lower"
    # each metric's quartiles are [q1, median, q3]
    series = {**revisions(ROOT, args.base), "workload": args.workload, "seeds": args.seeds,
              "seconds": args.seconds, "runs": [], "metrics": {}}
    pairs = []
    failed = []  # (seed, side, exit code)
    with (tempfile.TemporaryDirectory(prefix="bench-base-") as base,
          tempfile.TemporaryDirectory(prefix="bench-tree-") as tree):
        export_revision(ROOT, args.base, base)
        export_worktree(ROOT, tree)
        sides = {base: "base", tree: "tree"}
        for i, seed in enumerate(args.seeds):
            order = (base, tree) if i % 2 == 0 else (tree, base)
            out = {}
            for where in order:
                try:
                    out[where] = run(where, args.workload, seed, args.seconds)
                except subprocess.CalledProcessError as e:
                    failed.append((seed, sides[where], e.returncode))
                    print(f"seed {seed} {sides[where]} failed with exit code {e.returncode}:",
                          *e.stderr.splitlines()[-STDERR_TAIL:], sep="\n", flush=True)
            if len(out) < 2:
                continue
            (b, db, eb), (t, dt, et) = out[base], out[tree]
            pairs.append((seed, out[base], out[tree]))
            series["runs"].append({"seed": seed, "first": sides[order[0]], "base": {"digest": db, "env": eb},
                                   "tree": {"digest": dt, "env": et}})
            shown = ", ".join(f"{name} {b[name]:.6g} -> {t[name]:.6g}" for name in better if name in b and name in t)
            print(f"seed {seed} ({sides[order[0]]} first): {shown}; digest {'equal' if db == dt else 'differs'}",
                  flush=True)
    for name, direction in better.items():
        paired = [(seed, b[name], t[name]) for seed, (b, *_), (t, *_) in pairs if name in b and name in t]
        if not paired:
            continue
        vals = [(b, t) for _, b, t in paired]
        won = sum((t > b) if direction == "higher" else (t < b) for b, t in vals)
        bases, trees = [b for b, _ in vals], [t for _, t in vals]
        print(f"{name} ({direction} is better): tree won {won}/{len(vals)}")
        print("  pairs: " + ", ".join(f"{b:.6g} -> {t:.6g}" for b, t in vals))
        print(f"  base {summary(bases)}   tree {summary(trees)}")
        entry = series["metrics"][name] = {
            "better": direction, "seeds": [seed for seed, *_ in paired], "base": bases, "tree": trees,
            "quartiles": {"base": quartiles(bases), "tree": quartiles(trees)}, "won": won}
        if name in bounds:
            entry["bound"], entry["verdict"] = bounds[name], verdict(vals, won, direction, bounds[name])
            print(f"  verdict: {entry['verdict']} (bound {bounds[name]:.0%})")
    same = [seed for seed, (_, db, _), (_, dt, _) in pairs if db == dt]
    print(f"digest equal on {len(same)}/{len(pairs)} seeds; differs on {[s for s, *_ in pairs if s not in same]}")
    print(f"failed runs: {len(failed)}" + "".join(f"\n  seed {s} {side}: exit code {rc}" for s, side, rc in failed))
    if args.out:
        series["failed"] = [{"seed": s, "side": side, "exit_code": rc} for s, side, rc in failed]
        series_file[args.workload] = series
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(json.dumps(series_file, indent=2, sort_keys=True) + "\n")
        print(f"wrote the series to {args.out} under {args.workload!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
