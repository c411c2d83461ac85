"""``scripts/bench_pairs.py``'s verdict on the (base, tree) pairs of one
metric, and the CPU time it reports per run."""

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
