"""``scripts/step_memory.py``: one training step's traced peak and the
memory it holds when ``cross_entropy`` returns, on a tiny shape."""

import re

from t2tbio import model, worker

from helpers import script
from test_model import TINY

step_memory = script("step_memory")


def test_prints_both_figures_for_each_shape(monkeypatch, capsys):
    monkeypatch.setattr(step_memory, "SHAPES", {"tiny": (TINY, 3, 5, 4)})
    assert step_memory.main([]) == 0
    line = capsys.readouterr().out.strip()
    m = re.fullmatch(r"tiny: B=3 S=5 T=4 d=8  peak ([\d.]+) MiB  held at cross_entropy ([\d.]+) MiB", line)
    assert m, line
    peak, held = map(float, m.groups())
    assert 0 < held <= peak


def test_measure_leaves_model_and_worker_as_it_found_them():
    cross_entropy, min_size = model.cross_entropy, worker.MIN_SIZE
    peak, held = step_memory.measure(TINY, 2, 4, 3)
    assert 0 < held <= peak
    assert model.cross_entropy is cross_entropy and worker.MIN_SIZE == min_size
