"""Percentiles that carry their sample counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pct:
    """One percentile of a sample: its value, the sample size, and how many
    samples lie strictly above it."""

    value: float
    n: int
    beyond: int

    def describe(self) -> str:
        return f"n={self.n}, {self.beyond} beyond"


def pct(values, q: float) -> Pct:
    """The q-th percentile (numpy's linear interpolation), q in [0, 100]."""
    xs = np.asarray(list(values), dtype=float)
    v = float(np.percentile(xs, q))
    return Pct(value=v, n=int(xs.size), beyond=int((xs > v).sum()))
