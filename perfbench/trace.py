"""In-memory span tracer that wraps public functions where their callers look
them up.

A span has a name (the layer), start and end (``perf_counter`` seconds),
the index of its parent span, the step or example id current when it opened,
whether it raised, and a small dict of counts its hook recorded. Spans stay in
memory until ``write`` puts them out as JSON lines, together with each
layer's self time: its spans' durations minus the part their child spans
cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op_id: str | None = None
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(index=idx, name=name, start=time.perf_counter(), parent=parent, op_id=self.op_id))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: bool = False) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        except BaseException:
            self._close(idx, error=True)
            raise
        self._close(idx)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name``; ``hook(span, args, kwargs, result)`` may add counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(idx, error=True)
                raise
            span = self._close(idx)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @property
    def active(self) -> bool:
        """Whether any wrapper is installed."""
        return bool(self._patches)

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def named_last(self, name: str) -> Span:
        for s in reversed(self.spans):
            if s.name == name:
                return s
        raise KeyError(name)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                out.setdefault(s.parent, []).append(i)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time its direct children
        cover (children of one span never overlap: calls are synchronous)."""
        kids = self.children()
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            covered = sum(self.spans[k].duration for k in kids.get(i, ()))
            out[s.name] = out.get(s.name, 0.0) + s.duration - covered
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": s.index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op_id,
                            "error": s.error,
                            **({"info": s.info} if s.info else {}),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            f.write(json.dumps({"self_s": self.self_times()}, sort_keys=True) + "\n")
