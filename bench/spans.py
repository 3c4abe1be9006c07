"""In-memory span recorder for the traced benchmark run.

A span is (name, index, start, end, parent index, attrs). Spans are taken
around calls into a module's public functions as the calling module
references them:
`patch(module, attr, name)` replaces `module.attr` with a recording wrapper,
so every caller that looks the name up at call time goes through it.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    index: int
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             attrs_of: Callable[[Any], dict] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, len(self.spans), time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._stack.append(span.index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs.update(attrs_of(result))
            return result
        return traced

    def patch(self, module: object, attr: str, name: str,
              attrs_of: Callable[[Any], dict] | None = None) -> None:
        """Route module.attr through a span; raises if the name is gone."""
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, attrs_of))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(c.seconds for c in self.children(span))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s.name, "index": s.index, "start": s.start,
                        "end": s.end, "parent": s.parent, "attrs": s.attrs}
                       for s in self.spans], fh)
