"""In-memory span tracer that wraps module-level functions from outside.

The program is not edited: ``Tracer.install`` replaces each target function
with a timing wrapper under every name it is bound to in the given modules
(modules import by name, so ``scheme.solve`` and ``cli.solve`` are the same
object as ``plap_solver.solve``), and ``Tracer.restore`` puts the originals
back.  Spans are kept in a list and written out after the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterable, Iterator, Mapping

# extract(args, kwargs, result) -> small dict of counts kept on the span
Extractor = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a top-level span
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every installed target function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[ModuleType, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, extract: Extractor | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        return traced

    def install(
        self,
        modules: Iterable[ModuleType],
        targets: Mapping[str, tuple[Callable, Extractor | None]],
    ) -> None:
        """Wrap every target under each module attribute bound to it."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = list(modules)
        for name, (fn, extract) in targets.items():
            wrapper = self.wrap(name, fn, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._bindings.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, info."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    @property
    def bindings(self) -> list[tuple[ModuleType, str, Callable]]:
        return list(self._bindings)

    @contextlib.contextmanager
    def installed(
        self,
        modules: Iterable[ModuleType],
        targets: Mapping[str, tuple[Callable, Extractor | None]],
    ) -> Iterator["Tracer"]:
        self.install(modules, targets)
        try:
            yield self
        finally:
            self.restore()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children[span.parent].append((max(span.start, parent.start), min(span.end, parent.end)))
    return [span.duration - _covered(kids) for span, kids in zip(spans, children)]


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out
