"""Span recording around the program's public calls, from outside the program.

A :class:`Tracer` wraps chosen functions and methods of ``repro`` only while
it is installed, so an untraced iteration runs the unmodified code.  Each
call records one span ``(name, start, end, parent, unit, key, count)``:

* ``parent`` is the index of the enclosing span (``-1`` for a root),
* ``unit`` is the shared id of the work item the span belongs to (the
  training iteration index, or the fleet replay index),
* ``key`` names the job a fleet call acts on (empty otherwise),
* ``count`` is a work count the layer reports for the call (instructions
  lowered, permutations scored, ...), 0 when the layer has none.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
Calls run in one thread, so spans nest strictly and a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: ``count(args, result) -> int`` for a wrapped call.
CountFn = Callable[[tuple, Any], int]
#: ``key(args) -> str`` for a wrapped call.
KeyFn = Callable[[tuple], str]


class Tracer:
    """In-memory span recorder with installable call wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.unit = 0
        self._stack: list[int] = []
        #: ``(owner, attribute, original, wrapped)`` per wrapped callable.
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------ recording

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _call(
        self,
        name: str,
        func: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        key: str,
        count: CountFn | None,
    ) -> Any:
        index, parent = self._open()
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except BaseException:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.unit, key, 0)
            self._stack.pop()
            raise
        end = time.perf_counter()
        self._stack.pop()
        work = count(args, result) if count is not None else 0
        self.spans[index] = (name, start, end, parent, self.unit, key, work)
        return result

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block (the per-unit root span)."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.unit, "", 0)

    # ------------------------------------------------------------------ patching

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: CountFn | None = None,
        key: KeyFn | None = None,
    ) -> None:
        """Time ``owner.attr`` (a module function, method or classmethod) as ``name``."""
        original = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = key(args) if key is not None else ""
            return tracer._call(name, func, args, kwargs, label, count)

        traced.__name__ = getattr(func, "__name__", attr)
        wrapped = classmethod(traced) if is_classmethod else traced
        self._patches.append((owner, attr, original, wrapped))

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrappers in place for the duration of the block only."""
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _wrapped in self._patches:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ analysis

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds, calls and summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, _unit, _key, count) in enumerate(self.spans):
            entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
            entry["count"] += count
        return totals

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line (times in ms from the first span)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, start, end, parent, unit, key, count) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ms": (start - origin) * 1e3,
                            "end_ms": (end - origin) * 1e3,
                            "parent": parent,
                            "unit": unit,
                            "key": key,
                            "count": count,
                        }
                    )
                    + "\n"
                )
