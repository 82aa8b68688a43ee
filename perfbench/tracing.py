"""In-memory spans recorded around calls into the program's public API.

The tracer never edits the program: it replaces a function or method by a
timing wrapper *where its callers look it up* (every ``repro.*`` module
attribute bound to the original function, or the class attribute for a
method) and puts the originals back on :meth:`Tracer.restore`.  Spans
carry name, start, end and parent; a span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

#: before(args, kwargs) -> state; after(state, args, kwargs, result) ->
#: counters to attach to the span (both optional).
Before = Callable[[tuple, dict], Any]
After = Callable[[Any, tuple, dict, Any], Dict[str, float]]
#: a span name, or a function of the call's (args, kwargs) returning one.
Name = Union[str, Callable[[tuple, dict], str]]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: List[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return [span.duration - covered(children.get(i, []), span.start,
                                    span.end)
            for i, span in enumerate(spans)]


class Tracer:
    """Records spans in memory; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        record = Span(name, time.perf_counter(),
                      parent=stack[-1] if stack else None)
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn: Callable, name: Name, before: Optional[Before] = None,
             after: Optional[After] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
            if after:
                record.counters.update(after(state, args, kwargs, result))
            return result
        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: Name,
                       before: Optional[Before] = None,
                       after: Optional[After] = None) -> int:
        """Wrap ``module.attr`` in every ``repro`` module that binds it.

        Returns how many bindings were replaced (at least the definition).
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, before, after)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)
                bound += 1
        return bound

    def patch_method(self, cls: type, attr: str, name: Name,
                     before: Optional[Before] = None,
                     after: Optional[After] = None) -> None:
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, before,
                                       after))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def cost_per_span(calls: int = 20000) -> float:
    """Seconds one traced call adds, timed on a wrapped no-op."""
    def noop():
        return None
    traced = Tracer().wrap(noop, "noop")
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, time.perf_counter() - started - bare) / calls
