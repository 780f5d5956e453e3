"""The benchmark's own tracing: spans recorded around calls into the
program's public functions, kept in memory and written out at exit.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span in the same list (-1 for a request's root)
and ``request`` the identifier every span of one operation shares.  A
layer's *self time* is its span's duration minus the time its direct
children cover; its *inclusive* time is the duration itself.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

from stats import now

Span = List[Any]  # [name, start, end, parent, request]


class Tracer:
    """Single-threaded span recorder (each traced pass runs on one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, now(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = now()
        self._stack.pop()

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``function`` with a span named ``name`` around every call."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(index)

        return traced


class Proxy:
    """Stands in for ``target``: the methods named in ``spans`` are
    timed, every other attribute is the target's own."""

    def __init__(self, target: Any, tracer: Tracer, spans: Dict[str, str]) -> None:
        self._target = target
        for method, name in spans.items():
            setattr(self, method, tracer.wrap(getattr(target, method), name))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


def patch(instance: Any, method: str, tracer: Tracer, name: str) -> None:
    """Shadow ``instance.method`` with a timed version on that instance
    only (internal ``self.method()`` calls see it too)."""
    setattr(instance, method, tracer.wrap(getattr(instance, method), name))


def summarize(spans: Iterable[Span]) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (count, inclusive seconds, self seconds)``."""
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _request in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Tuple[int, float, float]] = defaultdict(
        lambda: (0, 0.0, 0.0))   # a name never recorded reads as zeros
    for index, (name, start, end, _parent, _request) in enumerate(spans):
        count, inclusive, self_time = totals[name]
        duration = end - start
        totals[name] = (count + 1, inclusive + duration,
                        self_time + duration - child_time[index])
    return totals


def durations(spans: Iterable[Span], name: str) -> List[float]:
    return [end - start for span_name, start, end, _p, _r in spans
            if span_name == name]


def tree_problems(spans: List[Span]) -> List[str]:
    """Why ``spans`` is not a forest of well-nested per-request trees
    (empty when it is): a child must start after and end before its
    parent, precede nothing it depends on, and share its request id."""
    problems: List[str] = []
    for index, (name, start, end, parent, request) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ({name}) ends before it starts")
        if parent < 0:
            continue
        if parent >= index:
            problems.append(f"span {index} ({name}) precedes its parent")
            continue
        _pname, pstart, pend, _pp, prequest = spans[parent]
        if request != prequest:
            problems.append(f"span {index} ({name}) left its request")
        if start < pstart or end > pend:
            problems.append(f"span {index} ({name}) escapes its parent")
    return problems


def write_jsonl(path: str, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, request) in enumerate(spans):
            handle.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end,
                "parent": parent, "request": request}) + "\n")


def read_jsonl(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return [[row["name"], row["start"], row["end"], row["parent"],
             row["request"]] for row in rows]
