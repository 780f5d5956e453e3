"""Runtime lock sanitizer: the dynamic half of the RL100 family.

The static rules see lexical structure; they cannot see a
``CompactionScheduler`` step re-entering ``IngestService`` state on one
thread while ``repro top`` reads it on another.  This module wraps real
locks so that actual executions *record* what the static pass can only
approximate:

* :class:`SanitizedLock` — a drop-in wrapper for ``threading.Lock`` /
  ``RLock`` keeping a per-thread held stack and recording every
  "acquired B while holding A" edge.  An inversion is a cycle in that
  observed graph, detectable even when the two orders never ran
  concurrently (which is exactly when testing would miss the deadlock).
* :func:`guard_instance` — retypes one object so reads/writes of
  declared guarded fields verify the guarding lock is held by the
  current thread (the runtime analogue of ``# guarded-by``).
* :func:`run_sanitizer_smoke` — a small threaded workload over the real
  ``MetricsRegistry`` / ``RuntimeRegistry`` / ``GenerationRegistry``
  with sanitized locks, shared by ``repro check --concurrency`` and the
  test suite.

Overhead discipline: the fast path (acquiring with an empty held stack)
is one thread-local fetch and a list append, so sanitizing the hammer
tests stays within the 1.10x budget asserted by
``tests/test_lock_sanitizer.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Type

__all__ = [
    "LockSanitizer",
    "SanitizedLock",
    "SanitizerReport",
    "guard_instance",
    "instrument_lock_attr",
    "run_sanitizer_smoke",
]


@dataclass
class SanitizerReport:
    """What one sanitized run observed."""

    acquisitions: int = 0
    #: Observed (held, acquired) pairs -> occurrence count.
    edges: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Cycles in the observed order graph (each a tuple of lock names).
    inversions: List[Tuple[str, ...]] = field(default_factory=list)
    #: Guarded-field accesses without the declared lock held.
    unguarded: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.inversions and not self.unguarded

    def describe(self) -> List[str]:
        lines = []
        for cycle in self.inversions:
            order = " -> ".join(cycle + (cycle[0],))
            lines.append(f"lock-order inversion (potential deadlock): "
                         f"{order}")
        lines.extend(self.unguarded)
        return lines

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "acquisitions": self.acquisitions,
            "edges": {f"{a} -> {b}": count
                      for (a, b), count in sorted(self.edges.items())},
            "inversions": [list(cycle) for cycle in self.inversions],
            "unguarded": list(self.unguarded),
        }


class _ThreadState:
    """Per-thread sanitizer state: the held stack plus an acquisition
    counter, aggregated lock-free on the fast path and summed only at
    report time."""

    __slots__ = ("stack", "acquisitions")

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.acquisitions = 0


class LockSanitizer:
    """Collector shared by every sanitized lock and guarded instance."""

    def __init__(self) -> None:
        self._state_lock = threading.Lock()
        self._held = threading.local()
        self._thread_states: List[_ThreadState] = []
        self._edges: Dict[Tuple[str, str], int] = {}
        self._unguarded: List[str] = []
        self._unguarded_seen: Set[str] = set()

    # -- per-thread held stack ----------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._held, "state", None)
        if state is None:
            state = _ThreadState()
            self._held.state = state
            with self._state_lock:
                self._thread_states.append(state)
        return state

    def is_held(self, name: str) -> bool:
        return name in self._state().stack

    # -- recording ----------------------------------------------------------

    def on_acquire(self, name: str) -> None:
        # Fast path (empty held stack): one thread-local fetch, an int
        # bump, and a list append — no shared lock, so sanitizing the
        # hammer tests stays inside the overhead budget.
        state = self._state()
        stack = state.stack
        state.acquisitions += 1
        if stack and name not in stack:
            # Re-entrant acquires (name already on the stack) are RLock
            # recursion, not ordering; everything else held right now
            # precedes `name` in the observed order.
            with self._state_lock:
                for held in stack:
                    key = (held, name)
                    self._edges[key] = self._edges.get(key, 0) + 1
        stack.append(name)

    def on_release(self, name: str) -> None:
        stack = self._state().stack
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] == name:
                del stack[position]
                return

    def record_unguarded(self, owner: str, field_name: str,
                         lock_name: str, operation: str) -> None:
        message = (f"unguarded access: {owner}.{field_name} {operation} "
                   f"without {lock_name} held")
        with self._state_lock:
            if message not in self._unguarded_seen:
                self._unguarded_seen.add(message)
                self._unguarded.append(message)

    # -- reporting ----------------------------------------------------------

    def report(self) -> SanitizerReport:
        with self._state_lock:
            edges = dict(self._edges)
            acquisitions = sum(state.acquisitions
                               for state in self._thread_states)
            unguarded = list(self._unguarded)
        return SanitizerReport(
            acquisitions=acquisitions,
            edges=edges,
            inversions=_find_cycles(edges),
            unguarded=unguarded,
        )


def _find_cycles(edges: Dict[Tuple[str, str], int]
                 ) -> List[Tuple[str, ...]]:
    graph: Dict[str, Set[str]] = {}
    for (src, dst) in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())

    cycles: List[Tuple[str, ...]] = []
    seen: Set[Tuple[str, ...]] = set()

    def dfs(node: str, stack: List[str], on_stack: Set[str],
            visited: Set[str]) -> None:
        visited.add(node)
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph.get(node, ())):
            if succ in on_stack:
                cycle = stack[stack.index(succ):]
                anchor = min(cycle)
                position = cycle.index(anchor)
                rotated = tuple(cycle[position:] + cycle[:position])
                if rotated not in seen:
                    seen.add(rotated)
                    cycles.append(rotated)
            elif succ not in visited:
                dfs(succ, stack, on_stack, visited)
        stack.pop()
        on_stack.discard(node)

    visited: Set[str] = set()
    for start in sorted(graph):
        if start not in visited:
            dfs(start, [], set(), visited)
    return cycles


class SanitizedLock:
    """Drop-in wrapper for ``threading.Lock`` / ``RLock`` that reports
    to a :class:`LockSanitizer`.  Supports the full context-manager and
    acquire/release protocols, so it can replace a lock attribute on a
    live object."""

    __slots__ = ("_inner", "name", "_sanitizer")

    def __init__(self, inner: Any, name: str,
                 sanitizer: LockSanitizer) -> None:
        self._inner = inner
        self.name = name
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer.on_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._sanitizer.on_release(self.name)

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        return bool(inner_locked()) if inner_locked is not None else False

    def __enter__(self) -> "SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"SanitizedLock({self.name!r})"


def instrument_lock_attr(obj: Any, attr: str, sanitizer: LockSanitizer,
                         name: Optional[str] = None) -> SanitizedLock:
    """Replace ``obj.<attr>`` with a sanitized wrapper (idempotent)."""
    current = getattr(obj, attr)
    if isinstance(current, SanitizedLock):
        return current
    lock_name = name or f"{type(obj).__name__}.{attr}"
    wrapped = SanitizedLock(current, lock_name, sanitizer)
    object.__setattr__(obj, attr, wrapped)
    return wrapped


_GUARD_CACHE: Dict[Tuple[Type[Any], Tuple[Tuple[str, str], ...]],
                   Type[Any]] = {}


def guard_instance(obj: Any, sanitizer: LockSanitizer,
                   guards: Mapping[str, str]) -> Any:
    """Retype ``obj`` so accesses to the fields in ``guards`` (field ->
    lock attribute) verify the lock is held by the current thread.

    The guarding lock attribute must already be a
    :class:`SanitizedLock` (see :func:`instrument_lock_attr`) — held
    state lives in the sanitizer, keyed by the wrapper's name.  Returns
    ``obj``, now an instance of a dynamic subclass with ``__slots__ =
    ()`` so slotted classes keep a compatible layout.
    """
    cls = type(obj)
    guard_items = tuple(sorted(guards.items()))
    cache_key = (cls, guard_items)
    guarded_cls = _GUARD_CACHE.get(cache_key)
    if guarded_cls is None:
        guard_map = dict(guard_items)
        owner = cls.__name__

        def _verify(instance: Any, field_name: str, operation: str) -> None:
            lock_attr = guard_map[field_name]
            try:
                lock = object.__getattribute__(instance, lock_attr)
            except AttributeError:
                return  # construction order: lock not bound yet
            if isinstance(lock, SanitizedLock) and not sanitizer.is_held(
                    lock.name):
                sanitizer.record_unguarded(owner, field_name, lock.name,
                                           operation)

        def __getattribute__(self: Any, name: str) -> Any:
            if name in guard_map:
                _verify(self, name, "read")
            return object.__getattribute__(self, name)

        def __setattr__(self: Any, name: str, value: Any) -> None:
            if name in guard_map:
                _verify(self, name, "write")
            object.__setattr__(self, name, value)

        guarded_cls = type(
            f"Guarded{owner}", (cls,),
            {"__slots__": (), "__getattribute__": __getattribute__,
             "__setattr__": __setattr__})
        _GUARD_CACHE[cache_key] = guarded_cls
    obj.__class__ = guarded_cls
    return obj


# ---------------------------------------------------------------------------
# Shared smoke workload (CLI + tests)
# ---------------------------------------------------------------------------

def run_sanitizer_smoke(threads: int = 4, iterations: int = 300
                        ) -> SanitizerReport:
    """Exercise the real concurrency-bearing registries under sanitized
    locks: metrics/runtime instrument minting races plus generation
    pin/swap/reclaim churn.  Returns the observed-order report; a clean
    tree yields ``report.ok``."""
    from repro.compaction.lifecycle import GenerationRegistry
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.runtime import RuntimeRegistry

    sanitizer = LockSanitizer()
    metrics = MetricsRegistry()
    runtime = RuntimeRegistry()
    generations = GenerationRegistry(items=("g0",))
    instrument_lock_attr(metrics, "_lock", sanitizer)
    instrument_lock_attr(runtime, "_lock", sanitizer)
    instrument_lock_attr(generations, "_lock", sanitizer)

    barrier = threading.Barrier(threads)
    errors: List[BaseException] = []

    def worker(worker_id: int) -> None:
        try:
            barrier.wait()
            for step in range(iterations):
                metrics.counter(f"smoke.c{step % 7}").inc()
                runtime.counter(f"smoke.r{step % 5}").inc()
                with generations.pinned() as items:
                    _ = len(items)
                if step % 50 == worker_id % 50:
                    generations.append(f"g{worker_id}.{step}")
                if step % 97 == 0:
                    metrics.histogram("smoke.h").observe(float(step))
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    generations.drain()
    return sanitizer.report()
