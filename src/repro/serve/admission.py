"""Bounded admission queue with load shedding and priority lanes.

The queue is where overload policy lives, deliberately separated from
both the workers (who just ``take``) and the clients (who just
``offer``):

* **bounded depth** — past ``max_queue_depth`` waiting queries the
  server is overloaded by definition and new arrivals are rejected
  immediately (fail fast beats queueing into a timeout);
* **delay-budget shedding** — even below the depth bound, an arrival
  whose *estimated* queue delay (depth x EWMA service time / workers)
  already exceeds ``queue_delay_budget_ms`` is shed with a
  ``Retry-After`` estimate: it would almost certainly miss its
  deadline anyway, and executing it anyway would push every query
  behind it over the edge too (the classic overload death spiral);
* **priority lanes** — cheap plans (few keywords, small radius: their
  cover is a handful of cells and their candidate sets are small) ride
  a fast lane that workers prefer, so one expensive analytical query
  cannot convoy a stream of interactive ones.  A 1-in-``every``
  anti-starvation rotation keeps the normal lane draining under a
  saturated fast lane.

Shedding cannot be switched off: without it the queue is unbounded and
overload turns into tail latency that grows without limit.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from .deadline import ShedError

#: EWMA smoothing for the per-query service-time estimate.
_SERVICE_TIME_ALPHA = 0.2


@dataclass(frozen=True)
class AdmissionConfig:
    """Overload policy knobs."""

    max_queue_depth: int = 64
    queue_delay_budget_ms: float = 500.0
    #: plans at or under both bounds ride the fast lane
    fast_lane_max_keywords: int = 1
    fast_lane_max_radius_km: float = 10.0
    #: every Nth take drains the normal lane first (anti-starvation)
    normal_lane_every: int = 4

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1: {self.max_queue_depth}")
        if self.queue_delay_budget_ms <= 0:
            raise ValueError(f"queue_delay_budget_ms must be > 0: "
                             f"{self.queue_delay_budget_ms}")
        if self.normal_lane_every < 2:
            raise ValueError(
                f"normal_lane_every must be >= 2: {self.normal_lane_every}")

    def is_fast(self, query: Any) -> bool:
        """Lane classification from the query's plan-relevant shape."""
        return (len(query.keywords) <= self.fast_lane_max_keywords
                and query.radius_km <= self.fast_lane_max_radius_km)


class AdmissionQueue:
    """Two-lane bounded queue shared by clients and workers."""

    def __init__(self, config: Optional[AdmissionConfig] = None,
                 workers: int = 1,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.workers = max(1, workers)
        self._clock = clock if clock is not None else time.monotonic
        self._cond = threading.Condition()
        self._fast: Deque[Any] = deque()  # guarded-by: _cond
        self._normal: Deque[Any] = deque()  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        self._takes = 0  # guarded-by: _cond
        self._offered = 0  # guarded-by: _cond
        self._shed = 0  # guarded-by: _cond
        #: EWMA of observed service time (seconds); seeded pessimistically
        #: low so a cold server does not shed its first burst.
        self._service_ewma = 0.0  # guarded-by: _cond

    # -- client side --------------------------------------------------------

    def estimated_delay_seconds(self) -> float:
        """Expected queue wait for an arrival right now."""
        with self._cond:
            return self._estimated_delay_locked()

    # holds-lock: _cond
    def _estimated_delay_locked(self) -> float:
        depth = len(self._fast) + len(self._normal)
        return depth * self._service_ewma / self.workers

    def offer(self, item: Any, fast: bool) -> None:
        """Admit ``item`` or raise :class:`ShedError` (overload)."""
        with self._cond:
            if self._closed:
                raise ShedError("server is shutting down")
            depth = len(self._fast) + len(self._normal)
            if depth >= self.config.max_queue_depth:
                self._shed += 1
                raise ShedError(
                    f"admission queue full ({depth} waiting)",
                    retry_after_seconds=self._estimated_delay_locked())
            delay = self._estimated_delay_locked()
            budget = self.config.queue_delay_budget_ms / 1000.0
            if delay > budget:
                self._shed += 1
                raise ShedError(
                    f"estimated queue delay {delay * 1000:.0f}ms exceeds "
                    f"budget {self.config.queue_delay_budget_ms:.0f}ms",
                    retry_after_seconds=delay - budget)
            self._offered += 1
            (self._fast if fast else self._normal).append(item)
            self._cond.notify()

    # -- worker side --------------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Next queued item, fast lane first (with the anti-starvation
        rotation); ``None`` on timeout or once closed and drained."""
        deadline = (self._clock() + timeout) if timeout is not None else None
        with self._cond:
            while True:
                item = self._pop_locked()
                if item is not None:
                    return item
                if self._closed:
                    return None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    # holds-lock: _cond
    def _pop_locked(self) -> Optional[Any]:
        self._takes += 1
        prefer_normal = (self._takes % self.config.normal_lane_every == 0)
        lanes = ((self._normal, self._fast) if prefer_normal
                 else (self._fast, self._normal))
        for lane in lanes:
            if lane:
                return lane.popleft()
        return None

    def observe_service_time(self, seconds: float) -> None:
        """Feed one completed query's execution time into the EWMA the
        shed estimator uses."""
        with self._cond:
            if self._service_ewma == 0.0:
                self._service_ewma = seconds
            else:
                self._service_ewma += _SERVICE_TIME_ALPHA * (
                    seconds - self._service_ewma)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Refuse new offers; wake blocked takers (they drain, then get
        ``None``)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return len(self._fast) + len(self._normal)

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "depth": len(self._fast) + len(self._normal),
                "fast_lane_depth": len(self._fast),
                "normal_lane_depth": len(self._normal),
                "offered": self._offered,
                "shed": self._shed,
                "service_time_ewma_ms": self._service_ewma * 1000.0,
                "estimated_delay_ms":
                    self._estimated_delay_locked() * 1000.0,
            }
