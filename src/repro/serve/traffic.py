"""Closed- and open-loop traffic generators for the serving layer.

Two standard load models, both driving one :class:`~.server.QueryServer`:

* **closed loop** — ``clients`` threads each issue one query, wait for
  its completion, and immediately issue the next.  Offered load adapts
  to the server (a slow server sees fewer arrivals), so the closed loop
  measures peak sustainable throughput and in-service latency.
* **open loop** — a dispatcher submits at a scheduled arrival rate
  regardless of completions (the model of independent clients, which
  is what exposes overload: queue growth, deadline misses, shedding).

Latency is measured enqueue→completion from the ticket's own
timestamps, so open-loop numbers include queueing (coordinated
omission is avoided: arrival times are scheduled, not gated on
completions).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .deadline import ShedError
from .server import QueryServer, Ticket

#: Reported latency quantiles.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


def _quantile(values: List[float], fraction: float) -> float:
    """Nearest-rank quantile over a sorted copy (no numpy dependency)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[index]


@dataclass
class TrafficResult:
    """Everything one traffic run observed."""

    duration_seconds: float = 0.0
    issued: int = 0
    completed: int = 0
    shed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    errors: int = 0
    latencies_seconds: List[float] = field(default_factory=list)

    def throughput_qps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    def shed_rate(self) -> float:
        if self.issued <= 0:
            return 0.0
        return self.shed / self.issued

    def latency_quantiles_ms(self) -> Dict[str, float]:
        return {name: round(_quantile(self.latencies_seconds, q) * 1000.0, 3)
                for name, q in QUANTILES}

    def _absorb(self, ticket: Ticket) -> None:
        if ticket.outcome == "ok":
            self.completed += 1
            latency = ticket.latency_seconds()
            if latency is not None:
                self.latencies_seconds.append(latency)
        elif ticket.outcome == "timeout":
            self.timeouts += 1
        elif ticket.outcome == "cancelled":
            self.cancelled += 1
        else:
            self.errors += 1


def run_closed_loop(server: QueryServer,
                    make_query: Callable[[int], Any], *,
                    clients: int,
                    duration_seconds: float,
                    method: str = "max",
                    timeout_seconds: Optional[float] = None) -> TrafficResult:
    """Drive ``clients`` back-to-back issue loops for the duration."""
    result = TrafficResult()
    lock = threading.Lock()
    stop_at = time.monotonic() + duration_seconds

    def client_loop(client_id: int) -> None:
        sequence = client_id
        while time.monotonic() < stop_at:
            query = make_query(sequence)
            sequence += clients
            try:
                ticket = server.submit(query, method, timeout_seconds)
            except ShedError:
                with lock:
                    result.issued += 1
                    result.shed += 1
                continue
            ticket.wait()
            with lock:
                result.issued += 1
                result._absorb(ticket)

    threads = [threading.Thread(target=client_loop, args=(client_id,),
                                name=f"traffic-client-{client_id}",
                                daemon=True)
               for client_id in range(clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.duration_seconds = time.monotonic() - start
    return result


def run_open_loop(server: QueryServer,
                  make_query: Callable[[int], Any], *,
                  rate_qps: float,
                  duration_seconds: float,
                  method: str = "max",
                  timeout_seconds: Optional[float] = None) -> TrafficResult:
    """Submit on a fixed arrival schedule; collect outcomes at the end."""
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be > 0: {rate_qps}")
    result = TrafficResult()
    tickets: List[Ticket] = []
    start = time.monotonic()
    stop_at = start + duration_seconds
    sequence = 0
    next_arrival = start
    while next_arrival < stop_at:
        delay = next_arrival - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        query = make_query(sequence)
        sequence += 1
        result.issued += 1
        try:
            tickets.append(server.submit(query, method, timeout_seconds))
        except ShedError:
            result.shed += 1
        next_arrival += 1.0 / rate_qps
    # Let in-flight tickets finish (bounded by their own deadlines plus
    # a scheduling grace).
    grace = (timeout_seconds if timeout_seconds is not None
             else server.config.default_timeout_seconds)
    deadline = time.monotonic() + (grace if grace is not None else 30.0) + 5.0
    for ticket in tickets:
        ticket.wait(max(0.0, deadline - time.monotonic()))
    result.duration_seconds = time.monotonic() - start
    for ticket in tickets:
        if ticket.done():
            result._absorb(ticket)
        else:
            ticket.cancel()
            result.cancelled += 1
    return result
