"""Thread-safe metrics: counters, gauges and log-scale histograms.

The :class:`MetricsRegistry` is a named, get-or-create collection of
instruments, mirroring how Prometheus client libraries work.  Histograms
use geometric (log-scale) buckets so quantile estimates carry a bounded
*relative* error of at most ``sqrt(growth) - 1`` (≈ 4.9 % at the default
growth of 1.1) regardless of the value range — the right trade-off for
latencies spanning microseconds to seconds.

Metric names are dotted (``storage.page_reads``); the Prometheus text
exporter sanitises them to underscore form.

Locking model
-------------
Every instrument owns one :class:`threading.Lock` guarding all of its
mutable state; every update *and* every read of that state happens under
the lock, so an observation is atomic and a :meth:`Histogram.summary`
(count, sum, min/max and all quantiles together) is one consistent
snapshot — quantiles are never computed over a different population than
the reported count.  The registry's own lock only guards the name →
instrument maps: lookups take the GIL-atomic ``dict.get`` fast path and
fall back to double-checked locking on first creation, keeping the hot
per-increment path to a single dict lookup plus the instrument lock.
Reporting methods copy the item lists under the registry lock and then
read each instrument under its own lock; concurrent updates during a
snapshot are therefore either entirely visible or entirely invisible
per instrument, never torn within one.  ``reset()`` replaces the maps;
callers holding an instrument reference keep a working (but orphaned)
instrument, which is the documented trade-off for a lock-free hot path.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Mapping, Optional, Tuple

DEFAULT_GROWTH = 1.1


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (e.g. cached pages)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0  # guarded-by: _lock
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Log-scale histogram with quantile estimation.

    Positive observations land in bucket ``floor(log(v) / log(growth))``;
    non-positive observations are tallied in a dedicated zero bucket.  A
    bucket is reported as the geometric mean of its bounds, bounding the
    relative quantile error by ``sqrt(growth) - 1``.
    """

    __slots__ = ("growth", "_log_growth", "_buckets", "_zero", "_count",
                 "_sum", "_min", "_max", "_lock")

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth factor must be > 1: {growth}")
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}  # guarded-by: _lock
        self._zero = 0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._min = math.inf  # guarded-by: _lock
        self._max = -math.inf  # guarded-by: _lock
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._observe_locked(value)

    def _observe_locked(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
        else:
            index = math.floor(math.log(value) / self._log_growth)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def _bucket_value(self, index: int) -> float:
        lower = self.growth ** index
        return lower * math.sqrt(self.growth)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        # Rank of the wanted observation among the sorted values.
        rank = q * (self._count - 1)
        position = self._zero
        if rank < self._zero:
            return min(self._min, 0.0) if self._zero else 0.0
        for index in sorted(self._buckets):
            position += self._buckets[index]
            if rank < position:
                estimate = self._bucket_value(index)
                # Never report outside the observed range.
                return min(max(estimate, self._min), self._max)
        return self._max

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        with self._lock:
            return self._quantile_locked(q)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> Dict[str, float]:
        """One atomic snapshot: the quantiles are computed under the same
        lock acquisition as the count/sum they accompany, so a summary
        taken during concurrent observes is internally consistent."""
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }

    def export_state(self) -> Dict[str, object]:
        """The raw sketch (zero tally, bucket counts, moments) as one
        consistent snapshot — the mergeable form windowed aggregation and
        the Prometheus bucket exposition are built from."""
        with self._lock:
            return {
                "growth": self.growth,
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "zero": self._zero,
                "buckets": dict(self._buckets),
            }


def merge_histogram_states(states: List[Dict[str, object]],
                           growth: float = DEFAULT_GROWTH) -> Dict[str, float]:
    """Combine :meth:`Histogram.export_state` snapshots (e.g. the last N
    time-series windows) into one :meth:`Histogram.summary`-shaped dict.
    All states must share the same growth factor."""
    merged = Histogram(growth)
    for state in states:
        if state["growth"] != growth:
            raise ValueError(
                f"cannot merge growth {state['growth']} into {growth}")
        count = int(state["count"])  # type: ignore[arg-type]
        if not count:
            continue
        merged._count += count
        merged._sum += float(state["sum"])  # type: ignore[arg-type]
        merged._min = min(merged._min, float(state["min"]))  # type: ignore[arg-type]
        merged._max = max(merged._max, float(state["max"]))  # type: ignore[arg-type]
        merged._zero += int(state["zero"])  # type: ignore[arg-type]
        for index, tally in state["buckets"].items():  # type: ignore[union-attr]
            merged._buckets[index] = merged._buckets.get(index, 0) + tally
    return merged.summary()


class MetricsRegistry:
    """Named, thread-safe, get-or-create instrument collection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}  # guarded-by: _lock
        self._gauges: Dict[str, Gauge] = {}  # guarded-by: _lock
        self._histograms: Dict[str, Histogram] = {}  # guarded-by: _lock

    # The lock-free reads below are safe under CPython's GIL (dict.get
    # is atomic); the lock only serialises creation, keeping the hot
    # per-increment path to a single dict lookup.

    def counter(self, name: str) -> Counter:
        # repro-lint: disable=RL004,RL100 reason=double-checked locking; GIL-atomic dict.get fast path
        instrument = self._counters.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_unique(name, self._counters)
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        # repro-lint: disable=RL004,RL100 reason=double-checked locking; GIL-atomic dict.get fast path
        instrument = self._gauges.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_unique(name, self._gauges)
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str,
                  growth: float = DEFAULT_GROWTH) -> Histogram:
        # repro-lint: disable=RL004,RL100 reason=double-checked locking; GIL-atomic dict.get fast path
        instrument = self._histograms.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_unique(name, self._histograms)
                instrument = self._histograms[name] = Histogram(growth)
            return instrument

    # holds-lock: _lock
    def _check_unique(self, name: str, own: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with another type")

    # -- reporting ----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        with self._lock:
            items = list(self._counters.items())
        return {name: counter.value for name, counter in items}

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            items = list(self._gauges.items())
        return {name: gauge.value for name, gauge in items}

    def histograms(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            items = list(self._histograms.items())
        return {name: histogram.summary() for name, histogram in items}

    def find_counter(self, name: str) -> Optional[Counter]:
        """The named counter, or None — never creates (unlike
        :meth:`counter`), so read-only consumers don't mint zero-valued
        instruments."""
        with self._lock:
            return self._counters.get(name)

    def find_histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or None (non-creating)."""
        with self._lock:
            return self._histograms.get(name)

    def counter_items(self) -> List[Tuple[str, Counter]]:
        """Live counter instruments (name-sorted copy of the map)."""
        with self._lock:
            return sorted(self._counters.items())

    def gauge_items(self) -> List[Tuple[str, Gauge]]:
        """Live gauge instruments (name-sorted copy of the map)."""
        with self._lock:
            return sorted(self._gauges.items())

    def histogram_items(self) -> List[Tuple[str, Histogram]]:
        """Live histogram instruments (name-sorted copy of the map) —
        the public accessor exporters use instead of the private maps."""
        with self._lock:
            return sorted(self._histograms.items())

    def snapshot(self) -> Dict[str, object]:
        """Everything, as plain data (JSON-serialisable)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }

    def names(self) -> List[str]:
        with self._lock:
            return sorted(set(self._counters) | set(self._gauges)
                          | set(self._histograms))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_counter_dict(registry: MetricsRegistry, prefix: str,
                       values: Dict[str, int]) -> None:
    """Bridge an external counter dict (e.g. MapReduce job counters or an
    IOStats snapshot) into ``registry`` under ``prefix.``-qualified names."""
    for name, value in values.items():
        if value:
            registry.counter(f"{prefix}.{name}").inc(value)


def _quantile_pairs() -> List[Tuple[str, float]]:
    return [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)]


def sanitize_name(name: str) -> str:
    """Dotted metric name -> Prometheus-legal name."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote and newline must be escaped, in that order
    (escaping the backslash first so the others are not double-hit)."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def format_sample(metric: str, labels: Optional[Mapping[str, object]],
                  value: object) -> str:
    """One exposition-format sample line with properly escaped labels."""
    if not labels:
        return f"{metric} {value}"
    rendered = ",".join(
        f'{sanitize_name(str(key))}="{escape_label_value(labels[key])}"'
        for key in labels)
    return f"{metric}{{{rendered}}} {value}"


def _histogram_bucket_lines(metric: str, histogram: Histogram) -> List[str]:
    """Prometheus ``histogram``-typed exposition: cumulative ``_bucket``
    samples with log-scale ``le`` upper bounds, then ``_sum``/``_count``.
    The zero bucket (observations <= 0) maps to ``le="0"``."""
    state = histogram.export_state()
    lines = [f"# TYPE {metric} histogram"]
    cumulative = int(state["zero"])  # type: ignore[arg-type]
    if cumulative:
        lines.append(format_sample(f"{metric}_bucket", {"le": "0"},
                                   cumulative))
    growth = float(state["growth"])  # type: ignore[arg-type]
    buckets: Dict[int, int] = state["buckets"]  # type: ignore[assignment]
    for index in sorted(buckets):
        cumulative += buckets[index]
        upper = growth ** (index + 1)
        lines.append(format_sample(f"{metric}_bucket",
                                   {"le": repr(upper)}, cumulative))
    lines.append(format_sample(f"{metric}_bucket", {"le": "+Inf"},
                               state["count"]))
    lines.append(f"{metric}_sum {state['sum']}")
    lines.append(f"{metric}_count {state['count']}")
    return lines


def to_prometheus_text(registry: MetricsRegistry,
                       namespace: Optional[str] = "repro",
                       histogram_mode: str = "summary") -> str:
    """Render the registry in the Prometheus text exposition format.

    ``histogram_mode="summary"`` (the default) exports histograms as
    quantile-labelled summaries plus ``_count``/``_sum`` — compact, and
    what log-scale sketches map to most directly.
    ``histogram_mode="histogram"`` exports the underlying log buckets as
    a real Prometheus histogram with cumulative ``_bucket{le=...}``
    samples, which server-side quantile aggregation needs.
    """
    if histogram_mode not in ("summary", "histogram"):
        raise ValueError(f"unknown histogram_mode {histogram_mode!r}")
    prefix = f"{sanitize_name(namespace)}_" if namespace else ""
    lines: List[str] = []
    for name, counter in registry.counter_items():
        metric = prefix + sanitize_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counter.value}")
    for name, gauge in registry.gauge_items():
        metric = prefix + sanitize_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauge.value}")
    for name, histogram in registry.histogram_items():
        metric = prefix + sanitize_name(name)
        if histogram_mode == "histogram":
            lines.extend(_histogram_bucket_lines(metric, histogram))
            continue
        summary = histogram.summary()
        lines.append(f"# TYPE {metric} summary")
        for label, q in _quantile_pairs():
            lines.append(format_sample(metric, {"quantile": label},
                                       summary[f"p{round(q * 100)}"]))
        lines.append(f"{metric}_sum {summary['sum']}")
        lines.append(f"{metric}_count {summary['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
