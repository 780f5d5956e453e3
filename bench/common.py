"""Pieces every workload shares: run options, the outcome record,
memory and disk readings, scratch directories."""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import spec


@dataclass(frozen=True)
class Options:
    seed: int
    seconds: float
    scale: float
    trace: bool

    def count(self, reference: int) -> int:
        """``reference`` ops at the reference run length, in proportion
        for this one: a fixed count, so that work counters repeat."""
        return max(20, round(reference * self.scale
                             * self.seconds / spec.REF_SECONDS))


@dataclass
class Outcome:
    """What one workload run measured."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0        # failed, refused, over-limit or wrongly answered ops
    mismatches: int = 0    # answers the oracle rejects (a subset of failed)
    samples: Dict[str, int] = field(default_factory=dict)
    sizes: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    warnings: List[str] = field(default_factory=list)
    spans: List[Any] = field(default_factory=list)


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """After set-up: collect once and move the survivors out of the
    collector's reach, so the measured phase pays for its own garbage
    only.  The collector itself stays on."""
    gc.collect()
    gc.freeze()


def best_of(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per-op minimum over replays of one op sequence.  The sandbox's
    speed drifts by ~10 % over seconds; an op's best of a few tries is
    what the program costs when the machine is not in the way."""
    return [min(tries) for tries in zip(*rounds)]


def split_warmup(ops: Sequence[Any]) -> Tuple[Sequence[Any], Sequence[Any]]:
    warm = math.ceil(len(ops) * spec.WARMUP_SHARE)
    return ops[:warm], ops[warm:]


@contextmanager
def work_dir(name: str) -> Iterator[str]:
    """A fresh scratch directory inside the checkout, removed on exit."""
    path = os.path.join(spec.OUT_DIR, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def tree_bytes(path: str, under: str = "") -> int:
    """Bytes of regular files under ``path`` (optionally only those
    below its ``under`` subdirectory)."""
    total = 0
    for directory, _dirs, files in os.walk(os.path.join(path, under)):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total
