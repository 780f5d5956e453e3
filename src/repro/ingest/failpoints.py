"""Kill-point injection for crash-recovery testing.

The recovery guarantees of :mod:`repro.ingest` are only worth anything
if they are demonstrated under crashes at the *worst* moments: halfway
through a WAL append, after a record is written but before its fsync,
mid-way through materialising a flushed generation, and after the flush
commit but before the WAL segment is truncated.  :class:`Failpoints`
lets tests arm named crash points inside the write path; the code under
test asks ``hit(name)`` at each point and raises
:class:`SimulatedCrash` when the armed point fires.

A simulated crash abandons every in-memory object (memtable, live
index, cluster); only the ingest directory on disk survives, exactly
like a process kill.  The kill-point matrix in
``tests/test_ingest_recovery.py`` drives one ingest script through every
point and asserts the recovered system answers queries byte-identically
to an uncrashed run.
"""

from __future__ import annotations

from typing import Dict, List


#: The crash points the ingest write path exposes, in pipeline order.
KILL_POINTS = (
    "wal.append.mid",        # torn tail: half the record frame reaches disk
    "wal.append.pre_sync",   # record written but the fsync never happens
    "ingest.flush.mid",      # generation partially materialised, no commit
    "ingest.flush.pre_truncate",  # committed, WAL segment not yet deleted
    "compaction.merge.mid",  # merged generation partially materialised
    "compaction.pre_commit",  # merge output complete, manifest not committed
    "compaction.pre_reclaim",  # committed, superseded dirs not yet removed
)


class SimulatedCrash(RuntimeError):
    """Raised when an armed failpoint fires; stands in for a process
    kill, so nothing downstream of the raise may run."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at failpoint {point!r}")
        self.point = point


class Failpoints:
    """Named one-shot crash points.

    ``arm(name, skip=n)`` schedules the point to fire on its ``n+1``-th
    hit; ``hit(name)`` consumes one hit and returns whether the caller
    should crash now.  Unarmed points cost one dict lookup.
    """

    def __init__(self) -> None:
        self._armed: Dict[str, int] = {}
        self.fired: List[str] = []

    def arm(self, point: str, skip: int = 0) -> None:
        if skip < 0:
            raise ValueError(f"skip must be >= 0: {skip}")
        self._armed[point] = skip

    def hit(self, point: str) -> bool:
        """Consume one hit of ``point``; True when the armed countdown
        reaches zero (the caller must then raise
        :class:`SimulatedCrash`)."""
        remaining = self._armed.get(point)
        if remaining is None:
            return False
        if remaining > 0:
            self._armed[point] = remaining - 1
            return False
        del self._armed[point]
        self.fired.append(point)
        return True

    def trip(self, point: str) -> None:
        """``hit`` + raise in one call, for points with no special
        on-crash byte handling."""
        if self.hit(point):
            raise SimulatedCrash(point)


#: Shared no-op instance for production paths (nothing ever armed).
NO_FAILPOINTS = Failpoints()
