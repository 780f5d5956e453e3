"""Numpy-optional columnar batch primitives.

The batched query kernels (``repro.geo.distance.haversine_km_batch``,
``BlockPostingsReader.decode_block_arrays``, the query operators in
``repro.query.pipeline.operators``) all build on this module.  Two
backends exist:

``numpy``
    Columns are ``numpy.ndarray`` (``int64`` / ``float64``).  Selected
    automatically when numpy is importable.

``python``
    Columns are ``array('q')`` / ``array('d')`` from the stdlib.  Used
    when numpy is absent, when ``REPRO_COLUMNAR=python`` is set, or
    inside :func:`force_backend` (the test hook that lets one
    interpreter exercise both legs).

Backend contract: every batch kernel must return results *bitwise
identical* to its scalar counterpart.  Integer kernels are trivially
exact; float kernels must only use numpy element-wise operations that
are verified bitwise-equal to ``math.*`` on this host (see the
calibration probe in ``repro.geo.distance``) and must perform
reductions in the same left-to-right association order as the scalar
code (``sum(column_tolist(...))``, never ``ndarray.sum()``, which is
pairwise).
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy-less leg
    _numpy = None  # type: ignore[assignment]

#: test/CI override; ``force_backend`` swaps this temporarily
_FORCED: Optional[str] = None

#: process-wide override (lets the no-numpy CI leg run with numpy
#: installed, and lets operators be benchmarked on the fallback)
_ENV_BACKEND = os.environ.get("REPRO_COLUMNAR", "").strip().lower() or None


def have_numpy() -> bool:
    """Whether numpy imported at all (irrespective of overrides)."""
    return _numpy is not None


def active_backend() -> str:
    """The backend batch kernels should use right now."""
    if _FORCED is not None:
        return _FORCED
    if _ENV_BACKEND in ("python", "numpy"):
        if _ENV_BACKEND == "numpy" and _numpy is None:
            return "python"
        return _ENV_BACKEND
    return "numpy" if _numpy is not None else "python"


def numpy_module() -> Any:
    """The numpy module when the active backend is numpy, else None.

    Kernels branch on this once per batch, so a forced backend switch
    takes effect at the next call.
    """
    return _numpy if active_backend() == "numpy" else None


@contextmanager
def force_backend(name: str) -> Iterator[None]:
    """Pin the active backend for a ``with`` block (test hook).

    ``force_backend("python")`` proves the stdlib fallback on a host
    that has numpy; ``force_backend("numpy")`` raises if numpy is not
    importable.
    """
    global _FORCED
    if name not in ("python", "numpy"):
        raise ValueError(f"unknown columnar backend {name!r}")
    if name == "numpy" and _numpy is None:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    previous = _FORCED
    _FORCED = name
    try:
        yield
    finally:
        _FORCED = previous


# ---------------------------------------------------------------------------
# column constructors


def int_column(values: Sequence[int]) -> Any:
    """An int64 column from ``values`` (ndarray or ``array('q')``)."""
    np = numpy_module()
    if np is not None:
        if isinstance(values, array) and values.typecode == "q":
            # array('q') exposes the buffer protocol: wrap it zero-copy
            # (read-only, which every consumer here respects).
            return np.frombuffer(values, dtype=np.int64)
        return np.asarray(values, dtype=np.int64)
    if isinstance(values, array) and values.typecode == "q":
        return values
    return array("q", values)


def float_column(values: Sequence[float]) -> Any:
    """A float64 column from ``values`` (ndarray or ``array('d')``)."""
    np = numpy_module()
    if np is not None:
        return np.asarray(values, dtype=np.float64)
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", values)


def column_tolist(column: Any) -> List[Any]:
    """Plain-list view of a column; python numbers, not numpy scalars."""
    tolist = getattr(column, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(column)


# ---------------------------------------------------------------------------
# sorted-range narrowing (the TemporalClip kernel)


def sorted_range(column: Any, lo: Optional[int], hi: Optional[int]
                 ) -> Tuple[int, int]:
    """``(start, stop)`` slice bounds of values in ``[lo, hi]`` within a
    sorted int column — identical to ``bisect_left``/``bisect_right``.
    ``None`` bounds are open (0 / ``len(column)``).

    The numpy path answers both bounds with vectorized binary searches
    over the whole column; the fallback uses ``bisect`` directly.
    """
    np = numpy_module()
    if np is not None and isinstance(column, np.ndarray):
        start = 0 if lo is None else int(np.searchsorted(column, lo,
                                                         side="left"))
        stop = (len(column) if hi is None
                else int(np.searchsorted(column, hi, side="right")))
        return start, stop
    start = 0 if lo is None else bisect_left(column, lo)
    stop = len(column) if hi is None else bisect_right(column, hi)
    return start, stop


# ---------------------------------------------------------------------------
# batched top-k (partial select, then exact finalize)


def select_top_k(scored: Sequence[Tuple[int, float]], k: int
                 ) -> List[Tuple[int, int, float]]:
    """Top ``k`` of ``(uid, score)`` pairs ordered by ``(-score, uid)``.

    Returns ``(position, uid, score)`` triples so callers can recover
    the original objects; the ordering is exactly
    ``sorted(scored, key=lambda item: (-item[1], item[0]))[:k]``.

    The numpy path partial-selects the k-th largest score with
    ``np.partition`` and only sorts the boundary superset (all entries
    with ``score >= cut``, so ties are never dropped); the fallback is
    the plain heap-free sort.  Exact
    float comparisons throughout — no tolerance is involved, so the
    selection is bitwise-faithful to the scalar path.
    """
    if k <= 0 or not scored:
        return []
    np = numpy_module()
    indexed = None
    if np is not None and len(scored) > k:
        scores = np.fromiter((score for _uid, score in scored),
                             dtype=np.float64, count=len(scored))
        cut = np.partition(scores, len(scored) - k)[len(scored) - k]
        keep = np.nonzero(scores >= cut)[0].tolist()
        indexed = [(position, scored[position][0], scored[position][1])
                   for position in keep]
    if indexed is None:
        indexed = [(position, uid, score)
                   for position, (uid, score) in enumerate(scored)]
    indexed.sort(key=lambda item: (-item[2], item[1]))
    return indexed[:k]
