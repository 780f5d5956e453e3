"""Z-order (Morton) curve utilities.

The paper uses the Z-order curve (citing Samet) to construct the set of
geohash prefixes covering a circular query region, and relies on the fact
that geohash order *is* Z-order: sorting cells by their code visits them
along the Morton curve, so all cells of a rectangular area occupy a small
number of contiguous code ranges.  This module provides the raw interleaved
encoding plus range decomposition used by :mod:`repro.geo.cover` and by the
index writer when laying out postings contiguously.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


def interleave(x: int, y: int, bits: int) -> int:
    """Interleave the low ``bits`` bits of ``x`` and ``y`` into a Morton code.

    Bit ``i`` of ``x`` lands at position ``2*i`` and bit ``i`` of ``y`` at
    ``2*i + 1``, matching the geohash convention of longitude-first.
    """
    if x < 0 or y < 0:
        raise ValueError("interleave requires non-negative inputs")
    if x >> bits or y >> bits:
        raise ValueError(f"inputs exceed {bits} bits: x={x}, y={y}")
    code = 0
    for i in range(bits):
        code |= ((x >> i) & 1) << (2 * i)
        code |= ((y >> i) & 1) << (2 * i + 1)
    return code


def deinterleave(code: int, bits: int) -> Tuple[int, int]:
    """Inverse of :func:`interleave`: split a Morton code back into (x, y)."""
    if code < 0:
        raise ValueError("Morton code must be non-negative")
    x = 0
    y = 0
    for i in range(bits):
        x |= ((code >> (2 * i)) & 1) << i
        y |= ((code >> (2 * i + 1)) & 1) << i
    return x, y


def lat_lon_to_cell(lat: float, lon: float, bits_per_axis: int) -> Tuple[int, int]:
    """Quantise a coordinate into integer grid cell indices.

    The grid has ``2**bits_per_axis`` cells along each axis over the full
    lat/lon domain.  The north pole / antimeridian edge maps into the last
    cell rather than overflowing.
    """
    n = 1 << bits_per_axis
    x = int((lon + 180.0) / 360.0 * n)
    y = int((lat + 90.0) / 180.0 * n)
    return (min(x, n - 1), min(y, n - 1))


def zorder_ranges(min_x: int, min_y: int, max_x: int, max_y: int,
                  bits: int, max_ranges: int = 64) -> List[Tuple[int, int]]:
    """Decompose the rectangle ``[min_x, max_x] x [min_y, max_y]`` (cell
    indices, inclusive) into at most ``max_ranges`` contiguous Morton-code
    ranges ``(lo, hi)`` that together cover it.

    The decomposition recursively splits quadrants, merging adjacent ranges
    when the budget is exceeded — exactly the trade-off the paper describes:
    covering the query region completely while keeping the number of
    contiguous slices (and hence seeks) small, at the price of some area
    outside the query region.
    """
    if min_x > max_x or min_y > max_y:
        return []
    ranges: List[Tuple[int, int]] = []

    def visit(qx: int, qy: int, level: int) -> None:
        """Visit the quadrant whose top-left cell is (qx, qy) at ``level``
        (level == bits means a single cell)."""
        size = 1 << (bits - level)
        lo_x, hi_x = qx, qx + size - 1
        lo_y, hi_y = qy, qy + size - 1
        if hi_x < min_x or lo_x > max_x or hi_y < min_y or lo_y > max_y:
            return
        if lo_x >= min_x and hi_x <= max_x and lo_y >= min_y and hi_y <= max_y:
            lo = interleave(qx >> (bits - level), qy >> (bits - level), level) << (2 * (bits - level))
            hi = lo + (1 << (2 * (bits - level))) - 1
            ranges.append((lo, hi))
            return
        if level == bits:
            code = interleave(qx, qy, bits)
            ranges.append((code, code))
            return
        half = size // 2
        # Z-order child visit order: (0,0) (1,0) (0,1) (1,1) in x,y offsets.
        visit(qx, qy, level + 1)
        visit(qx + half, qy, level + 1)
        visit(qx, qy + half, level + 1)
        visit(qx + half, qy + half, level + 1)

    visit(0, 0, 0)
    ranges.sort()
    merged = merge_ranges(ranges)
    while len(merged) > max_ranges:
        merged = _coalesce_smallest_gap(merged)
    return merged


def merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge sorted, possibly-adjacent ``(lo, hi)`` ranges."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in ranges:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _coalesce_smallest_gap(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge the pair of consecutive ranges with the smallest gap between
    them, trading extra covered area for fewer contiguous slices."""
    if len(ranges) < 2:
        return ranges
    best = min(range(len(ranges) - 1), key=lambda i: ranges[i + 1][0] - ranges[i][1])
    out = list(ranges)
    out[best] = (out[best][0], out[best + 1][1])
    del out[best + 1]
    return out


def iter_codes(ranges: List[Tuple[int, int]]) -> Iterator[int]:
    """Iterate every Morton code contained in the given ranges."""
    for lo, hi in ranges:
        yield from range(lo, hi + 1)
