"""Constructing geohash covers of circular query regions.

Algorithm 4/5, line 1: ``Geohashes = GeoHashCircleQuery(q, r)`` — a list of
geohash cells, at the index's configured encoding length, that completely
covers the circle of radius ``r`` km around the query location while
minimising the area outside the query region (Section IV-B1).

We enumerate the grid cells of the circle's bounding box and keep those
whose minimum distance to the centre is within the radius.  Cells are
returned in geohash (Z-order) order so that the postings lists they select
are fetched in contiguous storage order.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from . import geohash
from .distance import (
    DEFAULT_METRIC,
    Metric,
    bounding_box,
    haversine_km,
    min_distance_to_rect_km,
)

Coordinate = Tuple[float, float]


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


def min_distance_to_cell(center: Coordinate, cell: Tuple[float, float, float, float],
                         metric: Metric = DEFAULT_METRIC) -> float:
    """Minimum distance (km under ``metric``) from ``center`` to a cell
    ``(min_lat, min_lon, max_lat, max_lon)``.

    Exact for the haversine metric (see
    :func:`repro.geo.distance.min_distance_to_rect_km`); other metrics use
    the closest point under coordinate clamping, which is exact for them.
    """
    if metric is haversine_km:
        return min_distance_to_rect_km(center, cell)
    min_lat, min_lon, max_lat, max_lon = cell
    nearest = (_clamp(center[0], min_lat, max_lat),
               _clamp(center[1], min_lon, max_lon))
    return metric(center, nearest)


def max_distance_to_cell(center: Coordinate, cell: Tuple[float, float, float, float],
                         metric: Metric = DEFAULT_METRIC) -> float:
    """Maximum distance (km under ``metric``) from ``center`` to any corner
    of the cell."""
    min_lat, min_lon, max_lat, max_lon = cell
    corners = ((min_lat, min_lon), (min_lat, max_lon),
               (max_lat, min_lon), (max_lat, max_lon))
    return max(metric(center, corner) for corner in corners)


def circle_cover(center: Coordinate, radius_km: float, length: int,
                 metric: Metric = DEFAULT_METRIC) -> List[str]:
    """Return the geohash cells of the given encoding ``length`` that cover
    the circle ``(center, radius_km)``, sorted in Z-order.

    The cover is complete: every point within ``radius_km`` of ``center``
    lies in some returned cell.  It is minimal at cell granularity: every
    returned cell intersects the circle.
    """
    if radius_km < 0:
        raise ValueError(f"radius must be non-negative: {radius_km}")
    lat, lon = center
    if radius_km == 0:
        return [geohash.encode(lat, lon, length)]
    min_lat, min_lon, max_lat, max_lon = bounding_box(center, radius_km)
    lat_span, lon_span = geohash.cell_dimensions_degrees(length)

    cells: List[str] = []
    seen = set()
    # March the cell grid across the bounding box.  Anchor the march on the
    # cell containing the box corner so cell boundaries align with the
    # geohash grid rather than with the box.
    lat_cursor = min_lat
    while lat_cursor <= max_lat + lat_span:
        probe_lat = _clamp(lat_cursor, -90.0, 90.0)
        lon_cursor = min_lon
        while lon_cursor <= max_lon + lon_span:
            probe_lon = lon_cursor
            if probe_lon > 180.0:
                probe_lon -= 360.0
            elif probe_lon < -180.0:
                probe_lon += 360.0
            code = geohash.encode(probe_lat, probe_lon, length)
            if code not in seen:
                seen.add(code)
                cell = geohash.decode_cell(code)
                if min_distance_to_cell(center, cell, metric) <= radius_km:
                    cells.append(code)
            lon_cursor += lon_span
        lat_cursor += lat_span
    cells.sort()
    return cells


def classify_cells(center: Coordinate, radius_km: float, cells: Sequence[str],
                   metric: Metric = DEFAULT_METRIC) -> Tuple[List[str], List[str]]:
    """Split already-computed cover cells into ``(inside, boundary)``.

    ``inside`` cells lie entirely within the circle, so tweets in them need
    no exact distance check; ``boundary`` cells intersect the circle edge
    and their tweets must be verified individually (the ``distance > r``
    check at line 16 of Algorithms 4/5).
    """
    inside: List[str] = []
    boundary: List[str] = []
    for code in cells:
        cell = geohash.decode_cell(code)
        if max_distance_to_cell(center, cell, metric) <= radius_km:
            inside.append(code)
        else:
            boundary.append(code)
    return inside, boundary


def cover_cells_fully_inside(center: Coordinate, radius_km: float, length: int,
                             metric: Metric = DEFAULT_METRIC) -> Tuple[List[str], List[str]]:
    """:func:`circle_cover` split by :func:`classify_cells`."""
    return classify_cells(center, radius_km,
                          circle_cover(center, radius_km, length, metric), metric)


def cover_area_ratio(center: Coordinate, radius_km: float, length: int,
                     metric: Metric = DEFAULT_METRIC) -> float:
    """Ratio of covered cell area to the circle's area (>= 1).

    A diagnostic for the precision/cell-count trade-off the paper discusses:
    longer encodings give ratios closer to 1 at the cost of more cells.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive: {radius_km}")
    circle_area = math.pi * radius_km * radius_km
    total = 0.0
    for code in circle_cover(center, radius_km, length, metric):
        min_lat, min_lon, max_lat, max_lon = geohash.decode_cell(code)
        height_km = metric((min_lat, min_lon), (max_lat, min_lon))
        width_km = metric(((min_lat + max_lat) / 2.0, min_lon),
                          ((min_lat + max_lat) / 2.0, max_lon))
        total += height_km * width_km
    return total / circle_area
