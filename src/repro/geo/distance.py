"""Distance metrics between geographic coordinates.

The paper measures query radii in kilometres, while its problem definition
uses the Euclidean distance between locations (footnote 4 notes that the
techniques adapt to other metrics).  We therefore expose several metrics
behind a common callable signature ``metric(a, b) -> km`` where ``a`` and
``b`` are ``(lat, lon)`` pairs in degrees:

* :func:`haversine_km` — great-circle distance, the library default since
  query radii are expressed in kilometres;
* :func:`equirectangular_km` — fast approximation, accurate for the small
  (<100 km) radii used in the paper's experiments;
* :func:`euclidean_degrees` — the paper's literal metric, in degrees.

All query-processing code takes a metric parameter so callers can swap in
any of these (or their own).
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable, List, Sequence, Tuple

from repro import columnar

Coordinate = Tuple[float, float]
Metric = Callable[[Coordinate, Coordinate], float]

#: Mean Earth radius in kilometres (IUGG value).
EARTH_RADIUS_KM = 6371.0088

#: Kilometres per degree of latitude (and of longitude at the equator).
KM_PER_DEGREE = EARTH_RADIUS_KM * math.pi / 180.0


def haversine_km(a: Coordinate, b: Coordinate) -> float:
    """Great-circle distance between two (lat, lon) points, in kilometres."""
    lat1, lon1 = a
    lat2, lon2 = b
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    # Squares are ``s * s``, never ``s ** 2``: Python's ``**`` calls libm
    # ``pow``, which is not correctly rounded, so it can differ in the
    # last bit from the multiply the numpy kernel below performs.
    sin_dphi = math.sin(dphi / 2.0)
    sin_dlam = math.sin(dlam / 2.0)
    h = sin_dphi * sin_dphi + math.cos(phi1) * math.cos(phi2) * (sin_dlam * sin_dlam)
    # Clamp against floating-point drift before asin.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def haversine_km_from(origin: Coordinate) -> Callable[[Coordinate], float]:
    """A one-argument haversine closure with the origin's trigonometry
    hoisted out of the per-candidate loop.

    ``haversine_km_from(q)(p)`` is bitwise-identical to
    ``haversine_km(q, p)``: the hoisted ``phi1``/``cos(phi1)`` are the
    very same intermediates the two-argument form computes, and every
    remaining operation keeps its order and association.
    """
    lat1, lon1 = origin
    phi1 = math.radians(lat1)
    cos_phi1 = math.cos(phi1)
    radians = math.radians
    sin = math.sin
    cos = math.cos

    def distance(b: Coordinate) -> float:
        lat2, lon2 = b
        phi2 = radians(lat2)
        dphi = radians(lat2 - lat1)
        dlam = radians(lon2 - lon1)
        sin_dphi = sin(dphi / 2.0)
        sin_dlam = sin(dlam / 2.0)
        h = sin_dphi * sin_dphi + cos_phi1 * cos(phi2) * (sin_dlam * sin_dlam)
        h = min(1.0, max(0.0, h))
        return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))

    return distance


def _haversine_batch_python(origin: Coordinate, lats: Sequence[float],
                            lons: Sequence[float]) -> List[float]:
    distance = haversine_km_from(origin)
    return [distance((lat, lon)) for lat, lon in zip(lats, lons)]


def _haversine_batch_numpy(np: Any, origin: Coordinate,
                           lats: Sequence[float],
                           lons: Sequence[float]) -> Any:
    lat1, lon1 = origin
    phi1 = math.radians(lat1)
    cos_phi1 = math.cos(phi1)
    lat2 = np.asarray(lats, dtype=np.float64)
    lon2 = np.asarray(lons, dtype=np.float64)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    sin_dphi = np.sin(dphi / 2.0)
    sin_dlam = np.sin(dlam / 2.0)
    h = sin_dphi * sin_dphi + cos_phi1 * np.cos(phi2) * (sin_dlam * sin_dlam)
    h = np.minimum(1.0, np.maximum(0.0, h))
    root = np.sqrt(h)
    # np.arcsin is allowed to differ from math.asin in the last ULP (it
    # does on SIMD builds), so the final asin runs per element through
    # libm; everything before it is verified bitwise by the calibration
    # probe below.
    scale = 2.0 * EARTH_RADIUS_KM
    out = np.fromiter((math.asin(value) for value in root.tolist()),
                      dtype=np.float64, count=root.shape[0])
    return out * scale


#: Lazily computed: True once the numpy kernel proved bitwise equality
#: with :func:`haversine_km` on this host, False if the probe failed,
#: None before the first batched call.
_NUMPY_KERNEL_CALIBRATED: "bool | None" = None


def _calibrate_numpy_kernel(np: Any) -> bool:
    """Compare the complete numpy kernel against the scalar haversine,
    bit for bit, over a deterministic grid plus the edge cases (zero
    distance, near-antipodal clamp, poles).  Any mismatch — e.g. a
    platform whose vectorized sin/cos are not the libm ones — disables
    the numpy kernel for the whole process; the python fallback is then
    used even though numpy is importable.
    """
    import random

    rng = random.Random(0x5EED)
    origins = [(0.0, 0.0), (48.8566, 2.3522), (-89.9, 179.9), (90.0, -180.0)]
    lats = [rng.uniform(-90.0, 90.0) for _ in range(512)]
    lons = [rng.uniform(-180.0, 180.0) for _ in range(512)]
    for origin in origins:
        lats_case = lats + [origin[0], -origin[0], 90.0, -90.0]
        lons_case = lons + [origin[1], 180.0 - origin[1], 0.0, 0.0]
        batch = _haversine_batch_numpy(np, origin, lats_case, lons_case)
        scalar = _haversine_batch_python(origin, lats_case, lons_case)
        for got, want in zip(batch.tolist(), scalar):
            if struct.pack("<d", got) != struct.pack("<d", want):
                return False
    return True


def haversine_km_batch(origin: Coordinate, lats: Sequence[float],
                       lons: Sequence[float]) -> Any:
    """Distances from ``origin`` to every ``(lats[i], lons[i])``.

    Returns a float column (ndarray on the numpy backend, a plain list
    on the fallback); element ``i`` is bitwise-identical to
    ``haversine_km(origin, (lats[i], lons[i]))``.  The numpy kernel is
    only trusted after a one-time calibration probe; on failure the
    process permanently falls back to the scalar loop.
    """
    global _NUMPY_KERNEL_CALIBRATED
    np = columnar.numpy_module()
    if np is not None:
        if _NUMPY_KERNEL_CALIBRATED is None:
            _NUMPY_KERNEL_CALIBRATED = _calibrate_numpy_kernel(np)
        if _NUMPY_KERNEL_CALIBRATED:
            return _haversine_batch_numpy(np, origin, lats, lons)
    return _haversine_batch_python(origin, lats, lons)


def equirectangular_km(a: Coordinate, b: Coordinate) -> float:
    """Equirectangular-projection distance in kilometres.

    Within the paper's 5-100 km query radii the error versus haversine is
    negligible, and this metric is substantially cheaper to evaluate.
    """
    lat1, lon1 = a
    lat2, lon2 = b
    mean_phi = math.radians((lat1 + lat2) / 2.0)
    x = math.radians(lon2 - lon1) * math.cos(mean_phi)
    y = math.radians(lat2 - lat1)
    return EARTH_RADIUS_KM * math.hypot(x, y)


def euclidean_degrees(a: Coordinate, b: Coordinate) -> float:
    """Plain Euclidean distance in degree space (the paper's literal metric)."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def km_to_degrees_lat(km: float) -> float:
    """Convert a north-south distance in kilometres to degrees of latitude."""
    return km / KM_PER_DEGREE


def km_to_degrees_lon(km: float, lat: float) -> float:
    """Convert an east-west distance in kilometres to degrees of longitude
    at latitude ``lat``.

    Near the poles a kilometre spans an unbounded number of longitude
    degrees; the result is capped at 360.
    """
    cos_lat = math.cos(math.radians(lat))
    if cos_lat <= 1e-9:
        return 360.0
    return min(360.0, km / (KM_PER_DEGREE * cos_lat))


def bounding_box(center: Coordinate, radius_km: float) -> Tuple[float, float, float, float]:
    """Return ``(min_lat, min_lon, max_lat, max_lon)`` of the smallest
    latitude/longitude box containing the circle of ``radius_km`` around
    ``center``.  Latitudes are clamped to [-90, 90]; longitudes may exceed
    [-180, 180] when the circle crosses the antimeridian (callers that care
    should normalise).
    """
    lat, lon = center
    dlat = km_to_degrees_lat(radius_km)
    dlon = km_to_degrees_lon(radius_km, lat)
    return (max(-90.0, lat - dlat), lon - dlon, min(90.0, lat + dlat), lon + dlon)


def min_distance_to_rect_km(point: Coordinate,
                            rect: Tuple[float, float, float, float]) -> float:
    """Exact great-circle distance from ``point`` to the nearest point of
    the lat/lon rectangle ``(min_lat, min_lon, max_lat, max_lon)``.

    Coordinate clamping — the usual shortcut — under-estimates only for
    longitude gaps under 90 degrees; beyond that the nearest point of a
    meridian edge moves poleward off the clamped latitude.  This version
    is exact everywhere: it takes the minimum over the two parallel
    (constant-latitude) edges, where clamping the longitude *is* optimal,
    and the two meridian edges, where the optimal latitude has the closed
    form ``atan2(sin(lat_p), cos(lat_p) * cos(dlon))`` clamped into the
    edge's latitude range.
    """
    min_lat, min_lon, max_lat, max_lon = rect
    lat, lon = point
    if min_lat <= lat <= max_lat and min_lon <= lon <= max_lon:
        return 0.0

    def clamp_lon(value: float) -> float:
        return min(max(value, min_lon), max_lon)

    best = min(
        haversine_km(point, (min_lat, clamp_lon(lon))),
        haversine_km(point, (max_lat, clamp_lon(lon))),
    )
    phi = math.radians(lat)
    for edge_lon in (min_lon, max_lon):
        dlam = math.radians(edge_lon - lon)
        optimal = math.degrees(math.atan2(math.sin(phi),
                                          math.cos(phi) * math.cos(dlam)))
        # ``optimal`` is the extremum on the full great circle through the
        # meridian; for near-antipodal longitude gaps it can land on the
        # antimeridian branch (|optimal| > 90), where clamping alone picks
        # the wrong end of the segment.  Evaluating both endpoints as well
        # keeps the result the true minimum in every case.
        candidates = (min(max(optimal, min_lat), max_lat), min_lat, max_lat)
        for target_lat in candidates:
            best = min(best, haversine_km(point, (target_lat, edge_lon)))
    return best


DEFAULT_METRIC: Metric = haversine_km
