"""Great-circle geometry and circular statistics.

Distances are meters, angles are degrees. Bearings use compass
convention: 0 = north, 90 = east, normalized to [0, 360).
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Sequence

EARTH_RADIUS_M = 6_371_000.0

# the factors math.radians and math.degrees multiply by, so array code
# converts angles bit for bit as the scalar code does
DEG_TO_RAD = math.pi / 180.0
RAD_TO_DEG = 180.0 / math.pi


def normalize_bearing_deg(angle: float) -> float:
    """Fold an angle in degrees into [0, 360)."""
    folded = math.fmod(angle, 360.0)
    if folded < 0.0:
        folded += 360.0
    if folded == 360.0:
        folded = 0.0
    return folded


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points in meters.

    Args:
        lat1, lon1: first point in decimal degrees.
        lat2, lon2: second point in decimal degrees.

    Returns:
        Distance along the sphere of radius EARTH_RADIUS_M, meters.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from the first point toward the second.

    Args:
        lat1, lon1: origin in decimal degrees.
        lat2, lon2: target in decimal degrees.

    Returns:
        Compass bearing in [0, 360).

    Raises:
        ValueError: if the two points coincide (bearing undefined).
    """
    if lat1 == lat2 and lon1 == lon2:
        raise ValueError("undefined bearing: points coincide")
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlmb = math.radians(lon2 - lon1)
    y = math.sin(dlmb) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlmb)
    return normalize_bearing_deg(math.degrees(math.atan2(y, x)))


def destination_point(lat: float, lon: float, bearing_deg: float, distance_m: float) -> tuple[float, float]:
    """Point reached by traveling distance_m along an initial bearing.

    Args:
        lat, lon: start in decimal degrees.
        bearing_deg: compass bearing at the start.
        distance_m: great-circle distance to travel, meters.

    Returns:
        (lat, lon) of the destination in decimal degrees.
    """
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(lat)
    lmb1 = math.radians(lon)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lmb2 = lmb1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon2 = math.degrees(lmb2)
    if lon2 > 180.0:
        lon2 -= 360.0
    elif lon2 < -180.0:
        lon2 += 360.0
    return math.degrees(phi2), lon2


def circular_mean_deg(angles: Sequence[float]) -> float:
    """Mean direction of a set of angles via the unit-vector sum.

    Args:
        angles: one or more angles in degrees.

    Returns:
        Mean angle in [0, 360). When the unit vectors cancel (mean
        resultant length below 1e-9, e.g. perfectly opposed angles)
        the mean is undefined; the first angle is returned and a
        "degenerate mean" RuntimeWarning is emitted.
    """
    if len(angles) == 0:
        raise ValueError("circular mean of empty sequence")
    sx = 0.0
    sy = 0.0
    for a in angles:
        r = math.radians(a)
        sx += math.cos(r)
        sy += math.sin(r)
    n = len(angles)
    if math.hypot(sx, sy) / n < 1e-9:
        warnings.warn("degenerate mean: opposed angles cancel", RuntimeWarning, stacklevel=2)
        return normalize_bearing_deg(angles[0])
    return normalize_bearing_deg(math.degrees(math.atan2(sy, sx)))


def mean_resultant_length(angles: Iterable[float]) -> float:
    """Length of the mean unit vector of a set of angles, in [0, 1].

    1.0 means all angles are identical; values near 0 mean the
    directions cancel. Circular variance is 1 minus this value.
    """
    sx = 0.0
    sy = 0.0
    n = 0
    for a in angles:
        r = math.radians(a)
        sx += math.cos(r)
        sy += math.sin(r)
        n += 1
    if n == 0:
        raise ValueError("resultant length of empty sequence")
    return min(1.0, math.hypot(sx, sy) / n)


def circular_diff_deg(a: float, b: float) -> float:
    """Minimal angular separation between two bearings, in [0, 180]."""
    d = math.fmod(abs(a - b), 360.0)
    if d > 180.0:
        d = 360.0 - d
    return d
