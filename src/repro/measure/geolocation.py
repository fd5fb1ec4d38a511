"""Approach 3 of §3.2.2: locating serving infrastructure at fine
granularity.

"The first two approaches uncover IP addresses of serving infrastructure
hosting a particular service, but many use cases need to know the
city/facility of serving infrastructure. Starting points may be
client-centric geolocation [13] and constraint-based localization from
in-facility vantage points [26, 47]."

Two estimators:

* :func:`client_centric_geolocate` — a serving address is near the mass of
  the client prefixes mapped to it (works when an ECS mapping exists);
* :class:`RttGeolocator` — constraint-based: ping from distributed vantage
  points; each RTT bounds the feasible distance, and the candidate city
  violating the constraints least wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..net.geography import City, haversine_km, haversine_km_matrix
from ..net.prefixes import PrefixTable
from .atlas import KM_PER_RTT_MS, RTT_FLOOR_MS, AtlasPlatform, VantagePoint


@dataclass(frozen=True)
class GeolocationEstimate:
    """An estimated location with its supporting evidence size."""

    city: City
    evidence_count: int
    method: str


def client_centric_geolocate(client_cities: Sequence[City],
                             candidates: Sequence[City],
                             weights: Optional[Sequence[float]] = None
                             ) -> GeolocationEstimate:
    """Estimate a server's city from the clients mapped to it [13].

    Computes the (weighted) spherical centroid of the client locations and
    snaps it to the nearest candidate city.
    """
    if not client_cities:
        raise MeasurementError("no client locations given")
    if not candidates:
        raise MeasurementError("no candidate cities given")
    if weights is None:
        w = np.ones(len(client_cities))
    else:
        w = np.asarray(list(weights), dtype=float)
        if len(w) != len(client_cities) or (w < 0).any() or w.sum() <= 0:
            raise MeasurementError("invalid weights")
    lat, lon = spherical_centroid([c.lat for c in client_cities],
                                  [c.lon for c in client_cities], w)
    best, = nearest_cities([lat], [lon], candidates)
    return GeolocationEstimate(city=best,
                               evidence_count=len(client_cities),
                               method="client-centric")


def spherical_centroid(lats: Sequence[float], lons: Sequence[float],
                       weights: np.ndarray) -> Tuple[float, float]:
    """The weighted centroid ``(lat, lon)`` of points given in degrees,
    averaged on the unit sphere to handle longitude wraparound."""
    lats = np.radians(lats)
    lons = np.radians(lons)
    x = float((np.cos(lats) * np.cos(lons) * weights).sum())
    y = float((np.cos(lats) * np.sin(lons) * weights).sum())
    z = float((np.sin(lats) * weights).sum())
    norm = math.sqrt(x * x + y * y + z * z)
    if norm <= 0:
        raise MeasurementError("degenerate client distribution")
    return math.degrees(math.asin(z / norm)), math.degrees(math.atan2(y, x))


def nearest_cities(lats: Sequence[float], lons: Sequence[float],
                   candidates: Sequence[City]) -> List[City]:
    """The candidate nearest to each point; equal distances go to the
    smallest name, as ``min`` over ``(distance, name)`` would pick."""
    by_name = sorted(candidates, key=lambda c: c.name)
    dist = haversine_km_matrix(lats, lons, [c.lat for c in by_name],
                               [c.lon for c in by_name])
    # argmin takes the first of equal minima: the smallest name.
    return [by_name[i] for i in dist.argmin(axis=1).tolist()]


class RttGeolocator:
    """Constraint-based localisation from distributed pings [26, 47]."""

    def __init__(self, platform: AtlasPlatform,
                 candidates: Sequence[City]) -> None:
        if not candidates:
            raise MeasurementError("no candidate cities")
        self._platform = platform
        self._candidates = list(candidates)

    def locate(self, target_pid: int,
               max_vps: Optional[int] = 40) -> GeolocationEstimate:
        """Ping the target and pick the least-violating candidate city.

        Each RTT sample upper-bounds the distance to the pinging vantage
        point (light cannot be outrun); the score of a candidate is the
        total constraint violation plus a soft fit to the observed RTTs.
        """
        samples = self._platform.ping_from_all(target_pid, max_vps=max_vps)
        if not samples:
            raise MeasurementError("no vantage points answered")
        best_city = None
        best_score = math.inf
        for city in self._candidates:
            violation = 0.0
            fit = 0.0
            for vp, rtt in samples:
                dist = haversine_km(vp.city.lat, vp.city.lon,
                                    city.lat, city.lon)
                bound = max(0.0, (rtt - RTT_FLOOR_MS)) * KM_PER_RTT_MS
                violation += max(0.0, dist - bound)
                fit += abs(dist - bound) * 0.05
            score = violation + fit
            if score < best_score or (score == best_score and best_city and
                                      city.name < best_city.name):
                best_score = score
                best_city = city
        assert best_city is not None
        return GeolocationEstimate(city=best_city,
                                   evidence_count=len(samples),
                                   method="rtt-constraint")

    def locate_many(self, target_pids: Sequence[int],
                    max_vps: Optional[int] = 40
                    ) -> List[Tuple[int, GeolocationEstimate]]:
        return [(pid, self.locate(pid, max_vps=max_vps))
                for pid in target_pids]
