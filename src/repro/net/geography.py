"""Geography: countries, cities, distances and timezones.

The atlas is a fixed, embedded catalogue of real-world countries and cities.
It gives the simulation plausible geography — user populations concentrated
in populous countries, serving sites in major metros, great-circle distances
for latency and anycast-optimality studies — without any external data
dependency.

Coordinates are approximate city centres; ``utc_offset`` is the standard
(non-DST) offset used to drive diurnal activity curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

EARTH_RADIUS_KM = 6371.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres between two WGS84 points.

    Past a quarter circumference ``a`` nears 1 and ``asin(sqrt(a))`` loses
    precision (near-antipodal points round to exactly half the
    circumference), so there the distance is taken as the complement of
    the distance to the antipode, ``hav(pi - theta)``, a sum of
    non-negative terms with no cancellation.
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    cos_cos = math.cos(phi1) * math.cos(phi2)
    a = math.sin(dphi / 2) ** 2 + cos_cos * math.sin(dlmb / 2) ** 2
    if a <= 0.5:
        return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))
    b = math.sin((phi1 + phi2) / 2) ** 2 + cos_cos * math.cos(dlmb / 2) ** 2
    return EARTH_RADIUS_KM * (math.pi - 2 * math.asin(math.sqrt(min(b, 1.0))))


def haversine_km_matrix(lats1: np.ndarray, lons1: np.ndarray,
                        lats2: np.ndarray, lons2: np.ndarray) -> np.ndarray:
    """Vectorised pairwise distances: result[i, j] = distance between
    point i of the first set and point j of the second set (km)."""
    phi1 = np.radians(np.asarray(lats1, dtype=float))[:, None]
    phi2 = np.radians(np.asarray(lats2, dtype=float))[None, :]
    dphi = phi2 - phi1
    dlmb = (np.radians(np.asarray(lons2, dtype=float))[None, :]
            - np.radians(np.asarray(lons1, dtype=float))[:, None])
    cos_cos = np.cos(phi1) * np.cos(phi2)
    a = np.sin(dphi / 2) ** 2 + cos_cos * np.sin(dlmb / 2) ** 2
    # Same near-antipodal complement as haversine_km.
    b = np.sin((phi1 + phi2) / 2) ** 2 + cos_cos * np.cos(dlmb / 2) ** 2
    near = 2 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    far = np.pi - 2 * np.arcsin(np.sqrt(np.clip(b, 0.0, 1.0)))
    return EARTH_RADIUS_KM * np.where(a <= 0.5, near, far)


@dataclass(frozen=True)
class City:
    """A city where ASes, facilities, serving sites or users may be placed."""

    name: str
    country_code: str
    lat: float
    lon: float
    utc_offset: float

    def distance_km(self, other: "City") -> float:
        """Great-circle distance to another city."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)


@dataclass(frozen=True)
class Country:
    """A country with an Internet-user weight used to size populations.

    ``internet_users_m`` is an approximate number of Internet users in
    millions; it only sets *relative* country sizes in the simulation.
    ``region`` groups countries into continental regions used when building
    the transit hierarchy.
    """

    code: str
    name: str
    region: str
    internet_users_m: float
    cities: Tuple[City, ...] = field(default=())

    @property
    def capital(self) -> City:
        """The first (largest) city of the country."""
        return self.cities[0]


def _mk(code: str, name: str, region: str, users_m: float,
        cities: Sequence[Tuple[str, float, float, float]]) -> Country:
    return Country(
        code=code,
        name=name,
        region=region,
        internet_users_m=users_m,
        cities=tuple(City(n, code, lat, lon, off) for n, lat, lon, off in cities),
    )


# Approximate Internet-user counts (millions, circa 2021) and city centres.
_COUNTRIES: Tuple[Country, ...] = (
    _mk("US", "United States", "NA", 300.0, [
        ("New York", 40.71, -74.01, -5), ("Los Angeles", 34.05, -118.24, -8),
        ("Chicago", 41.88, -87.63, -6), ("Dallas", 32.78, -96.80, -6),
        ("Seattle", 47.61, -122.33, -8), ("Miami", 25.76, -80.19, -5),
        ("Ashburn", 39.04, -77.49, -5)]),
    _mk("CA", "Canada", "NA", 35.0, [
        ("Toronto", 43.65, -79.38, -5), ("Vancouver", 49.28, -123.12, -8),
        ("Montreal", 45.50, -73.57, -5)]),
    _mk("MX", "Mexico", "NA", 92.0, [
        ("Mexico City", 19.43, -99.13, -6), ("Guadalajara", 20.66, -103.35, -6)]),
    _mk("BR", "Brazil", "SA", 160.0, [
        ("Sao Paulo", -23.55, -46.63, -3), ("Rio de Janeiro", -22.91, -43.17, -3),
        ("Fortaleza", -3.73, -38.52, -3)]),
    _mk("AR", "Argentina", "SA", 36.0, [
        ("Buenos Aires", -34.60, -58.38, -3)]),
    _mk("CL", "Chile", "SA", 15.0, [
        ("Santiago", -33.45, -70.67, -4)]),
    _mk("CO", "Colombia", "SA", 35.0, [
        ("Bogota", 4.71, -74.07, -5)]),
    _mk("GB", "United Kingdom", "EU", 65.0, [
        ("London", 51.51, -0.13, 0), ("Manchester", 53.48, -2.24, 0)]),
    _mk("FR", "France", "EU", 60.0, [
        ("Paris", 48.86, 2.35, 1), ("Marseille", 43.30, 5.37, 1),
        ("Lyon", 45.76, 4.84, 1)]),
    _mk("DE", "Germany", "EU", 78.0, [
        ("Frankfurt", 50.11, 8.68, 1), ("Berlin", 52.52, 13.41, 1),
        ("Munich", 48.14, 11.58, 1)]),
    _mk("NL", "Netherlands", "EU", 16.0, [
        ("Amsterdam", 52.37, 4.90, 1)]),
    _mk("ES", "Spain", "EU", 43.0, [
        ("Madrid", 40.42, -3.70, 1), ("Barcelona", 41.39, 2.17, 1)]),
    _mk("IT", "Italy", "EU", 51.0, [
        ("Milan", 45.46, 9.19, 1), ("Rome", 41.90, 12.50, 1)]),
    _mk("PL", "Poland", "EU", 33.0, [
        ("Warsaw", 52.23, 21.01, 1)]),
    _mk("SE", "Sweden", "EU", 10.0, [
        ("Stockholm", 59.33, 18.06, 1)]),
    _mk("RU", "Russia", "EU", 124.0, [
        ("Moscow", 55.76, 37.62, 3), ("Saint Petersburg", 59.93, 30.34, 3)]),
    _mk("TR", "Turkey", "EU", 70.0, [
        ("Istanbul", 41.01, 28.98, 3)]),
    _mk("EG", "Egypt", "AF", 57.0, [
        ("Cairo", 30.04, 31.24, 2)]),
    _mk("NG", "Nigeria", "AF", 109.0, [
        ("Lagos", 6.52, 3.38, 1)]),
    _mk("ZA", "South Africa", "AF", 38.0, [
        ("Johannesburg", -26.20, 28.05, 2), ("Cape Town", -33.92, 18.42, 2)]),
    _mk("KE", "Kenya", "AF", 21.0, [
        ("Nairobi", -1.29, 36.82, 3)]),
    _mk("SA", "Saudi Arabia", "ME", 31.0, [
        ("Riyadh", 24.71, 46.68, 3)]),
    _mk("AE", "United Arab Emirates", "ME", 9.0, [
        ("Dubai", 25.20, 55.27, 4)]),
    _mk("IL", "Israel", "ME", 8.0, [
        ("Tel Aviv", 32.09, 34.78, 2)]),
    _mk("IN", "India", "AS", 624.0, [
        ("Mumbai", 19.08, 72.88, 5.5), ("Delhi", 28.70, 77.10, 5.5),
        ("Chennai", 13.08, 80.27, 5.5)]),
    _mk("CN", "China", "AS", 989.0, [
        ("Beijing", 39.90, 116.41, 8), ("Shanghai", 31.23, 121.47, 8),
        ("Guangzhou", 23.13, 113.26, 8)]),
    _mk("JP", "Japan", "AS", 118.0, [
        ("Tokyo", 35.68, 139.69, 9), ("Osaka", 34.69, 135.50, 9)]),
    _mk("KR", "South Korea", "AS", 50.0, [
        ("Seoul", 37.57, 126.98, 9)]),
    _mk("TW", "Taiwan", "AS", 21.0, [
        ("Taipei", 25.03, 121.57, 8)]),
    _mk("SG", "Singapore", "AS", 5.3, [
        ("Singapore", 1.35, 103.82, 8)]),
    _mk("ID", "Indonesia", "AS", 196.0, [
        ("Jakarta", -6.21, 106.85, 7)]),
    _mk("TH", "Thailand", "AS", 54.0, [
        ("Bangkok", 13.76, 100.50, 7)]),
    _mk("VN", "Vietnam", "AS", 69.0, [
        ("Hanoi", 21.03, 105.85, 7)]),
    _mk("PH", "Philippines", "AS", 74.0, [
        ("Manila", 14.60, 120.98, 8)]),
    _mk("PK", "Pakistan", "AS", 100.0, [
        ("Karachi", 24.86, 67.01, 5)]),
    _mk("BD", "Bangladesh", "AS", 47.0, [
        ("Dhaka", 23.81, 90.41, 6)]),
    _mk("AU", "Australia", "OC", 22.0, [
        ("Sydney", -33.87, 151.21, 10), ("Melbourne", -37.81, 144.96, 10)]),
    _mk("NZ", "New Zealand", "OC", 4.4, [
        ("Auckland", -36.85, 174.76, 12)]),
)


class WorldAtlas:
    """Lookup structure over the embedded country/city catalogue.

    Scenarios may restrict the atlas to a subset of countries (small test
    worlds) via :meth:`subset`.
    """

    def __init__(self, countries: Iterable[Country]):
        self._countries: Dict[str, Country] = {}
        self._cities: Dict[Tuple[str, str], City] = {}
        for country in countries:
            if country.code in self._countries:
                raise ConfigError(f"duplicate country code {country.code!r}")
            if not country.cities:
                raise ConfigError(f"country {country.code!r} has no cities")
            self._countries[country.code] = country
            for city in country.cities:
                self._cities[(country.code, city.name)] = city

    @classmethod
    def default(cls) -> "WorldAtlas":
        """The full embedded atlas (38 countries, ~70 cities)."""
        return cls(_COUNTRIES)

    def subset(self, codes: Sequence[str]) -> "WorldAtlas":
        """A smaller atlas containing only ``codes`` (order preserved)."""
        missing = [c for c in codes if c not in self._countries]
        if missing:
            raise ConfigError(f"unknown country codes: {missing}")
        return WorldAtlas(self._countries[c] for c in codes)

    @property
    def countries(self) -> List[Country]:
        return list(self._countries.values())

    @property
    def country_codes(self) -> List[str]:
        return list(self._countries.keys())

    def country(self, code: str) -> Country:
        try:
            return self._countries[code]
        except KeyError:
            raise ConfigError(f"unknown country code {code!r}") from None

    def city(self, country_code: str, name: str) -> City:
        try:
            return self._cities[(country_code, name)]
        except KeyError:
            raise ConfigError(f"unknown city {name!r} in {country_code!r}") from None

    @property
    def cities(self) -> List[City]:
        return list(self._cities.values())

    def cities_in_region(self, region: str) -> List[City]:
        return [city for country in self.countries if country.region == region
                for city in country.cities]

    @property
    def regions(self) -> List[str]:
        seen: Dict[str, None] = {}
        for country in self.countries:
            seen.setdefault(country.region, None)
        return list(seen.keys())

    def total_internet_users_m(self) -> float:
        return sum(c.internet_users_m for c in self.countries)

    def nearest_city(self, lat: float, lon: float,
                     candidates: Optional[Sequence[City]] = None) -> City:
        """The candidate city closest to the given point (default: all)."""
        pool = list(candidates) if candidates is not None else self.cities
        if not pool:
            raise ConfigError("no candidate cities")
        return min(pool, key=lambda c: haversine_km(lat, lon, c.lat, c.lon))
