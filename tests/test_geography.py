"""Tests for geography: atlas lookups and distance computations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.net.geography import (WorldAtlas, haversine_km,
                                 haversine_km_matrix)

latitudes = st.floats(-89.9, 89.9)
longitudes = st.floats(-180.0, 180.0)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(48.86, 2.35, 48.86, 2.35) == 0.0

    def test_known_distance_paris_london(self):
        # Paris <-> London is ~344 km great circle.
        d = haversine_km(48.86, 2.35, 51.51, -0.13)
        assert 320 < d < 370

    def test_antipodal_near_half_circumference(self):
        d = haversine_km(0, 0, 0, 180)
        assert d == pytest.approx(np.pi * 6371.0, rel=1e-3)

    def test_near_antipodal_keeps_precision(self):
        # 1e-9 rad short of the antipode: a plain asin(sqrt(a)) rounds this
        # to exactly half the circumference, breaking the triangle
        # inequality through a third point on the same meridian.
        lat = -5.960464477539063e-08
        d = haversine_km(0.0, 180.0, lat, 0.0)
        assert d < np.pi * 6371.0
        via = haversine_km(0.0, 180.0, -1.0, 0.0) + haversine_km(-1.0, 0.0,
                                                                 lat, 0.0)
        assert d <= via + 1e-9
        matrix = haversine_km_matrix(np.array([0.0]), np.array([180.0]),
                                     np.array([lat]), np.array([0.0]))
        assert matrix[0, 0] == pytest.approx(d, abs=1e-9)

    @given(latitudes, longitudes, latitudes, longitudes)
    def test_property_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        d1 = haversine_km(lat1, lon1, lat2, lon2)
        d2 = haversine_km(lat2, lon2, lat1, lon1)
        assert d1 >= 0
        assert d1 == pytest.approx(d2, abs=1e-6)

    @given(latitudes, longitudes, latitudes, longitudes,
           latitudes, longitudes)
    def test_property_triangle_inequality(self, a1, o1, a2, o2, a3, o3):
        d12 = haversine_km(a1, o1, a2, o2)
        d23 = haversine_km(a2, o2, a3, o3)
        d13 = haversine_km(a1, o1, a3, o3)
        assert d13 <= d12 + d23 + 1e-6

    def test_matrix_matches_scalar(self):
        lats1, lons1 = np.array([10.0, -30.0]), np.array([20.0, 100.0])
        lats2, lons2 = np.array([48.86, 51.51, 0.0]), np.array([2.35, -0.13, 0.0])
        matrix = haversine_km_matrix(lats1, lons1, lats2, lons2)
        assert matrix.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                expected = haversine_km(lats1[i], lons1[i],
                                        lats2[j], lons2[j])
                assert matrix[i, j] == pytest.approx(expected, abs=1e-6)


class TestWorldAtlas:
    def test_default_has_many_countries(self):
        atlas = WorldAtlas.default()
        assert len(atlas.countries) >= 30

    def test_every_country_has_cities(self):
        atlas = WorldAtlas.default()
        for country in atlas.countries:
            assert country.cities
            assert country.capital is country.cities[0]

    def test_city_lookup(self):
        atlas = WorldAtlas.default()
        paris = atlas.city("FR", "Paris")
        assert paris.country_code == "FR"
        assert paris.utc_offset == 1

    def test_unknown_country_raises(self):
        with pytest.raises(ConfigError):
            WorldAtlas.default().country("XX")

    def test_unknown_city_raises(self):
        with pytest.raises(ConfigError):
            WorldAtlas.default().city("FR", "Gotham")

    def test_subset_preserves_order_and_content(self):
        atlas = WorldAtlas.default().subset(["JP", "FR"])
        assert atlas.country_codes == ["JP", "FR"]
        assert atlas.country("FR").name == "France"

    def test_subset_unknown_code_raises(self):
        with pytest.raises(ConfigError):
            WorldAtlas.default().subset(["FR", "ZZ"])

    def test_regions_cover_all_countries(self):
        atlas = WorldAtlas.default()
        regions = set(atlas.regions)
        for country in atlas.countries:
            assert country.region in regions

    def test_cities_in_region(self):
        atlas = WorldAtlas.default()
        europe = atlas.cities_in_region("EU")
        assert any(c.name == "Paris" for c in europe)
        assert all(atlas.country(c.country_code).region == "EU"
                   for c in europe)

    def test_nearest_city(self):
        atlas = WorldAtlas.default()
        # A point in the English Channel is nearest to London or Paris.
        nearest = atlas.nearest_city(50.5, 0.0)
        assert nearest.name in ("London", "Paris")

    def test_nearest_city_with_candidates(self):
        atlas = WorldAtlas.default()
        tokyo = atlas.city("JP", "Tokyo")
        sydney = atlas.city("AU", "Sydney")
        assert atlas.nearest_city(35.0, 139.0, [tokyo, sydney]) is tokyo

    def test_nearest_city_empty_candidates_raises(self):
        with pytest.raises(ConfigError):
            WorldAtlas.default().nearest_city(0, 0, [])

    def test_total_internet_users(self):
        atlas = WorldAtlas.default()
        # Order of magnitude check: billions of users worldwide.
        assert 3000 < atlas.total_internet_users_m() < 6000

    def test_duplicate_country_rejected(self):
        atlas = WorldAtlas.default()
        fr = atlas.country("FR")
        with pytest.raises(ConfigError):
            WorldAtlas([fr, fr])
