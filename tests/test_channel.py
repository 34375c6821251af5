"""Geometry, link budget, fading, and channel draws."""

import numpy as np
import pytest

from bdris.channel import (GeometryParams, LinkBudgetParams, SPEED_OF_LIGHT,
                           db_to_linear, draw_realization, effective_channel,
                           path_gain, rician_sample, slant_range)
from bdris.surfaces import RisSpec, random_feasible

# high-precision references for the default geometry and carrier
SLANT_45_DEG_KM = 814.79905514173619          # 600 km altitude, 45 deg, R = 6371
LAMBDA_OVER_4PI_SQ_3P5GHZ = 4.6460682915456739e-05


def default_draw(k=8, users=2, direct=False, seed=0):
    rng = np.random.default_rng(seed)
    return draw_realization(GeometryParams(), LinkBudgetParams(), k,
                            num_users=users, include_direct=direct, rng=rng)


class TestParams:
    def test_geometry_ranges(self):
        with pytest.raises(ValueError):
            GeometryParams(altitude_km=0)
        with pytest.raises(ValueError):
            GeometryParams(elevation_deg=0)
        with pytest.raises(ValueError):
            GeometryParams(elevation_deg=90.5)
        with pytest.raises(ValueError):
            GeometryParams(ris_sat_distance_km=-1)
        with pytest.raises(ValueError):
            GeometryParams(ris_user_km=(0.0, 3.0))

    def test_link_budget_ranges(self):
        with pytest.raises(ValueError):
            LinkBudgetParams(freq_ghz=0)
        with pytest.raises(ValueError):
            LinkBudgetParams(path_loss_exponent=1.5)
        with pytest.raises(ValueError):
            LinkBudgetParams(reflection_magnitude=0.0)
        with pytest.raises(ValueError):
            LinkBudgetParams(reflection_magnitude=1.2)
        with pytest.raises(ValueError):
            LinkBudgetParams(rician_k=-0.1)

    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-90.0) == pytest.approx(1e-9)


class TestSlantRange:
    def test_zenith_equals_altitude_exactly(self):
        geom = GeometryParams(elevation_deg=90.0, ris_sat_distance_km=0.0)
        assert slant_range(geom) == 600.0

    def test_default_elevation_reference_value(self):
        geom = GeometryParams(ris_sat_distance_km=0.0)
        assert slant_range(geom) == pytest.approx(SLANT_45_DEG_KM, rel=1e-14)

    def test_override_takes_precedence(self):
        assert slant_range(GeometryParams()) == 500.0
        assert slant_range(GeometryParams(ris_sat_distance_km=123.0)) == 123.0

    def test_monotone_in_elevation(self):
        ranges = [slant_range(GeometryParams(elevation_deg=e, ris_sat_distance_km=0.0))
                  for e in (10, 30, 50, 70, 90)]
        assert all(a > b for a, b in zip(ranges, ranges[1:]))


class TestPathGain:
    def test_reference_wavelength_factor(self):
        lb = LinkBudgetParams(tx_gain_dbi=0.0, rx_gain_dbi=0.0, path_loss_exponent=2.0)
        lam = SPEED_OF_LIGHT / 3.5e9
        assert (lam / (4 * np.pi)) ** 2 == pytest.approx(LAMBDA_OVER_4PI_SQ_3P5GHZ, rel=1e-15)
        # at 1 km and exponent 2 the gain is (lambda/4pi)^2 / drm^2
        assert path_gain(1.0, lb) == pytest.approx(LAMBDA_OVER_4PI_SQ_3P5GHZ / 1e6, rel=1e-12)

    def test_antenna_gains_multiply(self):
        lb0 = LinkBudgetParams(tx_gain_dbi=0.0, rx_gain_dbi=0.0)
        lb10 = LinkBudgetParams(tx_gain_dbi=10.0, rx_gain_dbi=10.0)
        assert path_gain(2.0, lb10) == pytest.approx(100.0 * path_gain(2.0, lb0), rel=1e-12)

    def test_exponent_halving_per_distance_doubling(self):
        lb = LinkBudgetParams(path_loss_exponent=2.5)
        assert path_gain(2.0, lb) / path_gain(1.0, lb) == pytest.approx(2 ** -2.5, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_gain(0.0, LinkBudgetParams())


class TestRicianSample:
    def test_unit_second_moment(self):
        rng = np.random.default_rng(42)
        x = rician_sample(10.0, 200_000, rng)
        power = np.abs(x) ** 2
        se = np.std(power) / np.sqrt(len(power))
        assert abs(np.mean(power) - 1.0) < 3 * se

    def test_large_k_concentrates_on_unit_circle(self):
        rng = np.random.default_rng(0)
        x = rician_sample(1e12, 1000, rng)
        assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-4

    def test_zero_k_is_pure_diffuse(self):
        rng = np.random.default_rng(1)
        x = rician_sample(0.0, 100_000, rng)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            rician_sample(-1.0, 4, np.random.default_rng(0))


class TestDrawRealization:
    def test_shapes_and_noise(self):
        ch = default_draw(k=16, users=2, direct=True)
        assert ch.h_sat_ris.shape == (16,)
        assert ch.g_ris_user.shape == (2, 16)
        assert ch.h_direct.shape == (2,)
        assert ch.num_users == 2 and ch.num_elements == 16
        assert ch.noise_mw == pytest.approx(1e-9)     # -90 dBm

    def test_direct_links_zero_when_blocked(self):
        ch = default_draw(direct=False)
        assert np.all(ch.h_direct == 0)

    def test_cascade_magnitudes_match_link_budget(self):
        # per-element average power of each leg equals the configured path gain
        geom, lb = GeometryParams(), LinkBudgetParams()
        rng = np.random.default_rng(3)
        ch = draw_realization(geom, lb, 4000, num_users=2, include_direct=False, rng=rng)
        sat_power = np.mean(np.abs(ch.h_sat_ris) ** 2)
        assert sat_power == pytest.approx(path_gain(500.0, lb), rel=0.1)
        near_power = np.mean(np.abs(ch.g_ris_user[0]) ** 2)
        expected = lb.reflection_magnitude ** 2 * path_gain(2.0, lb)
        assert near_power == pytest.approx(expected, rel=0.1)

    def test_same_seed_same_draw_regardless_of_direct_flag(self):
        # direct scalars are drawn after the cascade legs, so the cascade
        # matches between blocked and unblocked runs with the same stream
        a = default_draw(direct=False, seed=9)
        b = default_draw(direct=True, seed=9)
        assert np.array_equal(a.h_sat_ris, b.h_sat_ris)
        assert np.array_equal(a.g_ris_user, b.g_ris_user)
        assert np.all(b.h_direct != 0)

    def test_single_user_draw(self):
        ch = default_draw(users=1, direct=True)
        assert ch.g_ris_user.shape == (1, 8) and ch.h_direct.shape == (1,)

    def test_user_count_bounds(self):
        with pytest.raises(ValueError):
            default_draw(users=0)
        # the default geometry lists two surface-to-user distances
        with pytest.raises(ValueError, match="lists 2 surface-to-user distances, need 3"):
            default_draw(users=3)


class TestEffectiveChannel:
    def test_matches_manual_composition(self):
        ch = default_draw(k=6, direct=True, seed=4)
        phi = random_feasible(RisSpec(6, "full", "reflective"), 5)[0]
        for u in range(2):
            manual = ch.h_direct[u] + ch.g_ris_user[u].conj() @ (phi @ ch.h_sat_ris)
            assert effective_channel(ch, phi, u) == pytest.approx(manual, rel=1e-12)

    def test_identity_surface_sums_cascade(self):
        ch = default_draw(k=6, seed=4)
        manual = ch.g_ris_user[1].conj() @ ch.h_sat_ris
        assert effective_channel(ch, np.eye(6), 1) == pytest.approx(manual, rel=1e-12)

    def test_rejects_bad_shapes(self):
        ch = default_draw(k=6)
        with pytest.raises(ValueError):
            effective_channel(ch, np.eye(5), 0)
