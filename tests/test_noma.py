"""Two-user downlink NOMA rate formulas and the closed-form power split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdris.noma import (NomaAllocation, achievable_rates,
                        min_power_split_for_far_rate, order_users,
                        sic_rate_gradient, sic_rates)

LOG2_9 = 3.1699250014423124


class TestNomaAllocation:
    def test_valid_split(self):
        a = NomaAllocation(10.0, 0.4, 0.6)
        assert a.alpha_near + a.alpha_far == pytest.approx(1.0)

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError):
            NomaAllocation(10.0, -0.1, 0.6)
        with pytest.raises(ValueError):
            NomaAllocation(10.0, 0.2, 1.1)
        with pytest.raises(ValueError):
            NomaAllocation(10.0, 0.6, 0.6)     # sums past 1

    def test_rejects_inverted_ordering(self):
        with pytest.raises(ValueError):
            NomaAllocation(10.0, 0.6, 0.4)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            NomaAllocation(-1.0, 0.4, 0.6)


class TestOrderUsers:
    def test_orders_by_magnitude(self):
        assert order_users([1 + 0j, 3 + 4j]) == (1, 0)
        assert order_users([3 + 4j, 1 + 0j]) == (0, 1)

    def test_tie_goes_to_first_index(self):
        assert order_users([2j, 2.0]) == (0, 1)

    def test_requires_two_users(self):
        with pytest.raises(ValueError):
            order_users([1.0])
        with pytest.raises(ValueError):
            order_users([1.0, 2.0, 3.0])


class TestAchievableRates:
    def test_reference_instance(self):
        # p = 10, sigma^2 = 1, gains 2 and 0.5, split 0.4/0.6:
        # far rate = log2(1 + 3/(2+1)) = 1 exactly, near rate = log2(1+8)
        alloc = NomaAllocation(10.0, 0.4, 0.6)
        r = achievable_rates(alloc, np.sqrt(2.0), np.sqrt(0.5), 1.0)
        assert r.rate_far == pytest.approx(1.0, rel=1e-12)
        assert r.rate_near == pytest.approx(LOG2_9, rel=1e-12)
        assert r.sum_rate == pytest.approx(1.0 + LOG2_9, rel=1e-12)

    def test_sic_order_recorded(self):
        alloc = NomaAllocation(10.0, 0.4, 0.6)
        r = achievable_rates(alloc, 1.0, 0.5, 1.0, sic_order=(1, 0))
        assert r.sic_order == (1, 0)

    def test_zero_power_gives_zero_rates(self):
        alloc = NomaAllocation(0.0, 0.4, 0.6)
        r = achievable_rates(alloc, 1.0, 0.5, 1.0)
        assert r.rate_near == 0.0 and r.rate_far == 0.0 and r.sum_rate == 0.0

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            achievable_rates(NomaAllocation(1.0, 0.5, 0.5), 1.0, 0.5, 0.0)

    def test_sum_rate_decreasing_in_far_share_when_gains_differ(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g_s = rng.uniform(0.5, 3.0)
            g_w = g_s * rng.uniform(0.05, 0.95)
            p = rng.uniform(0.5, 50.0)
            rates = [achievable_rates(NomaAllocation(p, 1 - af, af),
                                      np.sqrt(g_s), np.sqrt(g_w), 1.0).sum_rate
                     for af in (0.5, 0.7, 0.9, 1.0)]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_equal_gains_make_sum_rate_split_invariant(self):
        g = 1.7
        rates = [achievable_rates(NomaAllocation(10.0, 1 - af, af),
                                  np.sqrt(g), np.sqrt(g), 1.0).sum_rate
                 for af in (0.5, 0.6, 0.8, 1.0)]
        assert max(rates) - min(rates) < 1e-12


class TestSicRateGradient:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(-16.0, 2.0), st.floats(-16.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.5, 1.0), st.sampled_from([1.0, 0.5, 0.0]))
    def test_matches_central_difference_of_the_sum_rate(self, exp_a, exp_b, exp_p, a_f,
                                                         near_share):
        # gains 1e-16 .. 1e2 at unit noise and 0.01 .. 100 mW: SNRs 1e-18 .. 1e4;
        # the fractions sum to 1, or to less when near_share < 1
        g_s, g_w = 10.0 ** max(exp_a, exp_b), 10.0 ** min(exp_a, exp_b)
        p, a_n = 10.0 ** exp_p, (1.0 - a_f) * near_share
        d_strong, d_weak = sic_rate_gradient(p, a_n, a_f, g_s, g_w, 1.0)
        # each gain moves one of the two rates; differencing that rate alone
        # keeps the other one's rounding out of the quotient
        step_s, step_w = 1e-4 * g_s, 1e-4 * g_w
        fd_strong = (sic_rates(p, a_n, a_f, g_s + step_s, g_w, 1.0)[0]
                     - sic_rates(p, a_n, a_f, g_s - step_s, g_w, 1.0)[0]) / (2 * step_s)
        fd_weak = (sic_rates(p, a_n, a_f, g_s, g_w + step_w, 1.0)[1]
                   - sic_rates(p, a_n, a_f, g_s, g_w - step_w, 1.0)[1]) / (2 * step_w)
        assert d_strong == pytest.approx(fd_strong, rel=1e-6)
        assert d_weak == pytest.approx(fd_weak, rel=1e-6)


class TestMinPowerSplit:
    def test_reference_instance(self):
        # p*gamma_w = 5, sigma^2 = 1, r_min = 1 -> (2-1)*6/(5*2) = 0.6
        assert min_power_split_for_far_rate(1.0, 10.0, 0.5, 1.0) == pytest.approx(0.6, rel=1e-12)

    def test_grid_search_agreement(self):
        p, g_w, noise, r_min = 10.0, 0.5, 1.0, 1.0
        alphas = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        rates = np.log2(1.0 + p * alphas * g_w / (p * (1 - alphas) * g_w + noise))
        grid_alpha = alphas[np.argmax(rates >= r_min)]
        closed = min_power_split_for_far_rate(r_min, p, g_w, noise)
        assert abs(closed - grid_alpha) <= 1e-4

    def test_zero_rate_needs_no_power(self):
        assert min_power_split_for_far_rate(0.0, 10.0, 0.5, 1.0) == 0.0
        assert min_power_split_for_far_rate(-1.0, 10.0, 0.5, 1.0) == 0.0

    def test_zero_gain_with_positive_rate_is_impossible(self):
        assert min_power_split_for_far_rate(1.0, 10.0, 0.0, 1.0) == np.inf

    def test_rejects_nonpositive_power(self):
        for p in (0.0, -1.0):
            with pytest.raises(ValueError, match="total_power_mw must be positive"):
                min_power_split_for_far_rate(1.0, p, 0.5, 1.0)

    def test_broadcasts_over_gains(self):
        gains = np.array([[0.5, 0.0], [3.0, 1e-9]])
        for r_min in (0.0, 1.0):
            splits = min_power_split_for_far_rate(r_min, 10.0, gains, 1.0)
            assert splits.shape == gains.shape
            assert [min_power_split_for_far_rate(r_min, 10.0, g, 1.0)
                    for g in gains.ravel()] == splits.ravel().tolist()

    def test_monotone_in_required_rate(self):
        splits = [min_power_split_for_far_rate(r, 10.0, 0.5, 1.0)
                  for r in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(splits, splits[1:]))

    def test_scale_invariance_in_power_and_noise(self):
        base = min_power_split_for_far_rate(1.2, 10.0, 0.5, 1.0)
        scaled = min_power_split_for_far_rate(1.2, 10.0 * 7.5, 0.5, 7.5)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_split_achieves_exactly_the_minimum_rate(self):
        p, g_w, noise = 20.0, 0.3, 2.0
        for r_min in (0.25, 0.9, 1.7):
            a = min_power_split_for_far_rate(r_min, p, g_w, noise)
            achieved = np.log2(1.0 + p * a * g_w / (p * (1 - a) * g_w + noise))
            assert achieved == pytest.approx(r_min, rel=1e-10)

    @pytest.mark.parametrize("r_min", [1e-13, 1e-10, 1e-6, 0.5, 3.0])
    def test_split_meets_satellite_scale_floors(self, r_min):
        # 2^r - 1 keeps only a few digits at r ~ 1e-13; the split must still
        # deliver the floor to 1e-12, from where it only just fits in full
        # power (SNR 1.001 (2^r - 1)) to where it is easy (SNR 1e8 (2^r - 1))
        p, noise = 100.0, 1e-12
        snrs = np.expm1(r_min * np.log(2.0)) * np.geomspace(1.001, 1e8, 60)
        g_w = snrs * noise / p
        a = min_power_split_for_far_rate(r_min, p, g_w, noise)
        assert np.all(a <= 1.0)
        _, rate_far = sic_rates(p, 1.0 - a, a, 2.0 * g_w, g_w, noise)
        assert np.all(rate_far >= r_min * (1.0 - 1e-12))
