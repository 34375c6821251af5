"""
Two-user downlink NOMA rates with successive interference cancellation.

Both users share the full band; the far (weak) user gets the larger power
fraction and is decoded first. The near (strong) user cancels the far user's
signal before decoding its own, so its rate is interference-free. Bandwidth
is normalized to 1 Hz; rates are bps/Hz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class NomaAllocation:
    """Total power (mW, linear) and per-user power fractions.

    alpha_far >= alpha_near keeps the standard NOMA ordering (more power to
    the weaker user); the fractions may sum to less than 1, though optimal
    splits always use full power (raising alpha_far at fixed alpha_near only
    raises the far rate).
    """

    total_power_mw: float
    alpha_near: float
    alpha_far: float

    def __post_init__(self):
        if self.total_power_mw < 0:
            raise ValueError("total_power_mw must be >= 0")
        if not (0.0 <= self.alpha_near <= 1.0 and 0.0 <= self.alpha_far <= 1.0):
            raise ValueError("power fractions must lie in [0, 1]")
        if self.alpha_near + self.alpha_far > 1.0 + 1e-12:
            raise ValueError("power fractions must sum to at most 1")
        if self.alpha_far < self.alpha_near - 1e-12:
            raise ValueError("NOMA ordering requires alpha_far >= alpha_near")


@dataclass(frozen=True)
class RateResult:
    rate_near: float      # bps/Hz
    rate_far: float       # bps/Hz
    sum_rate: float       # bps/Hz
    sic_order: tuple      # user indices (strong, weak)


def order_users(h_effs) -> tuple:
    """(strong, weak) user indices by |h_eff|^2; ties go to the lower index."""
    gains = np.abs(np.asarray(h_effs)) ** 2
    if gains.shape != (2,):
        raise ValueError("order_users expects exactly 2 users")
    strong = int(np.argmax(gains))    # argmax returns the first (lower) index on ties
    return strong, 1 - strong


def sic_rates(p, a_n, a_f, g_s, g_w, noise):
    """(rate_near, rate_far) in bps/Hz of the decoding order strong-cancels-weak.

    rate_near = log2(1 + p a_n g_s / noise)                 (after SIC)
    rate_far  = log2(1 + p a_f g_w / (p a_n g_w + noise))   (weak user,
                decoding its own signal under the near user's interference)

    p is the total power (mW), a_n/a_f the power fractions, g_s/g_w the
    strong and weak users' gains |h_eff|^2. Every argument broadcasts. SIC
    decodability at the strong user is implied by g_s >= g_w together with
    a_f >= a_n and is not separately constrained.
    """
    rate_near = np.log1p(p * a_n * g_s / noise) / LN2
    rate_far = np.log1p(p * a_f * g_w / (p * a_n * g_w + noise)) / LN2
    return rate_near, rate_far


def sic_rate_gradient(p, a_n, a_f, g_s, g_w, noise):
    """Partial derivatives of rate_near + rate_far from sic_rates with
    respect to g_s and g_w, broadcasting like sic_rates."""
    p_near = p * a_n
    p_total = p * (a_n + a_f)
    d_strong = p_near / (p_near * g_s + noise) / LN2
    d_weak = (p_total / (p_total * g_w + noise) - p_near / (p_near * g_w + noise)) / LN2
    return d_strong, d_weak


def achievable_rates(alloc: NomaAllocation, h_strong: complex, h_weak: complex,
                     noise_mw: float, sic_order: tuple = (0, 1)) -> RateResult:
    """sic_rates at one allocation and pair of effective channels."""
    if noise_mw <= 0:
        raise ValueError("noise_mw must be positive")
    rate_near, rate_far = sic_rates(alloc.total_power_mw, alloc.alpha_near, alloc.alpha_far,
                                    abs(h_strong) ** 2, abs(h_weak) ** 2, noise_mw)
    return RateResult(float(rate_near), float(rate_far), float(rate_near + rate_far), sic_order)


def min_power_split_for_far_rate(r_min_far: float, total_power_mw: float,
                                 gamma_weak, noise_mw: float):
    """Smallest alpha_far achieving rate_far >= r_min_far under full power.

        alpha_far* = (2^r - 1)(p g_w + noise) / (p g_w 2^r)

    2^r - 1 is taken as expm1(r ln 2): at satellite-scale floors (r ~ 1e-13)
    the difference 2^r - 1 keeps only a few significant digits. Returns the
    closed-form value even when it exceeds 1 (the caller checks
    feasibility); an unreachable weak user (g_w = 0 with r > 0) returns inf.
    gamma_weak broadcasts: an array of gains gives an array of splits.
    """
    if total_power_mw <= 0:
        raise ValueError("total_power_mw must be positive")
    if r_min_far <= 0:
        return np.zeros(np.shape(gamma_weak))[()]
    pg = total_power_mw * np.asarray(gamma_weak, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        split = np.expm1(r_min_far * LN2) * (pg + noise_mw) / (pg * 2.0 ** r_min_far)
    return np.where(pg > 0.0, split, np.inf)[()]
