"""
LEO downlink channel model for a surface-aided link.

Geometry is a spherical-Earth slant range from altitude and elevation, with
an optional fixed satellite-to-surface distance override. Large-scale gain is
a free-space reference at 1 m extended by a path-loss exponent; small-scale
fading is Rician with a shared uniform line-of-sight phase per draw. One
realization carries the satellite-to-surface vector h, per-user
surface-to-user vectors g, and optional direct satellite-to-user scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surfaces import DimensionError

SPEED_OF_LIGHT = 299_792_458.0   # m/s


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class GeometryParams:
    """Deployment geometry. Distances in km.

    ris_sat_distance_km > 0 pins the satellite-to-surface distance to that
    value; 0 derives it from the slant-range formula. The direct
    satellite-to-user distance is the satellite-to-surface distance plus the
    surface-to-user distance (additive bound).
    """

    altitude_km: float = 600.0
    elevation_deg: float = 45.0
    earth_radius_km: float = 6371.0
    ris_sat_distance_km: float = 500.0   # 0 disables the override
    ris_user_km: tuple = (2.0, 3.0)      # near user, far user

    def __post_init__(self):
        if self.altitude_km <= 0 or self.earth_radius_km <= 0:
            raise ValueError("altitude and earth radius must be positive")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValueError("elevation_deg must be in (0, 90]")
        if self.ris_sat_distance_km < 0:
            raise ValueError("ris_sat_distance_km must be >= 0 (0 disables the override)")
        if any(d <= 0 for d in self.ris_user_km):
            raise ValueError("surface-to-user distances must be positive")


@dataclass(frozen=True)
class LinkBudgetParams:
    freq_ghz: float = 3.5
    path_loss_exponent: float = 2.5
    tx_gain_dbi: float = 10.0
    rx_gain_dbi: float = 10.0
    reflection_magnitude: float = 0.9    # in (0, 1]
    noise_dbm: float = -90.0
    rician_k: float = 10.0               # linear, >= 0

    def __post_init__(self):
        if self.freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        if self.path_loss_exponent < 2.0:
            raise ValueError("path_loss_exponent must be >= 2")
        if not 0.0 < self.reflection_magnitude <= 1.0:
            raise ValueError("reflection_magnitude must be in (0, 1]")
        if self.rician_k < 0:
            raise ValueError("rician_k must be >= 0")


@dataclass(frozen=True)
class ChannelRealization:
    """One Monte Carlo draw.

    h_direct[u]    : direct satellite-to-user scalar (0 when blocked)
    h_sat_ris      : satellite-to-surface K-vector
    g_ris_user[u]  : surface-to-user K-vector per user
    noise_mw       : noise power in mW
    """

    h_direct: np.ndarray        # (num_users,)
    h_sat_ris: np.ndarray       # (K,)
    g_ris_user: np.ndarray      # (num_users, K)
    noise_mw: float

    @property
    def num_users(self) -> int:
        return self.h_direct.shape[0]

    @property
    def num_elements(self) -> int:
        return self.h_sat_ris.shape[0]


def slant_range(geom: GeometryParams) -> float:
    """Satellite-to-surface distance in km.

    Spherical-Earth law of cosines:
        d = sqrt(R^2 sin^2(e) + h^2 + 2 R h) - R sin(e)
    so the zenith (e = 90 deg) range equals the altitude exactly. A positive
    ris_sat_distance_km overrides the formula.
    """
    if geom.ris_sat_distance_km > 0:
        return geom.ris_sat_distance_km
    r, h = geom.earth_radius_km, geom.altitude_km
    s = np.sin(np.deg2rad(geom.elevation_deg))
    return float(np.sqrt(r * r * s * s + h * h + 2.0 * r * h) - r * s)


def path_gain(distance_km: float, lb: LinkBudgetParams) -> float:
    """Linear power gain G_t G_r (lambda / 4 pi)^2 d^(-eta), d in meters.

    Free-space reference at d0 = 1 m, power-law rolloff with exponent eta
    beyond it.
    """
    if distance_km <= 0:
        raise ValueError("distance must be positive")
    d_m = distance_km * 1e3
    lam = SPEED_OF_LIGHT / (lb.freq_ghz * 1e9)
    gains = db_to_linear(lb.tx_gain_dbi) * db_to_linear(lb.rx_gain_dbi)
    return gains * (lam / (4.0 * np.pi)) ** 2 * d_m ** (-lb.path_loss_exponent)


def rician_sample(k_factor: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-average-power Rician fading vector of length n.

    Each entry is sqrt(Kf/(Kf+1)) e^{j theta} + sqrt(1/(Kf+1)) w with
    w ~ CN(0, 1) i.i.d. and theta one uniform line-of-sight phase shared by
    the whole draw. k_factor = 0 reduces to Rayleigh.
    """
    if k_factor < 0:
        raise ValueError("k_factor must be >= 0")
    theta = rng.uniform(0.0, 2.0 * np.pi)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    los = np.sqrt(k_factor / (k_factor + 1.0)) * np.exp(1j * theta)
    return los + np.sqrt(1.0 / (k_factor + 1.0)) * w


def draw_realization(geom: GeometryParams, lb: LinkBudgetParams, num_elements: int,
                     num_users: int = 2, include_direct: bool = False,
                     rng: np.random.Generator | None = None) -> ChannelRealization:
    """Draw one channel realization.

    h_sat_ris uses the satellite-to-surface distance; g_ris_user[u] uses the
    per-user surface distance scaled by the reflection magnitude; direct
    links (when enabled) use the additive satellite-to-user distance. Users
    get distinct surface distances so the NOMA ordering is non-degenerate.
    Draw order is fixed: h, then g per user, then direct scalars.
    """
    if rng is None:
        rng = np.random.default_rng()
    if num_elements < 1 or num_users < 1:
        raise ValueError("num_elements and num_users must be >= 1")
    if num_users > len(geom.ris_user_km):
        raise ValueError(
            f"geometry lists {len(geom.ris_user_km)} surface-to-user distances, need {num_users}"
        )
    d_sr = slant_range(geom)
    kf = lb.rician_k

    h = np.sqrt(path_gain(d_sr, lb)) * rician_sample(kf, num_elements, rng)
    g = np.empty((num_users, num_elements), dtype=complex)
    for u in range(num_users):
        amp = lb.reflection_magnitude * np.sqrt(path_gain(geom.ris_user_km[u], lb))
        g[u] = amp * rician_sample(kf, num_elements, rng)
    h_d = np.zeros(num_users, dtype=complex)
    if include_direct:
        for u in range(num_users):
            d_su = d_sr + geom.ris_user_km[u]
            h_d[u] = np.sqrt(path_gain(d_su, lb)) * rician_sample(kf, 1, rng)[0]
    return ChannelRealization(h_d, h, g, db_to_linear(lb.noise_dbm))


def effective_channel(ch: ChannelRealization, phi: np.ndarray, user: int) -> complex:
    """Effective scalar channel h_d[u] + g[u]^H Phi h of a reflective surface's
    K x K Phi."""
    k = ch.num_elements
    if phi.shape != (k, k):
        raise DimensionError(f"phase matrix shape {phi.shape} does not match K={k}")
    return complex(ch.h_direct[user] + ch.g_ris_user[user].conj() @ (phi @ ch.h_sat_ris))
