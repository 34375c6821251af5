"""
Flat key-value configuration for the simulator.

The file format is one `key = value` per line; blank lines and lines whose
first non-space character is `#` are skipped. Unknown keys are rejected with
the offending line number, missing keys take the documented defaults, and
every numeric range is validated on load with the key named in the error.
The same keys work as `--set key=value` command-line overrides, and
echo_config emits a file that loads back to an identical configuration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .channel import GeometryParams, LinkBudgetParams, db_to_linear, path_gain, slant_range
from .surfaces import ARCHITECTURES, MODES, RisSpec


class ConfigError(Exception):
    """Configuration parse or validation failure (CLI exit code 2)."""


@dataclass(frozen=True)
class SimConfig:
    # geometry
    altitude_km: float = 600.0
    elevation_deg: float = 45.0
    earth_radius_km: float = 6371.0
    ris_sat_distance_km: float = 500.0   # 0 means derive from elevation geometry
    ris_user_near_km: float = 2.0
    ris_user_far_km: float = 3.0
    include_direct: bool = False
    # link budget
    freq_ghz: float = 3.5
    path_loss_exponent: float = 2.5
    tx_gain_dbi: float = 10.0
    rx_gain_dbi: float = 10.0
    reflection_magnitude: float = 0.9
    noise_dbm: float = -90.0
    rician_k: float = 10.0
    # surface
    num_elements: int = 80
    architecture: str = "full"
    group_count: int = 1
    sector_count: int = 2
    mode: str = "reflective"
    # problem
    power_dbm: float = 20.0
    min_rate_near: float = 0.0    # bps/Hz
    min_rate_far: float = 0.0     # bps/Hz
    # experiment harness
    trials: int = 200
    base_seed: int = 12345
    out_dir: str = "out"


KEY_ORDER = tuple(f.name for f in dataclasses.fields(SimConfig))

_DEFAULTS = SimConfig()


def _coerce(key: str, raw: str):
    """Parse raw as the type of key's default in SimConfig."""
    raw = raw.strip()
    default = getattr(_DEFAULTS, key)
    if isinstance(default, bool):      # before int: a bool is an int
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ConfigError(f"key '{key}': expected true or false, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': expected an integer, got {raw!r}") from None
    if isinstance(default, str):
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got {raw!r}")
    return value


def _require(condition: bool, key: str, message: str):
    if not condition:
        raise ConfigError(f"key '{key}': {message}")


def _linear_ok(value_db: float) -> bool:
    """True when the dB value maps to a finite, positive linear value."""
    try:
        linear = db_to_linear(value_db)
    except OverflowError:
        return False
    return math.isfinite(linear) and linear > 0


# Fading scales the peak gain |g||h| squared by (|g|^2/K)(|h|^2/K), a product
# of two unit-mean averages of K draws |x|^2; 1e6 covers both at 1e3, whose
# probability is below e^-1000 even for Rayleigh fading.
_FADING_HEADROOM = 1e6
# The smallest path gain a link may have: _FADING_HEADROOM times the smallest
# normal float, 2^-1022. Below the normal range the per-element channels
# keep too few digits for the solve.
_GAIN_FLOOR = _FADING_HEADROOM * 2.0 ** -1022


def _check_link_gains(cfg: SimConfig) -> None:
    """Each configured link's path gain, and the cascade through the surface
    to each user, must be finite and at least _GAIN_FLOOR at the configured
    geometry: dB values that pass one by one can still overflow or underflow
    together. The peak SNR, p K^2 cascade / noise (p direct / noise for a
    direct link), must stay in the float range with _FADING_HEADROOM to
    spare: the rates take p gamma / noise, and an overflow there reads as an
    infinite sum rate."""
    geom, lb = geometry_from(cfg), link_budget_from(cfg)
    p, noise = db_to_linear(cfg.power_dbm), db_to_linear(cfg.noise_dbm)

    def gain(distance_km: float) -> float:
        try:
            return path_gain(distance_km, lb)
        except OverflowError:       # d ** -eta past the float range
            return math.inf

    d_sr = slant_range(geom)
    g_sr = gain(d_sr)
    gains = [("satellite-to-surface", g_sr)]
    peaks = []
    for user, d_ru in zip(("near", "far"), geom.ris_user_km):
        g_ru = gain(d_ru)
        gains += [(f"surface-to-{user}-user", g_ru), (f"cascaded {user}-user", g_sr * g_ru)]
        peaks.append((f"cascaded {user}-user", cfg.num_elements ** 2 * g_sr * g_ru))
        if cfg.include_direct:
            gains.append((f"direct {user}-user", gain(d_sr + d_ru)))
            peaks.append((f"direct {user}-user", gains[-1][1]))
    for link, value in gains:
        if not (math.isfinite(value) and value >= _GAIN_FLOOR):
            raise ConfigError(f"keys 'tx_gain_dbi', 'rx_gain_dbi', 'freq_ghz', "
                              f"'path_loss_exponent' and the distances: the {link} path "
                              f"gain is {value:g}, it must be finite and >= {_GAIN_FLOOR:g}")
    for link, peak in peaks:
        snr = p * peak / noise
        if not math.isfinite(max(peak, p * peak, snr) * _FADING_HEADROOM):
            raise ConfigError(f"keys 'power_dbm', 'noise_dbm', 'num_elements' and the link "
                              f"gains: the peak {link} SNR is {snr:g}, past the float "
                              f"range with fading headroom {_FADING_HEADROOM:g}")


def validate_config(cfg: SimConfig) -> SimConfig:
    _require(cfg.altitude_km > 0, "altitude_km", "must be > 0")
    _require(0 < cfg.elevation_deg <= 90, "elevation_deg", "must be in (0, 90]")
    _require(cfg.earth_radius_km > 0, "earth_radius_km", "must be > 0")
    _require(cfg.ris_sat_distance_km >= 0, "ris_sat_distance_km", "must be >= 0")
    _require(cfg.ris_user_near_km > 0, "ris_user_near_km", "must be > 0")
    _require(cfg.ris_user_far_km > 0, "ris_user_far_km", "must be > 0")
    _require(cfg.freq_ghz > 0, "freq_ghz", "must be > 0")
    _require(cfg.path_loss_exponent >= 2, "path_loss_exponent", "must be >= 2")
    _require(0 < cfg.reflection_magnitude <= 1, "reflection_magnitude", "must be in (0, 1]")
    _require(cfg.rician_k >= 0, "rician_k", "must be >= 0")
    for key in ("power_dbm", "noise_dbm", "tx_gain_dbi", "rx_gain_dbi"):
        _require(_linear_ok(getattr(cfg, key)), key,
                 "linear value must be finite and > 0")
    _require(cfg.num_elements >= 1, "num_elements", "must be >= 1")
    _require(cfg.architecture in ARCHITECTURES, "architecture",
             f"must be one of {', '.join(ARCHITECTURES)}")
    _require(cfg.group_count >= 1, "group_count", "must be >= 1")
    _require(cfg.sector_count >= 2, "sector_count", "must be >= 2")
    _require(cfg.mode in MODES, "mode", f"must be one of {', '.join(MODES)}")
    _require(cfg.min_rate_near >= 0, "min_rate_near", "must be >= 0")
    _require(cfg.min_rate_far >= 0, "min_rate_far", "must be >= 0")
    _require(cfg.trials >= 1, "trials", "must be >= 1")
    _require(cfg.base_seed >= 0, "base_seed", "must be >= 0")
    _require(bool(cfg.out_dir), "out_dir", "must be non-empty")
    _check_link_gains(cfg)
    return cfg


def _assignment(text: str, where: str) -> tuple:
    """(key, coerced value) of one `key = value`; where (file:line or --set) opens errors."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, _, raw = text.partition("=")
    key = key.strip()
    if key not in KEY_ORDER:
        raise ConfigError(f"{where}: unknown key '{key}'")
    return key, _coerce(key, raw)


def _parse_lines(lines, source: str) -> dict:
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, value = _assignment(stripped, f"{source}:{lineno}")
            values[key] = value   # duplicate keys: last one wins
    return values


def load_config(path: str | None = None) -> SimConfig:
    """Read a config file (or return pure defaults when path is None)."""
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                values = _parse_lines(f, path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
    return validate_config(SimConfig(**values))


def apply_overrides(cfg: SimConfig, assignments) -> SimConfig:
    """Apply `key=value` strings (from repeated --set flags) in order."""
    values = dict(_assignment(item, "--set") for item in assignments)
    return validate_config(dataclasses.replace(cfg, **values))


def echo_config(cfg: SimConfig) -> str:
    """Canonical `key = value` text; load_config on it reproduces cfg."""
    lines = []
    for key in KEY_ORDER:
        value = getattr(cfg, key)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# builders for the domain objects; divisibility and other cross-key rules
# surface here as ConfigError so the CLI can report them as config problems


def geometry_from(cfg: SimConfig) -> GeometryParams:
    try:
        return GeometryParams(cfg.altitude_km, cfg.elevation_deg, cfg.earth_radius_km,
                              cfg.ris_sat_distance_km,
                              (cfg.ris_user_near_km, cfg.ris_user_far_km))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def link_budget_from(cfg: SimConfig) -> LinkBudgetParams:
    try:
        return LinkBudgetParams(cfg.freq_ghz, cfg.path_loss_exponent, cfg.tx_gain_dbi,
                                cfg.rx_gain_dbi, cfg.reflection_magnitude,
                                cfg.noise_dbm, cfg.rician_k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def ris_spec_from(cfg: SimConfig) -> RisSpec:
    try:
        return RisSpec(cfg.num_elements, cfg.architecture, cfg.mode,
                       cfg.group_count, cfg.sector_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
