"""Flat-config parsing, defaults, overrides, validation, and echo round-trip."""

import dataclasses

import pytest

from bdris.config import (ConfigError, SimConfig, apply_overrides,
                          bcd_settings_from, echo_config, geometry_from,
                          link_budget_from, load_config, ris_spec_from,
                          validate_config)


def write(tmp_path, text):
    path = tmp_path / "sim.cfg"
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_no_file_gives_defaults(self):
        cfg = load_config(None)
        assert cfg == SimConfig()
        assert cfg.freq_ghz == 3.5 and cfg.num_elements == 80
        assert cfg.noise_dbm == -90.0 and cfg.power_dbm == 20.0

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load_config(write(tmp_path, "")) == SimConfig()

    def test_partial_file_fills_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "num_elements = 16\n"))
        assert cfg.num_elements == 16
        assert cfg.altitude_km == 600.0

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = load_config(write(tmp_path, "# header\n\n  # indented comment\ntrials = 7\n"))
        assert cfg.trials == 7

    def test_unknown_key_names_line(self, tmp_path):
        path = write(tmp_path, "trials = 3\nbandwidth = 5\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'bandwidth'"):
            load_config(path)

    def test_malformed_line_reports_position(self, tmp_path):
        with pytest.raises(ConfigError, match=":1:"):
            load_config(write(tmp_path, "just some words\n"))

    def test_type_errors_name_key(self, tmp_path):
        with pytest.raises(ConfigError, match="'trials'"):
            load_config(write(tmp_path, "trials = 2.5\n"))
        with pytest.raises(ConfigError, match="'include_direct'"):
            load_config(write(tmp_path, "include_direct = maybe\n"))
        with pytest.raises(ConfigError, match="'power_dbm'"):
            load_config(write(tmp_path, "power_dbm = loud\n"))

    def test_bool_parsing(self, tmp_path):
        assert load_config(write(tmp_path, "include_direct = TRUE\n")).include_direct
        assert not load_config(write(tmp_path, "include_direct = false\n")).include_direct

    def test_duplicate_key_last_wins(self, tmp_path):
        cfg = load_config(write(tmp_path, "trials = 3\ntrials = 9\n"))
        assert cfg.trials == 9

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/sim.cfg")


class TestValidation:
    @pytest.mark.parametrize("key,value", [
        ("altitude_km", "0"), ("elevation_deg", "120"), ("elevation_deg", "0"),
        ("earth_radius_km", "-1"), ("ris_sat_distance_km", "-5"),
        ("ris_user_near_km", "0"), ("freq_ghz", "0"), ("path_loss_exponent", "1.9"),
        ("reflection_magnitude", "0"), ("reflection_magnitude", "1.5"),
        ("rician_k", "-1"), ("num_elements", "0"), ("architecture", "mesh"),
        ("group_count", "0"), ("sector_count", "1"), ("mode", "standby"),
        ("min_rate_near", "-0.5"), ("trials", "0"), ("base_seed", "-1"),
        ("bcd_max_iters", "0"), ("bcd_rate_tol", "0"),
    ])
    def test_out_of_range_values_name_the_key(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(str(path))

    @pytest.mark.parametrize("key,value", [
        ("power_dbm", "nan"), ("noise_dbm", "inf"), ("tx_gain_dbi", "-inf"),
        ("rician_k", "Infinity"),
    ])
    def test_non_finite_floats_name_the_key(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"'{key}': expected a finite number"):
            load_config(str(path))
        with pytest.raises(ConfigError, match=f"'{key}': expected a finite number"):
            apply_overrides(SimConfig(), [f"{key}={value}"])

    @pytest.mark.parametrize("key,value", [
        ("power_dbm", "3090"), ("power_dbm", "-4000"), ("noise_dbm", "3090"),
        ("noise_dbm", "-4000"), ("tx_gain_dbi", "3090"), ("rx_gain_dbi", "3090"),
        ("rx_gain_dbi", "-4000"),
    ])
    def test_db_values_outside_the_linear_range_name_the_key(self, tmp_path, key, value):
        # 10^(x/10) overflows above ~3083 dB and underflows to 0 below ~-3240 dB
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        message = f"'{key}': linear value must be finite and > 0"
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        with pytest.raises(ConfigError, match=message):
            apply_overrides(SimConfig(), [f"{key}={value}"])

    @pytest.mark.parametrize("gain_dbi", ["2000", "1500", "-2000", "-900"])
    def test_link_gains_past_the_float_range_are_rejected(self, tmp_path, gain_dbi):
        # each dB value is representable, but the path gain G_t G_r (lambda/4 pi)^2
        # d^-eta, or the cascade through the surface, overflows or underflows
        path = tmp_path / "bad.cfg"
        path.write_text(f"tx_gain_dbi = {gain_dbi}\nrx_gain_dbi = {gain_dbi}\n")
        message = r"'tx_gain_dbi', 'rx_gain_dbi'.* path gain is (inf|0), it must be finite"
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        with pytest.raises(ConfigError, match=message):
            apply_overrides(SimConfig(), [f"tx_gain_dbi={gain_dbi}", f"rx_gain_dbi={gain_dbi}"])

    def test_large_but_representable_db_values_pass(self):
        cfg = apply_overrides(SimConfig(), ["power_dbm=300", "noise_dbm=-300",
                                            "tx_gain_dbi=3000", "rx_gain_dbi=-3000"])
        assert cfg.power_dbm == 300.0 and cfg.rx_gain_dbi == -3000.0

    def test_validate_config_passes_defaults(self):
        assert validate_config(SimConfig()) == SimConfig()


class TestOverrides:
    def test_set_applies_in_order(self):
        cfg = apply_overrides(SimConfig(), ["trials=5", "trials=11", "power_dbm=3.5"])
        assert cfg.trials == 11 and cfg.power_dbm == 3.5

    def test_set_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            apply_overrides(SimConfig(), ["foo=1"])

    def test_set_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(SimConfig(), ["trials"])

    def test_set_values_validated(self):
        with pytest.raises(ConfigError, match="'elevation_deg'"):
            apply_overrides(SimConfig(), ["elevation_deg=91"])


class TestEchoRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        cfg = SimConfig()
        path = tmp_path / "echo.cfg"
        path.write_text(echo_config(cfg))
        assert load_config(str(path)) == cfg

    def test_modified_config_round_trips(self, tmp_path):
        cfg = apply_overrides(SimConfig(), [
            "include_direct=true", "bcd_rate_tol=1e-06", "architecture=group",
            "group_count=4", "num_elements=16", "out_dir=results/run1",
            "noise_dbm=-84.5",
        ])
        path = tmp_path / "echo.cfg"
        path.write_text(echo_config(cfg))
        assert load_config(str(path)) == cfg

    def test_every_key_appears_once(self):
        text = echo_config(SimConfig())
        keys = [line.split("=")[0].strip() for line in text.strip().splitlines()]
        assert len(keys) == len(dataclasses.fields(SimConfig))
        assert len(set(keys)) == len(keys)


class TestBuilders:
    def test_geometry_mapping(self):
        geom = geometry_from(SimConfig())
        assert geom.altitude_km == 600.0
        assert geom.ris_user_km == (2.0, 3.0)

    def test_link_budget_mapping(self):
        lb = link_budget_from(SimConfig())
        assert lb.freq_ghz == 3.5 and lb.noise_dbm == -90.0

    def test_ris_spec_mapping_and_divisibility(self):
        cfg = apply_overrides(SimConfig(), ["architecture=group", "group_count=7"])
        with pytest.raises(ConfigError, match="group_count"):
            ris_spec_from(cfg)
        ok = apply_overrides(SimConfig(), ["architecture=group", "group_count=8"])
        assert ris_spec_from(ok).block_size == 10

    def test_bcd_settings_mapping(self):
        cfg = apply_overrides(SimConfig(), ["bcd_max_iters=9", "bcd_rate_tol=0.5"])
        settings = bcd_settings_from(cfg)
        assert settings.max_outer_iters == 9 and settings.rate_tolerance == 0.5
