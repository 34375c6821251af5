"""Command-line behavior: subcommands, exit codes, and determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

import bdris
from bdris import experiments
from bdris.cli import main
from bdris.surfaces import RisSpec, random_feasible


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGlobalFlags:
    def test_echo_config_alone(self, capsys):
        code, out, _ = run(capsys, "--echo-config")
        assert code == 0
        assert "freq_ghz = 3.5" in out
        assert "num_elements = 80" in out

    def test_echo_reflects_overrides(self, capsys):
        code, out, _ = run(capsys, "--set", "num_elements=12", "--echo-config")
        assert code == 0 and "num_elements = 12" in out

    def test_missing_subcommand_without_echo(self, capsys):
        code, _, err = run(capsys)
        assert code == 2 and "subcommand" in err

    def test_bad_set_value(self, capsys):
        code, _, err = run(capsys, "--set", "elevation_deg=200", "complexity")
        assert code == 2 and "elevation_deg" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "orbit")[0] == 2

    def test_config_file_used(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("num_elements = 4\narchitecture = single\n")
        code, out, _ = run(capsys, "--config", str(cfg), "complexity")
        assert code == 0 and out.strip() == "4"

    def test_config_parse_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _, err = run(capsys, "--config", str(cfg), "complexity")
        assert code == 2 and "unknown key" in err


class TestComplexity:
    def test_default_fully_connected_80(self, capsys):
        code, out, _ = run(capsys, "complexity")
        assert code == 0 and out.strip() == "3240"

    def test_single_hybrid_even(self, capsys):
        code, out, _ = run(capsys, "--set", "architecture=single",
                           "--set", "mode=hybrid", "complexity")
        assert code == 0 and out.strip() == "120"

    def test_single_hybrid_odd_prints_fraction(self, capsys):
        code, out, _ = run(capsys, "--set", "architecture=single",
                           "--set", "mode=hybrid", "--set", "num_elements=81",
                           "complexity")
        assert code == 0
        assert out.strip() == "243/2 (non-integral component count)"


class TestValidatePr:
    def test_feasible_file(self, tmp_path, capsys):
        pr = random_feasible(RisSpec(6, "full", "reflective"), 1)
        path = tmp_path / "pr.npz"
        np.savez(path, phi=pr[0])
        code, out, _ = run(capsys, "--set", "num_elements=6", "validate-pr", str(path))
        assert code == 0
        assert "feasible: yes" in out and "violated_constraint: none" in out

    def test_infeasible_file(self, tmp_path, capsys):
        path = tmp_path / "pr.npz"
        np.savez(path, phi=1.1 * np.eye(6))
        code, out, _ = run(capsys, "--set", "num_elements=6", "validate-pr", str(path))
        assert code == 1 and "feasible: no" in out

    def test_hybrid_pair(self, tmp_path, capsys):
        pr = random_feasible(RisSpec(6, "single", "hybrid"), 2)
        path = tmp_path / "pr.npz"
        np.savez(path, phi_r=pr[0], phi_t=pr[1])
        code, out, _ = run(capsys, "--set", "num_elements=6",
                           "--set", "architecture=single", "--set", "mode=hybrid",
                           "validate-pr", str(path))
        assert code == 0 and "feasible: yes" in out

    def test_multisector_stack(self, tmp_path, capsys):
        spec = RisSpec(6, "single", "multisector", sector_count=3)
        pr = random_feasible(spec, 3)
        path = tmp_path / "pr.npz"
        np.savez(path, phi_s=pr)
        code, out, _ = run(capsys, "--set", "num_elements=6",
                           "--set", "architecture=single",
                           "--set", "mode=multisector", "--set", "sector_count=3",
                           "validate-pr", str(path))
        assert code == 0 and "feasible: yes" in out

    def test_hybrid_pair_of_different_sizes(self, tmp_path, capsys):
        path = tmp_path / "pr.npz"
        np.savez(path, phi_r=np.eye(6), phi_t=np.eye(5))
        code, out, err = run(capsys, "--set", "num_elements=6",
                             "--set", "architecture=single", "--set", "mode=hybrid",
                             "validate-pr", str(path))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_missing_array_key(self, tmp_path, capsys):
        path = tmp_path / "pr.npz"
        np.savez(path, wrong=np.eye(6))
        code, _, err = run(capsys, "--set", "num_elements=6", "validate-pr", str(path))
        assert code == 2 and "phi" in err

    def test_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "pr.npz"
        np.savez(path, phi=np.eye(5))
        code, _, err = run(capsys, "--set", "num_elements=6", "validate-pr", str(path))
        assert code == 2 and "shape" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate-pr", "/nonexistent/pr.npz")
        assert code == 2 and "cannot read" in err

    def test_bare_npy_array_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "pr.npy"
        np.save(path, np.eye(6))
        code, _, err = run(capsys, "--set", "num_elements=6", "validate-pr", str(path))
        assert code == 2 and err.startswith("config error:") and "npz" in err

    def test_non_finite_file_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "pr.npz"
        np.savez(path, phi=np.full((80, 80), np.nan))
        code, out, _ = run(capsys, "validate-pr", str(path))
        assert code == 1
        assert "feasible: no" in out and "max_violation: inf" in out

    @pytest.mark.parametrize("phi", [np.full((6, 6), "1"), np.full((6, 6), 1.0, dtype=object)],
                             ids=["str", "object"])
    def test_non_numeric_array_is_a_config_error(self, tmp_path, capsys, phi):
        path = tmp_path / "pr.npz"
        np.savez(path, phi=phi)
        code, out, err = run(capsys, "--set", "num_elements=6", "validate-pr", str(path))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(path) in err and "'phi'" in err


class TestSolveOne:
    ARGS = ("--set", "num_elements=8", "--set", "trials=1")

    def test_prints_both_schemes(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "solve-one")
        assert code == 0
        assert "scheme=CD_RIS" in out and "scheme=BD_RIS" in out
        assert "sum_rate=" in out and "steps=" in out and "converged=" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, *self.ARGS, "solve-one")
        _, second, _ = run(capsys, *self.ARGS, "solve-one")
        assert first == second

    @pytest.mark.parametrize("args,expected", [
        ((), "scheme=CD_RIS rate_near=2.336115e-13 rate_far=8.180660e-14 sum_rate=3.154181e-13 "
             "alpha_near=0.500000 alpha_far=0.500000 steps=4 converged=true\n"
             "scheme=BD_RIS rate_near=2.577092e-13 rate_far=8.486500e-14 sum_rate=3.425742e-13 "
             "alpha_near=0.500000 alpha_far=0.500000 steps=4 converged=true\n"),
        (("--set", "architecture=group", "--set", "group_count=16",
          "--set", "include_direct=true"),
         "scheme=CD_RIS rate_near=3.250910e-06 rate_far=1.780168e-06 sum_rate=5.031078e-06 "
         "alpha_near=0.500000 alpha_far=0.500000 steps=2 converged=true\n"
         "scheme=BD_RIS rate_near=3.250882e-06 rate_far=1.780235e-06 sum_rate=5.031116e-06 "
         "alpha_near=0.500000 alpha_far=0.500000 steps=2 converged=true\n"),
    ])
    def test_pinned_output(self, capsys, args, expected):
        # the default configuration, and G=16 with direct links; a change
        # to these digits is a change to the solver's results
        assert run(capsys, *args, "solve-one") == (0, expected, "")

    def test_seed_changes_output(self, capsys):
        _, first, _ = run(capsys, *self.ARGS, "solve-one")
        _, other, _ = run(capsys, *self.ARGS, "--set", "base_seed=777", "solve-one")
        assert first != other

    def test_infeasible_exit_1(self, capsys):
        code, _, err = run(capsys, *self.ARGS, "--set", "min_rate_far=1.0", "solve-one")
        assert code == 1 and "infeasible" in err

    def test_binding_far_floor_solves_both_schemes(self, capsys):
        # out of reach at the identity, reached by both optima
        code, out, _ = run(capsys, "--set", "min_rate_far=1.6e-13", "solve-one")
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split()[0] for line in lines] == ["scheme=CD_RIS", "scheme=BD_RIS"]
        for line in lines:
            fields = dict(item.split("=") for item in line.split())
            assert float(fields["rate_far"]) >= 1.6e-13

    def test_near_floor_below_1e_12_exit_1(self, capsys):
        code, out, err = run(capsys, "--set", "min_rate_near=9e-13", "solve-one")
        assert code == 1 and out == ""
        assert "scheme=CD_RIS infeasible" in err and "scheme=BD_RIS infeasible" in err

    def test_numeric_failure_exit_1(self, capsys, monkeypatch):
        solve = experiments.bcd_solve

        def failing_bd(ch, problem, warm_image=None):
            if problem.scheme == "BD_RIS":
                raise FloatingPointError("injected")
            return solve(ch, problem, warm_image=warm_image)

        monkeypatch.setattr(experiments, "bcd_solve", failing_bd)
        code, out, err = run(capsys, *self.ARGS, "solve-one")
        assert code == 1
        assert [line.split()[0] for line in out.splitlines()] == ["scheme=CD_RIS"]
        assert err == "scheme=BD_RIS numeric failure: injected\n"

    @pytest.mark.parametrize("key", ["bcd_max_iters", "bcd_rate_tol"])
    def test_removed_solver_keys_are_unknown(self, capsys, key):
        code, out, err = run(capsys, "--set", f"{key}=1", "solve-one")
        assert code == 2 and out == "" and f"unknown key '{key}'" in err

    def test_non_reflective_mode_exit_2(self, capsys):
        code, _, err = run(capsys, "--set", "mode=hybrid", "solve-one")
        assert code == 2 and "reflective" in err

    @pytest.mark.parametrize("assignment", [
        "power_dbm=3090", "noise_dbm=3090", "tx_gain_dbi=3090", "rx_gain_dbi=3090",
        "noise_dbm=-4000", "power_dbm=-4000",
    ])
    def test_db_value_past_the_linear_range_exit_2(self, capsys, assignment):
        code, out, err = run(capsys, *self.ARGS, "--set", assignment, "solve-one")
        assert code == 2 and out == ""
        assert f"'{assignment.split('=')[0]}'" in err and "linear value" in err


    @pytest.mark.parametrize("gain_dbi", ["2000", "1500", "-2000", "-900"])
    def test_link_gain_past_the_float_range_exit_2(self, capsys, gain_dbi):
        code, out, err = run(capsys, *self.ARGS, "--set", f"tx_gain_dbi={gain_dbi}",
                             "--set", f"rx_gain_dbi={gain_dbi}", "solve-one")
        assert code == 2 and out == ""
        assert "'tx_gain_dbi'" in err and "path gain" in err

    def test_link_gain_past_the_float_range_from_the_distances_exit_2(self, capsys):
        # (1e-9 km) ** -52 overflows in path_gain, which counts as an inf gain
        code, out, err = run(capsys, "--set", "ris_user_near_km=1e-9",
                             "--set", "path_loss_exponent=52", "solve-one")
        assert code == 2 and out == ""
        assert "'path_loss_exponent'" in err and "the surface-to-near-user path gain is inf" in err

    def test_peak_snr_past_the_float_range_exit_2(self, capsys):
        # every path gain and cascade is finite, but p K^2 cascade / noise is not
        code, out, err = run(capsys, "--set", "tx_gain_dbi=740", "--set", "rx_gain_dbi=740",
                             "--set", "noise_dbm=-400", "--set", "num_elements=8", "solve-one")
        assert code == 2 and out == ""
        assert "'noise_dbm'" in err and "peak cascaded near-user SNR" in err


class TestSweepCommands:
    def test_power_sweep_writes_files(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--set", "num_elements=4", "--set", "trials=2",
                           "--set", f"out_dir={tmp_path}", "sweep-power")
        assert code == 0
        detail = tmp_path / "power_sweep.csv"
        agg = tmp_path / "power_sweep_agg.csv"
        script = tmp_path / "power_sweep.gp"
        assert detail.exists() and agg.exists() and script.exists()
        header = detail.read_text().splitlines()[0]
        assert header == "power_dbm,num_elements,scheme,trial,rate_near,rate_far,sum_rate,outage"
        # 5 built-in power points x 2 schemes x 2 trials
        assert len(detail.read_text().splitlines()) == 1 + 20
        assert str(detail) in out

    def test_element_sweep_writes_files(self, tmp_path, capsys):
        code, _, _ = run(capsys, "--set", "trials=1", "--set", f"out_dir={tmp_path}",
                         "--set", "power_dbm=10", "sweep-elements")
        assert code == 0
        lines = (tmp_path / "element_sweep.csv").read_text().splitlines()
        # 4 built-in element counts x 2 schemes x 1 trial
        assert len(lines) == 1 + 8
        ks = {int(line.split(",")[1]) for line in lines[1:]}
        assert ks == {10, 20, 40, 80}

    def test_workers_flag_preserves_bytes(self, tmp_path, capsys):
        base = ("--set", "num_elements=4", "--set", "trials=2")
        run(capsys, *base, "--set", f"out_dir={tmp_path / 'a'}", "sweep-power")
        run(capsys, *base, "--set", f"out_dir={tmp_path / 'b'}", "sweep-power",
            "--workers", "2")
        a = (tmp_path / "a" / "power_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "power_sweep.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_element_grid_that_group_count_does_not_divide_exit_2(self, tmp_path, capsys,
                                                                   workers):
        # G=4 divides the configured K=80 but not the grid's K=10
        code, out, err = run(capsys, "--set", "architecture=group", "--set", "group_count=4",
                             "--set", f"out_dir={tmp_path}", "sweep-elements",
                             "--workers", workers)
        assert code == 2 and out == ""
        assert err == ("config error: element sweep point K=10: "
                       "group_count 4 must divide the matrix dimension 10\n")
        assert not any(tmp_path.iterdir())

    def test_power_sweep_at_g16_ignores_the_element_grid(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--set", "architecture=group", "--set", "group_count=16",
                           "--set", "trials=1", "--set", f"out_dir={tmp_path}", "sweep-power")
        assert code == 0 and "(10 rows)" in out

    def test_non_reflective_mode_exit_2(self, capsys):
        code, _, _ = run(capsys, "--set", "mode=multisector", "sweep-power")
        assert code == 2

    def test_out_dir_that_is_a_file_exit_1(self, tmp_path, capsys):
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        code, out, err = run(capsys, "--set", "num_elements=4", "--set", "trials=1",
                             "--set", f"out_dir={out_dir}", "sweep-power")
        assert code == 1 and out == ""
        assert err == f"error: [Errno 17] File exists: '{out_dir}'\n"

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        code, _, err = run(capsys, "--set", f"out_dir={tmp_path}", "sweep-elements",
                           "--workers", workers)
        assert code == 2 and "--workers" in err
        assert not any(tmp_path.iterdir())


class TestOracleCheck:
    def test_passes_on_defaults(self, capsys):
        # one line per oracle_suite arm: K=2 diagonal, K=80 CD, full and G=16,
        # and the single-user gain bound
        code, out, _ = run(capsys, "--set", "base_seed=4242", "oracle-check")
        assert code == 0
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert len(out.splitlines()) == 5

    def test_subnormal_link_gain_exit_2(self, capsys):
        # a satellite-to-surface gain of 1.7e-316 is subnormal: per-element
        # |h| ~ 1e-158 leaves the solver too few digits to meet the band
        code, out, err = run(capsys, "--set", "path_loss_exponent=55",
                             "--set", "ris_user_near_km=0.001",
                             "--set", "ris_user_far_km=0.0012", "oracle-check")
        assert code == 2 and out == ""
        assert "'path_loss_exponent'" in err and "satellite-to-surface path gain" in err


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(bdris.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "bdris.cli", "complexity"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0 and done.stdout.strip() == "3240"


class TestPublicSurface:
    NAMES = {
        "ARCHITECTURES", "MODES", "SCHEMES", "SPEED_OF_LIGHT",
        "ChannelRealization", "ConfigError", "DimensionError",
        "FeasibilityReport", "GeometryParams", "InfeasibleAllocationError",
        "LinkBudgetParams", "NomaAllocation", "ProblemSpec",
        "RateResult", "RisSpec", "SimConfig", "Solution", "SweepResult",
        "SweepSpec", "achievable_rates", "apply_overrides", "bcd_solve",
        "db_to_linear", "draw_realization", "echo_config",
        "effective_channel", "emit_csv", "emit_plot_script", "exact_oracle",
        "hardware_complexity", "load_config", "min_power_split_for_far_rate",
        "path_gain", "project_feasible", "random_feasible",
        "rician_sample", "run_element_sweep", "run_power_sweep", "slant_range",
        "solve_phase_subproblem", "solve_power_subproblem", "validate",
        "__version__",
    }

    def test_all_is_the_pinned_names(self):
        # the surface grows only when a new item needs it; update NAMES then
        assert len(self.NAMES) == 43
        assert len(bdris.__all__) == len(set(bdris.__all__))
        assert set(bdris.__all__) == self.NAMES
        for name in bdris.__all__:
            getattr(bdris, name)
