"""Sweep harness: pairing, determinism, aggregation, and file emission."""

import csv
import io
import multiprocessing

import numpy as np
import pytest

from bdris import experiments
from bdris.channel import GeometryParams, LinkBudgetParams, draw_realization
from bdris.experiments import (AGGREGATE_HEADER, DETAIL_HEADER, SweepResult,
                               SweepSpec, emit_csv, emit_plot_script,
                               run_element_sweep, run_power_sweep, solve_pair)
from bdris.optimizer import InfeasibleAllocationError, ProblemSpec
from bdris.surfaces import RisSpec


def small_spec(**overrides):
    base = dict(
        geometry=GeometryParams(),
        link_budget=LinkBudgetParams(),
        ris_spec=RisSpec(4, "full", "reflective"),
        power_points_dbm=(0.0, 10.0),
        element_counts=(2, 4),
        power_dbm=10.0,
        trials=3,
        base_seed=99,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)
        with pytest.raises(ValueError):
            small_spec(schemes=())
        with pytest.raises(ValueError):
            small_spec(schemes=("BD_RIS", "MIMO"))
        with pytest.raises(ValueError):
            small_spec(power_points_dbm=())
        with pytest.raises(ValueError):
            small_spec(ris_spec=RisSpec(4, "full", "hybrid"))


class TestRunSweeps:
    def test_row_count_contract(self):
        result = run_power_sweep(small_spec(power_points_dbm=(10.0,), trials=1))
        assert len(result.detail_rows) == 2       # one point, two schemes
        assert len(result.aggregate_rows) == 2
        full = run_power_sweep(small_spec())
        assert len(full.detail_rows) == 2 * 2 * 3  # points * schemes * trials

    def test_rows_sorted_even_from_shuffled_grid(self):
        result = run_power_sweep(small_spec(power_points_dbm=(10.0, 0.0)))
        keys = [(r[0], r[1], r[2], r[3]) for r in result.detail_rows]
        assert keys == sorted(keys)

    def test_paired_dominance_per_trial(self):
        result = run_power_sweep(small_spec(trials=5))
        by_key = {}
        for row in result.detail_rows:
            by_key.setdefault((row[0], row[1], row[3]), {})[row[2]] = row[6]
        for pair in by_key.values():
            assert pair["BD_RIS"] >= pair["CD_RIS"] * (1.0 - 1e-9)

    def test_deterministic_across_workers(self):
        spec = small_spec()
        serial = run_power_sweep(spec, workers=1)
        parallel = run_power_sweep(spec, workers=2)
        assert serial == parallel

    def test_pool_has_at_most_one_process_per_point(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        two_points = small_spec(trials=1)
        assert run_power_sweep(two_points, workers=64) == run_power_sweep(two_points)
        one_point = small_spec(trials=1, power_points_dbm=(10.0,))
        assert run_power_sweep(one_point, workers=8) == run_power_sweep(one_point)
        assert started == [2]             # the one-point sweep ran without a pool

    def test_element_sweep_varies_k(self):
        result = run_element_sweep(small_spec(trials=2))
        ks = sorted({row[1] for row in result.detail_rows})
        assert ks == [2, 4]
        assert all(row[0] == 10.0 for row in result.detail_rows)

    def test_duplicate_element_entries_repeat_identically(self):
        result = run_element_sweep(small_spec(element_counts=(4, 4), trials=2))
        assert len(result.aggregate_rows) == 4     # two points x two schemes
        assert result.aggregate_rows[0] == result.aggregate_rows[1]
        assert result.aggregate_rows[2] == result.aggregate_rows[3]

    def test_single_scheme_run(self):
        result = run_power_sweep(small_spec(schemes=("BD_RIS",), trials=2))
        assert {row[2] for row in result.detail_rows} == {"BD_RIS"}

    def test_outage_rows_and_aggregation(self):
        # unreachable minimum rate: every trial is an outage for both schemes
        result = run_power_sweep(small_spec(power_points_dbm=(0.0,), trials=2,
                                            min_rate_far=5.0))
        assert all(row[7] == 1 and row[6] == 0.0 for row in result.detail_rows)
        for agg in result.aggregate_rows:
            assert agg[3] == 0.0 and agg[5] == 0 and agg[6] == 2

    def test_aggregate_matches_detail(self):
        result = run_power_sweep(small_spec(trials=4))
        for power, k, scheme, mean, std, n_ok, n_out in result.aggregate_rows:
            rates = [r[6] for r in result.detail_rows
                     if (r[0], r[1], r[2]) == (power, k, scheme) and r[7] == 0]
            assert n_ok == len(rates) and n_out == 0
            assert mean == pytest.approx(np.mean(rates), rel=1e-12)
            assert std == pytest.approx(np.std(rates, ddof=1), rel=1e-12)


class TestEmitCsv:
    def test_headers_and_roundtrip(self, tmp_path):
        result = run_power_sweep(small_spec(trials=2))
        detail_path, agg_path = emit_csv(result, str(tmp_path / "sweep.csv"))
        assert agg_path.endswith("sweep_agg.csv")
        detail_text = open(detail_path).read().splitlines()
        agg_text = open(agg_path).read().splitlines()
        assert detail_text[0] == DETAIL_HEADER
        assert agg_text[0] == AGGREGATE_HEADER
        # parse-back within 1e-6 relative on every float field
        reader = csv.DictReader(io.StringIO("\n".join(detail_text)))
        parsed = list(reader)
        assert len(parsed) == len(result.detail_rows)
        for row, ref in zip(parsed, result.detail_rows):
            assert float(row["power_dbm"]) == pytest.approx(ref[0], rel=1e-6)
            assert int(row["num_elements"]) == ref[1]
            assert row["scheme"] == ref[2]
            assert int(row["trial"]) == ref[3]
            assert float(row["sum_rate"]) == pytest.approx(ref[6], rel=1e-6)
            assert int(row["outage"]) == ref[7]

    def test_empty_result_writes_headers_only(self, tmp_path):
        result = SweepResult("power", (), ())
        detail_path, agg_path = emit_csv(result, str(tmp_path / "empty.csv"))
        assert open(detail_path).read() == DETAIL_HEADER + "\n"
        assert open(agg_path).read() == AGGREGATE_HEADER + "\n"

    def test_identical_runs_identical_bytes(self, tmp_path):
        spec = small_spec()
        p1 = emit_csv(run_power_sweep(spec, workers=1), str(tmp_path / "a.csv"))
        p2 = emit_csv(run_power_sweep(spec, workers=2), str(tmp_path / "b.csv"))
        assert open(p1[0], "rb").read() == open(p2[0], "rb").read()
        assert open(p1[1], "rb").read() == open(p2[1], "rb").read()


class TestEmitPlotScript:
    def test_references_csv_and_has_two_curves(self, tmp_path):
        result = run_power_sweep(small_spec(trials=1))
        path = emit_plot_script(result, str(tmp_path / "sweep.gp"), "sweep_agg.csv")
        text = open(path).read()
        assert text.count("sweep_agg.csv") == 2
        assert "Transmit power (dBm)" in text
        assert "Spectral efficiency (bps/Hz)" in text
        assert "BD_RIS" in text and "CD_RIS" in text

    def test_element_axis_label_and_column(self, tmp_path):
        result = run_element_sweep(small_spec(trials=1))
        text = open(emit_plot_script(result, str(tmp_path / "e.gp"), "e_agg.csv")).read()
        assert "Number of PREs" in text
        assert "$2" in text       # x from the num_elements column

    def test_default_csv_name_follows_script_stem(self, tmp_path):
        result = run_power_sweep(small_spec(trials=1))
        text = open(emit_plot_script(result, str(tmp_path / "power_sweep.gp"))).read()
        assert "power_sweep_agg.csv" in text

    def test_idempotent(self, tmp_path):
        result = run_power_sweep(small_spec(trials=1))
        a = emit_plot_script(result, str(tmp_path / "a.gp"), "x.csv")
        b = emit_plot_script(result, str(tmp_path / "b.gp"), "x.csv")
        assert open(a, "rb").read() == open(b, "rb").read()


class TestSolvePair:
    """CD first, then BD from the CD phases: the one place the schemes pair."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        solve = experiments.bcd_solve

        def recording(ch, problem, warm_start_pr=None):
            calls.append((problem.scheme, warm_start_pr))
            return solve(ch, problem, warm_start_pr=warm_start_pr)

        monkeypatch.setattr(experiments, "bcd_solve", recording)
        return calls

    @staticmethod
    def channel():
        return draw_realization(GeometryParams(), LinkBudgetParams(), 4,
                                rng=np.random.default_rng(3))

    def test_cd_then_bd_from_the_cd_phases(self, monkeypatch):
        calls = self.counting(monkeypatch)
        pair = solve_pair(self.channel(), ProblemSpec(RisSpec(4, "full"), 10.0))
        assert [scheme for scheme, _ in calls] == ["CD_RIS", "BD_RIS"]
        assert calls[0][1] is None
        assert calls[1][1] is pair["CD_RIS"].phase
        assert list(pair) == ["CD_RIS", "BD_RIS"]
        assert pair["BD_RIS"].rates.sum_rate >= pair["CD_RIS"].rates.sum_rate * (1 - 1e-9)

    def test_infeasible_cd_starts_bd_from_the_identity(self, monkeypatch):
        calls = self.counting(monkeypatch)
        pair = solve_pair(self.channel(), ProblemSpec(RisSpec(4, "full"), 10.0,
                                                      min_rate_far=5.0))
        assert calls == [("CD_RIS", None), ("BD_RIS", None)]
        assert all(isinstance(r, InfeasibleAllocationError) for r in pair.values())

    def test_one_pair_per_trial_in_sweeps(self, monkeypatch):
        calls = self.counting(monkeypatch)
        run_power_sweep(small_spec(trials=2))
        assert [scheme for scheme, _ in calls] == ["CD_RIS", "BD_RIS"] * 4

    def test_bd_only_sweep_matches_the_paired_bd_rows(self):
        solo = run_power_sweep(small_spec(schemes=("BD_RIS",), trials=2))
        paired = run_power_sweep(small_spec(trials=2))
        assert solo.detail_rows == tuple(r for r in paired.detail_rows if r[2] == "BD_RIS")
