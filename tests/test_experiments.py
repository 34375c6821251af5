"""Sweep harness: pairing, determinism, aggregation, and file emission."""

import csv
import hashlib
import io
import multiprocessing
import os
import signal
import time
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdris import experiments, optimizer
from bdris.channel import GeometryParams, LinkBudgetParams, draw_realization
from bdris.experiments import (AGGREGATE_HEADER, DETAIL_HEADER, SweepResult,
                               SweepSpec, emit_csv, emit_plot_script,
                               run_element_sweep, run_power_sweep, solve_pair)
from bdris.noma import RateResult
from bdris.optimizer import SCHEMES, InfeasibleAllocationError, ProblemSpec
from bdris.surfaces import RisSpec, validate


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


@pytest.fixture
def in_process_children(monkeypatch):
    """The sweep's process context replaced by one whose Process runs its
    target in this process when started, over a real pipe. Returns (runs,
    children): the ('caller' or 'child', units) of every _run_trials call
    in call order, and the args of every child process."""
    runs, children, inside = [], [], []

    class InProcessChild:
        def __init__(self, target, args):
            self.target, self.args = target, args
            children.append(args)

        def start(self):
            inside.append(self)
            try:
                self.target(*self.args)
            finally:
                inside.pop()

        def join(self):
            pass

        def terminate(self):
            pass

    context = SimpleNamespace(Process=InProcessChild, Pipe=multiprocessing.Pipe)
    run_trials = experiments._run_trials

    def recording(spec, units):
        runs.append(("child" if inside else "caller", units))
        return run_trials(spec, units)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
    monkeypatch.setattr(experiments, "_run_trials", recording)
    return runs, children


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)
        with pytest.raises(ValueError):
            small_spec(power_points_dbm=())
        with pytest.raises(ValueError):
            small_spec(ris_spec=RisSpec(4, "full", "hybrid"))

    def test_schemes_is_a_class_attribute_not_a_field(self):
        assert SweepSpec.schemes == SCHEMES
        assert "schemes" not in {f.name for f in fields(SweepSpec)}
        with pytest.raises(TypeError):
            small_spec(schemes=("BD_RIS",))
        # every trial of a sweep writes a row for each scheme
        result = run_power_sweep(small_spec(trials=1))
        assert sorted(row[2] for row in result.detail_rows) == sorted(SCHEMES * 2)


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
        # a shuffled grid that repeats a K, over more processes than distinct K
        spec = small_spec(element_counts=(8, 2, 8), trials=2)
        assert run_element_sweep(spec, workers=1) == run_element_sweep(spec, workers=3)
        # more processes than points: slices cut points
        spec = small_spec(power_points_dbm=(0.0, 5.0, 10.0, 15.0, 20.0))
        assert run_power_sweep(spec, workers=1) == run_power_sweep(spec, workers=8)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 10.0, 20.0]), min_size=2, max_size=3),
           st.lists(st.sampled_from([1, 2, 4, 8]), min_size=2, max_size=3),
           st.sampled_from(["single", "full"]), st.integers(1, 3), st.integers(2, 5),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_property_rows_do_not_depend_on_the_worker_count(self, powers, counts, arch,
                                                             trials, workers, seed, direct):
        # slice boundaries fall inside points, also at a repeated K
        spec = small_spec(ris_spec=RisSpec(4, arch), power_points_dbm=tuple(powers),
                          element_counts=tuple(counts), trials=trials, base_seed=seed,
                          include_direct=direct)
        assert run_power_sweep(spec, workers=1) == run_power_sweep(spec, workers=workers)
        assert run_element_sweep(spec, workers=1) == run_element_sweep(spec, workers=workers)

    def test_caller_runs_slice_0_and_a_child_runs_each_other(self, in_process_children):
        runs, children = in_process_children
        spec = small_spec(trials=3)
        assert run_power_sweep(spec, workers=3) == run_power_sweep(spec)
        pooled, serial = runs[:3], runs[3:]
        # the children start first, then the caller runs its own slice
        assert [who for who, _ in pooled] == ["child", "child", "caller"]
        assert [units for _, units, _, _ in children] == [pooled[0][1], pooled[1][1]]
        assert pooled[2][1] + pooled[0][1] + pooled[1][1] == serial[0][1]

    def test_at_most_one_process_per_paired_trial(self, in_process_children):
        runs, children = in_process_children
        two_trials = small_spec(trials=1)
        assert run_power_sweep(two_trials, workers=64) == run_power_sweep(two_trials)
        assert len(children) == 1
        one_trial = small_spec(trials=1, power_points_dbm=(10.0,))
        assert run_power_sweep(one_trial, workers=8) == run_power_sweep(one_trial)
        assert len(children) == 1                  # no child for a single trial
        assert [who for who, _ in runs[-2:]] == ["caller", "caller"]

    def test_slices_are_contiguous_and_balanced(self, in_process_children):
        runs, children = in_process_children
        spec = small_spec(element_counts=(8, 2, 8), trials=3)
        assert run_element_sweep(spec, workers=4) == run_element_sweep(spec)
        assert len(children) == 3
        caller = [units for who, units in runs[:4] if who == "caller"]
        slices = caller + [units for _, units, _, _ in children]
        # every unit once, in grid order, so a slice may end inside a point
        assert [unit for units in slices for unit in units] == [
            (problem, key, trial) for problem, key in experiments._sweep_points(spec, "elements")
            for trial in range(spec.trials)]
        assert {len(units) for units in slices} == {2, 3}

    @pytest.mark.parametrize("workers, cpus", [(2, [3, 5]), (3, [3, 5, 3]), (5, [3, 5, 3, 5, 3])])
    def test_process_i_moves_to_cpu_i_and_keeps_its_mask(self, in_process_children, monkeypatch,
                                                         workers, cpus):
        _, children = in_process_children
        moves = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 3}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: moves.append((pid, mask)),
                            raising=False)
        spec = small_spec(trials=3)
        assert run_power_sweep(spec, workers=workers) == run_power_sweep(spec)
        assert [cpu for *_, cpu, _ in children] == cpus[1:]
        # the children move as they start, then the caller; each move is
        # undone at once: a process is placed, not pinned
        assert moves == [move for cpu in cpus[1:] + cpus[:1] for move in ((0, {cpu}), (0, {3, 5}))]

    def test_processes_run_unplaced_without_sched_setaffinity(self, in_process_children,
                                                              monkeypatch):
        _, children = in_process_children
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        spec = small_spec(trials=3)
        assert run_power_sweep(spec, workers=2) == run_power_sweep(spec)
        assert [cpu for *_, cpu, _ in children] == [None]

    def test_element_grid_is_checked_before_any_trial(self, monkeypatch):
        # K=8 has a surface at G=4, K=10 has none: no point may run first
        calls = []
        monkeypatch.setattr(experiments, "bcd_solve", lambda *args, **kw: calls.append(args))
        spec = small_spec(ris_spec=RisSpec(8, "group", group_count=4), element_counts=(8, 10))
        with pytest.raises(ValueError, match="K=10: group_count 4 must divide"):
            run_element_sweep(spec)
        assert calls == []
        # a power sweep never reads the element grid
        monkeypatch.undo()
        assert len(run_power_sweep(replace(spec, trials=1)).detail_rows) == 4

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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="children fork on Linux only")
class TestSweepProcesses:
    """A pooled sweep with real child processes, which inherit this test's
    monkeypatches when they fork: a child's error reaches the caller, a
    child that dies is an error rather than a hang, an error in the
    caller's own slice ends the children, and no process outlives the
    sweep."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A sweep that hangs fails its test after 30 s."""
        def expire(signum, frame):
            raise TimeoutError("pooled sweep still running after 30 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def started(self, monkeypatch):
        """Every child process a sweep starts, kept to read its exit code."""
        procs, start = [], multiprocessing.process.BaseProcess.start

        def recording(proc):
            procs.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
        return procs

    @staticmethod
    def route(monkeypatch, in_caller=None, in_child=None):
        """Solve with in_caller in this process and in_child in the others
        (None: the real bcd_solve)."""
        caller, solve = os.getpid(), experiments.bcd_solve

        def routed(ch, problem, warm_image=None):
            act = in_caller if os.getpid() == caller else in_child
            return (act or solve)(ch, problem, warm_image=warm_image)

        monkeypatch.setattr(experiments, "bcd_solve", routed)

    @staticmethod
    def raising(message):
        def broken(ch, problem, warm_image=None):
            raise TypeError(message)
        return broken

    def test_a_child_error_reaches_the_caller(self, monkeypatch, started):
        self.route(monkeypatch, in_child=self.raising("in a child"))
        with pytest.raises(TypeError, match="in a child"):
            run_power_sweep(small_spec(), workers=2)
        assert [proc.exitcode for proc in started] == [0]
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_is_an_error_not_a_hang(self, monkeypatch, started):
        self.route(monkeypatch, in_child=lambda *args, **kwargs: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3 before sending its rows"):
            run_power_sweep(small_spec(), workers=2)
        assert [proc.exitcode for proc in started] == [3]
        assert multiprocessing.active_children() == []

    def test_an_error_in_the_callers_slice_terminates_the_children(self, monkeypatch, started):
        self.route(monkeypatch, in_caller=self.raising("in the caller"),
                   in_child=lambda *args, **kwargs: time.sleep(60))
        with pytest.raises(TypeError, match="in the caller"):
            run_power_sweep(small_spec(), workers=3)
        assert [proc.exitcode for proc in started] == [-signal.SIGTERM] * 2
        assert multiprocessing.active_children() == []


    def test_rows_larger_than_a_pipe_buffer_come_back(self, monkeypatch, started):
        # a child blocks in send until its rows are read, so the caller
        # reads them before it joins the child
        caller, run_trials = os.getpid(), experiments._run_trials
        many = [(10.0, 4, scheme, trial, 1.0, 1.0, 2.0, 0)
                for trial in range(2000) for scheme in SCHEMES]

        def padded(spec, units):
            return run_trials(spec, units) if os.getpid() == caller else many

        monkeypatch.setattr(experiments, "_run_trials", padded)
        result = run_power_sweep(small_spec(), workers=2)
        assert len(result.detail_rows) == 3 * 2 + len(many)
        assert [proc.exitcode for proc in started] == [0]
        assert multiprocessing.active_children() == []

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
    """CD first, then BD from the CD image: the one place the schemes pair."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        solve = experiments.bcd_solve

        def recording(ch, problem, warm_image=None):
            calls.append((problem.scheme, warm_image))
            return solve(ch, problem, warm_image=warm_image)

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
        assert calls[1][1] is pair["CD_RIS"].image
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


class TestNumericFailures:
    """A solve that raises an ArithmeticError, or returns a non-finite rate,
    is a numeric failure: a row of its own with rates 0 and outage 2, counted
    in outage_count and out of the mean. Other exceptions propagate."""

    @staticmethod
    def draw(spec, stream_key, trial):
        return draw_realization(spec.geometry, spec.link_budget, spec.ris_spec.num_elements,
                                include_direct=spec.include_direct,
                                rng=np.random.default_rng([spec.base_seed, stream_key, trial]))

    @staticmethod
    def inject(monkeypatch, scheme, target, fail):
        """Route the `scheme` solve of the draw whose h is target to fail;
        the draw, not a call count, picks the trial in any worker process."""
        calls, solve = [], experiments.bcd_solve

        def faulty(ch, problem, warm_image=None):
            hit = problem.scheme == scheme and np.array_equal(ch.h_sat_ris, target)
            calls.append((problem.scheme, hit, warm_image))
            if hit:
                return fail(solve(ch, problem, warm_image=warm_image))
            return solve(ch, problem, warm_image=warm_image)

        monkeypatch.setattr(experiments, "bcd_solve", faulty)
        return calls

    @staticmethod
    def others(rows, power_dbm, trial):
        return [r for r in rows if (r[0], r[3]) != (power_dbm, trial)]

    def test_a_raising_cd_solve_starts_bd_from_the_identity(self, monkeypatch):
        spec = small_spec()
        clean = run_power_sweep(spec)
        ch = self.draw(spec, 1, 1)                 # 10 dBm, trial 1

        def fail(solution):
            raise FloatingPointError("injected")

        calls = self.inject(monkeypatch, "CD_RIS", ch.h_sat_ris, fail)
        result = run_power_sweep(spec)
        hit = [h for _, h, _ in calls].index(True)
        assert calls[hit + 1] == ("BD_RIS", False, None)     # the failed trial's BD solve
        bd = optimizer.bcd_solve(ch, ProblemSpec(spec.ris_spec, 10.0))
        r = bd.rates
        assert [row for row in result.detail_rows if (row[0], row[3]) == (10.0, 1)] == [
            (10.0, 4, "BD_RIS", 1, r.rate_near, r.rate_far, r.sum_rate, 0),
            (10.0, 4, "CD_RIS", 1, 0.0, 0.0, 0.0, 2)]
        assert self.others(result.detail_rows, 10.0, 1) == self.others(clean.detail_rows, 10.0, 1)
        cd_ok = [row[6] for row in clean.detail_rows
                 if row[:3] == (10.0, 4, "CD_RIS") and row[3] != 1]
        assert (10.0, 4, "CD_RIS", float(np.mean(cd_ok)), float(np.std(cd_ok, ddof=1)), 2,
                1) in result.aggregate_rows
        assert run_power_sweep(spec, workers=2) == result

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_bd_rate_is_an_outage_out_of_the_mean(self, monkeypatch, bad):
        spec = small_spec()
        clean = run_power_sweep(spec)
        self.inject(monkeypatch, "BD_RIS", self.draw(spec, 0, 2).h_sat_ris,   # 0 dBm, trial 2
                    lambda sol: replace(sol, rates=RateResult(bad, bad, bad, (0, 1))))
        result = run_power_sweep(spec)
        moved = [b for a, b in zip(clean.detail_rows, result.detail_rows) if a != b]
        assert moved == [(0.0, 4, "BD_RIS", 2, 0.0, 0.0, 0.0, 2)]
        bd_ok = [row[6] for row in clean.detail_rows
                 if row[:3] == (0.0, 4, "BD_RIS") and row[3] != 2]
        assert result.aggregate_rows[0] == (0.0, 4, "BD_RIS", float(np.mean(bd_ok)),
                                            float(np.std(bd_ok, ddof=1)), 2, 1)
        assert result.aggregate_rows[1:] == clean.aggregate_rows[1:]
        assert run_power_sweep(spec, workers=2) == result

    @pytest.mark.parametrize("direct", [False, True])
    def test_a_nan_channel_is_a_numeric_failure_not_an_outage(self, monkeypatch, direct):
        # no floors, so no split misses one: a NaN rate is not an outage
        spec = small_spec(include_direct=direct)
        clean = run_power_sweep(spec)
        target = self.draw(spec, 1, 2).h_sat_ris               # 10 dBm, trial 2
        draw = experiments.draw_realization

        def poisoned(*args, **kwargs):
            ch = draw(*args, **kwargs)
            if np.array_equal(ch.h_sat_ris, target):
                h = ch.h_sat_ris.copy()
                h[1] = np.nan
                ch = replace(ch, h_sat_ris=h)
            return ch

        monkeypatch.setattr(experiments, "draw_realization", poisoned)
        result = run_power_sweep(spec)
        assert [row for row in result.detail_rows if (row[0], row[3]) == (10.0, 2)] == [
            (10.0, 4, "BD_RIS", 2, 0.0, 0.0, 0.0, 2), (10.0, 4, "CD_RIS", 2, 0.0, 0.0, 0.0, 2)]
        assert self.others(result.detail_rows, 10.0, 2) == self.others(clean.detail_rows, 10.0, 2)

    def test_solve_pair_returns_the_failure(self, monkeypatch):
        ch = self.draw(small_spec(), 0, 0)
        self.inject(monkeypatch, "CD_RIS", ch.h_sat_ris,
                    lambda sol: replace(sol, rates=replace(sol.rates, sum_rate=np.inf)))
        pair = solve_pair(ch, ProblemSpec(RisSpec(4, "full"), 10.0))
        assert isinstance(pair["CD_RIS"], FloatingPointError)
        assert pair["BD_RIS"].rates.sum_rate > 0.0

    def test_other_exceptions_propagate(self, monkeypatch):
        def broken(ch, problem, warm_image=None):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(experiments, "bcd_solve", broken)
        with pytest.raises(TypeError, match="not a numeric failure"):
            run_power_sweep(small_spec())


class TestSweepsOnImages:
    """A sweep writes rates only: it never builds a Phi, and a Phi built on
    request from one of its solutions is feasible with that image."""

    @pytest.mark.parametrize("direct", [False, True])
    @pytest.mark.parametrize("ris", [RisSpec(8, "single"), RisSpec(8, "full"),
                                     RisSpec(8, "group", group_count=4)])
    def test_sweeps_build_no_phi(self, monkeypatch, ris, direct):
        built, solutions = [], []
        build, solve = optimizer._surface_from_image, experiments.bcd_solve

        def counted_build(*args):
            built.append(args)
            return build(*args)

        def kept(ch, problem, warm_image=None):
            solutions.append((ch, problem, solve(ch, problem, warm_image=warm_image)))
            return solutions[-1][2]

        monkeypatch.setattr(optimizer, "_surface_from_image", counted_build)
        monkeypatch.setattr(experiments, "bcd_solve", kept)
        spec = small_spec(ris_spec=ris, element_counts=(4, 8), trials=2, include_direct=direct)
        run_power_sweep(spec)
        run_element_sweep(spec)
        assert len(solutions) == 2 * 2 * 2 * 2     # sweeps * points * trials * schemes
        assert built == []
        for ch, problem, solution in solutions:
            phi, image = solution.phase, solution.image
            assert validate(solution.phase, problem.effective_spec, eps_feas=1e-12).is_feasible
            assert np.linalg.norm(phi @ ch.h_sat_ris - image) <= 1e-12 * np.linalg.norm(image)
        assert len(built) == len(solutions)     # one Phi per solution, on its first read


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class TestPinnedSweepBytes:
    """The sweep CSVs of two small sweeps, byte for byte. A solver change
    that moves a rate in its printed digits moves a hash: update it only
    with the moved cells and their cause on record. The bytes follow the
    floating-point rounding of the numpy and BLAS build that runs them,
    and not on the worker count."""

    @pytest.fixture(params=[1, 2])
    def workers(self, request):
        return request.param

    def test_power_sweep_full_k8(self, tmp_path, workers):
        spec = small_spec(ris_spec=RisSpec(8, "full"), trials=3)
        paths = emit_csv(run_power_sweep(spec, workers), str(tmp_path / "power.csv"))
        assert [_sha256(p) for p in paths] == [
            "af72f01ce135afa922a9cef83b976e6ea4a5573e76ab5d24eec65ee456afee43",
            "8a04cf7fef5fb84fb700af3a7d2591d2842673ea6a70ac45937c1529baf1437a"]

    def test_element_sweep_g2_with_direct_links(self, tmp_path, workers):
        spec = small_spec(ris_spec=RisSpec(4, "group", group_count=2), element_counts=(4, 8),
                          include_direct=True, trials=3)
        paths = emit_csv(run_element_sweep(spec, workers), str(tmp_path / "elements.csv"))
        assert [_sha256(p) for p in paths] == [
            "e0c0ec80bf288a9d13b37bce0190d69af55efc29ddd8138cd7269f95ffe2f8c6",
            "ecac92ab3fdf798a808185c22b9dde1db9fc2ec502e68e914b529472dbdd1e34"]

    def test_power_sweep_full_k4_with_a_far_floor(self, tmp_path, workers):
        # the floor branches of the score and slope: all of 0 dBm is outage,
        # and at 10 dBm trial 0 splits at alpha_far = 0.5 while the far floor
        # binds on trials 1 and 2 (CD at 0.741 and 0.568, BD at 0.662 and 0.563)
        spec = small_spec(ris_spec=RisSpec(4, "full"), trials=3, min_rate_far=2.5e-17)
        paths = emit_csv(run_power_sweep(spec, workers), str(tmp_path / "power.csv"))
        assert [_sha256(p) for p in paths] == [
            "7ee81dfe2b8aeebddf39238d085ff376ce8d3b671e40869b3a2e461f6a14110f",
            "6806f6d12780fbfc58d7cc53aa01092377eb831e34ea39304a4cf73d95e0aedf"]
