"""The benchmark's own checks: wrapper safety, span accounting, seeding
and the output gates. Run from the repository root with

    python3 -m pytest perfbench/tests
"""

import dataclasses
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
import spans
from bdris import experiments
from bdris.channel import GeometryParams, LinkBudgetParams
from bdris.surfaces import RisSpec

TINY = bench.Workload("power", RisSpec(4, "full"), False, 1, 2)


def _originals():
    return {(module.__name__, attr): getattr(module, attr)
            for _, module, attr, _ in spans.LAYERS}


def test_traced_installs_and_restores_every_layer():
    before = _originals()
    with spans.traced(spans.Recorder()):
        assert len(spans.installed_wrappers()) == len(spans.LAYERS)
        assert all(getattr(m, a) is not before[(m.__name__, a)]
                   for _, m, a, _ in spans.LAYERS)
    assert spans.installed_wrappers() == []
    assert _originals() == before


def test_traced_restores_when_a_layer_raises():
    before = _originals()
    rec = spans.Recorder()
    with pytest.raises(ValueError):
        with spans.traced(rec):
            experiments.draw_realization(GeometryParams(), LinkBudgetParams(), 0)
    assert _originals() == before
    (span,) = rec.spans
    assert span.name == "channel.draw_realization" and math.isfinite(span.end)


def test_wrapping_is_never_nested_or_left_on_for_untimed_runs(tmp_path):
    with spans.traced(spans.Recorder()):
        with pytest.raises(RuntimeError):
            with spans.traced(spans.Recorder()):
                pass
        with pytest.raises(RuntimeError):
            bench.run_rep(TINY, TINY.spec(1), 1, str(tmp_path))
    assert spans.installed_wrappers() == []


def test_self_times_add_up_to_traced_wall(tmp_path):
    rec = spans.Recorder()
    t0 = time.perf_counter()
    rep = bench.run_rep(TINY, TINY.spec(1), 1, str(tmp_path), rec)
    outer = time.perf_counter() - t0
    assert rep.errors == []
    total_self = sum(rec.self_times())
    root = rec.spans[0]
    assert root.name == "bench.sweep" and root.parent == -1
    assert total_self == pytest.approx(root.duration, rel=1e-9)
    # the root span encloses the timed region and sits inside the outer clock
    assert rep.wall <= root.duration <= outer
    assert root.duration - rep.wall < 0.05 * rep.wall + 0.01


def test_spans_of_one_trial_share_its_id(tmp_path):
    rec = spans.Recorder()
    bench.run_rep(TINY, TINY.spec(1), 1, str(tmp_path), rec)
    n_trials = 5 * TINY.trials
    names = {}
    for sp in rec.spans:
        if sp.parent == 0 and sp.trial >= 0:
            names.setdefault(sp.trial, []).append(sp.name)
    assert sorted(names) == list(range(n_trials))
    assert all(sorted(v) == ["channel.draw_realization", "optimizer.bcd_solve.bd",
                             "optimizer.bcd_solve.cd"] for v in names.values())
    assert len(spans.trial_times(rec)) == n_trials
    totals = spans.layer_totals(rec)
    assert totals["optimizer.bcd_solve.cd.calls"] == n_trials
    assert totals["experiments.emit_csv.calls"] == 1
    assert 0.0 < totals["experiments.point_imbalance"] < 1.0


def test_seed_sets_the_inputs(tmp_path):
    a1 = bench.run_rep(TINY, TINY.spec(1), 1, str(tmp_path))
    a2 = bench.run_rep(TINY, TINY.spec(1), 1, str(tmp_path))
    b = bench.run_rep(TINY, TINY.spec(2), 1, str(tmp_path))
    assert statistics.fmean(a1.ratios) == statistics.fmean(a2.ratios)
    assert a1.detail_sha256 == a2.detail_sha256
    assert b.ratios != a1.ratios
    assert b.detail_sha256 != a1.detail_sha256


def _result(rows, n_agg=2):
    agg = tuple((10.0, 4, s, 1.0, 0.0, 1, 0) for s in ("BD_RIS", "CD_RIS")[:n_agg])
    return experiments.SweepResult("power", tuple(rows), agg)


def test_gates_pass_paired_rows_and_catch_bad_ones():
    spec = dataclasses.replace(TINY.spec(1), trials=1)
    good = [(10.0, 4, "BD_RIS", 0, 1e-13, 1e-13, 2e-13, 0),
            (10.0, 4, "CD_RIS", 0, 1e-13, 0.5e-13, 1.5e-13, 0)]
    errors, failed, ratios = bench.check_result(_result(good), spec, 1)
    assert (errors, failed) == ([], 0) and ratios == [pytest.approx(4 / 3)]

    # a relative slack of 1e-9 on rates near 1e-13 still catches a loss
    worse = [good[0][:6] + (1.5e-13 * (1 - 1e-8), 0), good[1]]
    errors, _, _ = bench.check_result(_result(worse), spec, 1)
    assert any("BD" in e for e in errors)

    nan = [good[0][:6] + (math.nan, 0), good[1]]
    errors, failed, _ = bench.check_result(_result(nan), spec, 1)
    assert failed == 1 and any("non-finite" in e for e in errors)

    outage = [(10.0, 4, "BD_RIS", 0, 0.0, 0.0, 0.0, 1), good[1]]
    assert bench.check_result(_result(outage), spec, 1)[:2] == ([], 1)

    errors, _, _ = bench.check_result(_result(good[:1], n_agg=1), spec, 1)
    assert len(errors) == 3     # detail rows, aggregate rows, unpaired trial


def test_run_fails_without_the_program(tmp_path):
    root = Path(bench.__file__).resolve().parents[1]
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "power_full80", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
