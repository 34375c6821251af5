"""
Paired-trial sweep benchmark for bdris.

Load model: a closed loop in one process. Each repetition calls the public
sweep API (run_power_sweep / run_element_sweep, then emit_csv and
emit_plot_script) with a SweepSpec built from the workload and the run's
seed, waits for it, checks its output, and starts the next one. Only the
elements_w2 workload uses the sweep's process pool, with POOL_WORKERS
processes.

`--trace 0` times untraced repetitions and reports the end-to-end metrics.
`--trace 1` alternates untraced and traced serial repetitions, each pair
followed by one at POOL_WORKERS, and reports the per-layer metrics from
the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bdris import experiments
from bdris.channel import GeometryParams, LinkBudgetParams
from bdris.surfaces import RisSpec

import spans
from run import THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench"
POOL_WORKERS = 2
SETUP_PROBES = 7
MIN_REPS = 3
RATIO_RTOL = 1e-9       # BD >= CD per trial, relative: sum rates sit near 1e-13


@dataclass(frozen=True)
class Workload:
    kind: str                # 'power' | 'elements'
    ris: RisSpec
    include_direct: bool
    workers: int
    trials: int              # paired trials per sweep point

    def spec(self, seed: int) -> experiments.SweepSpec:
        return experiments.SweepSpec(
            geometry=GeometryParams(), link_budget=LinkBudgetParams(), ris_spec=self.ris,
            power_dbm=10.0, trials=self.trials, base_seed=seed,
            include_direct=self.include_direct)

    def points(self, spec: experiments.SweepSpec) -> int:
        return len(spec.power_points_dbm if self.kind == "power" else spec.element_counts)


# Why these three: see perfbench/README.md. Trial counts size one
# repetition at roughly 2-3 s on a 2-core x86 box.
WORKLOADS = {
    "power_full80": Workload("power", RisSpec(80, "full"), False, 1, 10),
    "power_group16": Workload("power", RisSpec(80, "group", group_count=16), True, 1, 10),
    "elements_w2": Workload("elements", RisSpec(80, "full"), False, POOL_WORKERS, 30),
}


@dataclass
class Rep:
    """One repetition: wall seconds from the sweep call to the last emit."""
    wall: float
    trials: int
    failed: int
    errors: list
    ratios: list
    detail_sha256: str
    agg_sha256: str


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _line_count(path: str) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def check_result(result: experiments.SweepResult, spec: experiments.SweepSpec,
                 n_points: int) -> tuple:
    """Output gates for one sweep: row counts, finite rates and BD >= CD per
    trial under a relative bound. Returns (errors, failed trials, per-trial
    BD/CD ratios); a trial fails on an outage or a non-finite rate."""
    errors = []
    n_schemes = len(spec.schemes)
    if len(result.detail_rows) != n_points * spec.trials * n_schemes:
        errors.append(f"{len(result.detail_rows)} detail rows, expected "
                      f"{n_points * spec.trials * n_schemes}")
    if len(result.aggregate_rows) != n_points * n_schemes:
        errors.append(f"{len(result.aggregate_rows)} aggregate rows, expected "
                      f"{n_points * n_schemes}")
    trials = {}
    for power, k, scheme, trial, r_n, r_f, r_sum, outage in result.detail_rows:
        trials.setdefault((power, k, trial), {})[scheme] = (r_n, r_f, r_sum, outage)
    failed, ratios = 0, []
    for key, rows in trials.items():
        if set(rows) != set(spec.schemes):
            errors.append(f"trial {key} has rows for {sorted(rows)}")
            continue
        finite = all(math.isfinite(x) for row in rows.values() for x in row[:3])
        if not finite or any(row[3] for row in rows.values()):
            failed += 1
            if not finite:
                errors.append(f"non-finite rate at {key}")
            continue
        bd, cd = rows["BD_RIS"][2], rows["CD_RIS"][2]
        if bd < cd * (1.0 - RATIO_RTOL):
            errors.append(f"BD {bd:.6e} < CD {cd:.6e} at {key}")
        ratios.append(bd / cd)
    if not all(math.isfinite(row[3]) and math.isfinite(row[4])
               for row in result.aggregate_rows):
        errors.append("non-finite aggregate")
    return errors, failed, ratios


def run_rep(wl: Workload, spec: experiments.SweepSpec, workers: int, out_dir: str,
            rec: spans.Recorder | None = None) -> Rep:
    """One sweep through the public API, then its output gates. With a
    recorder the layers are traced under one root span; without one, no
    layer may be wrapped."""
    if rec is None and spans.installed_wrappers():
        raise RuntimeError(f"untraced run with wrapped layers: {spans.installed_wrappers()}")
    sweep = experiments.run_power_sweep if wl.kind == "power" else experiments.run_element_sweep
    base = os.path.join(out_dir, wl.kind + "_sweep")
    n_points = wl.points(spec)
    try:
        with contextlib.ExitStack() as stack:
            if rec is not None:
                stack.enter_context(spans.traced(rec))
                stack.enter_context(rec.span("bench.sweep"))
            t0 = time.perf_counter()
            result = sweep(spec, workers=workers)
            if rec is not None:
                rec.trial = -1
            detail, agg = experiments.emit_csv(result, base + ".csv")
            script = experiments.emit_plot_script(result, base + ".gp", os.path.basename(agg))
            wall = time.perf_counter() - t0
    except Exception as exc:   # a sweep that raises fails all its trials
        n = n_points * spec.trials
        return Rep(math.nan, n, n, [f"sweep raised {exc!r}"], [], "", "")
    errors, failed, ratios = check_result(result, spec, n_points)
    if _line_count(detail) != len(result.detail_rows) + 1:
        errors.append("detail CSV row count differs from the result")
    if _line_count(agg) != len(result.aggregate_rows) + 1:
        errors.append("aggregate CSV row count differs from the result")
    with open(script, encoding="utf-8") as f:
        if os.path.basename(agg) not in f.read():
            errors.append("plot script does not reference the aggregate CSV")
    return Rep(wall, n_points * spec.trials, failed, errors, ratios,
               _sha256(detail), _sha256(agg))


def _repeat(seconds: float, body) -> None:
    """Call body() at least MIN_REPS times, and again while one more call of
    the average length still ends inside `seconds`."""
    start, n = time.perf_counter(), 0
    while True:
        body()
        n += 1
        elapsed = time.perf_counter() - start
        if n >= MIN_REPS and elapsed * (n + 1) / n > seconds:
            return


def measure_setup(name: str, seed: int, out_dir: str) -> list:
    """Seconds from launching a fresh interpreter to the workload being ready
    to run its first trial: bdris imported, spec built and, for a pooled
    workload, the pool's workers answering. One figure per probe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=out_dir) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__, "blas": blas, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from .git, None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit: str) -> dict:
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def _layer_unit(key: str) -> str:
    if key.endswith((".s", ".self_s")):
        return "s"
    if key.endswith((".calls", "_mean")):
        return "count"
    return "B" if key == "experiments.emit_bytes" else "ratio"


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (a pool worker), in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(name: str, seed: int, seconds: float, out_dir: str) -> tuple:
    wl = WORKLOADS[name]
    spec = wl.spec(seed)
    reps = []
    _repeat(seconds, lambda: reps.append(run_rep(wl, spec, wl.workers, out_dir)))
    peak_rss = _peak_rss_mb()
    setup = measure_setup(name, seed, out_dir)
    first = reps[0]
    ratios = first.ratios or [math.nan]
    attempted = sum(r.trials for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {
        "trials_per_s": _metric(first.trials / statistics.median(r.wall for r in reps), "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_rss, "MiB"),
        "bd_cd_ratio_mean": _metric(statistics.fmean(ratios), "ratio"),
        "bd_cd_ratio_min": _metric(min(ratios), "ratio"),
        "ok_frac": _metric(1.0 - failed / attempted, "ratio"),
    }
    info = {"reps": len(reps), "rep_wall_s": [r.wall for r in reps], "setup_s": setup}
    return reps, attempted, failed, metrics, info


def per_layer(name: str, seed: int, seconds: float, out_dir: str) -> tuple:
    wl = WORKLOADS[name]
    spec = wl.spec(seed)
    serial, traced, pooled, recorders = [], [], [], []

    def triple():
        # alternate which serial repetition runs first
        rec = spans.Recorder()
        for traced_now in ((False, True) if len(serial) % 2 == 0 else (True, False)):
            if traced_now:
                traced.append(run_rep(wl, spec, 1, out_dir, rec))
            else:
                serial.append(run_rep(wl, spec, 1, out_dir))
        recorders.append(rec)
        pooled.append(run_rep(wl, spec, POOL_WORKERS, out_dir))

    _repeat(seconds, triple)
    totals = [spans.layer_totals(rec) for rec in recorders]
    metrics = {}
    for key in totals[0]:
        values = [t[key] for t in totals]
        unit = _layer_unit(key)
        measured = unit == "s" or key == "experiments.point_imbalance"
        if not measured and len(set(values)) != 1:
            raise RuntimeError(f"{key} differs between traced repetitions: {values}")
        metrics[key] = _metric(statistics.median(values), unit)
    trial_ms = [1e3 * s for rec in recorders for _, s in spans.trial_times(rec).values()]
    # ratios within each back-to-back triple, so slow drift in machine speed cancels
    metrics.update({
        "experiments.pool_efficiency": _metric(statistics.median(
            u.wall / (POOL_WORKERS * p.wall) for u, p in zip(serial, pooled)), "ratio"),
        "trial.ms_p50": _metric(statistics.median(trial_ms), "ms"),
        "trial.ms_p90": _metric(_percentile(trial_ms, 90), "ms"),
        "trial.samples": _metric(len(trial_ms), "count"),
        "trace_overhead_frac": _metric(statistics.median(
            (t.wall - u.wall) / u.wall for u, t in zip(serial, traced)), "ratio"),
    })
    reps = serial + traced + pooled
    attempted = sum(r.trials for r in reps)
    failed = sum(r.failed for r in reps)
    origin = min(rec.spans[0].start for rec in recorders)
    info = {"reps": len(traced), "serial_wall_s": [r.wall for r in serial],
            "traced_wall_s": [r.wall for r in traced], "pooled_wall_s": [r.wall for r in pooled],
            "spans": [spans.span_records(rec, origin) for rec in recorders]}
    return reps, attempted, failed, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        measure = per_layer if args.trace else end_to_end
        reps, attempted, failed, metrics, info = measure(
            args.workload, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    errors = [e for r in reps for e in r.errors]
    shas = {(r.detail_sha256, r.agg_sha256) for r in reps if r.detail_sha256}
    if len(shas) > 1:
        errors.append("sweep CSVs differ between repetitions of one seed")
    wl = WORKLOADS[args.workload]
    spans_out = info.pop("spans", None)
    if spans_out is not None:
        spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans_out))
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    report = {
        "workload": args.workload, "seed": args.seed, "kind": wl.kind,
        "ris": {"num_elements": wl.ris.num_elements, "architecture": wl.ris.architecture,
                "group_count": wl.ris.group_count},
        "include_direct": wl.include_direct, "workers": wl.workers,
        "trials_per_point": wl.trials, "environment": environment(),
        "detail_csv_sha256": reps[0].detail_sha256, "agg_csv_sha256": reps[0].agg_sha256,
        "errors": errors[:20], **info,
    }
    print(json.dumps(report))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1
