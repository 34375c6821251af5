"""
Monte-Carlo sweeps comparing beyond-diagonal and conventional surfaces.

Before any trial runs, a sweep decodes its grid into points: each point's
ProblemSpec and its stream key (the grid index of a power point, K itself
for an element point), so a grid whose surface cannot exist fails before
any work. A point runs `trials` paired realizations: both schemes see the
same draw, produced from the dedicated stream
default_rng([base_seed, stream_key, trial]), so results are reproducible
run-to-run and independent of how trials are distributed over workers.
With N > 1 workers, the sweep's paired trials are cut into N contiguous
slices of near-equal length, and N processes run them: the caller runs the
first slice itself, and each other slice runs in one child process that
sends its rows back over a pipe. Each process first moves onto its own CPU
of the caller's affinity set (and keeps that set); on Linux the children
fork after numpy.random is loaded, so no child imports it.
Every trial is one solve_pair: the beyond-diagonal solve is warm-started
from the converged conventional surface's image v = Phi h, which makes its
sum rate dominate the baseline trial by trial. A scheme that fails writes
its own row with rates 0 and outage code 1 (infeasible) or 2 (numeric
failure), and the sweep goes on. A sweep writes rates only, so it builds
no Phi: both solves work on images, and a Solution builds its Phi only
when its phase is read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .channel import (ChannelRealization, GeometryParams, LinkBudgetParams,
                      draw_realization)
from .optimizer import (InfeasibleAllocationError, ProblemSpec, SCHEMES, Solution, bcd_solve,
                        exact_oracle, solve_phase_subproblem)
from .surfaces import RisSpec

DETAIL_HEADER = "power_dbm,num_elements,scheme,trial,rate_near,rate_far,sum_rate,outage"
AGGREGATE_HEADER = ("power_dbm,num_elements,scheme,"
                    "mean_sum_rate,std_sum_rate,num_trials,outage_count")

DEFAULT_POWER_POINTS_DBM = (0.0, 5.0, 10.0, 15.0, 20.0)
DEFAULT_ELEMENT_COUNTS = (10, 20, 40, 80)


@dataclass(frozen=True)
class SweepSpec:
    geometry: GeometryParams
    link_budget: LinkBudgetParams
    ris_spec: RisSpec
    power_points_dbm: tuple = DEFAULT_POWER_POINTS_DBM   # x-axis of the power sweep
    element_counts: tuple = DEFAULT_ELEMENT_COUNTS       # x-axis of the element sweep
    power_dbm: float = 20.0       # fixed transmit power for the element sweep
    trials: int = 200
    base_seed: int = 12345
    include_direct: bool = False
    min_rate_near: float = 0.0    # bps/Hz
    min_rate_far: float = 0.0     # bps/Hz
    schemes = SCHEMES             # not a field: every trial solves both (solve_pair)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.ris_spec.mode != "reflective":
            raise ValueError("sweeps support reflective surfaces only")
        if not self.power_points_dbm or not self.element_counts:
            raise ValueError("sweep grids must be non-empty")


@dataclass(frozen=True)
class SweepResult:
    sweep_kind: str        # 'power' | 'elements'
    detail_rows: tuple     # (power_dbm, num_elements, scheme, trial, r_near, r_far, sum, outage)
    aggregate_rows: tuple  # (power_dbm, num_elements, scheme, mean, std, n_ok, n_outage)


def solve_pair(ch: ChannelRealization, problem: ProblemSpec) -> dict:
    """Solve one realization with both schemes: CD_RIS from the identity,
    then BD_RIS from the CD image cd.image = Phi_cd h (from the identity
    when CD has no Solution), so BD never falls below CD. Neither solve
    builds a Phi. problem.scheme picks nothing: it only saves the copy of
    problem for the scheme it names. Returns {scheme: Solution, the
    InfeasibleAllocationError it raised, or its numeric failure: the
    ArithmeticError it raised, or a FloatingPointError when it returned a
    non-finite rate}. Any other exception propagates."""
    def attempt(scheme, warm):
        solve = problem if problem.scheme == scheme else replace(problem, scheme=scheme)
        try:
            solution = bcd_solve(ch, solve, warm_image=warm)
        except (InfeasibleAllocationError, ArithmeticError) as exc:
            return exc
        r = solution.rates
        if not all(map(math.isfinite, (r.rate_near, r.rate_far, r.sum_rate))):
            return FloatingPointError(f"{scheme} solve returned non-finite rates "
                                      f"(near {r.rate_near}, far {r.rate_far})")
        return solution

    cd = attempt("CD_RIS", None)
    bd = attempt("BD_RIS", cd.image if isinstance(cd, Solution) else None)
    return {"CD_RIS": cd, "BD_RIS": bd}


# every ratio of oracle_suite must lie in this band: the solver within 1e-8
# of the optimum, and no reference beaten past rounding
_BAND = (1.0 - 1e-8, 1.0 + 1e-10)


def oracle_suite(geometry: GeometryParams, link_budget: LinkBudgetParams, power_dbm: float,
                 base_seed: int) -> dict:
    """Solver quality against exact references, {arm name: ratios}: 50 K=2
    diagonal bcd_solve draws and 8 K=80 draws (solve_pair's CD solution,
    and its fully connected and G=16 ones, warm-started from it) against
    exact_oracle, and 50 single-user K=8 fully connected phase
    solves against the coherent gain bound |h_d| + |g| |h|. Odd draws have
    direct links; draw i comes from default_rng([base_seed, key, i]) with
    key 301, 303 and 302 per part."""
    def draw(k, users, key, i):
        return draw_realization(geometry, link_budget, k, num_users=users,
                                include_direct=(i % 2 == 1),
                                rng=np.random.default_rng([base_seed, key, i]))

    def ratio(solution, ch, problem):
        if not isinstance(solution, Solution):
            raise solution          # the solver's outage or numeric failure
        return solution.rates.sum_rate / exact_oracle(ch, problem).rates.sum_rate

    diag2 = ProblemSpec(RisSpec(2, "single"), power_dbm)
    arms = {"K=2 diagonal": [ratio(bcd_solve(ch, diag2), ch, diag2)
                             for ch in (draw(2, 2, 301, i) for i in range(50))],
            "K=80 CD": [], "K=80 full": [], "K=80 G=16": [], "single-user gain bound": []}
    for i in range(8):
        ch = draw(80, 2, 303, i)
        for name, spec in (("full", RisSpec(80, "full")),
                           ("G=16", RisSpec(80, "group", group_count=16))):
            bd = ProblemSpec(spec, power_dbm)
            pair = solve_pair(ch, bd)         # the pairing a sweep runs
            arms[f"K=80 {name}"].append(ratio(pair["BD_RIS"], ch, bd))
        # both pairs solve the same diagonal CD problem
        arms["K=80 CD"].append(ratio(pair["CD_RIS"], ch, replace(bd, scheme="CD_RIS")))
    full8 = ProblemSpec(RisSpec(8, "full"), power_dbm)
    for ch in (draw(8, 1, 302, i) for i in range(50)):
        image = solve_phase_subproblem(ch, full8)[0]
        gain = abs(ch.h_direct[0] + ch.g_ris_user[0].conj() @ image)
        bound = abs(ch.h_direct[0]) + (np.linalg.norm(ch.g_ris_user[0])
                                       * np.linalg.norm(ch.h_sat_ris))
        arms["single-user gain bound"].append(gain / bound)
    return {name: tuple(map(float, ratios)) for name, ratios in arms.items()}


def oracle_report(arms: dict) -> tuple:
    """One line per oracle_suite arm, ending PASS when all its ratios lie in
    the band and FAIL otherwise, and whether every arm passed."""
    passed = {name: all(_BAND[0] <= r <= _BAND[1] for r in ratios)
              for name, ratios in arms.items()}
    lines = tuple(f"{name}: {len(ratios)} draws, solver/reference - 1 in "
                  f"[{min(ratios) - 1.0:.3e}, {max(ratios) - 1.0:.3e}], band "
                  f"[{_BAND[0] - 1.0:.0e}, {_BAND[1] - 1.0:.0e}] "
                  f"{'PASS' if passed[name] else 'FAIL'}" for name, ratios in arms.items())
    return lines, all(passed.values())


def _sweep_points(spec: SweepSpec, kind: str) -> list:
    """One (ProblemSpec, stream key) per grid point, in grid order. Power
    points are floats, so their stream keys on the grid index. Element
    points key on K itself, so duplicate K entries reproduce identical rows
    and control points stay stable when the grid composition changes.
    Raises ValueError naming the K whose surface cannot exist, such as one
    that group_count does not divide."""
    floors = (spec.min_rate_near, spec.min_rate_far)
    if kind == "power":
        return [(ProblemSpec(spec.ris_spec, float(p), *floors), i)
                for i, p in enumerate(spec.power_points_dbm)]
    points = []
    for k in map(int, spec.element_counts):
        try:
            ris = replace(spec.ris_spec, num_elements=k)
        except ValueError as exc:
            raise ValueError(f"element sweep point K={k}: {exc}") from None
        points.append((ProblemSpec(ris, float(spec.power_dbm), *floors), k))
    return points


def _run_trials(spec: SweepSpec, units) -> list:
    """The rows of a run of paired trials, in order: each unit (problem,
    stream_key, trial) draws from default_rng([base_seed, stream_key,
    trial]) and solves one pair, and each scheme writes one row with its
    outage code: 0 solved, 1 infeasible, 2 numeric failure (rates 0 unless
    solved)."""
    rows = []
    for problem, stream_key, trial in units:
        power_dbm, k = problem.power_dbm, problem.ris_spec.num_elements
        rng = np.random.default_rng([spec.base_seed, stream_key, trial])
        ch = draw_realization(spec.geometry, spec.link_budget, k, num_users=2,
                              include_direct=spec.include_direct, rng=rng)
        pair = solve_pair(ch, problem)
        for scheme in spec.schemes:
            outcome = pair[scheme]
            if isinstance(outcome, Solution):
                r = outcome.rates
                rows.append((power_dbm, k, scheme, trial,
                             r.rate_near, r.rate_far, r.sum_rate, 0))
            else:
                code = 1 if isinstance(outcome, InfeasibleAllocationError) else 2
                rows.append((power_dbm, k, scheme, trial, 0.0, 0.0, 0.0, code))
    return rows


def _place(cpu) -> None:
    """Move this process onto `cpu` (None: leave it where it is), then give
    it back the affinity set it had, so a host that balances may still move
    it."""
    if cpu is not None:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, mask)


def _run_slice(spec: SweepSpec, units, cpu, conn) -> None:
    """A child process's slice: _place it on `cpu`, run _run_trials, and
    send (True, rows) or (False, the exception it raised) over `conn`."""
    try:
        _place(cpu)
        outcome = (True, _run_trials(spec, units))
    except Exception as exc:
        outcome = (False, exc)
    conn.send(outcome)
    conn.close()


def _aggregate_point(point_rows) -> list:
    """One aggregate row per scheme from a single sweep point's rows, so a
    grid listing the same point twice yields two identical aggregate rows."""
    groups = {}
    for row in point_rows:
        groups.setdefault(row[:3], []).append(row)
    agg = []
    for (power_dbm, k, scheme), rows in groups.items():
        ok = [r[6] for r in rows if r[7] == 0]
        n_outage = len(rows) - len(ok)
        mean = float(np.mean(ok)) if ok else 0.0
        std = float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0
        agg.append((power_dbm, k, scheme, mean, std, len(ok), n_outage))
    return agg


def _sweep_result(spec: SweepSpec, kind: str, rows) -> SweepResult:
    """A sweep's result from its rows in grid order: the detail rows
    sorted, and the aggregate of each point's trials × schemes rows."""
    size = spec.trials * len(spec.schemes)
    per_point = [rows[i:i + size] for i in range(0, len(rows), size)]
    detail = sorted(rows, key=lambda r: (r[0], r[1], r[2], r[3]))
    aggregate = sorted((row for point in per_point for row in _aggregate_point(point)),
                       key=lambda r: (r[0], r[1], r[2]))
    return SweepResult(kind, tuple(detail), tuple(aggregate))


def _run_sweep(spec: SweepSpec, kind: str, workers: int) -> SweepResult:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    units = [(problem, key, trial) for problem, key in _sweep_points(spec, kind)
             for trial in range(spec.trials)]
    processes = min(workers, len(units))   # a process beyond one per trial has no job
    if processes == 1:
        return _sweep_result(spec, kind, _run_trials(spec, units))
    # contiguous slices whose lengths differ by at most one: the caller runs
    # the first, a child each other; joined in order, the rows are those of
    # a serial run
    import multiprocessing
    import numpy.random  # noqa: F401 -- loaded once here, not in every forked child

    bounds = [len(units) * i // processes for i in range(processes + 1)]
    slices = [units[bounds[i]:bounds[i + 1]] for i in range(processes)]
    # Linux only: children fork (not forkserver, Python 3.14's default), so
    # they start with bdris and numpy.random loaded; elsewhere every process
    # runs unplaced (cpu None) and children start the platform's default way
    if hasattr(os, "sched_setaffinity"):
        cpus, ctx = sorted(os.sched_getaffinity(0)), multiprocessing.get_context("fork")
    else:
        cpus, ctx = [None], multiprocessing.get_context()
    children = []
    try:
        for i in range(1, processes):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_slice,
                                args=(spec, slices[i], cpus[i % len(cpus)], send))
            child.start()
            send.close()
            children.append((child, recv))
        _place(cpus[0])
        rows = _run_trials(spec, slices[0])
        # a child blocks in send until its rows are read, so recv before join
        for child, recv in children:
            try:
                ok, payload = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"sweep child process exited with code "
                                   f"{child.exitcode} before sending its rows") from None
            if not ok:
                child.join()        # it has sent its error and exits on its own
                raise payload
            rows.extend(payload)
        return _sweep_result(spec, kind, rows)   # built while the children exit
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


def run_power_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Sum rate versus transmit power at a fixed element count, on `workers`
    processes (ValueError below 1)."""
    return _run_sweep(spec, "power", workers)


def run_element_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Sum rate versus element count at a fixed transmit power, on
    `workers` processes (ValueError below 1)."""
    return _run_sweep(spec, "elements", workers)


def emit_csv(result: SweepResult, path: str) -> tuple:
    """Write the per-trial detail CSV at `path` and the per-point aggregate
    next to it with an `_agg` suffix; returns both paths. Floats use %.6e
    (the sum rates at satellite path loss sit around 1e-15 bps/Hz)."""
    root, ext = os.path.splitext(path)
    agg_path = root + "_agg" + (ext or ".csv")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)

    with open(path, "w", encoding="utf-8") as f:
        f.write(DETAIL_HEADER + "\n")
        for power_dbm, k, scheme, trial, r_n, r_f, r_sum, outage in result.detail_rows:
            f.write(f"{power_dbm:.6e},{k:d},{scheme},{trial:d},"
                    f"{r_n:.6e},{r_f:.6e},{r_sum:.6e},{outage:d}\n")
    with open(agg_path, "w", encoding="utf-8") as f:
        f.write(AGGREGATE_HEADER + "\n")
        for power_dbm, k, scheme, mean, std, n_ok, n_outage in result.aggregate_rows:
            f.write(f"{power_dbm:.6e},{k:d},{scheme},"
                    f"{mean:.6e},{std:.6e},{n_ok:d},{n_outage:d}\n")
    return path, agg_path


def emit_plot_script(result: SweepResult, path: str,
                     aggregate_csv_name: str | None = None) -> str:
    """Write a gnuplot script plotting mean sum rate (with std error bars)
    against the sweep axis from the aggregate CSV; returns the script path.
    The CSV reference defaults to `<script stem>_agg.csv` alongside it."""
    if aggregate_csv_name is None:
        stem = os.path.splitext(os.path.basename(path))[0]
        aggregate_csv_name = stem + "_agg.csv"
    if result.sweep_kind == "power":
        x_col, x_label = 1, "Transmit power (dBm)"
    else:
        x_col, x_label = 2, "Number of PREs"
    lines = [
        "set datafile separator ','",
        "set datafile missing NaN",
        f"set xlabel '{x_label}'",
        "set ylabel 'Spectral efficiency (bps/Hz)'",
        "set key top left",
        "set grid",
        "set format y '%.2e'",
    ]
    plots = []
    for scheme, title in (("BD_RIS", "BD-RIS"), ("CD_RIS", "Conventional RIS")):
        sel = f"(strcol(3) eq '{scheme}' ? ${x_col} : NaN)"
        plots.append(f"'{aggregate_csv_name}' every ::1 using {sel}:4:5 "
                     f"with yerrorlines title '{title}'")
    lines.append("plot " + ", \\\n     ".join(plots))
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path
