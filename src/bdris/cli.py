"""
Command-line front end for the surface simulator.

Global flags: --config PATH (flat key-value file), --set key=value
(repeatable override), --echo-config (print the effective configuration).
Subcommands: validate-pr, complexity, solve-one, sweep-power,
sweep-elements, oracle-check. Exit codes: 0 success, 1 runtime failure or
infeasibility, 2 configuration or parse errors. Results go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from .channel import draw_realization
from .config import (ConfigError, SimConfig, apply_overrides, echo_config, geometry_from,
                     link_budget_from, load_config, ris_spec_from)
from .experiments import (SweepSpec, _sweep_points, emit_csv, emit_plot_script, oracle_report,
                          oracle_suite, run_element_sweep, run_power_sweep, solve_pair)
from .optimizer import InfeasibleAllocationError, ProblemSpec, Solution
from .surfaces import DimensionError, RisSpec, hardware_complexity, validate

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdris",
        description="Beyond-diagonal surface simulator for a LEO downlink with two NOMA users.")
    parser.add_argument("--config", metavar="PATH", help="key = value configuration file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override one config key (repeatable)")
    parser.add_argument("--echo-config", action="store_true",
                        help="print the effective configuration to stdout")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate-pr", help="check a phase-response file for feasibility")
    p.add_argument("file", help=".npz with key 'phi' (or 'phi_r'/'phi_t' for hybrid, "
                                "'phi_s' stacked for multi-sector)")

    sub.add_parser("complexity", help="print the impedance-component count")
    sub.add_parser("solve-one", help="solve one realization with both schemes")

    for name in ("sweep-power", "sweep-elements"):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} sweep and write CSVs")
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the sweep's trials, this one included (default 1)")

    sub.add_parser("oracle-check", help="check the solver against exact optima and bounds")
    return parser


def _require_reflective(cfg: SimConfig):
    if cfg.mode != "reflective":
        raise ConfigError("key 'mode': rate optimization supports reflective surfaces "
                          f"only, got '{cfg.mode}'")


def _load_phase_response(path: str, spec: RisSpec) -> np.ndarray:
    """The file's slot matrices as one (depth, dim, dim) stack."""
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read phase-response file {path}: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):      # a bare .npy array has no keys
        raise ConfigError(f"{path}: not an .npz archive of named arrays")

    def array(key):
        if key not in data:
            raise ConfigError(f"{path}: missing array '{key}'")
        try:
            value = data[key]
        except ValueError as exc:      # e.g. an object array, which needs pickle
            raise ConfigError(f"{path}: cannot read array '{key}': {exc}") from None
        if value.dtype.kind not in "biufc":
            raise ConfigError(f"{path}: array '{key}' is not numeric (dtype {value.dtype})")
        return value

    try:
        if spec.mode == "multisector":
            return array("phi_s")
        if spec.mode != "hybrid":
            return array("phi")[None]
        phi_r, phi_t = array("phi_r"), array("phi_t")
        if phi_r.shape != phi_t.shape:
            raise ConfigError(f"{path}: 'phi_r' {phi_r.shape} and 'phi_t' {phi_t.shape} differ")
        return np.stack([phi_r, phi_t])
    finally:
        data.close()


def _cmd_validate_pr(cfg: SimConfig, path: str) -> int:
    spec = ris_spec_from(cfg)
    slots = _load_phase_response(path, spec)
    try:
        report = validate(slots, spec)
    except DimensionError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    print(f"feasible: {'yes' if report.is_feasible else 'no'}")
    print(f"max_violation: {report.max_violation:.6e}")
    print(f"violated_constraint: {report.violated_constraint}")
    return 0 if report.is_feasible else 1


def _cmd_complexity(cfg: SimConfig) -> int:
    count = hardware_complexity(ris_spec_from(cfg))
    if isinstance(count, Fraction):
        print(f"{count} (non-integral component count)")
    else:
        print(count)
    return 0


def _cmd_solve_one(cfg: SimConfig) -> int:
    _require_reflective(cfg)
    spec = ris_spec_from(cfg)
    rng = np.random.default_rng([cfg.base_seed, 0, 0])
    ch = draw_realization(geometry_from(cfg), link_budget_from(cfg), cfg.num_elements,
                          num_users=2, include_direct=cfg.include_direct, rng=rng)
    problem = ProblemSpec(spec, cfg.power_dbm, cfg.min_rate_near, cfg.min_rate_far)
    code = 0
    for scheme, solution in solve_pair(ch, problem).items():
        if not isinstance(solution, Solution):
            failure = ("infeasible" if isinstance(solution, InfeasibleAllocationError)
                       else "numeric failure")
            print(f"scheme={scheme} {failure}: {solution}", file=sys.stderr)
            code = 1
            continue
        r, a = solution.rates, solution.allocation
        print(f"scheme={scheme} rate_near={r.rate_near:.6e} rate_far={r.rate_far:.6e} "
              f"sum_rate={r.sum_rate:.6e} alpha_near={a.alpha_near:.6f} "
              f"alpha_far={a.alpha_far:.6f} steps={len(solution.trace) - 1} "
              f"converged={'true' if solution.converged else 'false'}")
    return code


def _sweep_spec_from(cfg: SimConfig) -> SweepSpec:
    return SweepSpec(
        geometry=geometry_from(cfg),
        link_budget=link_budget_from(cfg),
        ris_spec=ris_spec_from(cfg),
        power_dbm=cfg.power_dbm,
        trials=cfg.trials,
        base_seed=cfg.base_seed,
        include_direct=cfg.include_direct,
        min_rate_near=cfg.min_rate_near,
        min_rate_far=cfg.min_rate_far,
    )


def _cmd_sweep(cfg: SimConfig, kind: str, workers: int) -> int:
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    _require_reflective(cfg)
    sweep = _sweep_spec_from(cfg)
    try:
        _sweep_points(sweep, kind)      # every point's surface, before any trial runs
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if kind == "power":
        result = run_power_sweep(sweep, workers=workers)
        stem = "power_sweep"
    else:
        result = run_element_sweep(sweep, workers=workers)
        stem = "element_sweep"
    detail_path, agg_path = emit_csv(result, os.path.join(cfg.out_dir, stem + ".csv"))
    script_path = emit_plot_script(result, os.path.join(cfg.out_dir, stem + ".gp"),
                                   os.path.basename(agg_path))
    print(f"wrote {detail_path} ({len(result.detail_rows)} rows)")
    print(f"wrote {agg_path} ({len(result.aggregate_rows)} rows)")
    print(f"wrote {script_path}")
    return 0


def _cmd_oracle_check(cfg: SimConfig) -> int:
    """Solver quality against exact references: experiments.oracle_suite."""
    _require_reflective(cfg)
    lines, passed = oracle_report(oracle_suite(geometry_from(cfg), link_budget_from(cfg),
                                               cfg.power_dbm, cfg.base_seed))
    print("\n".join(lines))
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.overrides)
        if args.echo_config:
            sys.stdout.write(echo_config(cfg))
        if args.command is None:
            if args.echo_config:
                return 0
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 2
        if args.command == "validate-pr":
            return _cmd_validate_pr(cfg, args.file)
        if args.command == "complexity":
            return _cmd_complexity(cfg)
        if args.command == "solve-one":
            return _cmd_solve_one(cfg)
        if args.command == "sweep-power":
            return _cmd_sweep(cfg, "power", args.workers)
        if args.command == "sweep-elements":
            return _cmd_sweep(cfg, "elements", args.workers)
        return _cmd_oracle_check(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
