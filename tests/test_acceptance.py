"""Acceptance gate: one test per primary criterion, each printing a
PASS/FAIL line with the measured quantity (replayed in the -rA summary).

Absolute spectral-efficiency levels at satellite path loss sit around
1e-15 bps/Hz, so every check here is a property, closed form, trend, or
paired comparison rather than an absolute rate threshold.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from bdris.channel import (GeometryParams, LinkBudgetParams, draw_realization,
                           rician_sample, slant_range)
from bdris.experiments import (SweepSpec, emit_csv, oracle_report, oracle_suite,
                               run_element_sweep, run_power_sweep, solve_pair)
from bdris.noma import min_power_split_for_far_rate
from bdris.optimizer import ProblemSpec
from bdris.surfaces import (ARCHITECTURES, MODES, RisSpec, hardware_complexity,
                            project_feasible, random_feasible, validate)

BASE_SEED = 12345
GEOMETRY = GeometryParams()
LINK_BUDGET = LinkBudgetParams()


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    return ok


def all_surface_specs():
    """Every valid (architecture, mode, K, G, S) combination in the suite grid."""
    specs = []
    for k in (2, 4, 8, 16):
        for arch in ARCHITECTURES:
            for mode in MODES:
                sectors = (s for s in (2, 3, 4) if k % s == 0) if mode == "multisector" else (2,)
                for s in sectors:
                    dim = k // s if mode == "multisector" else k
                    groups = (g for g in (1, 2, k) if dim % g == 0) if arch == "group" else (1,)
                    for g in groups:
                        specs.append(RisSpec(k, arch, mode, g, s))
    return specs


def test_criterion_1_feasibility_suite():
    started = time.monotonic()
    specs = all_surface_specs()
    rng = np.random.default_rng(BASE_SEED)
    worst_feas = 0.0
    worst_idem = 0.0
    draws = 1000
    for i in range(draws):
        spec = specs[i % len(specs)]
        pr = random_feasible(spec, rng)
        rep = validate(pr, spec, eps_feas=1e-9)
        worst_feas = max(worst_feas, rep.max_violation)
        assert rep.is_feasible, (spec, rep)

        dim = spec.matrix_dim
        raw = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
               for _ in range(spec.stack_depth)]
        p1 = project_feasible(raw, spec)
        assert validate(p1, spec, eps_feas=1e-9).is_feasible, spec
        p2 = project_feasible(p1, spec)
        resid = float(np.max(np.abs(p1 - p2)))
        worst_idem = max(worst_idem, resid)
    elapsed = time.monotonic() - started
    ok = worst_feas <= 1e-9 and worst_idem <= 1e-10 and elapsed < 30.0
    assert report(
        1, "feasibility suite",
        ok,
        f"{draws} draws over {len(specs)} spec combinations, max constraint violation "
        f"{worst_feas:.3e} (limit 1e-09), max projection idempotence residual "
        f"{worst_idem:.3e} (limit 1e-10), {elapsed:.1f} s (limit 30 s)")


def test_criterion_2_component_count_exactness():
    cases = []
    # single-connected, all modes, the count formulas re-derived inline
    for k in (1, 2, 3, 8, 80):
        cases.append((RisSpec(k, "single", "reflective"), Fraction(k)))
        cases.append((RisSpec(k, "single", "transmissive"), Fraction(k)))
        cases.append((RisSpec(k, "single", "hybrid"), Fraction(3, 2) * k))
    for k, s in ((4, 2), (8, 2), (8, 4), (9, 3), (80, 4)):
        cases.append((RisSpec(k, "single", "multisector", sector_count=s),
                      Fraction((s + 1) * k, 2)))
    # fully-connected: (K+1)K/2 in every mode
    for k in (1, 2, 8, 79, 80):
        cases.append((RisSpec(k, "full", "reflective"), Fraction((k + 1) * k, 2)))
    for k, mode in ((8, "transmissive"), (8, "hybrid"), (80, "hybrid")):
        cases.append((RisSpec(k, "full", mode), Fraction((k + 1) * k, 2)))
    cases.append((RisSpec(8, "full", "multisector", sector_count=2), Fraction(9 * 8, 2)))
    # group-connected: (K/G+1)K/2 in every mode
    for k, g in ((4, 2), (8, 2), (8, 4), (16, 4), (80, 8), (80, 40)):
        cases.append((RisSpec(k, "group", "reflective", group_count=g),
                      Fraction(k, g) * k / 2 + Fraction(k, 2)))
    cases.append((RisSpec(8, "group", "hybrid", group_count=2), Fraction(5 * 8, 2)))
    cases.append((RisSpec(12, "group", "multisector", group_count=3, sector_count=2),
                  Fraction(5 * 12, 2)))
    # odd hybrid single-connected counts land on half-integers
    cases.append((RisSpec(5, "single", "hybrid"), Fraction(15, 2)))
    cases.append((RisSpec(7, "single", "hybrid"), Fraction(21, 2)))
    cases.append((RisSpec(6, "single", "multisector", sector_count=3), Fraction(12)))
    cases.append((RisSpec(80, "full", "multisector", sector_count=4), Fraction(81 * 80, 2)))
    cases.append((RisSpec(8, "group", "transmissive", group_count=2), Fraction(5 * 8, 2)))
    cases.append((RisSpec(16, "group", "transmissive", group_count=8), Fraction(3 * 16, 2)))
    cases.append((RisSpec(80, "group", "hybrid", group_count=8), Fraction(11 * 80, 2)))
    cases.append((RisSpec(16, "group", "multisector", group_count=2, sector_count=2),
                  Fraction(9 * 16, 2)))
    # Group(G=1) must equal FullyConnected for every mode
    equality_pairs = []
    for k, mode, s in ((2, "reflective", 2), (8, "hybrid", 2), (16, "transmissive", 2),
                       (80, "reflective", 2), (8, "multisector", 4)):
        equality_pairs.append((RisSpec(k, "group", mode, 1, s), RisSpec(k, "full", mode, 1, s)))
        cases.append((RisSpec(k, "group", mode, 1, s), Fraction((k + 1) * k, 2)))

    assert len(cases) == 50, f"enumerated {len(cases)} specs, expected 50"
    mismatches = 0
    for spec, expected in cases:
        got = hardware_complexity(spec)
        want = int(expected) if expected.denominator == 1 else expected
        if got != want or type(got) is not type(want):
            mismatches += 1
    equality_ok = all(hardware_complexity(a) == hardware_complexity(b)
                      for a, b in equality_pairs)
    ok = mismatches == 0 and equality_ok
    assert report(
        2, "component-count exactness",
        ok,
        f"50 enumerated specs, {mismatches} mismatches at zero tolerance, "
        f"group(G=1) == fully-connected on {len(equality_pairs)} mode/size pairs")


def test_criterion_3_oracle_agreement():
    started = time.monotonic()
    lines, passed = oracle_report(oracle_suite(GEOMETRY, LINK_BUDGET, 20.0, BASE_SEED))
    elapsed = time.monotonic() - started
    ok = passed and elapsed < 120.0
    assert report(
        3, "oracle agreement",
        ok,
        "; ".join(lines) + f"; {elapsed:.1f} s (limit 120 s)")


def test_criterion_4_dominance():
    rel_margin = 1e-9            # rates are ~1e-13 bps/Hz, so the bound is relative
    worst = {}
    for spec in (RisSpec(80, "full", "reflective"),
                 RisSpec(80, "group", "reflective", group_count=16)):
        problem = ProblemSpec(spec, 20.0)
        min_ratio = np.inf
        for trial in range(200):
            rng = np.random.default_rng([BASE_SEED, 401, trial])
            ch = draw_realization(GEOMETRY, LINK_BUDGET, 80, num_users=2,
                                  include_direct=(trial % 2 == 1), rng=rng)
            pair = solve_pair(ch, problem)
            min_ratio = min(min_ratio,
                            pair["BD_RIS"].rates.sum_rate / pair["CD_RIS"].rates.sum_rate)
        worst[spec.architecture] = min_ratio - 1.0
    ok = all(gap >= -rel_margin for gap in worst.values())
    assert report(
        4, "paired dominance at K=80",
        ok,
        f"200 paired realizations per surface, min(BD/CD) - 1 = "
        f"{worst['full']:.3e} fully connected, {worst['group']:.3e} group connected "
        f"(G=16) (limit -1e-09)")


def _pooled_se(std_a, n_a, std_b, n_b):
    return float(np.sqrt(std_a ** 2 / n_a + std_b ** 2 / n_b))


def _curves(result):
    curves = {}
    for power, k, scheme, mean, std, n_ok, _ in result.aggregate_rows:
        curves.setdefault(scheme, []).append((power, k, mean, std, n_ok))
    return curves


def test_criterion_5_power_sweep_trend():
    started = time.monotonic()
    spec = SweepSpec(geometry=GEOMETRY, link_budget=LINK_BUDGET,
                     ris_spec=RisSpec(80, "full", "reflective"),
                     power_points_dbm=(0.0, 5.0, 10.0, 15.0, 20.0),
                     trials=200, base_seed=BASE_SEED)
    result = run_power_sweep(spec)
    curves = _curves(result)
    monotone = True
    for scheme in ("BD_RIS", "CD_RIS"):
        pts = sorted(curves[scheme])
        for (_, _, m1, s1, n1), (_, _, m2, s2, n2) in zip(pts, pts[1:]):
            if m2 < m1 - _pooled_se(s1, n1, s2, n2):
                monotone = False
    bd_above = all(b[2] > c[2] for b, c in zip(sorted(curves["BD_RIS"]),
                                               sorted(curves["CD_RIS"])))
    gain_at_top = (sorted(curves["BD_RIS"])[-1][2] / sorted(curves["CD_RIS"])[-1][2])
    elapsed = time.monotonic() - started
    ok = monotone and bd_above and elapsed < 300.0
    assert report(
        5, "power-sweep trend",
        ok,
        f"{{0,5,10,15,20}} dBm at K=80, 200 trials: both curves non-decreasing within "
        f"one pooled SE ({monotone}), BD above CD at every point ({bd_above}), "
        f"BD/CD at 20 dBm = {gain_at_top:.3f}, {elapsed:.1f} s (limit 300 s)")


def test_criterion_6_element_sweep_trend():
    spec = SweepSpec(geometry=GEOMETRY, link_budget=LINK_BUDGET,
                     ris_spec=RisSpec(80, "full", "reflective"),
                     element_counts=(10, 20, 40, 80), power_dbm=10.0,
                     trials=200, base_seed=BASE_SEED)
    result = run_element_sweep(spec)
    bd = sorted((k, mean, std, n) for power, k, scheme, mean, std, n, _
                in result.aggregate_rows if scheme == "BD_RIS")
    monotone = all(m2 >= m1 - _pooled_se(s1, n1, s2, n2)
                   for (_, m1, s1, n1), (_, m2, s2, n2) in zip(bd, bd[1:]))

    # K = 1 control: the feasible sets coincide, so the schemes must agree
    control = run_element_sweep(
        SweepSpec(geometry=GEOMETRY, link_budget=LINK_BUDGET,
                  ris_spec=RisSpec(80, "full", "reflective"),
                  element_counts=(1,), power_dbm=10.0, trials=200,
                  base_seed=BASE_SEED))
    pairs = {}
    for row in control.detail_rows:
        pairs.setdefault(row[3], {})[row[2]] = row[6]
    rel_gap = max(abs(p["BD_RIS"] - p["CD_RIS"]) / max(p["CD_RIS"], 1e-300)
                  for p in pairs.values())
    control_ok = rel_gap <= 1e-6

    ok = monotone and control_ok
    assert report(
        6, "element-sweep trend",
        ok,
        f"K in {{10,20,40,80}} at 10 dBm, 200 trials: BD non-decreasing within one "
        f"pooled SE ({monotone}); K=1 control max relative BD-CD gap {rel_gap:.2e} "
        f"(limit 1e-06)")


def test_criterion_7_closed_forms():
    # minimum power split: closed form vs 1e-4 grid on the alpha_far* = 0.6 instance
    p, gamma_w, noise, r_min = 10.0, 0.5, 1.0, 1.0
    closed = min_power_split_for_far_rate(r_min, p, gamma_w, noise)
    alphas = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    far_rates = np.log2(1.0 + p * alphas * gamma_w / (p * (1.0 - alphas) * gamma_w + noise))
    grid = float(alphas[np.argmax(far_rates >= r_min)])
    split_ok = abs(closed - 0.6) < 1e-12 and abs(closed - grid) <= 1e-4

    # slant range at zenith collapses to the altitude exactly
    zenith = slant_range(GeometryParams(elevation_deg=90.0, ris_sat_distance_km=0.0))
    zenith_ok = zenith == 600.0

    # unit second moment of the fading amplitude
    n = 100_000
    power = np.abs(rician_sample(10.0, n, np.random.default_rng(BASE_SEED))) ** 2
    se = float(np.std(power) / np.sqrt(n))
    moment_err = abs(float(np.mean(power)) - 1.0)
    moment_ok = moment_err < 3 * se

    ok = split_ok and zenith_ok and moment_ok
    assert report(
        7, "closed-form checks",
        ok,
        f"alpha_far* closed form {closed:.6f} vs 1e-4 grid {grid:.4f} (exact 0.6); "
        f"zenith slant range {zenith} km == altitude ({zenith_ok}); Rician second "
        f"moment off by {moment_err:.2e} with 3*SE = {3 * se:.2e}")


def test_criterion_8_determinism(tmp_path):
    spec = SweepSpec(geometry=GEOMETRY, link_budget=LINK_BUDGET,
                     ris_spec=RisSpec(16, "full", "reflective"),
                     power_points_dbm=(0.0, 5.0, 10.0, 15.0, 20.0),
                     element_counts=(2, 4, 8), power_dbm=10.0,
                     trials=6, base_seed=BASE_SEED)
    outputs = {}
    for workers in (1, 2):
        p_files = emit_csv(run_power_sweep(spec, workers=workers),
                           str(tmp_path / f"p{workers}.csv"))
        e_files = emit_csv(run_element_sweep(spec, workers=workers),
                           str(tmp_path / f"e{workers}.csv"))
        outputs[workers] = [open(f, "rb").read() for f in p_files + e_files]
    identical = outputs[1] == outputs[2]
    total_bytes = sum(len(b) for b in outputs[1])
    assert report(
        8, "determinism across parallelism",
        identical,
        f"power and element sweeps re-run with 1 vs 2 workers: 4 CSV files, "
        f"{total_bytes} bytes, byte-identical = {identical}")
