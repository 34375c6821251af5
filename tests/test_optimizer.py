"""Power split, phase ascent, the alternating solver, and the brute-force
oracle on instances small enough to enumerate."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdris.channel import (ChannelRealization, GeometryParams, LinkBudgetParams,
                           draw_realization, effective_channel)
from bdris.noma import NomaAllocation, achievable_rates, order_users
from bdris.optimizer import (BcdSettings, InfeasibleAllocationError, ProblemSpec,
                             Solution, bcd_solve, brute_force_oracle,
                             solve_phase_subproblem, solve_power_subproblem,
                             _align_global_phase, _aligned_start, _ascend, _Objective,
                             _PhaseState, _polar_image_step, _state_from_matrix,
                             _surface_with_image)
from bdris.surfaces import (PhaseResponse, RisSpec, project_feasible, random_feasible,
                            validate)


def unit_channel(k, users=2, direct_scale=0.0, seed=0, noise=1.0):
    """Unit-variance synthetic channel; keeps oracle comparisons well scaled."""
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    h_direct = direct_scale * cn(users) if direct_scale else np.zeros(users, dtype=complex)
    return ChannelRealization(h_direct, cn(k), cn(users, k), noise)


def gain_channel(gamma_strong, gamma_weak, noise=1.0):
    """Two users with exact effective gains under the identity surface."""
    h_direct = np.array([np.sqrt(gamma_strong), np.sqrt(gamma_weak)], dtype=complex)
    return ChannelRealization(h_direct, np.zeros(1, dtype=complex),
                              np.zeros((2, 1), dtype=complex), noise)


IDENTITY_1 = PhaseResponse.reflective(np.eye(1, dtype=complex))


class TestProblemSpec:
    def test_power_conversion(self):
        assert ProblemSpec(RisSpec(4), 10.0).power_mw == pytest.approx(10.0)
        assert ProblemSpec(RisSpec(4), 0.0).power_mw == pytest.approx(1.0)

    def test_effective_spec_by_scheme(self):
        spec = RisSpec(8, "group", "reflective", group_count=2)
        assert ProblemSpec(spec, scheme="BD_RIS").effective_spec is spec
        cd = ProblemSpec(spec, scheme="CD_RIS").effective_spec
        assert cd.architecture == "single" and cd.num_elements == 8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ProblemSpec(RisSpec(4), scheme="MIMO")
        with pytest.raises(ValueError):
            ProblemSpec(RisSpec(4, "full", "hybrid"))
        with pytest.raises(ValueError):
            ProblemSpec(RisSpec(4), min_rate_far=-1.0)


class TestBcdSettings:
    def test_defaults(self):
        s = BcdSettings()
        assert [f.name for f in dataclasses.fields(s)] == ["max_outer_iters", "rate_tolerance"]
        assert s.max_outer_iters == 50 and s.rate_tolerance == 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            BcdSettings(max_outer_iters=0)
        with pytest.raises(ValueError):
            BcdSettings(rate_tolerance=0.0)


class TestPowerSubproblem:
    def test_unconstrained_optimum_is_even_split(self):
        ch = gain_channel(2.0, 0.5)
        problem = ProblemSpec(RisSpec(1), power_dbm=10.0)
        alloc = solve_power_subproblem(ch, IDENTITY_1, problem)
        assert alloc.alpha_far == pytest.approx(0.5)
        assert alloc.alpha_near == pytest.approx(0.5)
        assert alloc.total_power_mw == pytest.approx(10.0)

    def test_min_rate_pushes_split_to_closed_form(self):
        # p*gamma_w = 5, sigma^2 = 1, r_min_far = 1 -> alpha_far* = 0.6
        ch = gain_channel(2.0, 0.5)
        problem = ProblemSpec(RisSpec(1), power_dbm=10.0, min_rate_far=1.0)
        alloc = solve_power_subproblem(ch, IDENTITY_1, problem)
        assert alloc.alpha_far == pytest.approx(0.6, rel=1e-12)
        assert alloc.alpha_near == pytest.approx(0.4, rel=1e-12)

    def test_infeasible_far_rate_raises(self):
        ch = gain_channel(2.0, 0.5)
        problem = ProblemSpec(RisSpec(1), power_dbm=10.0, min_rate_far=10.0)
        with pytest.raises(InfeasibleAllocationError):
            solve_power_subproblem(ch, IDENTITY_1, problem)

    def test_infeasible_near_rate_raises(self):
        ch = gain_channel(2.0, 0.5)
        problem = ProblemSpec(RisSpec(1), power_dbm=10.0, min_rate_near=50.0)
        with pytest.raises(InfeasibleAllocationError):
            solve_power_subproblem(ch, IDENTITY_1, problem)

    def test_zero_weak_gain_with_positive_min_rate_raises(self):
        ch = gain_channel(2.0, 0.0)
        problem = ProblemSpec(RisSpec(1), power_dbm=10.0, min_rate_far=0.5)
        with pytest.raises(InfeasibleAllocationError):
            solve_power_subproblem(ch, IDENTITY_1, problem)

    def test_returned_split_is_grid_optimal(self):
        # no alpha on a fine grid beats the closed-form split
        ch = gain_channel(1.9, 0.3)
        problem = ProblemSpec(RisSpec(1), power_dbm=10.0, min_rate_far=0.8)
        alloc = solve_power_subproblem(ch, IDENTITY_1, problem)
        h_effs = [effective_channel(ch, IDENTITY_1, u) for u in range(2)]
        strong, weak = order_users(h_effs)
        best = alloc_rate = achievable_rates(
            alloc, h_effs[strong], h_effs[weak], ch.noise_mw).sum_rate
        for af in np.linspace(0.5, 1.0, 501):
            cand = NomaAllocation(problem.power_mw, 1 - af, af)
            r = achievable_rates(cand, h_effs[strong], h_effs[weak], ch.noise_mw)
            if r.rate_far >= problem.min_rate_far - 1e-12:
                best = max(best, r.sum_rate)
        assert alloc_rate >= best - 1e-9


class TestRateWeights:
    def test_match_finite_difference_of_the_objective(self):
        # two users either way round, a near tie, and a lone user, which is
        # both the strong and the weak user
        ch = unit_channel(2)
        for gains, split in (([2.0, 0.5], 0.6), ([0.3, 1.9], 0.5), ([1.0, 1.0 + 1e-3], 0.8),
                             ([0.7], 1.0), ([0.7], 0.6)):
            gains = np.array(gains)
            alloc = NomaAllocation(10.0, 1.0 - split, split)
            obj = _Objective(ch, alloc)
            weights = obj.rate_weights(gains)
            for u in range(len(gains)):
                step = np.zeros_like(gains)
                step[u] = 1e-6 * gains[u]
                fd = (obj.sum_rate_of_gains(gains + step)
                      - obj.sum_rate_of_gains(gains - step)) / (2 * step[u])
                assert weights[u] == pytest.approx(fd, rel=1e-6)


def block_specs():
    """Full and group-connected unitary surfaces the image step runs on."""
    specs = [RisSpec(k, "full") for k in (2, 3, 8, 12)]
    specs += [RisSpec(k, "group", group_count=3) for k in (3, 12)]
    return specs


def svd_polar_image(phi, q, h, tau, bs):
    """Reference: full-SVD polar factor of Phi_b + tau q_b h_b^H applied to h_b."""
    out = np.empty_like(h)
    for b in range(len(h) // bs):
        sl = slice(b * bs, (b + 1) * bs)
        u, _, vh = np.linalg.svd(phi[sl, sl] + tau * np.outer(q[sl], np.conj(h[sl])))
        out[sl] = u @ vh @ h[sl]
    return out


def cn(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestPolarImageStep:
    def test_matches_full_svd_polar(self):
        rng = np.random.default_rng(5)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            for tau in (1e-3, 1.0, 1e6):
                for _ in range(5):
                    phi = random_feasible(spec, rng).phi
                    q, h = cn(rng, k), cn(rng, k)
                    stepped = _polar_image_step(phi @ h, q, tau, bs)
                    reference = svd_polar_image(phi, q, h, tau, bs)
                    assert np.linalg.norm(stepped - reference) < 1e-12 * np.linalg.norm(h)

    def test_zero_gradient_block_keeps_its_image(self):
        rng = np.random.default_rng(6)
        spec = RisSpec(12, "group", group_count=3)
        phi = random_feasible(spec, rng).phi
        q, h = cn(rng, 12), cn(rng, 12)
        q[4:8] = 0.0
        v = phi @ h
        stepped = _polar_image_step(v, q, 1.0, 4)
        assert np.array_equal(stepped[4:8], v[4:8])
        reference = svd_polar_image(phi, q, h, 1.0, 4)
        assert np.linalg.norm(stepped - reference) < 1e-12 * np.linalg.norm(h)
        assert np.array_equal(_polar_image_step(v, np.zeros(12), 1.0, 4), v)

    def test_gradient_parallel_to_image(self):
        rng = np.random.default_rng(7)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            phi = random_feasible(spec, rng).phi
            h = cn(rng, k)
            v = phi @ h
            for scale in (0.3, -0.3j, -2.0):      # includes q_b against v_b
                q = scale * v
                for tau in (1e-3, 1.0, 1e6):
                    stepped = _polar_image_step(v, q, tau, bs)
                    reference = svd_polar_image(phi, q, h, tau, bs)
                    assert np.linalg.norm(stepped - reference) < 1e-12 * np.linalg.norm(h)

    def test_built_surface_after_many_steps(self):
        rng = np.random.default_rng(8)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            h = cn(rng, k)
            base = random_feasible(spec, rng).phi
            w = base @ h
            v = w
            for _ in range(50):
                v = _polar_image_step(v, cn(rng, k), 0.7, bs)
            norms = np.linalg.norm(v.reshape(-1, bs), axis=1)
            assert np.allclose(norms, np.linalg.norm(h.reshape(-1, bs), axis=1),
                               rtol=1e-12, atol=0.0)
            phi = _surface_with_image(base, w, v, bs)
            assert validate(PhaseResponse.reflective(phi), spec).is_feasible
            assert np.linalg.norm(phi @ h - v) < 1e-12 * np.linalg.norm(v)

    def test_surface_for_barely_moved_images(self):
        # block 0 turns by a global phase only, block 1 by a 1e-9 change of
        # direction, block 2 not at all
        rng = np.random.default_rng(9)
        spec = RisSpec(12, "group", group_count=3)
        base = random_feasible(spec, rng).phi
        h = cn(rng, 12)
        w = base @ h
        v = w.copy()
        v[:4] *= 1j
        nudge = v[4:8] + 1e-9 * np.linalg.norm(v[4:8]) * cn(rng, 4)
        v[4:8] = nudge * np.linalg.norm(v[4:8]) / np.linalg.norm(nudge)
        phi = _surface_with_image(base, w, v, 4)
        assert validate(PhaseResponse.reflective(phi), spec, eps_feas=1e-13).is_feasible
        assert np.linalg.norm(phi @ h - v) < 1e-14 * np.linalg.norm(v)
        assert np.array_equal(phi[8:], base[8:])


class TestAlignedStart:
    def test_image_of_the_projected_rank_one_matrix(self):
        rng = np.random.default_rng(10)
        for spec in block_specs() + [RisSpec(12, "group", group_count=2)]:
            k, bs = spec.num_elements, spec.block_size
            if bs == 1:
                continue
            g, h = cn(rng, k), cn(rng, k)
            if spec.num_blocks > 1:
                g[bs:2 * bs] = 0.0                # one block with g_b = 0
            start = _aligned_start(g, h, spec).image(h)
            reference = project_feasible(np.outer(g, np.conj(h)), spec).phi @ h
            assert np.linalg.norm(start - reference) < 1e-12 * np.linalg.norm(h)


class TestAscentStep:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(k, 0) for k in range(1, 13)]
                           + [(k, 1) for k in range(2, 13)]
                           + [(k, g) for k in range(4, 13) for g in range(2, k // 2 + 1)
                              if k % g == 0]),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.7]),
           st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)), st.booleans())
    def test_one_huge_step_never_lowers_the_surrogate(self, shape, seed, direct,
                                                      weights, aligned):
        # f is convex with weights >= 0, so the projected huge step (the
        # maximizer of the linear minorant) followed by the global-phase line
        # search cannot lower it: the ascent's one-step rule relies on this
        k, g = shape
        spec = (RisSpec(k, "single") if g == 0 else RisSpec(k, "full") if g == 1
                else RisSpec(k, "group", group_count=g))
        ch = unit_channel(k, seed=seed, direct_scale=direct)
        obj = _Objective(ch, NomaAllocation(10.0, 0.5, 0.5))
        weights = np.array(weights)
        state = _state_from_matrix(random_feasible(spec, seed).phi, obj.h, spec)
        e = obj.eff(state)
        if aligned:
            state, e = _align_global_phase(state, e, obj, weights)
        f_before = np.sum(weights * np.abs(e) ** 2)
        q = (weights * e) @ obj.g
        grad_norm = np.linalg.norm(q) * np.linalg.norm(obj.h)
        if grad_norm == 0.0:
            return
        stepped = state.stepped(q, obj.h, 1e8 * np.sqrt(k) / grad_norm)
        _, e_after = _align_global_phase(stepped, obj.eff(stepped), obj, weights)
        assert np.sum(weights * np.abs(e_after) ** 2) >= f_before * (1.0 - 1e-12)

    @pytest.mark.parametrize("spec,direct", [
        (RisSpec(80, "full"), False),
        (RisSpec(80, "group", group_count=16), True),
    ])
    def test_converged_ascent_takes_one_step(self, monkeypatch, spec, direct):
        ch = draw_realization(GeometryParams(), LinkBudgetParams(), 80, num_users=2,
                              include_direct=direct, rng=np.random.default_rng(3))
        problem = ProblemSpec(spec, power_dbm=10.0)
        identity = np.eye(80, dtype=complex)
        obj = _Objective(ch, solve_power_subproblem(ch, PhaseResponse.reflective(identity),
                                                    problem))
        weights = obj.rate_weights(np.abs(obj.eff(_state_from_matrix(identity, obj.h,
                                                                     spec))) ** 2)
        end, rate = _ascend(_aligned_start(ch.g_ris_user[0], obj.h, spec), obj, weights)

        calls = []
        stepped = _PhaseState.stepped

        def counted(self, *args):
            calls.append(args)
            return stepped(self, *args)

        monkeypatch.setattr(_PhaseState, "stepped", counted)
        again, rate_again = _ascend(end, obj, weights)
        assert len(calls) == 1
        assert rate_again == pytest.approx(rate, rel=1e-12)
        assert obj.sum_rate(obj.eff(again)) == pytest.approx(rate, rel=1e-12)


class TestPhaseSubproblem:
    def test_single_user_reaches_coherent_bound(self):
        for seed in range(5):
            ch = unit_channel(8, users=1, direct_scale=1.0, seed=seed)
            problem = ProblemSpec(RisSpec(8, "full", "reflective"), power_dbm=10.0)
            alloc = NomaAllocation(problem.power_mw, 0.0, 1.0)
            pr = solve_phase_subproblem(ch, alloc, problem)
            gain = abs(ch.h_direct[0] + ch.g_ris_user[0].conj() @ (pr.phi @ ch.h_sat_ris))
            bound = abs(ch.h_direct[0]) + np.linalg.norm(ch.g_ris_user[0]) * np.linalg.norm(ch.h_sat_ris)
            assert gain >= 0.999 * bound
            assert gain <= bound * (1 + 1e-9)

    def test_diagonal_single_user_aligns_every_element(self):
        ch = unit_channel(6, users=1, seed=3)
        problem = ProblemSpec(RisSpec(6, "single", "reflective"), power_dbm=10.0)
        alloc = NomaAllocation(problem.power_mw, 0.0, 1.0)
        pr = solve_phase_subproblem(ch, alloc, problem)
        gain = abs(ch.g_ris_user[0].conj() @ (pr.phi @ ch.h_sat_ris))
        bound = np.sum(np.abs(ch.g_ris_user[0]) * np.abs(ch.h_sat_ris))
        assert gain >= 0.999 * bound

    def test_returned_point_feasible_for_every_architecture(self):
        ch = unit_channel(12, seed=9)
        alloc = NomaAllocation(10.0, 0.5, 0.5)
        for spec in (RisSpec(12, "single"), RisSpec(12, "full"),
                     RisSpec(12, "group", group_count=3)):
            pr = solve_phase_subproblem(ch, alloc, ProblemSpec(spec, 10.0))
            assert validate(pr, spec).is_feasible

    def test_never_below_warm_start_sum_rate(self):
        for seed in range(8):
            ch = unit_channel(4, seed=seed, direct_scale=0.7)
            alloc = NomaAllocation(10.0, 0.5, 0.5)
            problem = ProblemSpec(RisSpec(4, "full"), 10.0)
            warm = random_feasible(RisSpec(4, "full"), seed + 100)

            def sum_rate(pr):
                h_effs = [effective_channel(ch, pr, u) for u in range(2)]
                s, w = order_users(h_effs)
                return achievable_rates(alloc, h_effs[s], h_effs[w], ch.noise_mw).sum_rate

            pr = solve_phase_subproblem(ch, alloc, problem, warm_start_pr=warm)
            assert sum_rate(pr) >= sum_rate(warm) - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(k, 1) for k in range(2, 13)]
                           + [(k, g) for k in range(4, 13) for g in range(2, k // 2 + 1)
                              if k % g == 0]),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.7]),
           st.floats(0.5, 1.0))
    def test_property_feasible_and_never_below_warm_start(self, shape, seed, direct,
                                                          alpha_far):
        k, g = shape
        spec = RisSpec(k, "full") if g == 1 else RisSpec(k, "group", group_count=g)
        ch = unit_channel(k, seed=seed, direct_scale=direct)
        alloc = NomaAllocation(10.0, 1.0 - alpha_far, alpha_far)
        warm = random_feasible(spec, seed)

        def sum_rate(pr):
            h_effs = [effective_channel(ch, pr, u) for u in range(2)]
            s, w = order_users(h_effs)
            return achievable_rates(alloc, h_effs[s], h_effs[w], ch.noise_mw).sum_rate

        pr = solve_phase_subproblem(ch, alloc, ProblemSpec(spec, 10.0), warm_start_pr=warm)
        assert validate(pr, spec).is_feasible
        assert sum_rate(pr) >= sum_rate(warm) * (1.0 - 1e-12)

    def test_rejects_non_reflective_warm_start(self):
        ch = unit_channel(4)
        alloc = NomaAllocation(10.0, 0.5, 0.5)
        warm = PhaseResponse.transmissive(np.eye(4))
        with pytest.raises(ValueError):
            solve_phase_subproblem(ch, alloc, ProblemSpec(RisSpec(4), 10.0),
                                   warm_start_pr=warm)


class TestBcdSolve:
    def test_trace_monotone_and_converged(self):
        for seed in range(6):
            ch = unit_channel(8, seed=seed, direct_scale=0.5)
            solution = bcd_solve(ch, ProblemSpec(RisSpec(8, "full"), 10.0), BcdSettings())
            diffs = np.diff(solution.trace)
            assert np.all(diffs >= -1e-12)
            assert solution.converged
            assert isinstance(solution, Solution)

    def test_single_iteration_keeps_warm_phases(self):
        ch = unit_channel(4, seed=1)
        settings = BcdSettings(max_outer_iters=1)
        solution = bcd_solve(ch, ProblemSpec(RisSpec(4, "full"), 10.0), settings)
        assert len(solution.trace) == 1
        assert not solution.converged
        assert np.array_equal(solution.phase.phi, np.eye(4))

    def test_deterministic(self):
        ch = unit_channel(8, seed=2)
        problem = ProblemSpec(RisSpec(8, "full"), 10.0)
        a = bcd_solve(ch, problem, BcdSettings())
        b = bcd_solve(ch, problem, BcdSettings())
        assert a.rates.sum_rate == b.rates.sum_rate
        assert np.array_equal(a.phase.phi, b.phase.phi)

    def test_dominates_conventional_baseline(self):
        for seed in range(5):
            ch = unit_channel(16, seed=seed)
            cd = bcd_solve(ch, ProblemSpec(RisSpec(16, "full"), 10.0, scheme="CD_RIS"),
                           BcdSettings())
            bd = bcd_solve(ch, ProblemSpec(RisSpec(16, "full"), 10.0, scheme="BD_RIS"),
                           BcdSettings(), warm_start_pr=cd.phase)
            assert bd.rates.sum_rate >= cd.rates.sum_rate - 1e-12

    def test_group_architecture_phases_feasible(self):
        ch = unit_channel(8, seed=6)
        spec = RisSpec(8, "group", "reflective", group_count=2)
        solution = bcd_solve(ch, ProblemSpec(spec, 10.0), BcdSettings())
        assert validate(solution.phase, spec).is_feasible

    def test_infeasible_minimum_rates_propagate(self):
        ch = unit_channel(4, seed=7)
        problem = ProblemSpec(RisSpec(4, "full"), 10.0, min_rate_far=60.0)
        with pytest.raises(InfeasibleAllocationError):
            bcd_solve(ch, problem, BcdSettings())

    def test_requires_two_users(self):
        ch = unit_channel(4, users=1)
        with pytest.raises(ValueError):
            bcd_solve(ch, ProblemSpec(RisSpec(4), 10.0), BcdSettings())


class TestBruteForceOracle:
    def test_solver_matches_oracle_on_diagonal_k2(self):
        problem = ProblemSpec(RisSpec(2, "single"), power_dbm=10.0)
        for seed in range(6):
            ch = unit_channel(2, seed=seed, direct_scale=(0.0 if seed % 2 else 1.0))
            solved = bcd_solve(ch, problem, BcdSettings())
            reference = brute_force_oracle(ch, problem, grid=48)
            assert solved.rates.sum_rate >= 0.98 * reference.rates.sum_rate

    def test_oracle_respects_minimum_rates(self):
        ch = unit_channel(2, seed=1)
        problem = ProblemSpec(RisSpec(2, "single"), 10.0, min_rate_far=0.5)
        solution = brute_force_oracle(ch, problem, grid=24)
        assert solution.rates.rate_far >= 0.5 - 1e-9

    def test_oracle_infeasible_raises(self):
        ch = unit_channel(2, seed=1)
        problem = ProblemSpec(RisSpec(2, "single"), 10.0, min_rate_far=80.0)
        with pytest.raises(InfeasibleAllocationError):
            brute_force_oracle(ch, problem, grid=8)

    def test_grid_refinement_is_monotone(self):
        ch = unit_channel(2, seed=3, direct_scale=0.4)
        for arch in ("single", "full"):
            problem = ProblemSpec(RisSpec(2, arch), 10.0)
            values = [brute_force_oracle(ch, problem, grid=g).rates.sum_rate
                      for g in (4, 8, 16)]
            assert values[0] <= values[1] + 1e-12
            assert values[1] <= values[2] + 1e-12

    def test_unitary_oracle_beats_diagonal_oracle(self):
        ch = unit_channel(2, seed=8)
        diag = brute_force_oracle(ch, ProblemSpec(RisSpec(2, "single"), 10.0), grid=16)
        full = brute_force_oracle(ch, ProblemSpec(RisSpec(2, "full"), 10.0), grid=16)
        assert full.rates.sum_rate >= diag.rates.sum_rate - 1e-9

    def test_size_caps(self):
        with pytest.raises(ValueError):
            brute_force_oracle(unit_channel(4), ProblemSpec(RisSpec(4, "single"), 10.0))
        with pytest.raises(ValueError):
            brute_force_oracle(unit_channel(3), ProblemSpec(RisSpec(3, "full"), 10.0))
        with pytest.raises(ValueError):
            brute_force_oracle(unit_channel(4),
                               ProblemSpec(RisSpec(4, "group", group_count=2), 10.0))
        with pytest.raises(ValueError):
            brute_force_oracle(unit_channel(2), ProblemSpec(RisSpec(2, "full"), 10.0),
                               grid=64)   # 64^4 candidates is past the cap

    def test_satellite_scale_agreement(self):
        geom, lb = GeometryParams(), LinkBudgetParams()
        problem = ProblemSpec(RisSpec(2, "single"), power_dbm=20.0)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ch = draw_realization(geom, lb, 2, num_users=2,
                                  include_direct=bool(seed % 2), rng=rng)
            solved = bcd_solve(ch, problem, BcdSettings())
            reference = brute_force_oracle(ch, problem, grid=48)
            assert solved.rates.sum_rate >= 0.98 * reference.rates.sum_rate
