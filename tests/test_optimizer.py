"""Power split, the direction ascent, the solver, and the exact
direction-search oracle."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bdris import optimizer
from bdris.channel import (ChannelRealization, GeometryParams, LinkBudgetParams,
                           draw_realization, effective_channel)
from bdris.config import SimConfig, geometry_from, link_budget_from
from bdris.experiments import solve_pair
from bdris.noma import (NomaAllocation, achievable_rates, min_power_split_for_far_rate,
                        order_users, sic_rates)
from bdris.optimizer import (SCHEMES, InfeasibleAllocationError, ProblemSpec, Solution, bcd_solve,
                             exact_oracle, solve_phase_subproblem, solve_power_subproblem,
                             _exposed, _score, _slope, _surface_from_image)
from bdris.surfaces import (DimensionError, RisSpec, project_feasible, random_feasible,
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


def identity(spec):
    return np.eye(spec.num_elements, dtype=complex)


IDENTITY_1 = identity(RisSpec(1))


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
        for power_dbm in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="power_dbm must be finite"):
                ProblemSpec(RisSpec(4), power_dbm)


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

    def test_rejects_wrong_size_phases(self):
        ch = gain_channel(2.0, 0.5)
        with pytest.raises(DimensionError, match=r"shape \(2, 2\) does not match K=1"):
            solve_power_subproblem(ch, np.eye(2), ProblemSpec(RisSpec(1), 10.0))

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


class TestScore:
    @pytest.mark.parametrize("near,far", [(0.0, 0.0), (0.0, 1.0), (0.0, 3.0), (2.0, 0.0),
                                          (5.0, 1.0), (0.0, 9.0)])
    def test_slope_is_the_total_derivative(self, near, far):
        # the split moves with the gains: with a binding far floor (0, 1) the
        # weak user's slope is the near rate bought by the power it frees; far
        # (0, 3), near (2, 0) and both (5, 1) floors that are missed score
        # minus the shortfall. Two users either way round, a near tie, and a
        # lone user, which is both the strong and the weak user
        problem = ProblemSpec(RisSpec(1), 10.0, min_rate_near=near, min_rate_far=far)
        for gains in ([2.0, 0.5], [0.3, 1.9], [1.0, 1.0 + 1e-3], [0.9], [40.0, 3.0]):
            gains = np.array(gains)
            score, split = _score(problem, gains, 1.0)
            slope = _slope(problem, gains, 1.0, split)
            for u in range(len(gains)):
                step = np.zeros_like(gains)
                step[u] = 1e-6 * gains[u]
                fd = (_score(problem, gains + step, 1.0)[0]
                      - _score(problem, gains - step, 1.0)[0]) / (2 * step[u])
                assert slope[u] == pytest.approx(fd, rel=1e-6, abs=1e-9 * abs(score))

    def test_score_is_the_closed_form_split_rate_or_minus_the_shortfall(self):
        gains = np.array([[2.0, 0.5], [0.5, 2.0]])
        free = _score(ProblemSpec(RisSpec(1), 10.0), gains, 1.0)[0]
        assert np.allclose(free, sum(sic_rates(10.0, 0.5, 0.5, 2.0, 0.5, 1.0)), rtol=1e-15)
        # p g_w = 5 and r = 1 give alpha_far* = 0.6 (TestPowerSubproblem)
        floor = _score(ProblemSpec(RisSpec(1), 10.0, min_rate_far=1.0), gains, 1.0)[0]
        assert np.allclose(floor, sum(sic_rates(10.0, 0.4, 0.6, 2.0, 0.5, 1.0)), rtol=1e-12)
        # an unreachable far floor clips the split to 1: the far rate falls short
        missed = _score(ProblemSpec(RisSpec(1), 10.0, min_rate_far=5.0), gains, 1.0)[0]
        assert np.allclose(missed, np.log2(6.0) - 5.0, rtol=1e-15)


    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2]),
           st.lists(st.floats(-3.0, 2.0), min_size=12, max_size=12),
           st.lists(st.booleans(), min_size=6, max_size=6),
           st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
           st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    def test_property_a_row_does_not_depend_on_the_rows_beside_it(self, rows, users, exps,
                                                                 tied, near, far):
        # gains from 1e-3 to 1e2 at p/noise = 10 leave the far floor free,
        # binding or missed, and the near floor met or missed, row by row;
        # tied rows give both users one gain
        gains = 10.0 ** np.array(exps[:2 * rows]).reshape(rows, 2)
        gains[np.array(tied[:rows]), 1] = gains[np.array(tied[:rows]), 0]
        gains = gains[:, :users]
        problem = ProblemSpec(RisSpec(1), 10.0, min_rate_near=near, min_rate_far=far)
        score, split = _score(problem, gains, 1.0)
        slope = _slope(problem, gains, 1.0, split)
        for row in range(rows):
            alone, alone_split = _score(problem, gains[row], 1.0)
            assert np.array_equal(score[row], alone)
            assert np.array_equal(slope[row], _slope(problem, gains[row], 1.0, alone_split))


# (K, g) for any_spec: every diagonal, fully connected and group-connected
# surface with K <= 12
SHAPES = st.sampled_from([(k, 0) for k in range(1, 13)] + [(k, 1) for k in range(2, 13)]
                         + [(k, g) for k in range(4, 13) for g in range(2, k // 2 + 1)
                            if k % g == 0])


def block_specs():
    """Diagonal, full and group-connected surfaces the image step runs on."""
    specs = [RisSpec(k, "single") for k in (1, 3, 12)]
    specs += [RisSpec(k, "full") for k in (2, 3, 8, 12)]
    specs += [RisSpec(k, "group", group_count=g) for k, g in ((3, 3), (12, 3), (12, 2))]
    return specs


def cn(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def block_norms(x, bs):
    return np.linalg.norm(x.reshape(-1, bs), axis=1)


class TestExposedPoint:
    def test_image_of_the_projected_rank_one_matrix(self):
        rng = np.random.default_rng(10)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            for _ in range(4):
                q, h = cn(rng, k), cn(rng, k)
                if spec.num_blocks > 1:
                    q[bs:2 * bs] = 0.0            # one block with q_b = 0
                v = _exposed(q, block_norms(h, bs), h, bs)
                reference = project_feasible(np.outer(q, np.conj(h)), spec)[0] @ h
                assert np.linalg.norm(v - reference) < 1e-12 * np.linalg.norm(h)

    def test_zero_block_keeps_its_fallback_and_norms_match(self):
        rng = np.random.default_rng(11)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            q, h, fallback = cn(rng, k), cn(rng, k), cn(rng, k)
            q[:bs] = 0.0
            v = _exposed(q, block_norms(h, bs), fallback, bs)
            assert np.array_equal(v[:bs], fallback[:bs])
            assert np.allclose(block_norms(v, bs)[1:], block_norms(h, bs)[1:],
                               rtol=1e-12, atol=0.0)
            assert np.array_equal(_exposed(np.zeros(k), block_norms(h, bs), fallback, bs),
                                  fallback)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_leading_axes_are_independent_directions(self):
        rng = np.random.default_rng(13)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            q, h = cn(rng, 3 * 2 * k).reshape(3, 2, k), cn(rng, k)
            q[1, 0, :bs] = 0.0
            batch = _exposed(q, block_norms(h, bs), h, bs)
            for i, j in np.ndindex(3, 2):
                assert np.array_equal(batch[i, j], _exposed(q[i, j], block_norms(h, bs), h, bs))
        # a direction whose |q_b|^2 underflows (to a subnormal, or to 0)
        # beside one in range
        rng = np.random.default_rng(0)
        q, h = cn(rng, 8).reshape(2, 4), cn(rng, 4)
        for scale in (1e-160, 1e-200):
            small = q * np.array([[scale], [1.0]])
            for bs in (1, 4):
                batch = _exposed(small, block_norms(h, bs), h, bs)
                for i in range(2):
                    assert np.array_equal(batch[i], _exposed(small[i], block_norms(h, bs), h, bs))
                assert np.allclose(block_norms(batch[0], bs), block_norms(h, bs),
                                   rtol=1e-14, atol=0.0)
        # one-element unit blocks, the ascent's phase turn: z = 0 keeps 1, a
        # subnormal or huge z still gives a unit phase
        one = np.ones(1)
        z = np.array([0.0, 5e-324 + 3e-324j, 1e-310j, 1e300 - 1e300j, 1 + 1j])[:, None]
        batch = _exposed(z, one, one, 1)
        for i in range(len(z)):
            assert np.array_equal(batch[i], _exposed(z[i], one, one, 1))
        assert batch[0, 0] == 1.0
        assert np.all(np.abs(np.abs(batch) - 1.0) <= np.spacing(1.0))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_scale_of_the_gradient_does_not_matter(self):
        # at these scales the squared norms of the q_b underflow (one to a
        # subnormal) or overflow
        rng = np.random.default_rng(12)
        for spec in (RisSpec(8, "single"), RisSpec(8, "full"),
                     RisSpec(8, "group", group_count=2)):
            k, bs = spec.num_elements, spec.block_size
            q, h = cn(rng, k), cn(rng, k)
            v = _exposed(q, block_norms(h, bs), h, bs)
            for scale in (1e-310, 1e-200, 1e-160, 1e160, 1e300):
                scaled = _exposed(scale * q, block_norms(h, bs), h, bs)
                assert np.linalg.norm(scaled - v) < 1e-12 * np.linalg.norm(h)

    def test_one_fallback_per_direction(self):
        rng = np.random.default_rng(14)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            q, h, fallback = cn(rng, 3 * k).reshape(3, k), cn(rng, k), cn(rng, 3 * k).reshape(3, k)
            q[1, :bs] = 0.0
            batch = _exposed(q, block_norms(h, bs), fallback, bs)
            for i in range(3):
                assert np.array_equal(batch[i], _exposed(q[i], block_norms(h, bs), fallback[i], bs))


def feasible_image(x, h, bs):
    """x rescaled block by block to the norms of h."""
    xb = x.reshape(-1, bs)
    return (xb * (block_norms(h, bs) / np.linalg.norm(xb, axis=1))[:, None]).ravel()


class TestSurfaceFromImage:
    def test_built_surface_after_many_steps(self):
        rng = np.random.default_rng(8)
        for spec in block_specs():
            k, bs = spec.num_elements, spec.block_size
            h = cn(rng, k)
            v = h
            for _ in range(50):
                v = _exposed(cn(rng, k), block_norms(h, bs), v, bs)
            phi = _surface_from_image(h, v, spec)
            assert validate(phi, spec).is_feasible
            assert np.linalg.norm(phi @ h - v) < 1e-12 * np.linalg.norm(v)

    def test_surface_for_barely_moved_images(self):
        # block 0 turns by a global phase only, block 1 by a 1e-9 change of
        # direction (for bs = 1, a 1e-9 turn of its phase), block 2 not at
        # all: they build as 1j I, a near-identity rotation and I
        rng = np.random.default_rng(9)
        for spec in (RisSpec(12, "group", group_count=3), RisSpec(3, "single")):
            k, bs = spec.num_elements, spec.block_size
            h = cn(rng, k)
            v = h.copy()
            v[:bs] *= 1j
            one = slice(bs, 2 * bs)
            nudge = v[one] + 1e-9 * np.linalg.norm(v[one]) * cn(rng, bs)
            v[one] = nudge * np.linalg.norm(v[one]) / np.linalg.norm(nudge)
            phi = _surface_from_image(h, v, spec)
            assert validate(phi, spec, eps_feas=1e-13).is_feasible
            assert np.linalg.norm(phi @ h - v) < 1e-14 * np.linalg.norm(v)
            eye = np.eye(bs)
            assert np.abs(phi[:bs, :bs] - 1j * eye).max() < 1e-15
            assert np.abs(phi[one, one] - eye).max() < 1e-8
            assert np.abs(phi[2 * bs:, 2 * bs:] - eye).max() < 1e-15

    def test_diagonal_surface_is_exactly_its_phases(self):
        # a one-element block has no direction to move: it is the exposed
        # phase z_k of conj(hp_k) vp_k, hp_k and vp_k the unit phases of h_k
        # and v_k, and nothing else, bit for bit
        rng = np.random.default_rng(15)
        for k in (1, 3, 80):
            spec = RisSpec(k, "single")
            h = cn(rng, k)
            v = _exposed(cn(rng, k), np.abs(h), h, 1)
            v[-1] = h[-1]
            units, one = np.ones(k), np.ones(1)
            hp, vp = _exposed(h, units, h, 1), _exposed(v, units, v, 1)
            z = _exposed((hp.conj() * vp)[:, None], one, one, 1)[:, 0]
            phi = _surface_from_image(h, v, spec)
            assert np.array_equal(phi, np.diag(z))
            c = h.conj() * v
            assert np.abs(z - c / np.abs(c)).max() <= 4e-16
            assert validate(phi, spec, eps_feas=1e-13).is_feasible

    # at 2^530 the squared block norms overflow, and _exposed rescales
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(SHAPES, st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1.0, 1e-150, 1e150, 2.0 ** -530, 2.0 ** 530]),
           st.sampled_from(["random", "nudge", "phase", "plus", "minus"]), st.booleans())
    def test_property_feasible_with_its_image_and_z_off_the_plane(self, shape, seed, scale,
                                                                  kind, zero_block):
        spec = any_spec(*shape)
        k, bs = spec.num_elements, spec.block_size
        rng = np.random.default_rng(seed)
        h = cn(rng, k)
        v = {"random": lambda: feasible_image(cn(rng, k), h, bs),
             "nudge": lambda: feasible_image(h + 1e-9 * cn(rng, k), h, bs),
             "phase": lambda: np.exp(2j * np.pi * rng.random()) * h,
             "plus": lambda: h.copy(),
             "minus": lambda: -h}[kind]()
        h, v = scale * h, scale * v
        if zero_block:
            h[:bs] = v[:bs] = 0.0
        phi = _surface_from_image(h, v, spec)
        assert validate(phi, spec, eps_feas=1e-12).is_feasible
        # the references work on h/scale and v/scale, whose squares stay in range
        h1, v1 = h / scale, v / scale
        assert np.linalg.norm((phi @ h - v) / scale) <= 1e-12 * np.linalg.norm(v1)
        # off span{h_b, v_b} each block acts as its phase z_b (1 where h_b^H v_b = 0)
        c = np.sum(h1.reshape(-1, bs).conj() * v1.reshape(-1, bs), axis=1)
        z = np.divide(c, np.abs(c), out=np.ones_like(c), where=np.abs(c) > 0.0)
        for b in range(spec.num_blocks):
            sl = slice(b * bs, (b + 1) * bs)
            plane = np.linalg.qr(np.column_stack([h1[sl], v1[sl]]))[0]
            r = cn(rng, bs)
            x = r - plane @ (plane.conj().T @ r)
            assert np.linalg.norm(phi[sl, sl] @ x - z[b] * x) <= 1e-12 * np.linalg.norm(r)


def surface(ch, image, spec):
    """The Phi a Solution builds on request for an image."""
    return _surface_from_image(ch.h_sat_ris, image, spec)


class TestPhaseSubproblem:
    def test_single_user_reaches_coherent_bound(self):
        for seed in range(5):
            ch = unit_channel(8, users=1, direct_scale=1.0, seed=seed)
            problem = ProblemSpec(RisSpec(8, "full", "reflective"), power_dbm=10.0)
            image, _ = solve_phase_subproblem(ch, problem)
            gain = abs(ch.h_direct[0] + ch.g_ris_user[0].conj() @ image)
            bound = abs(ch.h_direct[0]) + np.linalg.norm(ch.g_ris_user[0]) * np.linalg.norm(ch.h_sat_ris)
            assert gain >= bound * (1.0 - 1e-8)
            assert gain <= bound * (1 + 1e-9)

    def test_diagonal_single_user_aligns_every_element(self):
        ch = unit_channel(6, users=1, seed=3)
        problem = ProblemSpec(RisSpec(6, "single", "reflective"), power_dbm=10.0)
        image, _ = solve_phase_subproblem(ch, problem)
        gain = abs(ch.g_ris_user[0].conj() @ image)
        bound = np.sum(np.abs(ch.g_ris_user[0]) * np.abs(ch.h_sat_ris))
        assert gain >= bound * (1.0 - 1e-8)

    def test_returned_point_feasible_for_every_architecture(self):
        ch = unit_channel(12, seed=9)
        for spec in (RisSpec(12, "single"), RisSpec(12, "full"),
                     RisSpec(12, "group", group_count=3)):
            image, _ = solve_phase_subproblem(ch, ProblemSpec(spec, 10.0))
            assert validate(surface(ch, image, spec), spec).is_feasible

    def test_never_below_warm_start_sum_rate(self):
        # without minimum rates the closed-form split is the even one
        alloc = NomaAllocation(10.0, 0.5, 0.5)
        for seed in range(8):
            ch = unit_channel(4, seed=seed, direct_scale=0.7)
            problem = ProblemSpec(RisSpec(4, "full"), 10.0)
            warm = random_feasible(RisSpec(4, "full"), seed + 100)[0]
            image, _ = solve_phase_subproblem(ch, problem, warm_image=warm @ ch.h_sat_ris)
            assert (sum_rate_at(ch, surface(ch, image, problem.ris_spec), alloc).sum_rate
                    >= sum_rate_at(ch, warm, alloc).sum_rate - 1e-12)

    @pytest.mark.parametrize("spec,direct", [
        (RisSpec(80, "single"), False),
        (RisSpec(80, "full"), False),
        (RisSpec(80, "group", group_count=16), True),
    ])
    def test_solved_phases_are_a_fixed_point(self, spec, direct):
        # every start stops where no exposed-point step raises its score, so
        # starting again from the built Phi finds nothing better
        ch = draw_realization(GeometryParams(), LinkBudgetParams(), 80, num_users=2,
                              include_direct=direct, rng=np.random.default_rng(3))
        problem = ProblemSpec(spec, power_dbm=10.0)
        image, trace = solve_phase_subproblem(ch, problem)
        warm = surface(ch, image, spec) @ ch.h_sat_ris
        again, trace_again = solve_phase_subproblem(ch, problem, warm_image=warm)
        assert trace_again[-1] == pytest.approx(trace[-1], rel=1e-12)
        assert validate(surface(ch, again, spec), spec).is_feasible

    def test_rejects_a_warm_image_of_another_length(self):
        ch = unit_channel(4)
        for warm in (np.ones(3, dtype=complex), np.eye(4, dtype=complex)):
            with pytest.raises(ValueError, match="shape"):
                solve_phase_subproblem(ch, ProblemSpec(RisSpec(4), 10.0), warm_image=warm)


def default_draw():
    """The realization `bdris solve-one` solves at the default configuration."""
    cfg = SimConfig()
    return draw_realization(geometry_from(cfg), link_budget_from(cfg), cfg.num_elements,
                            num_users=2, include_direct=cfg.include_direct,
                            rng=np.random.default_rng([cfg.base_seed, 0, 0]))


def any_spec(k, g):
    """Diagonal (g = 0), fully connected (g = 1) or g groups."""
    return (RisSpec(k, "single") if g == 0 else RisSpec(k, "full") if g == 1
            else RisSpec(k, "group", group_count=g))


class TestBcdSolve:
    def test_trace_rising_and_converged(self):
        for seed in range(6):
            ch = unit_channel(8, seed=seed, direct_scale=0.5)
            solution = bcd_solve(ch, ProblemSpec(RisSpec(8, "full"), 10.0))
            assert np.all(np.diff(solution.trace) > 0.0)
            assert solution.converged
            assert isinstance(solution, Solution)
            # the ascent's score is the sum rate the built Phi delivers
            assert solution.rates.sum_rate == pytest.approx(solution.trace[-1], rel=1e-12)

    def test_converged_reads_the_step_cap(self, monkeypatch):
        ch = unit_channel(8, seed=0, direct_scale=0.5)
        problem = ProblemSpec(RisSpec(8, "full"), 10.0)
        assert [f.name for f in fields(Solution)] == ["allocation", "image", "rates", "trace",
                                                      "h_sat_ris", "spec"]
        assert len(bcd_solve(ch, problem).trace) > 2   # the ascent keeps more than one step
        # the oracle reports one score, and converged is never passed in
        assert exact_oracle(ch, problem).converged
        monkeypatch.setattr(optimizer, "_PHASE_STEPS", 1)
        capped = bcd_solve(ch, problem)
        assert len(capped.trace) == 2
        assert not capped.converged

    def test_deterministic(self):
        ch = unit_channel(8, seed=2)
        problem = ProblemSpec(RisSpec(8, "full"), 10.0)
        a = bcd_solve(ch, problem)
        b = bcd_solve(ch, problem)
        assert a.rates.sum_rate == b.rates.sum_rate
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.phase, b.phase)

    def test_dominates_conventional_baseline(self):
        for seed in range(5):
            ch = unit_channel(16, seed=seed)
            cd = bcd_solve(ch, ProblemSpec(RisSpec(16, "full"), 10.0, scheme="CD_RIS"))
            bd = bcd_solve(ch, ProblemSpec(RisSpec(16, "full"), 10.0, scheme="BD_RIS"),
                           warm_image=cd.phase @ ch.h_sat_ris)
            assert bd.rates.sum_rate >= cd.rates.sum_rate - 1e-12

    def test_group_architecture_phases_feasible(self):
        ch = unit_channel(8, seed=6)
        spec = RisSpec(8, "group", "reflective", group_count=2)
        solution = bcd_solve(ch, ProblemSpec(spec, 10.0))
        assert validate(solution.phase, spec).is_feasible

    def test_infeasible_minimum_rates_propagate(self):
        ch = unit_channel(4, seed=7)
        problem = ProblemSpec(RisSpec(4, "full"), 10.0, min_rate_far=60.0)
        with pytest.raises(InfeasibleAllocationError):
            bcd_solve(ch, problem)

    @pytest.mark.parametrize("users", [1, 3])
    def test_requires_two_users(self, users, monkeypatch):
        ch, problem = unit_channel(4, users=users), ProblemSpec(RisSpec(4), 10.0)
        ascents = []

        def counted(*args, **kwargs):
            ascents.append(args)
            return solve_phase_subproblem(*args, **kwargs)

        monkeypatch.setattr(optimizer, "solve_phase_subproblem", counted)
        with pytest.raises(ValueError, match="exactly 2 users"):
            bcd_solve(ch, problem)
        assert ascents == []              # the check comes before any ascent
        if users == 3:                    # a lone user is the single-user bound's case
            with pytest.raises(ValueError, match="1 or 2 users, got 3"):
                solve_phase_subproblem(ch, problem)
        with pytest.raises(ValueError, match="exactly 2 users"):
            exact_oracle(ch, problem)
        with pytest.raises(ValueError, match="exactly 2 users"):
            solve_power_subproblem(ch, np.eye(4), problem)

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.7]),
           st.sampled_from([0.0, 0.3, 0.9]))
    def test_property_floors_met_and_never_below_warm_start(self, shape, seed, direct, reach):
        # the far floor is 0, or a share of the weak user's rate at the warm
        # start with all the power, so the warm start is feasible
        spec = any_spec(*shape)
        ch = unit_channel(spec.num_elements, seed=seed, direct_scale=direct)
        warm = random_feasible(spec, seed)[0]
        weak = min(abs(effective_channel(ch, warm, u)) ** 2 for u in range(2))
        floor = reach * np.log2(1.0 + 10.0 * weak / ch.noise_mw)
        problem = ProblemSpec(spec, 10.0, min_rate_far=floor)
        start = sum_rate_at(ch, warm, solve_power_subproblem(ch, warm, problem))
        solution = bcd_solve(ch, problem, warm_image=warm @ ch.h_sat_ris)
        assert validate(solution.phase, spec).is_feasible
        assert solution.rates.sum_rate >= start.sum_rate * (1.0 - 1e-12)
        assert solution.rates.rate_far >= floor * (1.0 - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.7]), st.booleans())
    def test_property_rates_of_the_image_are_those_of_phi(self, shape, seed, direct, floor):
        # a binding far floor: above 1 bit, which no even split reaches,
        # and within reach of the identity start with all the power
        spec = any_spec(*shape)
        ch = unit_channel(spec.num_elements, seed=seed, direct_scale=direct, noise=0.1)
        weak = min(abs(effective_channel(ch, identity(spec), u)) ** 2 for u in range(2))
        reach = 0.9 * np.log2(1.0 + 10.0 * weak / ch.noise_mw)
        assume(not floor or reach > 1.0)
        solution = bcd_solve(ch, ProblemSpec(spec, 10.0, min_rate_far=reach if floor else 0.0))
        assert (solution.allocation.alpha_far > 0.5) == floor
        assert_rates_of_phi(ch, solution)

    @pytest.mark.parametrize("spec", [RisSpec(8, "single"), RisSpec(8, "group", group_count=4)])
    def test_rejects_a_warm_start_with_an_infeasible_image(self, spec):
        # a fully connected solution's image breaks the finer block norms:
        # scoring from it would credit the finer surface with rates it
        # cannot reach
        for seed in range(5):
            ch = unit_channel(8, seed=seed)
            full = bcd_solve(ch, ProblemSpec(RisSpec(8, "full"), 10.0)).phase
            with pytest.raises(ValueError, match=spec.architecture):
                bcd_solve(ch, ProblemSpec(spec, 10.0), warm_image=full @ ch.h_sat_ris)
        # NaN meets no norm
        warm = np.where(np.arange(8) == 3, np.nan, ch.h_sat_ris)
        with pytest.raises(ValueError, match=spec.architecture):
            bcd_solve(ch, ProblemSpec(spec, 10.0), warm_image=warm)

    def test_only_the_warm_image_counts(self):
        # a rank-one warm matrix with a feasible image starts the solve from
        # that image, and the returned Phi is feasible all the same
        spec = RisSpec(8, "group", group_count=2)
        for seed in range(4):
            ch = unit_channel(8, seed=seed, direct_scale=0.7)
            h = ch.h_sat_ris
            image = random_feasible(spec, seed)[0] @ h
            warm = np.outer(image, h.conj()) / np.vdot(h, h)
            start = sum_rate_at(ch, warm, NomaAllocation(10.0, 0.5, 0.5)).sum_rate
            solution = bcd_solve(ch, ProblemSpec(spec, 10.0), warm_image=warm @ h)
            assert validate(solution.phase, spec, eps_feas=1e-12).is_feasible
            assert solution.rates.sum_rate >= start * (1.0 - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.7]), st.booleans())
    def test_property_every_iterate_is_feasible(self, shape, seed, direct, warm):
        # the warm image and every image the ascent steps to keep |v_b| = |h_b|
        spec = any_spec(*shape)
        ch = unit_channel(spec.num_elements, seed=seed, direct_scale=direct)
        start = random_feasible(spec, seed) if warm else None
        images = [ch.h_sat_ris if start is None else start[0] @ ch.h_sat_ris]
        exposed = optimizer._exposed

        def recording(*args):
            out = exposed(*args)
            if args[1] is not optimizer._ONE:      # the turn's unit phases are not images
                images.append(out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_exposed", recording)
            solution = bcd_solve(ch, ProblemSpec(spec, 10.0),
                                 warm_image=None if start is None else images[0])
        bs = spec.block_size
        norms = block_norms(ch.h_sat_ris, bs)
        assert len(images) > 2
        for v in images:
            v_norms = np.linalg.norm(v.reshape(v.shape[:-1] + (-1, bs)), axis=-1)
            assert np.all(np.abs(v_norms - norms) <= 1e-12 * norms)
        assert validate(solution.phase, spec, eps_feas=1e-12).is_feasible

    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.7]), st.booleans(),
           st.integers(-480, 480))
    def test_property_power_of_two_scaling_keeps_every_bit(self, shape, seed, direct, floor, k):
        # h 2^k and g 2^-k reach the same cascade, and inside _exposed's fast
        # range every rescaling is by a power of two: the pair's outcomes are
        # the same, bit for bit (past |k| ~ 500 _exposed rescales by |q_b|)
        spec = any_spec(*shape)
        ch = unit_channel(spec.num_elements, seed=seed, direct_scale=direct)
        problem = ProblemSpec(spec, 10.0)
        if floor:           # met at the identity, so reachable; it may bind
            far = optimizer._evaluate(ch, ch.h_sat_ris, problem)[1].rate_far
            problem = replace(problem, min_rate_far=far)
        scaled = replace(ch, h_sat_ris=ch.h_sat_ris * 2.0 ** k,
                         g_ris_user=ch.g_ris_user * 2.0 ** -k)
        pair, pair_scaled = solve_pair(ch, problem), solve_pair(scaled, problem)
        for scheme in SCHEMES:
            assert type(pair_scaled[scheme]) is type(pair[scheme])
            if isinstance(pair[scheme], Solution):
                assert pair_scaled[scheme].rates == pair[scheme].rates

    @pytest.mark.parametrize("floor", [1e-13, 1.6e-13])
    def test_binding_far_floor_reaches_the_oracle_on_the_default_draw(self, floor):
        # both floors bind at the optimum, and 1.6e-13 bps/Hz is out of reach
        # at the identity; the ascent must follow the split as it moves
        ch = default_draw()
        problem = ProblemSpec(RisSpec(80, "full"), 20.0, min_rate_far=floor)
        cd = bcd_solve(ch, replace(problem, scheme="CD_RIS"))
        bd = bcd_solve(ch, problem, warm_image=cd.phase @ ch.h_sat_ris)
        for solution, scheme in ((cd, "CD_RIS"), (bd, "BD_RIS")):
            assert solution.rates.rate_far >= floor * (1.0 - 1e-12)
            assert solution.allocation.alpha_far > 0.5
            reference = exact_oracle(ch, replace(problem, scheme=scheme)).rates.sum_rate
            assert solution.rates.sum_rate >= reference * (1.0 - 1e-8)

    def test_near_floor_below_1e_12_is_enforced(self):
        # every rate at the default link budget is below 1e-12 bps/Hz
        ch = default_draw()
        problem = ProblemSpec(RisSpec(80, "full"), 20.0, min_rate_near=9e-13)
        for scheme in ("CD_RIS", "BD_RIS"):
            with pytest.raises(InfeasibleAllocationError):
                bcd_solve(ch, replace(problem, scheme=scheme))
            with pytest.raises(InfeasibleAllocationError):
                exact_oracle(ch, replace(problem, scheme=scheme))


def sum_rate_at(ch, pr, alloc):
    h_effs = [effective_channel(ch, pr, u) for u in range(2)]
    s, w = order_users(h_effs)
    return achievable_rates(alloc, h_effs[s], h_effs[w], ch.noise_mw, (s, w))


def assert_rates_of_phi(ch, solution):
    """The rates a Solution takes from its image are those of the Phi it
    builds on request, in the same SIC order, to 1e-12 relative: Phi h
    matches the image only to rounding, and rates sit near 1e-13."""
    rates = sum_rate_at(ch, solution.phase, solution.allocation)
    assert solution.rates.sic_order == rates.sic_order
    for name in ("rate_near", "rate_far", "sum_rate"):
        assert getattr(solution.rates, name) == pytest.approx(getattr(rates, name),
                                                              rel=1e-12, abs=0.0)


def eigen_sweep_optimum(ch, problem):
    """Best sum rate of a fully connected surface without direct links or
    minimum rates, independent of the exposed-point map. The reachable gains
    (|g_1^H v|^2, |g_2^H v|^2), |v| = |h|, are |h|^2 times the joint numerical
    range of g_1 g_1^H and g_2 g_2^H, which is convex (Toeplitz-Hausdorff);
    the top eigenvectors of lam g_1 g_1^H + (1 - lam) g_2 g_2^H sweep its
    upper boundary, and the sum rate rises with both gains. The matrices
    act on span{g_1, g_2}, so the sweep runs on their 2 x 2 compressions."""
    basis = np.linalg.qr(ch.g_ris_user.T)[0]                 # K x 2, orthonormal
    g = ch.g_ris_user @ basis.conj()                          # rows (basis^H g_u)^T
    outer = np.einsum("ui,uj->uij", g, g.conj())

    def swept(lams):
        top = np.linalg.eigh(lams[:, None, None] * outer[0]
                             + (1.0 - lams)[:, None, None] * outer[1])[1][..., -1]
        gains = (np.linalg.norm(ch.h_sat_ris) ** 2 * np.abs(top @ g.conj().T) ** 2)
        # with no minimum rates the optimal split is alpha_far = 1/2
        return sum(sic_rates(problem.power_mw, 0.5, 0.5, gains.max(axis=1),
                             gains.min(axis=1), ch.noise_mw))

    lams, width = np.linspace(0.0, 1.0, 2001), 1e-3
    for _ in range(6):
        rates = swept(lams)
        centre = lams[np.argmax(rates)]
        lams = np.clip(np.linspace(centre - width, centre + width, 41), 0.0, 1.0)
        width /= 10.0
    return rates.max()


class TestExactOracle:
    def test_solver_matches_oracle_on_diagonal_k2(self):
        problem = ProblemSpec(RisSpec(2, "single"), power_dbm=10.0)
        for seed in range(6):
            ch = unit_channel(2, seed=seed, direct_scale=(0.0 if seed % 2 else 1.0))
            solved = bcd_solve(ch, problem)
            reference = exact_oracle(ch, problem)
            assert solved.rates.sum_rate >= reference.rates.sum_rate * (1.0 - 1e-8)

    def test_oracle_respects_minimum_rates(self):
        # the K=3 channel has direct links and a binding far floor; the
        # oracle must still reach the solver's sum rate there
        for ch, floor in ((unit_channel(2, seed=1), 0.5),
                          (unit_channel(3, seed=2, direct_scale=0.7, noise=10.0), 0.8)):
            problem = ProblemSpec(RisSpec(ch.num_elements, "single"), 10.0, min_rate_far=floor)
            solution = exact_oracle(ch, problem)
            assert solution.rates.rate_far >= floor - 1e-9
            solved = bcd_solve(ch, problem).rates.sum_rate
            assert solution.rates.sum_rate >= solved * (1.0 - 1e-10)

    def test_the_step_floor_costs_rounding_only(self, monkeypatch):
        # a direct-link draw whose direct links dominate the cascade: 20 more
        # zoom levels do not move the sum rate past rounding
        ch = draw_realization(GeometryParams(), LinkBudgetParams(), 2, 2, True,
                              np.random.default_rng([777, 2, 2]))
        problem = ProblemSpec(RisSpec(2, "single"), 20.0)
        at_the_floor = exact_oracle(ch, problem).rates.sum_rate
        monkeypatch.setattr(optimizer, "_SEARCH_MIN_STEP", 2.0 ** -60)
        finer = exact_oracle(ch, problem).rates.sum_rate
        assert abs(at_the_floor / finer - 1.0) <= 1e-15

    def test_oracle_infeasible_raises(self):
        ch = unit_channel(2, seed=1)
        problem = ProblemSpec(RisSpec(2, "single"), 10.0, min_rate_far=80.0)
        with pytest.raises(InfeasibleAllocationError):
            exact_oracle(ch, problem)

    def test_unitary_oracle_beats_diagonal_oracle(self):
        ch = unit_channel(2, seed=8)
        diag = exact_oracle(ch, ProblemSpec(RisSpec(2, "single"), 10.0))
        full = exact_oracle(ch, ProblemSpec(RisSpec(2, "full"), 10.0))
        assert full.rates.sum_rate >= diag.rates.sum_rate - 1e-9

    @pytest.mark.parametrize("seed", [1, 6, 10])
    def test_feasible_set_thinner_than_the_grid_is_found(self, seed):
        # a far-rate floor 1e-6 (in gain) below the best reachable weak-user
        # gain leaves a sliver of directions that misses every coarse grid
        # point; the oracle must still reach it, and do no worse than the
        # sliver's max-min point theta*
        ch = unit_channel(2, seed=seed, noise=0.1)
        a = ch.g_ris_user.conj() * ch.h_sat_ris      # y_u = a_u1 + a_u2 e^{j theta}
        theta = np.linspace(0.0, 2.0 * np.pi, 4097)
        for _ in range(4):
            gains = np.abs(a[:, :1] + a[:, 1:] * np.exp(1j * theta)) ** 2
            best, step = np.argmax(gains.min(axis=0)), theta[1] - theta[0]
            theta = np.linspace(theta[best] - step, theta[best] + step, 4097)
        g_s, g_w = gains[:, best].max(), gains[:, best].min()
        floor = np.log2(1.0 + 10.0 * g_w * (1.0 - 1e-6) / 0.1)
        problem = ProblemSpec(RisSpec(2, "single"), 10.0, min_rate_far=floor)
        solution = exact_oracle(ch, problem)
        assert validate(solution.phase, problem.ris_spec).is_feasible
        assert solution.rates.rate_far >= floor - 1e-12
        alpha_far = max(0.5, min_power_split_for_far_rate(floor, 10.0, g_w, 0.1))
        at_theta = sum(sic_rates(10.0, 1.0 - alpha_far, alpha_far, g_s, g_w, 0.1))
        assert solution.rates.sum_rate >= at_theta * (1.0 - 1e-12)

    @pytest.mark.parametrize("spec", [RisSpec(80, "single"), RisSpec(80, "full"),
                                      RisSpec(80, "group", group_count=16)])
    def test_any_k_and_block_size(self, spec):
        ch = draw_realization(GeometryParams(), LinkBudgetParams(), 80, num_users=2,
                              include_direct=True, rng=np.random.default_rng(5))
        solution = exact_oracle(ch, ProblemSpec(spec, 20.0))
        assert validate(solution.phase, spec).is_feasible
        assert solution.rates == sum_rate_at(ch, solution.phase, solution.allocation)

    def test_satellite_scale_agreement(self):
        # the K=8 draw has direct links about 1e5 times the cascade in
        # amplitude, both ways within the band; on the last three K=2 draws
        # the direct links dominate too, and a search that stops early ends a
        # few 1e-12 below the solver
        geom, lb = GeometryParams(), LinkBudgetParams()
        for k, seed, direct in ((2, 0, False), (2, 1, True), (2, 2, False),
                                (8, [777, 8, 4], True), (2, [12345, 301, 29], True),
                                (2, [12345, 301, 43], True), (2, [777, 2, 2], True)):
            problem = ProblemSpec(RisSpec(k, "single"), power_dbm=20.0)
            ch = draw_realization(geom, lb, k, num_users=2, include_direct=direct,
                                  rng=np.random.default_rng(seed))
            solved = bcd_solve(ch, problem).rates.sum_rate
            reference = exact_oracle(ch, problem).rates.sum_rate
            assert solved >= reference * (1.0 - 1e-8)
            assert reference >= solved * (1.0 - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(k, 0) for k in range(1, 9)] + [(k, 1) for k in range(2, 9)]
                           + [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)]),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.7]),
           st.sampled_from([1e-3, 0.1, 10.0]), st.floats(0.5, 1.0),
           st.sampled_from([0.0, 0.8]))
    def test_no_feasible_point_beats_the_oracle(self, shape, seed, direct, noise,
                                                alpha_far, min_rate_far):
        # a reference independent of the exposed-point map: any feasible
        # surface with any full-power split
        spec = any_spec(*shape)
        ch = unit_channel(spec.num_elements, seed=seed, direct_scale=direct, noise=noise)
        problem = ProblemSpec(spec, 10.0, min_rate_far=min_rate_far)
        point = sum_rate_at(ch, random_feasible(spec, seed)[0],
                            NomaAllocation(problem.power_mw, 1.0 - alpha_far, alpha_far))
        feasible = point.rate_far >= min_rate_far
        try:
            solution = exact_oracle(ch, problem)
        except InfeasibleAllocationError:
            assert not feasible
            return
        assert validate(solution.phase, spec).is_feasible
        assert solution.rates.rate_far >= min_rate_far - 1e-9
        if feasible:
            assert point.sum_rate <= solution.rates.sum_rate * (1.0 + 1e-12)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_full_surface_matches_the_eigen_sweep(self, k):
        problem = ProblemSpec(RisSpec(k, "full"), 10.0)
        for seed, noise in ((0, 1e-3), (1, 0.1), (2, 10.0), (3, 1.0)):
            ch = unit_channel(k, seed=seed, noise=noise)
            oracle = exact_oracle(ch, problem).rates.sum_rate
            assert oracle == pytest.approx(eigen_sweep_optimum(ch, problem), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k", [2, 3, 8, 80])
    def test_solver_matches_the_eigen_sweep_at_satellite_scale(self, k):
        # the full-K check of the solver: from the CD phases, as in solve_pair
        problem = ProblemSpec(RisSpec(k, "full"), power_dbm=10.0)
        for seed in range(6):
            ch = draw_realization(GeometryParams(), LinkBudgetParams(), k, num_users=2,
                                  rng=np.random.default_rng(seed))
            cd = bcd_solve(ch, replace(problem, scheme="CD_RIS"))
            solved = bcd_solve(ch, problem,
                               warm_image=cd.phase @ ch.h_sat_ris).rates.sum_rate
            assert solved == pytest.approx(eigen_sweep_optimum(ch, problem), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k,arch,direct", [(k, arch, direct) for k in (2, 8)
                                               for arch in ("single", "full")
                                               for direct in (0.0, 0.7)])
    def test_never_short_of_the_solver_at_unit_scale(self, k, arch, direct):
        problem = ProblemSpec(RisSpec(k, arch), 10.0)
        for seed, noise in ((0, 1e-3), (1, 0.1), (2, 10.0)):
            ch = unit_channel(k, seed=seed, direct_scale=direct, noise=noise)
            solved = bcd_solve(ch, problem).rates.sum_rate
            assert exact_oracle(ch, problem).rates.sum_rate >= solved * (1.0 - 1e-10)
