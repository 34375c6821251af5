"""Feasible-set validation, random generation, projection, and the
impedance-component counts."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from bdris.surfaces import (ARCHITECTURES, DimensionError, MODES, RisSpec,
                            hardware_complexity, project_feasible, random_feasible,
                            validate)


def valid_specs(k_values=(2, 4, 8, 16)):
    """Every constructible (architecture, mode, K, G, S) combination: every
    divisor G of the matrix dimension and every divisor S >= 2 of K."""
    specs = []
    for k in k_values:
        for mode in MODES:
            sectors = [2] if mode != "multisector" else [s for s in range(2, k + 1) if k % s == 0]
            for s in sectors:
                dim = k // s if mode == "multisector" else k
                specs += [RisSpec(k, "single", mode, 1, s), RisSpec(k, "full", mode, 1, s)]
                specs += [RisSpec(k, "group", mode, g, s)
                          for g in range(1, dim + 1) if dim % g == 0]
    return specs


def gaussian(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def signed_zeros(shape, rng):
    z = np.empty(shape, dtype=complex)
    z.real = np.copysign(0.0, rng.standard_normal(shape))
    z.imag = np.copysign(0.0, rng.standard_normal(shape))
    return z


def largest_gap(a, b):
    return np.max(np.abs(a - b))


def random_slots(spec, rng):
    """Unstructured complex matrices with the slot count of the spec's mode."""
    dim = spec.matrix_dim
    return [gaussian((dim, dim), rng) for _ in range(spec.stack_depth)]


class TestRisSpec:
    def test_rejects_bad_element_count(self):
        with pytest.raises(ValueError):
            RisSpec(0)
        with pytest.raises(ValueError):
            RisSpec(-4)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            RisSpec(4, architecture="ring")
        with pytest.raises(ValueError):
            RisSpec(4, mode="absorptive")

    def test_group_divisibility(self):
        with pytest.raises(ValueError):
            RisSpec(6, "group", group_count=4)
        with pytest.raises(ValueError, match="group_count must be >= 1"):
            RisSpec(4, "group", group_count=0)
        assert RisSpec(6, "group", group_count=3).block_size == 2

    def test_sector_divisibility(self):
        with pytest.raises(ValueError):
            RisSpec(7, "full", "multisector", sector_count=2)
        with pytest.raises(ValueError):
            RisSpec(8, "full", "multisector", sector_count=1)

    def test_group_must_divide_sector_dimension(self):
        # sectors shrink the matrix to K/S, and the group partition lives there
        with pytest.raises(ValueError):
            RisSpec(12, "group", "multisector", group_count=4, sector_count=2)
        spec = RisSpec(12, "group", "multisector", group_count=3, sector_count=2)
        assert spec.matrix_dim == 6 and spec.block_size == 2

    def test_derived_dimensions(self):
        spec = RisSpec(16, "group", "hybrid", group_count=4)
        assert spec.matrix_dim == 16
        assert spec.stack_depth == 2
        assert spec.block_size == 4
        assert spec.num_blocks == 4
        ms = RisSpec(16, "single", "multisector", sector_count=4)
        assert ms.matrix_dim == 4 and ms.stack_depth == 4 and ms.block_size == 1


class TestValidate:
    def test_random_feasible_passes_for_every_combination(self):
        rng = np.random.default_rng(1)
        for spec in valid_specs():
            pr = random_feasible(spec, rng)
            report = validate(pr, spec)
            assert report.is_feasible, (spec, report)
            assert report.violated_constraint == "none"

    def test_identity_is_feasible_for_unitary_modes(self):
        for arch in ARCHITECTURES:
            spec = RisSpec(8, arch, "reflective")
            assert validate(np.eye(8), spec).is_feasible

    def test_detects_off_block_support(self):
        spec = RisSpec(4, "single", "reflective")
        phi = np.eye(4, dtype=complex)
        phi[0, 1] = 0.3
        report = validate(phi, spec)
        assert not report.is_feasible
        assert report.violated_constraint == "off_block_support"
        assert report.max_violation == pytest.approx(0.3)

    def test_detects_modulus_violation(self):
        spec = RisSpec(4, "single", "reflective")
        phi = np.diag([1.0, 1.0, 0.5, 1.0]).astype(complex)
        report = validate(phi, spec)
        assert not report.is_feasible
        assert report.violated_constraint == "block_isometry"
        assert report.max_violation == pytest.approx(0.75)   # |0.25 - 1|

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200 + 1e200j], ids=["nan", "inf", "huge"])
    @pytest.mark.parametrize("arch,groups", [("full", 1), ("group", 4), ("single", 1)])
    def test_non_finite_or_overflowing_entry_is_infeasible(self, arch, groups, bad):
        # NaN compares false, so it must not slip past the bound; a huge
        # finite entry overflows the residual, which must read inf, not NaN
        spec = RisSpec(8, arch, "reflective", groups)
        phi = np.eye(8, dtype=complex)
        phi[1, 1] = bad
        report = validate(phi, spec)
        assert not report.is_feasible
        assert report.max_violation == np.inf
        assert report.violated_constraint == "block_isometry"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_off_block_entry_is_an_off_block_violation(self, bad):
        spec = RisSpec(8, "group", "hybrid", 4)
        pr = random_feasible(spec, 4)
        pr[1, 0, 7] = bad                 # slot 1 is Phi_t
        report = validate(pr, spec)
        assert not report.is_feasible
        assert report.max_violation == np.inf
        assert report.violated_constraint == "off_block_support"

    def test_detects_nonunitary_block(self):
        spec = RisSpec(4, "full", "reflective")
        report = validate(1.01 * np.eye(4), spec)
        assert not report.is_feasible
        assert report.violated_constraint == "block_isometry"

    def test_hybrid_energy_conservation(self):
        rng = np.random.default_rng(7)
        for spec in (RisSpec(8, "full", "hybrid"), RisSpec(8, "group", "hybrid", 2),
                     RisSpec(8, "single", "hybrid")):
            pr = random_feasible(spec, rng)
            for _ in range(5):
                x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                energy = (np.linalg.norm(pr[0] @ x) ** 2
                          + np.linalg.norm(pr[1] @ x) ** 2)
                assert energy == pytest.approx(np.linalg.norm(x) ** 2, abs=1e-9)

    def test_multisector_power_conservation(self):
        rng = np.random.default_rng(8)
        spec = RisSpec(12, "group", "multisector", group_count=2, sector_count=3)
        pr = random_feasible(spec, rng)
        dim = spec.matrix_dim
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        energy = sum(np.linalg.norm(m @ x) ** 2 for m in pr)
        assert energy == pytest.approx(np.linalg.norm(x) ** 2, abs=1e-9)

    def test_shape_mismatch_raises(self):
        spec = RisSpec(4, "full", "reflective")
        with pytest.raises(DimensionError):
            validate(np.eye(5), spec)
        with pytest.raises(DimensionError):
            validate(np.stack([np.eye(4), np.eye(4)]), spec)

    @pytest.mark.parametrize("mode", ["reflective", "transmissive"])
    def test_one_slot_modes_take_a_bare_matrix(self, mode):
        spec = RisSpec(4, "full", mode)
        phi = random_feasible(spec, 9)[0]
        assert validate(phi, spec).is_feasible
        assert validate(phi, spec) == validate(phi[None], spec)
        raw = gaussian((4, 4), np.random.default_rng(9))
        assert np.array_equal(project_feasible(raw, spec), project_feasible(raw[None], spec))

    @pytest.mark.parametrize("check", [validate, project_feasible])
    @pytest.mark.parametrize("spec", [RisSpec(4, "full", "hybrid"),
                                      RisSpec(4, "full", "multisector", sector_count=2)],
                             ids=["hybrid", "multisector"])
    def test_many_slot_modes_reject_a_bare_matrix(self, check, spec):
        dim = spec.matrix_dim
        with pytest.raises(DimensionError, match="expected"):
            check(np.eye(dim), spec)
        with pytest.raises(DimensionError):
            check(np.eye(dim)[None], spec)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            validate(np.eye(2), RisSpec(2), eps_feas=0.0)


class TestRandomFeasible:
    def test_integer_seed_reproducible(self):
        spec = RisSpec(8, "group", "reflective", group_count=2)
        a = random_feasible(spec, 123)
        b = random_feasible(spec, 123)
        assert np.array_equal(a, b)

    def test_diagonal_architecture_stays_diagonal(self):
        pr = random_feasible(RisSpec(6, "single", "hybrid"), 3)
        for m in pr:
            assert np.count_nonzero(m - np.diag(np.diagonal(m))) == 0

    def test_draws_differ_across_seeds(self):
        spec = RisSpec(4, "full", "reflective")
        assert not np.allclose(random_feasible(spec, 0), random_feasible(spec, 1))


class TestProjectFeasible:
    @pytest.mark.parametrize("spec", valid_specs(k_values=(4, 12)),
                             ids=lambda s: f"{s.architecture}-{s.mode}-K{s.num_elements}"
                                           f"-G{s.group_count}-S{s.sector_count}")
    def test_projection_feasible_and_idempotent(self, spec):
        rng = np.random.default_rng(11)
        pr = project_feasible(random_slots(spec, rng), spec)
        assert validate(pr, spec).is_feasible
        again = project_feasible(pr, spec)
        assert np.max(np.abs(pr - again)) < 1e-10

    def test_feasible_point_is_fixed(self):
        spec = RisSpec(6, "group", "reflective", group_count=3)
        pr = random_feasible(spec, 5)
        proj = project_feasible(pr, spec)
        assert np.max(np.abs(proj - pr)) < 1e-12

    def test_diagonal_normalization(self):
        spec = RisSpec(3, "single", "reflective")
        pr = project_feasible(np.diag([2.0, -0.5j, 3 + 4j]), spec)
        d = np.diagonal(pr[0])
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(-1j)
        assert d[2] == pytest.approx((3 + 4j) / 5)

    def test_zero_input_maps_to_identity_alignment(self):
        spec = RisSpec(3, "single", "reflective")
        pr = project_feasible(np.zeros((3, 3)), spec)
        assert np.allclose(np.diagonal(pr[0]), 1.0)
        spec_full = RisSpec(3, "full", "reflective")
        pr_full = project_feasible(np.zeros((3, 3)), spec_full)
        assert validate(pr_full, spec_full).is_feasible

    def test_nearest_unitary_matches_svd(self):
        rng = np.random.default_rng(17)
        spec = RisSpec(5, "full", "reflective")
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u, _, vh = np.linalg.svd(a)
        assert np.max(np.abs(project_feasible(a, spec)[0] - u @ vh)) < 1e-12

    def test_rank_deficient_input_projects_deterministically(self):
        spec = RisSpec(4, "full", "reflective")
        a = np.zeros((4, 4), dtype=complex)
        a[:, 0] = [1, 1, 0, 0]                      # rank one
        pr1 = project_feasible(a, spec)
        pr2 = project_feasible(a.copy(), spec)
        assert validate(pr1, spec).is_feasible
        assert np.array_equal(pr1, pr2)

    def test_projection_is_frobenius_nearest_on_unitary_set(self):
        # compare against a coarse search over rotations of the polar factor
        rng = np.random.default_rng(23)
        spec = RisSpec(3, "full", "reflective")
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        proj = project_feasible(a, spec)[0]
        d_proj = np.linalg.norm(a - proj)
        for seed in range(20):
            other = random_feasible(spec, seed)[0]
            assert d_proj <= np.linalg.norm(a - other) + 1e-12


    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(valid_specs(range(1, 13))), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(["generic", "zero", "rank_deficient"]),
                    min_size=12, max_size=12))
    def test_property_nearest_idempotent_and_zero_stacks_pinned(self, spec, seed, kinds):
        # each block's stack is generic, all signed zeros, or of rank 1 .. bs-1
        # (all zeros at block size 1); off-block entries are noise
        rng = np.random.default_rng(seed)
        depth, bs, dim = spec.stack_depth, spec.block_size, spec.matrix_dim
        mats = random_slots(spec, rng)
        zero = []
        for b, kind in enumerate(kinds[:spec.num_blocks]):
            if kind == "rank_deficient" and bs > 1:
                rank = rng.integers(1, bs)
                stack = gaussian((depth * bs, rank), rng) @ gaussian((rank, bs), rng)
            elif kind != "generic":
                stack = signed_zeros((depth * bs, bs), rng)
                zero.append(b)
            else:
                continue
            for s in range(depth):
                mats[s][b * bs:(b + 1) * bs, b * bs:(b + 1) * bs] = stack[s * bs:(s + 1) * bs]

        pr = project_feasible(mats, spec)
        assert validate(pr, spec, eps_feas=1e-9).is_feasible
        assert largest_gap(project_feasible(pr, spec), pr) <= 1e-10
        for b in zero:
            sl = slice(b * bs, (b + 1) * bs)
            assert np.array_equal(pr[0][sl, sl], np.eye(bs))
            assert all(not m[sl, sl].any() for m in pr[1:])

        def distance(other):
            return np.sqrt(sum(np.linalg.norm(x - y) ** 2 for x, y in zip(mats, other)))

        nearest = distance(pr)
        for _ in range(3):
            draw = random_feasible(spec, rng)
            assert largest_gap(project_feasible(draw, spec), draw) <= 1e-12
            assert nearest <= distance(draw) + 1e-12 * dim


class TestHardwareComplexity:
    def test_reported_reference_counts(self):
        assert hardware_complexity(RisSpec(80, "full", "reflective")) == 3240
        assert hardware_complexity(RisSpec(80, "single", "reflective")) == 80

    def test_single_connected_by_mode(self):
        assert hardware_complexity(RisSpec(80, "single", "transmissive")) == 80
        assert hardware_complexity(RisSpec(80, "single", "hybrid")) == 120
        assert hardware_complexity(RisSpec(60, "single", "multisector", sector_count=3)) == 120
        assert hardware_complexity(RisSpec(80, "single", "multisector", sector_count=4)) == 200

    def test_odd_counts_return_exact_fractions(self):
        count = hardware_complexity(RisSpec(81, "single", "hybrid"))
        assert isinstance(count, Fraction)
        assert count == Fraction(243, 2)
        ms = hardware_complexity(RisSpec(9, "single", "multisector", sector_count=3))
        assert ms == 18 and isinstance(ms, int)

    def test_full_and_group_formulas(self):
        for k in (2, 8, 80):
            assert hardware_complexity(RisSpec(k, "full", "hybrid")) == (k + 1) * k // 2
        spec = RisSpec(8, "group", "reflective", group_count=4)
        assert hardware_complexity(spec) == (8 // 4 + 1) * 8 // 2   # 12

    def test_group_of_one_matches_fully_connected(self):
        for k in (2, 4, 8, 16, 80):
            for mode in MODES:
                if mode == "multisector" and k % 2 != 0:
                    continue
                full = hardware_complexity(RisSpec(k, "full", mode))
                grouped = hardware_complexity(RisSpec(k, "group", mode, group_count=1))
                assert full == grouped
