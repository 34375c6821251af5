"""
Beyond-diagonal RIS phase-response matrices.

A surface with K phase-response elements is described by one or more complex
matrices, constrained by the circuit topology (architecture) and the serving
mode:

- single-connected: diagonal matrices (each element tuned independently)
- fully-connected:  one dense matrix over all K elements
- group-connected:  block-diagonal, G blocks of K/G elements each

- reflective / transmissive: one matrix, unitary per block
- hybrid:       a reflect/transmit pair with Phi_r^H Phi_r + Phi_t^H Phi_t = I
- multi-sector: S matrices of size (K/S)x(K/S) with sum_s Phi_s^H Phi_s = I

Every combination reduces to the same algebraic statement: partition the
matrix dimension into blocks, stack the per-block sub-matrices of all slots
vertically, and require the stacked tall matrix to be an isometry (A^H A = I).
Single-connected is the block-size-1 case, where the isometry condition is
per-element unit modulus (or a per-element power split for hybrid and
multi-sector). Validation, random generation, and Frobenius-nearest
projection all work on one (block, slot*bs, bs) array of these stacks, with
one batched product, QR or SVD over all blocks and every block size alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ARCHITECTURES = ("single", "full", "group")
MODES = ("reflective", "transmissive", "hybrid", "multisector")

# Matrices stored dense; block structure is enforced by validation rather
# than a sparse representation, since K stays small at desk scale.


class DimensionError(ValueError):
    """Matrix shapes (or mode/slot structure) disagree with the RisSpec."""


@dataclass(frozen=True)
class RisSpec:
    """Architecture, mode, and element count of one surface.

    group_count is read only when architecture == 'group'; sector_count only
    when mode == 'multisector'. For multi-sector surfaces each sector matrix
    acts on a (K/S)-dimensional space and the group partition applies inside
    it, so group_count must divide K/S.
    """

    num_elements: int                 # K
    architecture: str = "full"
    mode: str = "reflective"
    group_count: int = 1              # G
    sector_count: int = 2             # S

    def __post_init__(self):
        if not isinstance(self.num_elements, int) or self.num_elements < 1:
            raise ValueError(f"num_elements must be a positive integer, got {self.num_elements}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "multisector":
            if self.sector_count < 2:
                raise ValueError("multisector mode needs sector_count >= 2")
            if self.num_elements % self.sector_count != 0:
                raise ValueError(
                    f"sector_count {self.sector_count} must divide num_elements {self.num_elements}"
                )
        if self.architecture == "group":
            if self.group_count < 1:
                raise ValueError("group_count must be >= 1")
            if self.matrix_dim % self.group_count != 0:
                raise ValueError(
                    f"group_count {self.group_count} must divide the matrix dimension {self.matrix_dim}"
                )

    @property
    def matrix_dim(self) -> int:
        """Side length of each stored matrix (K, or K/S for multi-sector)."""
        if self.mode == "multisector":
            return self.num_elements // self.sector_count
        return self.num_elements

    @property
    def stack_depth(self) -> int:
        """Number of matrix slots stacked into the isometry constraint."""
        if self.mode == "hybrid":
            return 2
        if self.mode == "multisector":
            return self.sector_count
        return 1

    @property
    def block_size(self) -> int:
        if self.architecture == "single":
            return 1
        if self.architecture == "full":
            return self.matrix_dim
        return self.matrix_dim // self.group_count

    @property
    def num_blocks(self) -> int:
        return self.matrix_dim // self.block_size


@dataclass(frozen=True)
class PhaseResponse:
    """The matrices realizing one surface configuration.

    matrices holds one slot for reflective/transmissive (Phi), two for hybrid
    (Phi_r, Phi_t), and S for multi-sector (Phi_1 .. Phi_S).
    """

    mode: str
    matrices: tuple

    @classmethod
    def reflective(cls, phi: np.ndarray) -> "PhaseResponse":
        return cls("reflective", (np.asarray(phi, dtype=complex),))

    @classmethod
    def transmissive(cls, phi: np.ndarray) -> "PhaseResponse":
        return cls("transmissive", (np.asarray(phi, dtype=complex),))

    @classmethod
    def hybrid(cls, phi_r: np.ndarray, phi_t: np.ndarray) -> "PhaseResponse":
        return cls("hybrid", (np.asarray(phi_r, dtype=complex),
                              np.asarray(phi_t, dtype=complex)))

    @classmethod
    def multisector(cls, mats) -> "PhaseResponse":
        return cls("multisector", tuple(np.asarray(m, dtype=complex) for m in mats))

    @property
    def phi(self) -> np.ndarray:
        return self.matrices[0]

    @property
    def phi_r(self) -> np.ndarray:
        return self.matrices[0]

    @property
    def phi_t(self) -> np.ndarray:
        return self.matrices[1]


@dataclass(frozen=True)
class FeasibilityReport:
    is_feasible: bool
    max_violation: float
    violated_constraint: str     # 'none' when feasible


def _check_shapes(pr: PhaseResponse, spec: RisSpec) -> None:
    if pr.mode != spec.mode:
        raise DimensionError(f"phase response mode {pr.mode!r} does not match spec mode {spec.mode!r}")
    if len(pr.matrices) != spec.stack_depth:
        raise DimensionError(
            f"expected {spec.stack_depth} matrix slot(s) for mode {spec.mode!r}, got {len(pr.matrices)}"
        )
    dim = spec.matrix_dim
    for i, m in enumerate(pr.matrices):
        if m.shape != (dim, dim):
            raise DimensionError(f"matrix slot {i} has shape {m.shape}, expected ({dim}, {dim})")


def _blocks(mats, spec: RisSpec) -> np.ndarray:
    """(num_blocks, depth*bs, bs): each diagonal block's slot sub-matrices,
    stacked vertically (slot 0 on top), from (depth, dim, dim) slots."""
    depth, nb, bs = spec.stack_depth, spec.num_blocks, spec.block_size
    b = np.arange(nb)
    # the block index b, split by a slice, moves to the front: (nb, depth, bs, bs)
    stacks = np.asarray(mats).reshape(depth, nb, bs, nb, bs)[:, b, :, b, :]
    return stacks.reshape(nb, depth * bs, bs)


def block_diagonal(stacks: np.ndarray, spec: RisSpec) -> np.ndarray:
    """(depth, dim, dim) slot matrices whose diagonal blocks are the given
    stacks and are zero elsewhere; the inverse of _blocks on block-diagonal
    slots."""
    depth, nb, bs, dim = spec.stack_depth, spec.num_blocks, spec.block_size, spec.matrix_dim
    b = np.arange(nb)
    out = np.zeros((depth, nb, bs, nb, bs), dtype=complex)
    out[:, b, :, b, :] = stacks.reshape(nb, depth, bs, bs)
    return out.reshape(depth, dim, dim)


def validate(pr: PhaseResponse, spec: RisSpec, eps_feas: float = 1e-9) -> FeasibilityReport:
    """Check a phase response against its architecture/mode constraint set.

    Parameters
    ----------
    pr : PhaseResponse
    spec : RisSpec
    eps_feas : float
        Largest tolerated absolute residual of any constraint equality.

    Returns
    -------
    FeasibilityReport
        max_violation is the worst entrywise residual across the off-block
        support check and all per-block stacked-isometry checks; at block
        size 1 the isometry residual is | sum_slots |phi_k|^2 - 1 |, i.e.
        unit modulus for one slot and the power split for hybrid/multi-sector.
        A non-finite entry gives max_violation = inf, charged to the
        constraint it sits in, and so does an isometry residual that
        overflows.

    Raises
    ------
    DimensionError
        If the mode or matrix shapes disagree with the spec.
    """
    if eps_feas <= 0:
        raise ValueError("eps_feas must be positive")
    _check_shapes(pr, spec)
    m = np.stack(pr.matrices)
    a = _blocks(m, spec)
    if not np.isfinite(m).all():       # NaN compares false and would pass every bound below
        label = "off_block_support" if np.isfinite(a).all() else "block_isometry"
        return FeasibilityReport(False, np.inf, label)

    off_viol = float(np.max(np.abs(m - block_diagonal(a, spec))))
    with np.errstate(over="ignore", invalid="ignore"):     # entries past ~1e154 overflow
        resid = np.abs(a.conj().transpose(0, 2, 1) @ a - np.eye(spec.block_size))
    iso_viol = float(np.max(np.nan_to_num(resid, nan=np.inf, posinf=np.inf)))

    max_violation = max(off_viol, iso_viol)
    if max_violation <= eps_feas:
        label = "none"
    elif off_viol >= iso_viol:
        label = "off_block_support"
    else:
        label = "block_isometry"
    return FeasibilityReport(max_violation <= eps_feas, max_violation, label)


def random_feasible(spec: RisSpec, seed) -> PhaseResponse:
    """Draw a random feasible phase response.

    Each block's slot sub-matrices are Haar unitaries (QR of a complex
    Gaussian; a uniform phase at block size 1) with column j scaled by c_sj,
    sum_s c_sj^2 = 1: c = 1 for one slot, (cos b, sin b) with b ~ U(0, pi/2)
    for hybrid, and the square root of a uniform point of the simplex for
    multi-sector. All blocks and slots are drawn in one batch.

    seed may be an integer or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    nb, bs, depth = spec.num_blocks, spec.block_size, spec.stack_depth
    shape = (nb, depth, bs, bs)
    gauss = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    q, r = np.linalg.qr(gauss)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if spec.mode == "hybrid":
        beta = rng.uniform(0.0, np.pi / 2.0, (nb, 1, bs))
        scale = np.concatenate([np.cos(beta), np.sin(beta)], axis=1)
    elif spec.mode == "multisector":
        e = rng.exponential(1.0, (nb, depth, bs))
        scale = np.sqrt(e / np.sum(e, axis=1, keepdims=True))
    else:
        scale = np.ones((nb, 1, bs))
    stacks = q * (d / np.abs(d) * scale)[:, :, None, :]
    return PhaseResponse(spec.mode, tuple(block_diagonal(stacks, spec)))


def project_feasible(m, spec: RisSpec) -> PhaseResponse:
    """Project arbitrary matrices onto the feasible set (Frobenius-nearest).

    Off-block entries are zeroed; each per-block stacked sub-matrix A is
    replaced by the polar factor U V^H of its thin SVD, a nearest isometry.
    It equals A (A^H A)^{-1/2} and is unique when A has full column rank (at
    block size 1, entrywise normalization of each stack). A nonzero
    rank-deficient A keeps LAPACK's singular basis on its null space, one
    deterministic choice among equally near isometries. An all-zero A,
    signed zeros included, maps to the stacked identity (I in the first slot,
    zeros below). Accepts a PhaseResponse, a single matrix, or a sequence of
    matrices.
    """
    if isinstance(m, PhaseResponse):
        mats_in = m.matrices
    elif isinstance(m, np.ndarray):
        mats_in = (m,)
    else:
        mats_in = tuple(m)
    mats_in = tuple(np.asarray(x, dtype=complex) for x in mats_in)
    _check_shapes(PhaseResponse(spec.mode, mats_in), spec)
    a = _blocks(np.stack(mats_in), spec)
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    iso = u @ vh
    # the SVD of a zero stack follows the signs of its zeros; pin it instead
    iso[~a.any(axis=(1, 2))] = np.eye(*a.shape[1:])
    return PhaseResponse(spec.mode, tuple(block_diagonal(iso, spec)))


def hardware_complexity(spec: RisSpec):
    """Tunable impedance-component count of the surface.

    Single-connected: K (reflective/transmissive), (3/2)K (hybrid),
    (S+1)K/2 (multi-sector). Fully-connected: (K+1)K/2, any mode.
    Group-connected: (K/G+1)K/2, any mode.

    Returns a builtin int when the count is integral; otherwise the exact
    Fraction is returned as the flagged non-integral case (e.g. hybrid
    single-connected with odd K).
    """
    k = spec.num_elements
    if spec.architecture == "single":
        if spec.mode == "hybrid":
            count = Fraction(3, 2) * k
        elif spec.mode == "multisector":
            count = Fraction(spec.sector_count + 1) * k / 2
        else:
            count = Fraction(k)
    elif spec.architecture == "full":
        count = Fraction(k + 1) * k / 2
    else:
        count = (Fraction(k, spec.group_count) + 1) * k / 2
    return int(count) if count.denominator == 1 else count
