"""
Sum-rate maximization over power split and surface phases.

Block coordinate descent alternates a closed-form power split with an
exposed-point phase update:

- Power subproblem: with the SIC ordering fixed by the current phases, the
  two-user sum rate is non-increasing in alpha_far on [0.5, 1], so the
  optimum sits at the smallest feasible split alpha_far = max(0.5,
  alpha_far*), alpha_near = 1 - alpha_far, using full power.
- Phase subproblem: ascent on the weighted effective-gain surrogate
  f(Phi) = sum_u w_u |h_d,u + g_u^H Phi h|^2, with weights equal to the rate
  sensitivities dR_u/d|h_eff,u|^2 at the current operating point. With a
  single satellite feed Phi enters the objective only through its image
  v = Phi h, and the feasible images are exactly the vectors with
  |v_b| = |h_b| per block (bs = 1 is the diagonal surface). The iterate is
  v for every architecture. Each step is the exposed point
  v_b = |h_b| q_b/|q_b| of the gradient q = sum_u w_u e_u g_u (the surrogate's
  gradient in Phi is q h^H), followed by an exact line search over the
  global phase (all feasible sets are closed under scalar phase rotation).
  f is convex with weights >= 0, so f(x') >= f(x) + Re<grad, x' - x>, and
  the exposed point maximizes that linear minorant over the feasible set: no
  other feasible point, and so no projected step of any size, does better on
  it. The ascent therefore stops the first time the exposed point fails to
  raise f. Phi is built once per phase solve, by a block unitary that maps
  the warm-start image to the final one.

The conventional-surface baseline (CD_RIS) is the same solver restricted to
the single-connected diagonal set. bcd_solve starts from the phases it is
given, or from the identity; warm-starting the beyond-diagonal run from the
converged baseline phases (experiments.solve_pair) makes its final sum rate
dominate the baseline on every realization, since diagonal unit-modulus
matrices are feasible for every architecture and neither subproblem ever
returns a worse point than its warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, db_to_linear, effective_channel
from .noma import (NomaAllocation, RateResult, achievable_rates,
                   min_power_split_for_far_rate, order_users, sic_rate_gradient,
                   sic_rates)
# perfbench/spans.py wraps optimizer.project_feasible by name; nothing here calls it
from .surfaces import PhaseResponse, RisSpec, project_feasible  # noqa: F401

SCHEMES = ("BD_RIS", "CD_RIS")

_IMPROVE_MARGIN = 1e-12
_PHASE_INNER_ITERS = 100

_ORACLE_MAX_CANDIDATES = 2_000_000
_ORACLE_ALPHA_STEP = 1e-3


class InfeasibleAllocationError(RuntimeError):
    """No power split satisfies the minimum-rate constraints (an outage)."""


@dataclass(frozen=True)
class ProblemSpec:
    ris_spec: RisSpec
    power_dbm: float = 20.0
    min_rate_near: float = 0.0    # bps/Hz
    min_rate_far: float = 0.0     # bps/Hz
    scheme: str = "BD_RIS"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.min_rate_near < 0 or self.min_rate_far < 0:
            raise ValueError("minimum rates must be >= 0")
        if not np.isfinite(self.power_dbm):
            raise ValueError("power_dbm must be finite")
        if self.ris_spec.mode != "reflective":
            raise ValueError("the sum-rate solver supports reflective surfaces only")

    @property
    def power_mw(self) -> float:
        return db_to_linear(self.power_dbm)

    @property
    def effective_spec(self) -> RisSpec:
        """Feasible set actually optimized: the configured architecture for
        BD_RIS, the single-connected diagonal set for CD_RIS."""
        if self.scheme == "CD_RIS":
            return RisSpec(self.ris_spec.num_elements, "single", "reflective")
        return self.ris_spec


@dataclass(frozen=True)
class BcdSettings:
    """Stopping rule of bcd_solve's outer loop (config keys bcd_max_iters
    and bcd_rate_tol): at most max_outer_iters iterations, stopping early
    once one raises the sum rate by less than rate_tolerance."""

    max_outer_iters: int = 50
    rate_tolerance: float = 1e-4     # bps/Hz

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.rate_tolerance <= 0:
            raise ValueError("rate_tolerance must be positive")


@dataclass(frozen=True)
class Solution:
    allocation: NomaAllocation
    phase: PhaseResponse
    rates: RateResult
    trace: tuple          # per-outer-iteration sum rate, non-decreasing
    converged: bool


# ---------------------------------------------------------------------------
# internal phase-ascent machinery (raw arrays, no PhaseResponse wrapping)
# ---------------------------------------------------------------------------


def _plane(x: np.ndarray, v: np.ndarray):
    """Per row: e1 = x/|x|, e2 = the unit part of v orthogonal to e1, and the
    coordinates (beta, n) of v in {e1, e2}, n real. Zero vectors give zero
    basis vectors."""
    xn = np.linalg.norm(x, axis=1)
    e1 = np.divide(x, xn[:, None], out=np.zeros_like(x), where=xn[:, None] > 0.0)
    beta = np.sum(e1.conj() * v, axis=1)
    perp = v - beta[:, None] * e1
    n = np.linalg.norm(perp, axis=1)
    e2 = np.divide(perp, n[:, None], out=np.zeros_like(perp), where=n[:, None] > 0.0)
    return e1, e2, beta, n


def _exposed(q: np.ndarray, h_norms: np.ndarray, fallback: np.ndarray,
             bs: int) -> np.ndarray:
    """The feasible image that maximizes Re<q, v>: v_b = |h_b| q_b/|q_b|.

    It is the image of the projection of q h^H onto the feasible set, and so
    the limit of every projected gradient step as the step size grows (for
    bs = 1, v_k = |h_k| e^{j arg q_k}). A block with q_b = 0 keeps its
    fallback image.
    """
    qb = q.reshape(-1, bs)
    qn = np.linalg.norm(qb, axis=1)
    if not 1e-150 < qn.max() < 1e150 and np.any(qb):
        # only the directions count: rescale so that |q_b|^2 neither under-
        # nor overflows, part by part (complex division by a subnormal overflows)
        top = np.max(np.abs(qb))
        qb = qb.real / top + 1j * (qb.imag / top)
        qn = np.linalg.norm(qb, axis=1)
    moved = qn > 0.0
    scale = np.divide(h_norms, qn, out=np.zeros_like(qn), where=moved)
    return np.where(moved[:, None], qb * scale[:, None], fallback.reshape(-1, bs)).ravel()


def _surface_with_image(base: np.ndarray, w: np.ndarray, v: np.ndarray,
                        bs: int) -> np.ndarray:
    """U base for a block unitary U with U w = v, where w = base h.

    Per block, U is the global phase z = w_b^H v_b/|w_b^H v_b| followed by the
    rotation R that takes z w_b to v_b inside span{w_b, v_b}. Taking the
    phase out first keeps R - I as small as the change of direction, so U
    stays unitary to rounding even when v_b is nearly parallel to w_b.
    Blocks whose image did not move keep their rows of base exactly.
    """
    k = base.shape[0]
    wb = w.reshape(-1, bs)
    vb = v.reshape(-1, bs)
    rows = base.reshape(-1, bs, k)
    c = np.sum(wb.conj() * vb, axis=1)
    cmag = np.abs(c)
    z = np.divide(c, cmag, out=np.ones_like(c), where=cmag > 0.0)
    e1, e2, a, n = _plane(z[:, None] * wb, vb)
    r = np.hypot(np.abs(a), n)
    cos = np.divide(a, r, out=np.ones_like(a), where=r > 0.0)
    sin = np.divide(n, r, out=np.zeros_like(n), where=r > 0.0)
    basis = np.stack([e1, e2], axis=2)                          # (blocks, bs, 2)
    rot = np.stack([np.stack([cos - 1.0, -sin], axis=1),        # R - I
                    np.stack([sin, np.conj(cos) - 1.0], axis=1)], axis=1)
    coords = basis.conj().transpose(0, 2, 1) @ rows             # (blocks, 2, k)
    turned = z[:, None, None] * (rows + (basis @ rot) @ coords)
    moved = np.any(vb != wb, axis=1)
    return np.where(moved[:, None, None], turned, rows).reshape(k, k)


class _Objective:
    """Effective gains and, at a fixed allocation, the sum rate and its gradient."""

    def __init__(self, ch: ChannelRealization, alloc: NomaAllocation):
        self.hd = ch.h_direct
        self.h = ch.h_sat_ris
        self.g = ch.g_ris_user
        self.gc = ch.g_ris_user.conj()
        self.noise = ch.noise_mw
        self.p = alloc.total_power_mw
        self.an = alloc.alpha_near
        self.af = alloc.alpha_far

    def eff(self, v: np.ndarray) -> np.ndarray:
        """Effective channels h_d,u + g_u^H v of the image v = Phi h."""
        return self.hd + self.gc @ v

    def sum_rate_of_gains(self, gains: np.ndarray):
        """Sum rate per row of gains; a lone user is both strong and weak."""
        r_n, r_f = sic_rates(self.p, self.an, self.af, np.max(gains, axis=-1),
                             np.min(gains, axis=-1), self.noise)
        return r_n + r_f

    def sum_rate(self, e: np.ndarray) -> float:
        return float(self.sum_rate_of_gains(np.abs(e) ** 2))

    def rate_weights(self, gains: np.ndarray) -> np.ndarray:
        """dR/dgamma_u per user; a lone user is both strong and weak."""
        strong = int(np.argmax(gains))     # ties go to the lower index, as in order_users
        weak = len(gains) - 1 - strong
        d_strong, d_weak = sic_rate_gradient(self.p, self.an, self.af, gains[strong],
                                             gains[weak], self.noise)
        w = np.zeros(len(gains))
        w[strong] += d_strong
        w[weak] += d_weak
        return w


def _align_global_phase(v: np.ndarray, e: np.ndarray, obj: _Objective,
                        weights: np.ndarray):
    """Exact maximizer of the surrogate over v -> e^{j delta} v."""
    z = np.sum(weights * np.conj(obj.hd) * (e - obj.hd))
    mag = abs(z)
    if mag == 0.0:
        return v, e
    phase = complex(z.real / mag, -z.imag / mag)     # by parts: |z| may be subnormal
    return v * phase, obj.hd + (e - obj.hd) * phase


def _ascend(v: np.ndarray, obj: _Objective, weights: np.ndarray, h_norms: np.ndarray,
            bs: int):
    """Exposed-point ascent from the image v; returns the image with the best
    sum rate along the path (the surrogate is non-decreasing along it)."""
    v, e = _align_global_phase(v, obj.eff(v), obj, weights)
    f = float(np.sum(weights * np.abs(e) ** 2))
    best_rate = obj.sum_rate(e)
    best_v = v
    for _ in range(_PHASE_INNER_ITERS):
        q = (weights * e) @ obj.g      # gradient of the surrogate is q h^H
        cand = _exposed(q, h_norms, v, bs)
        cand, e_cand = _align_global_phase(cand, obj.eff(cand), obj, weights)
        f_cand = float(np.sum(weights * np.abs(e_cand) ** 2))
        if not f_cand > f * (1.0 + _IMPROVE_MARGIN):
            break
        v, e, f = cand, e_cand, f_cand
        rate = obj.sum_rate(e)
        if rate > best_rate:
            best_rate = rate
            best_v = v
    return best_v, best_rate


def _coarse_grid_start(obj: _Objective, k: int, points: int = 8) -> np.ndarray:
    """Image of the best point of a coarse per-element phase grid (diagonal, small K)."""
    flat = _diag_candidates(k, points)
    e = obj.hd[None, :] + flat @ (obj.gc * obj.h[None, :]).T
    rates = obj.sum_rate_of_gains(np.abs(e) ** 2)
    return flat[int(np.argmax(rates))] * obj.h


def solve_phase_subproblem(ch: ChannelRealization, alloc: NomaAllocation,
                           problem: ProblemSpec,
                           warm_start_pr: PhaseResponse | None = None) -> PhaseResponse:
    """Improve the surface phases at a fixed power allocation.

    Runs the exposed-point ascent on the weighted effective-gain surrogate
    (weights evaluated at the warm-start gains) over the image v = Phi h.
    Ascents run from the warm start (the identity when None), from one start
    per user, v = _exposed(g_u), that steers the surface to that user alone,
    and (diagonal sets with K <= 3) from a coarse-grid seed. Phi is built
    once, from the image with the best achieved sum rate, so the result is
    never worse than the warm start.
    """
    spec = problem.effective_spec
    bs = spec.block_size
    obj = _Objective(ch, alloc)
    if warm_start_pr is not None:
        if warm_start_pr.mode != "reflective":
            raise ValueError("warm start must be a reflective phase response")
        base = warm_start_pr.phi
    else:
        base = np.eye(spec.num_elements, dtype=complex)
    warm = base @ obj.h
    h_norms = np.linalg.norm(obj.h.reshape(-1, bs), axis=1)

    e_warm = obj.eff(warm)
    weights = obj.rate_weights(np.abs(e_warm) ** 2)

    candidates = [warm] + [_exposed(g_u, h_norms, obj.h, bs) for g_u in obj.g]
    if bs == 1 and spec.num_elements <= 3:
        candidates.append(_coarse_grid_start(obj, spec.num_elements))

    best_v, best_rate = warm, obj.sum_rate(e_warm)
    for cand in candidates:
        raw_rate = obj.sum_rate(obj.eff(cand))
        if raw_rate > best_rate:
            best_v, best_rate = cand, raw_rate
        v, rate = _ascend(cand, obj, weights, h_norms, bs)
        if rate > best_rate:
            best_v, best_rate = v, rate
    return PhaseResponse.reflective(_surface_with_image(base, warm, best_v, bs))


def solve_power_subproblem(ch: ChannelRealization, pr: PhaseResponse,
                           problem: ProblemSpec) -> NomaAllocation:
    """Optimal full-power split for fixed phases.

    alpha_far = max(0.5, alpha_far*), alpha_near = 1 - alpha_far: the sum
    rate is non-increasing in alpha_far once the far user's minimum rate
    holds, so the smallest ordered split is optimal (gains tie -> the sum
    rate is split-invariant and the same boundary is returned).

    Raises InfeasibleAllocationError when no split meets both minimum rates.
    """
    if ch.num_users != 2:
        raise ValueError("the power subproblem is defined for exactly 2 users")
    h_effs = [effective_channel(ch, pr, u) for u in range(2)]
    strong, weak = order_users(h_effs)
    gamma_w = abs(h_effs[weak]) ** 2
    p = problem.power_mw
    a_star = min_power_split_for_far_rate(problem.min_rate_far, p, gamma_w, ch.noise_mw)
    alpha_far = max(0.5, a_star)
    if alpha_far > 1.0 + 1e-12:
        raise InfeasibleAllocationError(
            f"far user needs alpha_far = {a_star:.6g} > 1 for rate {problem.min_rate_far}"
        )
    alpha_far = min(alpha_far, 1.0)
    alloc = NomaAllocation(p, 1.0 - alpha_far, alpha_far)
    rates = achievable_rates(alloc, h_effs[strong], h_effs[weak], ch.noise_mw, (strong, weak))
    if rates.rate_near < problem.min_rate_near - 1e-12:
        raise InfeasibleAllocationError(
            f"near user rate {rates.rate_near:.6g} < minimum {problem.min_rate_near}"
        )
    return alloc


def _evaluate(ch: ChannelRealization, pr: PhaseResponse, alloc: NomaAllocation) -> RateResult:
    h_effs = [effective_channel(ch, pr, u) for u in range(2)]
    strong, weak = order_users(h_effs)
    return achievable_rates(alloc, h_effs[strong], h_effs[weak], ch.noise_mw, (strong, weak))


def bcd_solve(ch: ChannelRealization, problem: ProblemSpec, settings: BcdSettings,
              warm_start_pr: PhaseResponse | None = None) -> Solution:
    """Alternate the power and phase subproblems until the sum-rate gain per
    outer iteration falls below rate_tolerance or max_outer_iters is hit.

    The phases start at warm_start_pr, or at the identity when it is None.
    The initial power solve on the warm-start phases counts as iteration 1,
    so max_outer_iters=1 returns that allocation untouched. The trace is
    non-decreasing: the power step is an exact argmax at fixed phases and
    the phase step never returns a point with a lower sum rate than its warm
    start. Propagates InfeasibleAllocationError from the power subproblem.
    """
    if ch.num_users != 2:
        raise ValueError("bcd_solve expects exactly 2 users")
    pr = warm_start_pr
    if pr is None:
        pr = PhaseResponse.reflective(np.eye(problem.ris_spec.num_elements, dtype=complex))
    alloc = solve_power_subproblem(ch, pr, problem)
    rates = _evaluate(ch, pr, alloc)
    trace = [rates.sum_rate]
    converged = False
    for _ in range(settings.max_outer_iters - 1):
        pr = solve_phase_subproblem(ch, alloc, problem, warm_start_pr=pr)
        alloc = solve_power_subproblem(ch, pr, problem)
        rates = _evaluate(ch, pr, alloc)
        trace.append(rates.sum_rate)
        if trace[-1] - trace[-2] < settings.rate_tolerance:
            converged = True
            break
    return Solution(alloc, pr, rates, tuple(trace), converged)


# ---------------------------------------------------------------------------
# brute-force oracle for tiny instances
# ---------------------------------------------------------------------------


def _diag_candidates(k: int, resolution: int) -> np.ndarray:
    phases = np.exp(2j * np.pi * np.arange(resolution) / resolution)
    grids = np.meshgrid(*([phases] * k), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)          # (res^k, k)


def _unitary2_candidates(resolution: int) -> np.ndarray:
    """U(2) sampled through the 4-angle form
    e^{ja} [[cos t e^{jp}, sin t e^{jc}], [-sin t e^{-jc}, cos t e^{-jp}]];
    all angle grids nest under doubling, so refinement never loses points."""
    circle = 2.0 * np.pi * np.arange(resolution) / resolution
    quarter = (np.pi / 2.0) * np.arange(resolution) / resolution
    a, t, p, c = np.meshgrid(circle, quarter, circle, circle, indexing="ij")
    a, t, p, c = (x.ravel() for x in (a, t, p, c))
    mats = np.empty((a.size, 2, 2), dtype=complex)
    mats[:, 0, 0] = np.cos(t) * np.exp(1j * p)
    mats[:, 0, 1] = np.sin(t) * np.exp(1j * c)
    mats[:, 1, 0] = -np.sin(t) * np.exp(-1j * c)
    mats[:, 1, 1] = np.cos(t) * np.exp(-1j * p)
    return mats * np.exp(1j * a)[:, None, None]


def brute_force_oracle(ch: ChannelRealization, problem: ProblemSpec,
                       grid: int = 64) -> Solution:
    """Exhaustive reference optimum for tiny instances.

    Diagonal feasible sets grid each phase at `grid` points (K <= 3);
    fully-connected K = 2 samples U(2) through its 4-angle parameterization
    at `grid` points per angle. alpha_far is gridded at 1e-3 over [0.5, 1]
    (full power and alpha_far >= alpha_near are optimal, see the power
    subproblem). Raises InfeasibleAllocationError when no combination meets
    the minimum rates, and ValueError for sizes past the caps.
    """
    if ch.num_users != 2:
        raise ValueError("brute_force_oracle expects exactly 2 users")
    spec = problem.effective_spec
    k = spec.num_elements
    diag = spec.block_size == 1
    if diag:
        if k > 3:
            raise ValueError("diagonal grids are capped at K <= 3")
        if grid ** k > _ORACLE_MAX_CANDIDATES:
            raise ValueError("grid resolution too large for the candidate cap")
        flat = _diag_candidates(k, grid)
        e = ch.h_direct[None, :] + flat @ (ch.g_ris_user.conj() * ch.h_sat_ris[None, :]).T
    elif spec.block_size == spec.matrix_dim:
        if k != 2:
            raise ValueError("unitary sampling is defined for K = 2 only")
        if grid ** 4 > _ORACLE_MAX_CANDIDATES:
            raise ValueError("grid resolution too large for the candidate cap")
        mats = _unitary2_candidates(grid)
        v = mats @ ch.h_sat_ris
        e = ch.h_direct[None, :] + v @ ch.g_ris_user.conj().T
    else:
        raise ValueError("oracle supports diagonal and fully-connected sets only")

    gains = np.abs(e) ** 2
    g_s = np.max(gains, axis=1)
    g_w = np.min(gains, axis=1)
    p = problem.power_mw
    steps = int(round(0.5 / _ORACLE_ALPHA_STEP))
    alpha_grid = (steps + np.arange(steps + 1)) / (2 * steps)    # exactly {0.500 .. 1.000}

    best = (-np.inf, -1, 0.5)
    for alpha_far in alpha_grid:
        r_n, r_f = sic_rates(p, 1.0 - alpha_far, alpha_far, g_s, g_w, ch.noise_mw)
        total = r_n + r_f
        feasible = (r_n >= problem.min_rate_near - 1e-12) & (r_f >= problem.min_rate_far - 1e-12)
        if not np.any(feasible):
            continue
        total = np.where(feasible, total, -np.inf)
        idx = int(np.argmax(total))
        if total[idx] > best[0]:
            best = (float(total[idx]), idx, float(alpha_far))
    if best[1] < 0:
        raise InfeasibleAllocationError("no phase/split combination meets the minimum rates")

    _, idx, alpha_far = best
    phi = np.diag(flat[idx]) if diag else mats[idx]
    pr = PhaseResponse.reflective(phi)
    alloc = NomaAllocation(p, 1.0 - alpha_far, alpha_far)
    rates = _evaluate(ch, pr, alloc)
    return Solution(alloc, pr, rates, (rates.sum_rate,), True)
