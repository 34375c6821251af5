"""
Sum-rate maximization over power split and surface phases.

With a single satellite feed Phi enters the rates only through its image
v = Phi h, and the feasible images are exactly the vectors with |v_b| = |h_b|
per block (bs = 1 is the diagonal surface). The solver and the exact oracle
both work on v for every architecture, and build Phi once at the end from h
and v alone (_surface_from_image): per block, Phi_b = z (I + 2 v' a'^H -
c c^H/(1 + s)) with z = h_b^H v_b/|h_b^H v_b|, a' = z h_b/|h_b|, v' =
v_b/|h_b|, c = a' + v' and s = a'^H v' >= 0, the rotation of span{h_b, v_b}
that takes z h_b to v_b, times z, which is how Phi_b acts off that plane.

- Power split (_split): with the SIC ordering fixed by the gains, the
  two-user sum rate is non-increasing in alpha_far on [0.5, 1], so the
  optimum sits at the smallest feasible split alpha_far = max(0.5,
  alpha_far*), alpha_near = 1 - alpha_far, using full power. Every image is
  scored at that split (_score): its sum rate, or minus its rate shortfall
  where no split meets the minimum rates, which lies below every feasible
  image and rises toward the feasible set.
- Phase ascent (solve_phase_subproblem): one ascent over directions u in C^2.
  Each step moves to the exposed point v_b = |h_b| q_b/|q_b| of
  q = u_1 g_1 + u_2 g_2 with u = w e, where e are the effective channels and
  w the derivative of the score in the two gains |e_u|^2. Since
  d score = 2 Re<q, dv>, the exposed point is the feasible image that
  maximizes the score's linearization, and the global phase that maximizes
  it follows (all feasible sets are closed under scalar phase rotation; the
  phase matters only with direct links). w is a total derivative: where the
  far user's floor binds, alpha_far* falls as the weak gain grows and frees
  power for the near user, which the rate gradient at a fixed split
  (noma.sic_rate_gradient) does not see. So the power split moves inside
  every step, and no outer loop re-splits it. A step is kept only if it
  raises the score by more than 1e-12 relative.

The exact oracle (exact_oracle) searches the same directions globally. The
reachable effective channels are y = h_d + (g_1^H v, g_2^H v) over images
with |v_b| = |h_b|, so their convex hull is h_d plus the Minkowski sum of the
ellipsoids M_b B(|h_b|), M_b the 2 x bs matrix with rows g_u,b^H. After the
closed-form split the sum rate never falls as either |y_u| grows, so its
maximum over the hull lies on the boundary, where every point is a support
point: for some unit u in C^2 it is y*(u) = h_d + sum_b |h_b| M_b M_b^H
u/|M_b^H u|, the channels of the feasible image v_b = |h_b| q_b/|q_b|,
q = u_1 g_1 + u_2 g_2 (the exposed point). The best y*(u) over u is therefore
the global optimum, for every block size (Nerini, Shen & Clerckx, IEEE TWC
2024, give the fully connected closed form). Only a rank-deficient block
(bs = 1) can have M_b^H u = 0, which makes the support set a face; y*(u) at
nearby u reaches its reachable points.

The conventional-surface baseline (CD_RIS) is the same solver restricted to
the single-connected diagonal set. bcd_solve starts from the phases it is
given, or from the identity; warm-starting the beyond-diagonal run from the
baseline phases (experiments.solve_pair) makes its final sum rate dominate
the baseline on every realization, since diagonal unit-modulus matrices are
feasible for every architecture and the ascent never returns a point that
scores below its warm start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, db_to_linear, effective_channel
from .noma import (LN2, NomaAllocation, RateResult, achievable_rates,
                   min_power_split_for_far_rate, order_users, sic_rate_gradient,
                   sic_rates)
from .surfaces import PhaseResponse, RisSpec, block_diagonal
# perfbench/spans.py wraps optimizer.project_feasible by name; nothing here calls it
from .surfaces import project_feasible  # noqa: F401

SCHEMES = ("BD_RIS", "CD_RIS")

_IMPROVE_MARGIN = 1e-12
_PHASE_STEPS = 100


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
class Solution:
    allocation: NomaAllocation
    phase: PhaseResponse
    rates: RateResult
    trace: tuple          # the winning start's score, at its start and after each kept step
    converged: bool       # False only when that start ran into the step cap


# ---------------------------------------------------------------------------
# internal phase-ascent machinery (raw arrays, no PhaseResponse wrapping)
# ---------------------------------------------------------------------------


def _exposed(q: np.ndarray, h_norms: np.ndarray, fallback: np.ndarray,
             bs: int) -> np.ndarray:
    """The feasible image that maximizes Re<q, v>: v_b = |h_b| q_b/|q_b|.

    It is the image of the projection of q h^H onto the feasible set, and so
    the limit of every projected gradient step as the step size grows (for
    bs = 1, v_k = |h_k| e^{j arg q_k}). A block with q_b = 0 keeps its
    fallback image (one image, or one per direction). Leading axes of q are
    independent directions; they share one rescaling when their scale is out
    of range.
    """
    qb = q.reshape(q.shape[:-1] + (-1, bs))
    qn = np.linalg.norm(qb, axis=-1)
    if not 1e-150 < qn.max() < 1e150 and np.any(qb):
        # only the directions count: rescale so that |q_b|^2 neither under-
        # nor overflows, part by part (complex division by a subnormal overflows)
        top = np.max(np.abs(qb))
        qb = qb.real / top + 1j * (qb.imag / top)
        qn = np.linalg.norm(qb, axis=-1)
    moved = qn > 0.0
    scale = np.divide(h_norms, qn, out=np.zeros_like(qn), where=moved)
    return np.where(moved[..., None], qb * scale[..., None],
                    fallback.reshape(fallback.shape[:-1] + (-1, bs))).reshape(q.shape)


def _surface_from_image(h: np.ndarray, v: np.ndarray, spec: RisSpec) -> np.ndarray:
    """The feasible Phi with the per-block rotation of the module docstring,
    so Phi h = v for every image with |v_b| = |h_b|. The rank-two update
    works in units of |h_b|, so its squares stay in range, and 1 + s >= 1. A
    one-element block is z alone, so a diagonal Phi is exactly diag(z); a
    block with h_b = 0 is the identity."""
    bs = spec.block_size
    hb, vb = h.reshape(-1, bs), v.reshape(-1, bs)
    dot = np.sum(hb.conj() * vb, axis=1)
    mag = np.abs(dot)
    z = np.divide(dot, mag, out=np.ones_like(dot), where=mag > 0.0)
    if bs == 1:
        return block_diagonal(z, spec)[0]
    rho = np.linalg.norm(hb, axis=1)[:, None]
    ap = np.divide(z[:, None] * hb, rho, out=np.zeros_like(hb), where=rho > 0.0)
    vp = np.divide(vb, rho, out=np.zeros_like(vb), where=rho > 0.0)
    s = np.sum(ap.conj() * vp, axis=1).real
    c = ap + vp
    left = np.stack([2.0 * vp, c / -(1.0 + s)[:, None]], axis=2)   # (blocks, bs, 2)
    blocks = left @ np.stack([ap.conj(), c.conj()], axis=1)        # the rank-two update
    blocks.reshape(len(z), -1)[:, ::bs + 1] += 1.0
    blocks *= z[:, None, None]
    return block_diagonal(blocks, spec)[0]


def _split(problem: ProblemSpec, g_s, g_w, noise: float):
    """The optimal full-power split alpha_far = max(0.5, alpha_far*) (at most
    1), whether it meets both minimum rates, and its (rate_near, rate_far),
    per pair of strong and weak gains (all broadcast)."""
    a_star = min_power_split_for_far_rate(problem.min_rate_far, problem.power_mw, g_w, noise)
    alpha_far = np.minimum(np.maximum(0.5, a_star), 1.0)
    r_n, r_f = sic_rates(problem.power_mw, 1.0 - alpha_far, alpha_far, g_s, g_w, noise)
    feasible = (a_star <= 1.0 + 1e-12) & (r_n >= problem.min_rate_near * (1.0 - 1e-12))
    return alpha_far, feasible, r_n, r_f


def _score(problem: ProblemSpec, gains: np.ndarray, noise: float):
    """Score of each row of gains (..., users): the sum rate at the
    closed-form split, or minus the rate shortfall (near plus far, at the
    split clipped to 1) where no split meets the minimum rates. A lone user
    is both strong and weak. Returns the score and the split it was taken at,
    which _slope reads, so a caller that needs no slope computes none."""
    g_s, g_w = gains.max(axis=-1), gains.min(axis=-1)
    alpha_far, feasible, r_n, r_f = _split(problem, g_s, g_w, noise)
    short_f = np.maximum(problem.min_rate_far - r_f, 0.0)
    score = np.where(feasible, r_n + r_f,
                     -(np.maximum(problem.min_rate_near - r_n, 0.0) + short_f))
    return score, (g_s, g_w, alpha_far, feasible, short_f)


def _slope(problem: ProblemSpec, gains: np.ndarray, noise: float, split) -> np.ndarray:
    """Total derivative of _score in the gains, at the split _score returned
    for the same gains."""
    p = problem.power_mw
    g_s, g_w, alpha_far, feasible, short_f = split
    d_s, d_w = sic_rate_gradient(p, 1.0 - alpha_far, alpha_far, g_s, g_w, noise)
    # Where the far floor r binds, the far rate stays at r as g_w grows, and
    # alpha_far = c (1 + noise/(p g_w)), c = 1 - 2^-r, falls by
    # (alpha_far - c)/g_w per unit of g_w: the weak gain buys near rate.
    # Elsewhere the split is fixed, and a far rate above its floor does not
    # count in a shortfall (nor does a near rate, but where it meets its
    # floor and the far one does not, the split is 1 and d_s = 0).
    binding = (alpha_far > 0.5) & (alpha_far < 1.0)
    slide = np.divide(alpha_far + np.expm1(-problem.min_rate_far * LN2), g_w,
                      out=np.zeros_like(g_w), where=binding)
    w_weak = np.where(binding, p * g_s * slide / ((p * (1.0 - alpha_far) * g_s + noise) * LN2),
                      np.where(feasible | (short_f > 0.0), d_w, 0.0))
    users = np.arange(gains.shape[-1])
    strong = np.argmax(gains, axis=-1)[..., None]   # ties go to the lower index, as in order_users
    return ((users == strong) * d_s[..., None]
            + (users == users[-1] - strong) * w_weak[..., None])


def solve_phase_subproblem(ch: ChannelRealization, problem: ProblemSpec,
                           warm_start_pr: PhaseResponse | None = None) -> tuple:
    """Maximize the closed-form-split score over the surface phases.

    Runs the direction ascent of the module docstring from three starts,
    held as rows of one array: the warm start's image Phi_warm h (h itself
    when None) and, per user, v = _exposed(g_u), which steers the surface to
    that user alone. The warm start is read as that image only, never as a
    matrix. A row stops at its first step that does not raise its score by
    more than 1e-12 relative, or after _PHASE_STEPS kept steps. Phi is built
    once, from h and the best row's image, so it never scores below the warm
    start. Returns the PhaseResponse and that row's trace: its score at its
    start and after each kept step.

    Raises ValueError when the warm start is not reflective, or when its
    image misses |(Phi_warm h)_b| = |h_b| by more than 1e-9 relative in some
    block, i.e. it is no feasible point of this architecture.
    """
    spec = problem.effective_spec
    bs = spec.block_size
    h, hd, g = ch.h_sat_ris, ch.h_direct, ch.g_ris_user
    gc_t = g.conj().T
    h_norms = np.linalg.norm(h.reshape(-1, bs), axis=1)
    warm = h
    if warm_start_pr is not None:
        if warm_start_pr.mode != "reflective":
            raise ValueError("warm start must be a reflective phase response")
        warm = warm_start_pr.phi @ h
        off = np.abs(np.linalg.norm(warm.reshape(-1, bs), axis=1) - h_norms)
        if not np.all(off <= 1e-9 * h_norms):      # NaN fails too
            raise ValueError(f"the warm start's image is infeasible for the "
                             f"{spec.architecture}-connected surface")

    v = np.vstack([warm, _exposed(g, h_norms, h, bs)])
    e = hd + v @ gc_t
    gains = np.abs(e) ** 2
    f, split = _score(problem, gains, ch.noise_mw)
    w = _slope(problem, gains, ch.noise_mw, split)
    history = [f]
    steps = np.zeros(len(v), dtype=int)
    active = np.ones(len(v), dtype=bool)
    for _ in range(_PHASE_STEPS):
        cand = _exposed((w * e) @ g, h_norms, v, bs)
        c = cand @ gc_t
        # the global phase that maximizes the linearized score (1 without
        # direct links, where z = 0); by parts, since |z| may be subnormal
        z = np.sum(w * hd.conj() * c, axis=1)
        mag = np.abs(z)
        turn = (np.divide(z.real, mag, out=np.ones_like(mag), where=mag > 0.0)
                - 1j * np.divide(z.imag, mag, out=np.zeros_like(mag), where=mag > 0.0))
        e_cand = hd + turn[:, None] * c
        gains = np.abs(e_cand) ** 2
        f_cand, split = _score(problem, gains, ch.noise_mw)
        active &= f_cand > f + _IMPROVE_MARGIN * np.abs(f)
        if not active.any():
            break
        w_cand = _slope(problem, gains, ch.noise_mw, split)
        v = np.where(active[:, None], turn[:, None] * cand, v)
        e = np.where(active[:, None], e_cand, e)
        w = np.where(active[:, None], w_cand, w)
        f = np.where(active, f_cand, f)
        steps += active
        history.append(f)
    best = int(np.argmax(f))
    trace = tuple(float(scores[best]) for scores in history[:steps[best] + 1])
    return PhaseResponse.reflective(_surface_from_image(h, v[best], spec)), trace


def _evaluate(ch: ChannelRealization, pr: PhaseResponse,
              problem: ProblemSpec) -> tuple:
    """The optimal full-power split on pr and its RateResult, from one
    evaluation of pr's effective channels. Raises InfeasibleAllocationError
    when no split meets both minimum rates."""
    if ch.num_users != 2:
        raise ValueError("the power subproblem is defined for exactly 2 users")
    h_effs = [effective_channel(ch, pr, u) for u in range(2)]
    strong, weak = order_users(h_effs)
    alpha_far, feasible, _, _ = _split(problem, abs(h_effs[strong]) ** 2,
                                       abs(h_effs[weak]) ** 2, ch.noise_mw)
    if not feasible:
        raise InfeasibleAllocationError(
            f"no full-power split meets the minimum rates (near {problem.min_rate_near}, "
            f"far {problem.min_rate_far})")
    alloc = NomaAllocation(problem.power_mw, 1.0 - float(alpha_far), float(alpha_far))
    return alloc, achievable_rates(alloc, h_effs[strong], h_effs[weak], ch.noise_mw,
                                   (strong, weak))


def solve_power_subproblem(ch: ChannelRealization, pr: PhaseResponse,
                           problem: ProblemSpec) -> NomaAllocation:
    """Optimal full-power split for fixed phases.

    alpha_far = max(0.5, alpha_far*), alpha_near = 1 - alpha_far: the sum
    rate is non-increasing in alpha_far once the far user's minimum rate
    holds, so the smallest ordered split is optimal (gains tie -> the sum
    rate is split-invariant and the same boundary is returned).

    Raises InfeasibleAllocationError when no split meets both minimum rates.
    """
    return _evaluate(ch, pr, problem)[0]


def bcd_solve(ch: ChannelRealization, problem: ProblemSpec,
              warm_start_pr: PhaseResponse | None = None) -> Solution:
    """Solve one realization: solve_phase_subproblem from warm_start_pr (the
    identity when None), whose score holds the optimal power split at every
    step, then one power step and one rate evaluation on the built Phi.

    The Solution's trace is the winning start's ascent trace, and converged
    is False only when that start ran into the step cap. Raises
    InfeasibleAllocationError when the best start still misses a minimum
    rate.
    """
    if ch.num_users != 2:
        raise ValueError("bcd_solve expects exactly 2 users")
    pr, trace = solve_phase_subproblem(ch, problem, warm_start_pr=warm_start_pr)
    alloc, rates = _evaluate(ch, pr, problem)
    return Solution(alloc, pr, rates, trace, len(trace) <= _PHASE_STEPS)


# ---------------------------------------------------------------------------
# exact oracle: a search over the exposed points of the reachable channels
# ---------------------------------------------------------------------------

_DIRECTION_POINTS = (33, 64, 16)   # coarse points in t, p and (with direct links) a
_SEARCH_STARTS = 4                 # best coarse local maxima refined
_SEARCH_MIN_STEP = 2.0 ** -40      # in units of the coarse spacing
_SEARCH_MAX_ITERS = 60


def _pattern_search(score, n: int, spacing: np.ndarray):
    """Maximize score, which maps points (n, m, d) to values (n, m), from n
    starts at x = 0. Each step scores the stencil x + step * spacing * z,
    z in {-1, 0, 1}^d, and the maximizer of the quadratic fitted to it along
    its concave directions (at most two steps away), which follows the
    narrow valleys that stall the stencil alone. The best point beating x by more
    than rounding is the next x, and sets the step to twice its distance
    if it is the fitted one (within [1/16, 1] of the old step); with no such
    point the step quarters. Returns the final points and scores."""
    d = len(spacing)
    z = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=d)))
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    fit = np.linalg.pinv(np.column_stack([np.ones(len(z)), z]
                                         + [z[:, i] * z[:, j] for i, j in pairs]))
    rows = np.arange(n)
    x = np.zeros((n, d))
    f = score(x[:, None, :])[:, 0]
    step = np.ones(n)
    for _ in range(_SEARCH_MAX_ITERS):
        active = step >= _SEARCH_MIN_STEP
        if not active.any():
            break
        scale = step[:, None] * spacing
        cand = x[:, None, :] + scale[:, None, :] * z
        f_cand = score(cand)
        coef = f_cand @ fit.T
        hess = np.empty((n, d, d))
        for col, (i, j) in enumerate(pairs, start=1 + d):
            hess[:, i, j] = hess[:, j, i] = coef[:, col] * (2.0 if i == j else 1.0)
        # Newton step within the model's concave directions only: the others
        # are flat (a direction map with a redundant coordinate) or convex
        lam, vec = np.linalg.eigh(hess)
        concave = lam < -1e-6 * np.max(np.abs(lam), axis=1, keepdims=True)
        along = np.einsum("nij,ni->nj", vec, coef[:, 1:1 + d])
        newton = np.where(concave, along / np.where(concave, -lam, 1.0), 0.0)
        shift = np.clip(np.einsum("nij,nj->ni", vec, newton), -2.0, 2.0)
        cand = np.concatenate([cand, (x + scale * shift)[:, None, :]], axis=1)
        f_cand = np.concatenate([f_cand, score(cand[:, -1:, :])], axis=1)
        best = np.argmax(f_cand, axis=1)
        better = active & (f_cand[rows, best] > f + 1e-15 * np.abs(f))
        x = np.where(better[:, None], cand[rows, best], x)
        f = np.where(better, f_cand[rows, best], f)
        fitted = np.clip(2.0 * np.max(np.abs(shift), axis=1), 1.0 / 16.0, 1.0)
        step *= np.where(~active | better & (best < len(z)), 1.0,
                         np.where(better, fitted, 0.25))
    return x, f


def exact_oracle(ch: ChannelRealization, problem: ProblemSpec) -> Solution:
    """Global sum-rate optimum for any K and every block size: the best
    closed-form-split sum rate at the exposed point y*(u) over unit u =
    e^{ja}(cos t, e^{jp} sin t) in C^2 (the module docstring says why this is
    exact). A direction whose split misses a minimum rate scores minus its
    rate shortfall: below every feasible direction, and rising toward the
    feasible set, so the search reaches feasible sets too thin for the grid.
    The best few local maxima of a coarse grid, in a only with direct links
    (y*(u) turns with u's phase, so each a costs O(1) there), are refined by
    _pattern_search in a chart centred on each, u = e^{ja}(u_0 + xi u_0^perp)
    / sqrt(1 + |xi|^2), regular where (t, p) is not. Phi is built once and
    its rates come from the power step, which raises
    InfeasibleAllocationError when the best direction misses a minimum rate.
    """
    if ch.num_users != 2:
        raise ValueError("exact_oracle expects exactly 2 users")
    spec = problem.effective_spec
    bs = spec.block_size
    h_norms = np.linalg.norm(ch.h_sat_ris.reshape(-1, bs), axis=1)
    gc_t = ch.g_ris_user.conj().T

    def image(u):
        return _exposed(u @ ch.g_ris_user, h_norms, ch.h_sat_ris, bs)

    def rate(c):
        return _score(problem, np.abs(ch.h_direct + c) ** 2, ch.noise_mw)[0]

    n_t, n_p, n_a = _DIRECTION_POINTS if np.any(ch.h_direct) else _DIRECTION_POINTS[:2] + (1,)
    t, p, a = np.meshgrid((np.arange(n_t) + 0.5) * (np.pi / 2.0 / n_t),
                          2.0 * np.pi * np.arange(n_p) / n_p,
                          2.0 * np.pi * np.arange(n_a) / n_a, indexing="ij")
    turn = np.exp(1j * a)[..., None]
    dirs = np.stack([np.cos(t), np.exp(1j * p) * np.sin(t)], axis=-1)
    scores = rate(turn * (image(dirs[:, :, :1]) @ gc_t))    # one O(K) map per (t, p)
    dirs = turn * dirs
    peaks = np.full(scores.shape, True)
    for axis in range(3):
        for shift in (1, -1):
            near = np.roll(scores, shift, axis=axis)
            if axis == 0:             # t does not wrap around
                near[0 if shift == 1 else -1] = -np.inf
            peaks &= scores >= near
    flat = np.flatnonzero(peaks)
    starts = flat[np.argsort(-scores.ravel()[flat], kind="stable")][:_SEARCH_STARTS]
    u0 = dirs.reshape(-1, 2)[starts, None, :]
    perp = np.stack([-u0[..., 1].conj(), u0[..., 0].conj()], axis=-1)

    def chart(x):
        xi = (x[..., 0] + 1j * x[..., 1])[..., None]
        phase = np.exp(1j * np.sum(x[..., 2:], axis=-1, keepdims=True))   # a, if searched
        return (u0 + xi * perp) * phase / np.sqrt(1.0 + np.abs(xi) ** 2)

    spacing = np.array([np.pi / 2.0 / n_t] * 2 + [2.0 * np.pi / n_a] * (n_a > 1))
    x, f = _pattern_search(lambda x: rate(image(chart(x)) @ gc_t), len(u0), spacing)
    v = image(chart(x[:, None, :])[int(np.argmax(f)), 0])
    pr = PhaseResponse.reflective(_surface_from_image(ch.h_sat_ris, v, spec))
    alloc, rates = _evaluate(ch, pr, problem)
    return Solution(alloc, pr, rates, (rates.sum_rate,), True)
