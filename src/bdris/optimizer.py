"""
Sum-rate maximization over power split and surface phases.

With a single satellite feed Phi enters the rates only through its image
v = Phi h, and the feasible images are exactly the vectors with |v_b| = |h_b|
per block (bs = 1 is the diagonal surface). The solver and the exact oracle
both search over v for every architecture, and both take the power split
and the rates from one route (_evaluate): an image in, its two effective
channels h_d[u] + g_u^H v, the users ordered by gain, the closed-form split
and its RateResult out. The solver passes the image it returns, and its
Solution builds Phi only when its phase is read; the oracle builds Phi and
passes Phi h, so it reports that Phi's rates, as a reference. Phi is built
from h and v alone (_surface_from_image): per block, Phi_b = z (I + 2 v' a'^H -
c c^H/(1 + s)) with z = h_b^H v_b/|h_b^H v_b|, a' = z h_b/|h_b|, v' =
v_b/|v_b|, c = a' + v' and s = a'^H v' >= 0, the rotation of span{h_b, v_b}
that takes z h_b to v_b, times z, which is how Phi_b acts off that plane.

- Power split (_split): with the SIC ordering fixed by the gains, the
  two-user sum rate is non-increasing in alpha_far on [0.5, 1], so the
  optimum sits at the smallest feasible split alpha_far = max(0.5,
  alpha_far*), alpha_near = 1 - alpha_far, using full power. Every image is
  scored at that split (_score): its sum rate, or minus its rate shortfall
  where no split meets the minimum rates, which lies below every feasible
  image and rises toward the feasible set.
- Phase ascent (solve_phase_subproblem): one ascent over directions u in C^2.
  Each step moves to the oracle's support point y*(u) (below) at u = w e,
  through the same map (_image), where e are the effective channels and w
  the derivative of the score in the two gains |e_u|^2. Since
  d score = 2 Re<u, dy>, y*(u) maximizes the score's linearization jointly
  over the image and the direct block's phase. w is a total derivative:
  where the far user's floor binds, alpha_far* falls as the weak gain grows
  and frees power for the near user, which the rate gradient at a fixed
  split (noma.sic_rate_gradient) does not see. So the power split moves
  inside every step, and no outer loop re-splits it. A step is kept only if it
  raises the score by more than 1e-12 relative. A step runs the shortfall,
  binding-floor, masked-divide (q_b = 0, |q_b| out of range) and
  stopped-row branches only when some row reaches them; a branch it skips
  would have selected, element by element, exactly what the unmasked
  operations compute, so the bits do not move.

The exact oracle (exact_oracle) searches the same directions globally. The
score sees the effective channels only through their gains |y_u|^2, so a
global phase of y does not change it, and the direct links count as one more
one-element block, with incident channel 1 and outgoing channels conj(h_d):
the channels y = h_d s + (g_1^H v, g_2^H v), |s| = 1, have the gains of the
reachable ones, h_d + g^H v conj(s). Their convex hull is the Minkowski sum of
the disc h_d B(1) and the ellipsoids M_b B(|h_b|), M_b the 2 x bs matrix
with rows g_u,b^H. After the closed-form split the sum rate never falls as
either |y_u| grows, so its maximum over the hull lies on the boundary, where
every point is a support point: for some unit u in C^2 it is y*(u) =
h_d s(u) + sum_b |h_b| M_b M_b^H u/|M_b^H u|, s(u) = h_d^H u/|h_d^H u|, the
channels of the feasible image v_b = |h_b| q_b/|q_b|, q = u_1 g_1 + u_2 g_2
(the exposed point), and of the direct block's exposed phase: _image maps u
to that image, turned by conj(s(u)). The best y*(u) over u is therefore the
global optimum, for every block size (Nerini, Shen & Clerckx, IEEE TWC
2024, give the fully connected closed form). Since
y*(e^{ja} u) = e^{ja} y*(u), unit u up to phase, (cos t, e^{jp} sin t),
suffices, with or without direct links. Only a rank-deficient block (bs = 1,
or the direct block) can have M_b^H u = 0, which makes the support set a
face; y*(u) at nearby u reaches its reachable points.

The conventional-surface baseline (CD_RIS) is the same solver restricted to
the single-connected diagonal set. bcd_solve starts from the image it is
given, or from the identity's image h; warm-starting the beyond-diagonal run
from the baseline's image (experiments.solve_pair) makes its final sum rate
dominate the baseline on every realization, since the images of diagonal
unit-modulus matrices are feasible for every architecture and the ascent
never returns a point that scores below its warm start.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, db_to_linear
from .noma import (LN2, NomaAllocation, RateResult, min_power_split_for_far_rate,
                   sic_rate_gradient, sic_rates)
from .surfaces import DimensionError, RisSpec, block_diagonal
# perfbench/spans.py wraps these by name in this module; nothing here calls them
from .channel import effective_channel  # noqa: F401
from .noma import achievable_rates  # noqa: F401
from .surfaces import project_feasible  # noqa: F401

SCHEMES = ("BD_RIS", "CD_RIS")

_IMPROVE_MARGIN = 1e-12
_PHASE_STEPS = 100
_ONE = np.ones(1)      # the norm and the fallback of a one-element unit block


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

    @functools.cached_property
    def power_mw(self) -> float:
        return db_to_linear(self.power_dbm)

    @functools.cached_property
    def effective_spec(self) -> RisSpec:
        """Feasible set actually optimized: the configured architecture for
        BD_RIS, the single-connected diagonal set for CD_RIS."""
        if self.scheme == "CD_RIS":
            return RisSpec(self.ris_spec.num_elements, "single", "reflective")
        return self.ris_spec


@dataclass(frozen=True)
class Solution:
    allocation: NomaAllocation
    image: np.ndarray     # v = Phi h, the surface as the rates see it
    rates: RateResult
    trace: tuple          # the winning start's score, at its start and after each kept step
    h_sat_ris: np.ndarray = field(repr=False)   # the h of v = Phi h
    spec: RisSpec = field(repr=False)           # the feasible set v lies in

    @property
    def converged(self) -> bool:
        """False only when the winning start ran into the step cap."""
        return len(self.trace) <= _PHASE_STEPS

    @functools.cached_property
    def phase(self) -> np.ndarray:
        """The feasible K x K Phi with Phi h = image (_surface_from_image),
        built on first read."""
        return _surface_from_image(self.h_sat_ris, self.image, self.spec)


# ---------------------------------------------------------------------------
# internal phase-ascent machinery
# ---------------------------------------------------------------------------


def _norms(xb: np.ndarray) -> np.ndarray:
    """Norms along the last axis: the sums np.linalg.norm forms, without
    its wrapper."""
    return np.sqrt(np.add.reduce((xb.conj() * xb).real, axis=-1))


def _exposed(q: np.ndarray, h_norms: np.ndarray, fallback: np.ndarray,
             bs: int) -> np.ndarray:
    """The feasible image that maximizes Re<q, v>: v_b = |h_b| q_b/|q_b|.

    It is the image of the projection of q h^H onto the feasible set, and so
    the limit of every projected gradient step as the step size grows (for
    bs = 1, v_k = |h_k| e^{j arg q_k}). A block with q_b = 0 keeps its
    fallback image (one image, or one per direction). Leading axes of q are
    independent directions; each nonzero block whose norm is out of range is
    rescaled by its own largest part, the others are left as they are.
    """
    qb = q.reshape(q.shape[:-1] + (-1, bs))
    qn = _norms(qb)
    if 1e-150 < np.minimum.reduce(qn, axis=None) and np.maximum.reduce(qn, axis=None) < 1e150:
        # no block keeps its fallback and no rescaling: the divide below, unmasked
        return (qb * (h_norms / qn)[..., None]).reshape(q.shape)
    out = ~((1e-150 < qn) & (qn < 1e150)) & np.any(qb, axis=-1)
    if out.any():
        # only the directions count: rescale so that |q_b|^2 neither under-
        # nor overflows, part by part (complex division by a subnormal overflows)
        top = np.where(out, np.max(np.abs(qb), axis=-1), 1.0)[..., None]
        qb = qb.real / top + 1j * (qb.imag / top)
        qn = _norms(qb)
    moved = qn > 0.0
    scale = np.divide(h_norms, qn, out=np.zeros_like(qn), where=moved)
    return np.where(moved[..., None], qb * scale[..., None],
                    fallback.reshape(fallback.shape[:-1] + (-1, bs))).reshape(q.shape)


def _image(u: np.ndarray, g: np.ndarray, h_norms: np.ndarray, fallback: np.ndarray,
           bs: int, hd_conj: np.ndarray | None) -> np.ndarray:
    """The feasible image of each direction u (..., 2): the exposed point v of
    u @ g (a block with q_b = 0 keeps its fallback) and, with direct links
    (hd_conj = conj(h_d), None without), v turned by conj(s), s the exposed
    phase of u @ conj(h_d), the direct block's exposed point. Its channels
    h_d + g^H v conj(s) have the gains of y*(u) (module docstring)."""
    v = _exposed(u @ g, h_norms, fallback, bs)
    if hd_conj is None:
        return v
    return v * _exposed((u @ hd_conj)[..., None], _ONE, _ONE, 1).conj()


def _surface_from_image(h: np.ndarray, v: np.ndarray, spec: RisSpec) -> np.ndarray:
    """The feasible Phi with the per-block rotation of the module docstring,
    so Phi h = v for every image with |v_b| = |h_b|. Its unit blocks h_b/|h_b|,
    v_b/|v_b| and z are exposed points (_exposed), so Phi is finite and
    feasible for every representable feasible image, and 1 + s >= 1. A
    one-element block is z alone, so a diagonal Phi is exactly diag(z); a
    block with h_b = 0 is the identity."""
    bs = spec.block_size
    units = np.ones(spec.num_blocks)
    hp = _exposed(h, units, h, bs).reshape(-1, bs)
    vp = _exposed(v, units, v, bs).reshape(-1, bs)
    z = _exposed(np.sum(hp.conj() * vp, axis=1)[:, None], _ONE, _ONE, 1)
    if bs == 1:
        return block_diagonal(z[:, 0], spec)[0]
    ap = z * hp
    s = np.sum(ap.conj() * vp, axis=1).real
    c = ap + vp
    left = np.stack([2.0 * vp, c / -(1.0 + s)[:, None]], axis=2)   # (blocks, bs, 2)
    blocks = left @ np.stack([ap.conj(), c.conj()], axis=1)        # the rank-two update
    blocks.reshape(len(z), -1)[:, ::bs + 1] += 1.0
    blocks *= z[:, :, None]
    return block_diagonal(blocks, spec)[0]


def _split(problem: ProblemSpec, g_s, g_w, noise: float):
    """The optimal full-power split alpha_far = max(0.5, alpha_far*) (at most
    1), whether it meets both minimum rates, and its (rate_near, rate_far),
    per pair of strong and weak gains (all broadcast). Without a far floor
    alpha_far* = 0, and alpha_far is the scalar 0.5 for every pair."""
    p = problem.power_mw
    if problem.min_rate_far == 0.0:
        alpha_far = 0.5
    else:
        a_star = min_power_split_for_far_rate(problem.min_rate_far, p, g_w, noise)
        alpha_far = np.minimum(np.maximum(0.5, a_star), 1.0)
    r_n, r_f = sic_rates(p, 1.0 - alpha_far, alpha_far, g_s, g_w, noise)
    feasible = r_n >= problem.min_rate_near * (1.0 - 1e-12)
    if problem.min_rate_far != 0.0:
        feasible = (a_star <= 1.0 + 1e-12) & feasible
    return alpha_far, feasible, r_n, r_f


def _score(problem: ProblemSpec, gains: np.ndarray, noise: float):
    """Score of each row of gains (..., users): the sum rate at the
    closed-form split, or minus the rate shortfall (near plus far, at the
    split clipped to 1) where no split meets the minimum rates. A lone user
    is both strong and weak. Returns the score and the split it was taken at,
    which _slope reads, so a caller that needs no slope computes none."""
    g_s, g_w = np.maximum.reduce(gains, axis=-1), np.minimum.reduce(gains, axis=-1)
    alpha_far, feasible, r_n, r_f = _split(problem, g_s, g_w, noise)
    if np.count_nonzero(feasible) == feasible.size:
        return r_n + r_f, (g_s, g_w, alpha_far, None)
    short_f = np.maximum(problem.min_rate_far - r_f, 0.0)
    score = np.where(feasible, r_n + r_f,
                     -(np.maximum(problem.min_rate_near - r_n, 0.0) + short_f))
    # the rows whose weak gain counts at a fixed split (None: every row)
    return score, (g_s, g_w, alpha_far, feasible | (short_f > 0.0))


def _slope(problem: ProblemSpec, gains: np.ndarray, noise: float, split) -> np.ndarray:
    """Total derivative of _score in the gains, at the split _score returned
    for the same gains."""
    p = problem.power_mw
    g_s, g_w, alpha_far, counted = split
    d_s, d_w = sic_rate_gradient(p, 1.0 - alpha_far, alpha_far, g_s, g_w, noise)
    # Where the far floor r binds, the far rate stays at r as g_w grows, and
    # alpha_far = c (1 + noise/(p g_w)), c = 1 - 2^-r, falls by
    # (alpha_far - c)/g_w per unit of g_w: the weak gain buys near rate.
    # Elsewhere the split is fixed, and a far rate above its floor does not
    # count in a shortfall (nor does a near rate, but where it meets its
    # floor and the far one does not, the split is 1 and d_s = 0).
    w_weak = d_w if counted is None else np.where(counted, d_w, 0.0)
    if problem.min_rate_far != 0.0:
        binding = (alpha_far > 0.5) & (alpha_far < 1.0)
        if binding.any():
            slide = np.divide(alpha_far + np.expm1(-problem.min_rate_far * LN2), g_w,
                              out=np.zeros_like(g_w), where=binding)
            w_weak = np.where(binding, p * g_s * slide
                              / ((p * (1.0 - alpha_far) * g_s + noise) * LN2), w_weak)
    if gains.shape[-1] == 1:
        return (d_s + w_weak)[..., None]
    # ties go to the lower index, as in order_users
    strong = np.arange(2) == gains.argmax(axis=-1)[..., None]
    return np.where(strong, d_s[..., None], w_weak[..., None])


def solve_phase_subproblem(ch: ChannelRealization, problem: ProblemSpec,
                           warm_image: np.ndarray | None = None) -> tuple:
    """Maximize the closed-form-split score over the surface's image v = Phi h.

    Runs the direction ascent of the module docstring from three starts,
    held as rows of one array: warm_image (h itself, the identity's image,
    when None) and, per user, v = _exposed(g_u), which steers the surface to
    that user alone. A row stops at its first step that does not raise its
    score by more than 1e-12 relative, or after _PHASE_STEPS kept steps.
    Returns the best row's image, which never scores below the warm start,
    and that row's trace: its score at its start and after each kept step.
    No Phi is built (Solution.phase builds one on request).

    Raises ValueError unless ch has 1 or 2 users (a lone user is both the
    strong and the weak one), and when warm_image is not a length-K vector,
    or misses |v_b| = |h_b| by more than 1e-9 relative in some block (NaN
    included), i.e. it is the image of no feasible point of this architecture.
    """
    if ch.num_users not in (1, 2):
        raise ValueError(f"the phase subproblem is defined for 1 or 2 users, got {ch.num_users}")
    spec = problem.effective_spec
    bs = spec.block_size
    h, hd, g = ch.h_sat_ris, ch.h_direct, ch.g_ris_user
    gc_t = g.conj().T
    h_norms = _norms(h.reshape(-1, bs))
    warm = h
    if warm_image is not None:
        warm = np.asarray(warm_image)
        if warm.shape != h.shape:
            raise ValueError(f"warm image of shape {warm.shape}, expected {h.shape}")
        off = np.abs(_norms(warm.reshape(-1, bs)) - h_norms)
        if not (off <= 1e-9 * h_norms).all():      # NaN fails too
            raise ValueError(f"the warm image is infeasible for the "
                             f"{spec.architecture}-connected surface")

    v = np.concatenate((warm[None], _exposed(g, h_norms, h, bs)))
    e = hd + v @ gc_t
    gains = np.abs(e) ** 2
    noise = ch.noise_mw
    f, split = _score(problem, gains, noise)
    w = _slope(problem, gains, noise, split)
    history = [f]
    steps = np.zeros(len(v), dtype=int)
    active = np.ones(len(v), dtype=bool)
    hd_conj = hd.conj() if hd.any() else None
    for _ in range(_PHASE_STEPS):
        cand = _image(w * e, g, h_norms, v, bs, hd_conj)
        e_cand = hd + cand @ gc_t
        gains = np.abs(e_cand) ** 2
        f_cand, split = _score(problem, gains, noise)
        active &= f_cand > f + _IMPROVE_MARGIN * np.abs(f)
        kept = np.count_nonzero(active)
        if not kept:
            break
        w_cand = _slope(problem, gains, noise, split)
        if kept == len(active):
            v, e, w, f = cand, e_cand, w_cand, f_cand
        else:
            v = np.where(active[:, None], cand, v)
            e = np.where(active[:, None], e_cand, e)
            w = np.where(active[:, None], w_cand, w)
            f = np.where(active, f_cand, f)
        steps += active
        history.append(f)
    best = int(f.argmax())
    trace = tuple(float(scores[best]) for scores in history[:steps[best] + 1])
    return v[best], trace


def _require_two_users(ch: ChannelRealization) -> None:
    if ch.num_users != 2:
        raise ValueError("the sum-rate problem is defined for exactly 2 users")


def _evaluate(ch: ChannelRealization, image: np.ndarray, problem: ProblemSpec) -> tuple:
    """The optimal full-power split at the image v = Phi h and its
    RateResult, from the two effective channels h_d[u] + g_u^H v, each formed
    as channel.effective_channel forms it. Raises ValueError unless there are
    exactly 2 users, and InfeasibleAllocationError when no split meets both
    minimum rates, or FloatingPointError when the sum rate is not finite (a
    numeric failure, not an outage)."""
    _require_two_users(ch)
    gains = [abs(complex(ch.h_direct[u] + ch.g_ris_user[u].conj() @ image)) ** 2
             for u in range(2)]
    strong = int(gains[1] > gains[0])     # ties go to the lower index, as in order_users
    alpha_far, feasible, r_n, r_f = _split(problem, gains[strong], gains[1 - strong],
                                           ch.noise_mw)
    if not np.isfinite(r_n + r_f):
        raise FloatingPointError(f"non-finite rates (near {r_n}, far {r_f})")
    if not feasible:
        raise InfeasibleAllocationError(
            f"no full-power split meets the minimum rates (near {problem.min_rate_near}, "
            f"far {problem.min_rate_far})")
    alloc = NomaAllocation(problem.power_mw, 1.0 - float(alpha_far), float(alpha_far))
    return alloc, RateResult(float(r_n), float(r_f), float(r_n + r_f), (strong, 1 - strong))


# perfbench/spans.py wraps optimizer.solve_power_subproblem by name; nothing here calls it
def solve_power_subproblem(ch: ChannelRealization, phi: np.ndarray,
                           problem: ProblemSpec) -> NomaAllocation:
    """Optimal full-power split for a fixed reflective K x K Phi.

    alpha_far = max(0.5, alpha_far*), alpha_near = 1 - alpha_far: the sum
    rate is non-increasing in alpha_far once the far user's minimum rate
    holds, so the smallest ordered split is optimal (gains tie -> the sum
    rate is split-invariant and the same boundary is returned).

    Raises DimensionError when phi is not K x K, ValueError unless ch has
    exactly 2 users, and InfeasibleAllocationError when no split meets both
    minimum rates.
    """
    k = ch.num_elements
    if np.shape(phi) != (k, k):
        raise DimensionError(f"phase matrix shape {np.shape(phi)} does not match K={k}")
    return _evaluate(ch, phi @ ch.h_sat_ris, problem)[0]


def bcd_solve(ch: ChannelRealization, problem: ProblemSpec,
              warm_image: np.ndarray | None = None) -> Solution:
    """Solve one realization: solve_phase_subproblem from warm_image (the
    identity's image h when None), whose score holds the optimal power split
    at every step, then _evaluate at the image it returns for the split and
    the rates. The Solution carries that image; its phase, a Phi with
    Phi h = image, is built only when read.

    The Solution's trace is the winning start's ascent trace, and converged
    is False only when that start ran into the step cap. Raises ValueError
    unless ch has exactly 2 users, InfeasibleAllocationError when the best
    start still misses a minimum rate, and FloatingPointError when its rate
    is not finite.
    """
    _require_two_users(ch)
    image, trace = solve_phase_subproblem(ch, problem, warm_image=warm_image)
    alloc, rates = _evaluate(ch, image, problem)
    return Solution(alloc, image, rates, trace, ch.h_sat_ris, problem.effective_spec)


# ---------------------------------------------------------------------------
# exact oracle: a search over the exposed points of the reachable channels
# ---------------------------------------------------------------------------

_DIRECTION_POINTS = (33, 64)       # coarse points in t and p
_SEARCH_STARTS = 4                 # best coarse local maxima refined
_SEARCH_MIN_STEP = 2.0 ** -40      # in units of the coarse spacing


def _zoom_search(score, n: int, spacing: np.ndarray):
    """Maximize score, which maps points (n, m, d) to values (n, m), from n
    starts at x = 0, by nested zoom grids. Each level scores the 9^d grid
    x + step * spacing * z, z in {-4, ..., 4}^d, around each start's best
    point, moves there if it beats x, and halves the step. The first step
    is 1/4, so the first grid spans one coarse cell each way; the search
    ends once the step falls below _SEARCH_MIN_STEP, after 39 levels.
    Returns the final points and scores.

    Coarser grids end lower. Against the pattern search this replaced, on
    unit-scale and satellite-scale oracle calls, 9^d halving drops at most
    1.3e-13 relative, 7^d halving 5.8e-13, and 5^d halving or grids
    shrinking by 3 per level 1.9e-8. A thin feasible sliver with a kink,
    whose error shrinks only linearly with the step, is up to 2.4e-12
    short at 26 levels and reached at 27: the floor leaves 2^12 in step."""
    d = len(spacing)
    z = np.indices((9,) * d).reshape(d, -1).T - 4.0
    rows = np.arange(n)
    x = np.zeros((n, d))
    f = score(x[:, None, :])[:, 0]
    step = 0.25
    while step >= _SEARCH_MIN_STEP:
        cand = x[:, None, :] + (step * spacing) * z
        f_cand = score(cand)
        best = np.argmax(f_cand, axis=1)
        better = f_cand[rows, best] > f
        x = np.where(better[:, None], cand[rows, best], x)
        f = np.where(better, f_cand[rows, best], f)
        step /= 2.0
    return x, f


def exact_oracle(ch: ChannelRealization, problem: ProblemSpec) -> Solution:
    """Global sum-rate optimum for any K and every block size: the best
    closed-form-split sum rate at the exposed point y*(u) over unit u =
    (cos t, e^{jp} sin t) in C^2 (the module docstring says why this is
    exact, with or without direct links). A direction whose split misses a
    minimum rate scores minus its rate shortfall: below every feasible
    direction, and rising toward the feasible set, so the search reaches
    feasible sets too thin for the grid. The best few local maxima of a
    coarse (t, p) grid are refined by nested zoom grids (_zoom_search) in
    a chart centred on each, u = (u_0 + xi u_0^perp) / sqrt(1 + |xi|^2),
    regular where (t, p) is not. As a reference, the oracle builds the Phi
    that its Solution's phase builds from the best direction's image and
    reports _evaluate at Phi h, that Phi's rates. Raises ValueError unless
    ch has exactly 2 users, and InfeasibleAllocationError when that Phi
    misses a minimum rate.
    """
    _require_two_users(ch)
    spec = problem.effective_spec
    bs = spec.block_size
    h_norms = _norms(ch.h_sat_ris.reshape(-1, bs))
    gc_t = ch.g_ris_user.conj().T
    fixed = (ch.g_ris_user, h_norms, ch.h_sat_ris, bs,
             ch.h_direct.conj() if ch.h_direct.any() else None)

    def rate(u):
        gains = np.abs(ch.h_direct + _image(u, *fixed) @ gc_t) ** 2
        return _score(problem, gains, ch.noise_mw)[0]

    n_t, n_p = _DIRECTION_POINTS
    t, p = np.meshgrid((np.arange(n_t) + 0.5) * (np.pi / 2.0 / n_t),
                       2.0 * np.pi * np.arange(n_p) / n_p, indexing="ij")
    dirs = np.stack([np.cos(t), np.exp(1j * p) * np.sin(t)], axis=-1)
    scores = rate(dirs)
    peaks = np.full(scores.shape, True)
    for axis in range(2):
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
        return (u0 + xi * perp) / np.sqrt(1.0 + np.abs(xi) ** 2)

    x, f = _zoom_search(lambda x: rate(chart(x)), len(u0),
                        np.full(2, np.pi / 2.0 / n_t))
    v = _image(chart(x[:, None, :])[int(np.argmax(f)), 0], *fixed)
    phi = _surface_from_image(ch.h_sat_ris, v, spec)
    alloc, rates = _evaluate(ch, phi @ ch.h_sat_ris, problem)
    return Solution(alloc, v, rates, (rates.sum_rate,), ch.h_sat_ris, spec)
