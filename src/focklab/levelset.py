"""Superlevel-set geometry of the weighted density.

Everything here works with the density u = |f|^p exp(-(alpha p/2)|x|^2):
its maximum, the Lebesgue measure mu(t) of superlevel sets {u > t}, the
monotone diagnostic g(t) = t * exp(kappa(m) * alpha p * mu(t)^(2/m)), and the
layer-cake reconstruction of convex functionals from mu.

Two isoperimetric constants are on offer: the sharp ball constant (based on
Gamma(1 + m/2), equality for balls in every dimension) and the literal
Gamma(m/2) variant, kept as a flag because the two disagree for m != 2 and the
disagreement is observable: with the literal constant the coherent-state
diagnostic comes out increasing in m = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, MethodUnavailableError, OptimizationFailureError
from .functions import (
    FockParams,
    TestFunction,
    _check_dims,
    _illinois,
    _integer,
    _log_density_and_weight,
    _seed,
    _sq_norm,
    _thresholds,
    envelope_radius,
    log_density_batch,
)
from .integrate import (
    ConvexFunction,
    GaussHermite,
    _block_sizes,
    _exp,
    _in_lanes,
    _sphere_rule,
    convex_functional,
)

__all__ = [
    "IsoperimetricVariant",
    "MaxResult",
    "MeasureEstimate",
    "LevelGrid",
    "LevelProfile",
    "LayerCakeResult",
    "unit_ball_volume",
    "find_max",
    "superlevel_measure",
    "superlevel_measure_exact",
    "g_from_mu",
    "g_diagnostic",
    "layer_cake",
]


class IsoperimetricVariant(Enum):
    """Choice of dimensional constant in the diagnostic exponent."""

    SHARP_BALL = "sharp-ball"
    PAPER_LITERAL = "paper-literal"

    def kappa(self, m: int) -> float:
        """Coefficient of alpha*p*mu^(2/m) in log(g/t); log-gamma keeps it finite for every m."""
        arg = 1.0 + m / 2.0 if self is IsoperimetricVariant.SHARP_BALL else m / 2.0
        return math.exp(2.0 / m * math.lgamma(arg)) / (2.0 * math.pi)


def unit_ball_volume(m: int) -> float:
    """pi^(m/2) / Gamma(1 + m/2) by V(m) = V(m-2) 2 pi / m from V(0) = 1, V(1) = 2.

    The product does not overflow where Gamma does (m >= 342), and it keeps the
    rounding of log Gamma out of an exponent, which in exp(lgamma) form costs
    ~50 ulp already at m = 40.
    """
    v = 2.0 if m % 2 else 1.0
    for k in range(2 + m % 2, m + 1, 2):
        v *= 2.0 * math.pi / k
    return v


@dataclass(frozen=True)
class MaxResult:
    """Maximum of the density and how `find_max` found it.

    rule is "closed_form" for a radial profile's peak, which makes no restarts
    (0 of 0), or "newton" for the one multistart search, whose
    restarts_agreeing of restarts_total ended within 1e-8 of the best log u.
    gradient_norm and hessian_eigenvalues (ascending) are those of log u at
    the argmax, a second-order certificate: the closed form's are exact, with
    a zero eigenvalue along each direction of a peak sphere.  t_max is
    derived, exp(log_t_max): inf or 0 outside the double range.
    """

    argmax: tuple[float, ...]
    restarts_agreeing: int
    restarts_total: int
    log_t_max: float
    rule: str
    gradient_norm: float
    hessian_eigenvalues: tuple[float, ...]
    t_max = property(lambda self: _exp(self.log_t_max))


@dataclass(frozen=True)
class MeasureEstimate:
    """Hit-count estimate of mu(t) = |{u > t}| with its binomial stderr.

    The stderr uses the hit share (hits + 1) / (n + 2), so it stays positive
    when no point or every point hits.
    """

    value: float
    stderr: float
    threshold: float
    samples: int
    seed: int
    ball_radius: float


@dataclass(frozen=True)
class LevelGrid:
    """Geometric threshold grid t_k = t_max * ratio^k, k = 1..count, held as log(t_k / t_max)."""

    count: int = 60
    ratio: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "count", _integer(self.count, 2, "grid needs an integer count of at least 2 levels"))
        if not (0 < self.ratio < 1):
            raise InvalidInputError("grid ratio must lie in (0, 1)")

    def log_levels(self, count: int | None = None) -> np.ndarray:
        """log(t_k / t_max) = k log ratio, k = 0..count (self.count unless given): the peak, then the grid."""
        return np.arange((self.count if count is None else count) + 1) * math.log(self.ratio)


@dataclass
class LevelProfile:
    """mu and g sampled on a decreasing threshold grid, with violation records.

    rule says where mu came from: "rays" (m <= 3, ray crossings; mu_stderr is
    a stated error bound, ray_grid the directions and radii of the grid that
    produced mu, at most the grid `samples` caps) or "cloud" (m >= 4, hit
    counts; mu_stderr is their sd, ray_grid None).  points counts every
    density evaluation made for mu: every grid the ray ladder tried, or the
    cloud.
    violations holds triples (t_hi, t_lo, excess): adjacent grid levels where g
    dropped while t decreased, by more than 3x the propagated error of mu;
    violation_levels holds the index of each t_lo.  t_max is derived,
    exp(log_t_max); it, t_grid and g read inf or 0 outside the double range;
    mu and the flags do not depend on it.
    """

    params: FockParams
    variant: IsoperimetricVariant
    log_t_max: float
    t_grid: np.ndarray
    mu: np.ndarray
    mu_stderr: np.ndarray
    g: np.ndarray
    g_err: np.ndarray
    violations: tuple[tuple[float, float, float], ...]
    violation_levels: tuple[int, ...]
    samples: int
    seed: int
    points: int  # density evaluations made for mu, all levels together
    rule: str  # "rays" (m <= 3) or "cloud" (m >= 4)
    ray_grid: tuple[int, int] | None  # (directions, radii) of the ray grid that produced mu; None for the cloud
    t_max = property(lambda self: _exp(self.log_t_max))

    def violation_flags(self) -> np.ndarray:
        return np.isin(np.arange(len(self.t_grid)), self.violation_levels)


# ---------------------------------------------------------------------------
# maximization


_NEWTON_STEPS = 200  # a start's most Newton steps


def find_max(
    f: TestFunction, params: FockParams, restarts: int = 16, seed: int = 0
) -> MaxResult:
    """The density maximum: the radial profile's closed form, or else one search.

    Where f has a radial profile, its `peak` answers (rule "closed_form", 0 of
    0 restarts) and raises OptimizationFailureError where u vanishes or grows
    without bound.  Otherwise `_search_max` runs the multistart Newton search,
    which needs f's `_log_abs_jet` and raises MethodUnavailableError without one.
    """
    _check_dims(f, params)
    restarts = _integer(restarts, 0, "restarts must be an integer of at least 0")
    seed = _seed(seed)
    profile = f.radial_profile(params)
    if profile is None:
        return _search_max(f, params, restarts, seed)
    log_t_max, point = profile.peak()
    # log u = A + K log r - B r^2: -4B across a peak sphere and 0 along it, or -2B on every axis at a centre peak
    if profile.K:
        curvature = (-4.0 * profile.B,) + (0.0,) * (params.m - 1)
    else:
        curvature = (-2.0 * profile.B,) * params.m
    return MaxResult(
        argmax=point,
        restarts_agreeing=0,
        restarts_total=0,
        log_t_max=log_t_max,
        rule="closed_form",
        gradient_norm=0.0,
        hessian_eigenvalues=curvature,
    )


def _search_max(f: TestFunction, params: FockParams, restarts: int = 16, seed: int = 0) -> MaxResult:
    """Multistart Newton ascent on phi = log|f| - (alpha/2)|x|^2 = log u / p - log_scale.

    phi, and so the argmax, depends neither on p nor on the scale of f.  The
    starts are the family's candidate extremizers, then `restarts` draws of
    N(0, I/alpha) from default_rng(seed); starts where f = 0 are jittered by
    N(0, I/(100 alpha)), all at once, up to 20 times.  All starts run in
    lockstep on f's jet (log|f|, its gradient and Hessian).  A step solves
    the Newton system on the Hessian's eigenvectors, each eigenvalue above
    -2^-26 alpha (phi flat to within sqrt(eps), or not concave) replaced by
    -alpha, a 1/alpha gradient step; it halves until it gains 1e-4 of its
    first-order gain (Armijo), each halving evaluating only the starts that
    fell short (Nocedal & Wright, Numerical Optimization, 2006, ch. 3).  A
    start stops when its step is at most 1e-12 (1 + |x|), when its gain is
    within phi's roundoff 2^-50 (|phi| + alpha |x|^2 + 1), or after
    _NEWTON_STEPS steps.  log_t_max is one log_density_batch call at the
    best point; a restart agrees when it ends within 1e-8 of it in log u.
    """
    if type(f)._log_abs_jet is TestFunction._log_abs_jet:
        raise MethodUnavailableError(
            f"{type(f).__name__} has no radial profile and no _log_abs_jet, which the peak search needs"
        )
    rng = np.random.default_rng(seed)
    alpha, m = params.alpha, params.m

    def jet(X):
        """phi, its gradient and its Hessian; phi is nan where the Hessian is not finite, as at a zero of f."""
        value, grad, hess = f._log_abs_jet(X)
        value = np.where(np.isfinite(hess).all(axis=(1, 2)), value - 0.5 * alpha * _sq_norm(X), np.nan)
        return value, grad - alpha * X, hess - alpha * np.eye(m)

    def move(i, points, new):
        x[i] = points
        for old, value in zip((phi, grad, hess), new):
            old[i] = value

    hints = [np.asarray(h, dtype=float) for h in f.max_hints(params)]
    x = np.vstack(hints + [rng.standard_normal((restarts, m)) / math.sqrt(alpha)])
    phi, grad, hess = jet(x)
    for _ in range(20):
        if not (bad := np.flatnonzero(~np.isfinite(phi))).size:
            break
        trial = x[bad] + rng.standard_normal((bad.size, m)) * (0.1 / math.sqrt(alpha))
        new = jet(trial)
        ok = np.isfinite(new[0])
        move(bad[ok], trial[ok], [v[ok] for v in new])
    found = np.isfinite(phi)
    if not found.any():
        raise OptimizationFailureError("no starting point with nonzero density found")
    x, phi, grad, hess = x[found], phi[found], grad[found], hess[found]

    running = np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        if not running.size:
            break
        lam, V = np.linalg.eigh(hess[running])
        lam[lam >= -(2.0**-26) * alpha] = -alpha
        step = np.einsum("sij,sj->si", V, np.einsum("sji,sj->si", V, grad[running]) / -lam)
        slope = np.einsum("si,si->s", grad[running], step)
        go = np.zeros(running.size, dtype=bool)  # the starts that step on
        rows = np.arange(running.size)  # the starts still searching their line
        while (rows := rows[np.sqrt(_sq_norm(step[rows])) > 1e-12 * (1.0 + np.sqrt(_sq_norm(x[running[rows]])))]).size:
            i = running[rows]
            new = jet(x[i] + step[rows])
            ok = new[0] >= phi[i] + 1e-4 * slope[rows]  # false where phi is nan
            roundoff = 2.0**-50 * (np.abs(phi[i]) + alpha * _sq_norm(x[i]) + 1.0)
            go[rows[ok]] = (new[0] - phi[i] > roundoff)[ok]
            move(i[ok], x[i[ok]] + step[rows[ok]], [v[ok] for v in new])
            rows = rows[~ok]
            step[rows] *= 0.5
            slope[rows] *= 0.5
        running = running[go]

    best = int(np.argmax(phi))
    return MaxResult(
        argmax=tuple(float(c) for c in x[best]),
        restarts_agreeing=int(np.sum(params.p * (phi[best] - phi) <= 1e-8)),
        restarts_total=len(phi),
        log_t_max=float(log_density_batch(f, params, x[best : best + 1])[0]),
        rule="newton",
        gradient_norm=params.p * float(np.linalg.norm(grad[best])),
        hessian_eigenvalues=tuple(float(v) for v in params.p * np.linalg.eigvalsh(hess[best])),
    )


# ---------------------------------------------------------------------------
# superlevel measure


@dataclass(frozen=True)
class _NestedCloud:
    mu: np.ndarray  # mu at each threshold
    var: np.ndarray  # Var(mu), one per threshold
    weighted_var: float | np.ndarray  # Var(weights . mu): 0 without weights, one per row of 2-D weights
    radii: np.ndarray  # padded ball radii R_k, nondecreasing
    points: int  # density evaluations, all shells together


def _nested_measures(f, params, log_grid, samples, seed, log_thresholds=None, weights=None) -> _NestedCloud:
    """Hit-count estimates of mu at decreasing thresholds from one stratified cloud.

    Thresholds come as log t.  The shells sit on the decreasing grid: B_k is
    the ball of radius R_k = 1.05 * envelope radius of log_grid[k] (made
    nondecreasing), so the balls are nested.  Shell j = B_j minus B_{j-1} gets
    ceil(samples |S_j| / |B_j|) uniform points, the ratio taken 1e-9 low lest
    rounding in the radii, which moves with the scale of f, add a point where it
    is an integer (samples / (j + 1) for a Gaussian in the plane): every level
    sees the point density of `samples` points in its own ball, to 1e-9.  log u
    is evaluated once per point, and one searchsorted per block counts its
    hits at every threshold (log_grid itself unless given, say the layer cake's
    nodes); shell j can hit only those below log_grid[j-1].  Hits at t_k >= t_l
    are correlated, Cov(I_k, I_l) = h_k (1 - h_l), where h = (hits + 1) / (n + 2)
    stays positive when no point or every point hits, so Var(mu_k) and
    Var(weights . mu) take O(thresholds) per shell.  weights is one vector or
    a 2-D array of them, one weighted_var per row, each row with the bits of
    its own 1-D call.

    Each shell comes in blocks of at most 2^16 rows, numbered in shell order:
    block i draws its normals (the directions), then its uniforms (r^m over
    the shell) from default_rng(child i of SeedSequence(seed, spawn_key=(0,))),
    which shares no draw with Monte Carlo (spawn key (1,)) or default_rng(seed).
    The blocks run in the lanes of integrate._in_lanes and return only their
    counts of thresholds below log u; the caller adds up each shell's counts
    and accumulates shell by shell, so every result is bit-identical for any
    lane count.  A block may run on a worker thread, so it reaches the density
    through functions._log_density_and_weight, never through the wrapped
    log_density_batch, whose perfbench span stack is not thread-safe.
    """
    samples = _integer(samples, 1000, "need an integer count of at least 1000 samples")
    seed = _seed(seed)
    log_thresholds = log_grid if log_thresholds is None else log_thresholds
    m, count = params.m, len(log_thresholds)
    radii = np.maximum.accumulate(1.05 * envelope_radius(f, params, log_grid))
    ball = unit_ball_volume(m) * radii**m
    shell = np.diff(ball, prepend=0.0)
    log_t_asc = log_thresholds[::-1]
    # first threshold below log_grid[j-1], the top of shell j
    first = count - np.searchsorted(log_t_asc, np.concatenate([[math.inf], log_grid[:-1]]))
    # the shells that hold points, their point counts, and their blocks in shell order
    shells = [j for j in range(len(log_grid)) if shell[j] > 0.0]
    n = [math.ceil(samples * shell[j] / ball[j] * (1.0 - 1e-9)) for j in shells]
    blocks = [_block_sizes(n_j) for n_j in n]
    sizes = [rows for shell_blocks in blocks for rows in shell_blocks]
    of_shell = [j for j, shell_blocks in zip(shells, blocks) for _ in shell_blocks]
    streams = np.random.SeedSequence(seed, spawn_key=(0,)).spawn(len(sizes))

    def block(buf, job):
        """Counts of the block's points by the number of thresholds below their log u."""
        stream, j = job
        rows = len(buf)
        flat = buf.reshape(-1)  # rows x m normals, then rows uniforms for r^m
        X, r = flat[: rows * m].reshape(rows, m), flat[rows * m :]
        rng = np.random.default_rng(stream)
        rng.standard_normal(out=X)
        rng.random(out=r)
        inner = radii[j - 1] ** m if j > 0 else 0.0
        r *= radii[j] ** m - inner
        r += inner
        r **= 1.0 / m
        r /= np.sqrt(np.einsum("ij,ij->i", X, X))
        X *= r[:, None]
        # thresholds below log u, counted on the ascending thresholds
        below = np.searchsorted(log_t_asc, _log_density_and_weight(f, params, X)[0])
        return np.bincount(below, minlength=count + 1)

    counts = iter(_in_lanes(block, sizes, list(zip(streams, of_shell)), m + 1))
    mu, var = np.zeros(count), np.zeros(count)
    rows = () if weights is None else np.atleast_2d(weights)
    weighted_var = [0.0] * len(rows)
    for j, n_j, shell_blocks in zip(shells, n, blocks):
        shell_counts = sum(next(counts) for _ in shell_blocks)  # the shell's blocks, in block order
        at_least = np.cumsum(shell_counts[::-1])[::-1]
        k = first[j]
        hits = at_least[count - k : 0 : -1]  # thresholds k..count-1
        mu[k:] += shell[j] * hits / n_j
        h = (hits + 1.0) / (n_j + 2.0)
        s2n = shell[j] ** 2 / n_j
        var[k:] += s2n * (h * (1.0 - h))
        for row, c in enumerate(rows):  # c.Cov.c = sum_l c_l (1 - h_l) (2 sum_{i<=l} c_i h_i - c_l h_l)
            ch = c[k:] * h
            weighted_var[row] += s2n * float(c[k:] * (1.0 - h) @ (2.0 * np.cumsum(ch) - ch))
    if weights is None or np.ndim(weights) == 1:
        weighted_var = weighted_var[0] if weighted_var else 0.0
    else:
        weighted_var = np.array(weighted_var)
    return _NestedCloud(mu, var, weighted_var, radii, sum(n))


def superlevel_measure(
    f: TestFunction, params: FockParams, t: float, samples: int = 200_000, seed: int = 0
) -> MeasureEstimate:
    """Uniform hit-counting inside the envelope ball, radius padded by 5 percent.

    The one-level case of the level cloud, `_nested_measures`.
    t is one threshold; `superlevel_measure_exact` takes an array.
    """
    if _thresholds(t).ndim:
        raise InvalidInputError(f"expected one threshold t, got shape {np.shape(t)}")
    cloud = _nested_measures(f, params, np.log([float(t)]), samples, seed)
    return MeasureEstimate(
        float(cloud.mu[0]), math.sqrt(cloud.var[0]), t, int(samples), seed, float(cloud.radii[0])
    )


def superlevel_measure_exact(f: TestFunction, params: FockParams, t):
    """mu(t) from the closed-form radii of the radial profile, for radially representable densities.

    t is a scalar, giving a float, or an array of thresholds, all solved at once.
    """
    log_t = np.log(_thresholds(t))
    _check_dims(f, params)
    profile = f.radial_profile(params)
    if profile is None:
        raise InvalidInputError(f"no radial representation for family '{f.family}'")
    if profile.B <= 0:
        raise InvalidInputError("density is not decaying; measure is infinite")
    r_in, r_out = profile.radii(log_t)
    mu = unit_ball_volume(params.m) * (r_out**params.m - r_in**params.m)
    return float(mu) if mu.ndim == 0 else mu


_BLOCK_CROSSINGS = 1 << 13  # memory bound: crossings of a ray block, at one per level and ray
_REFINE_CHUNK = 1 << 14  # memory bound: brackets refined at once, as rays through an annulus cross each level twice


@dataclass(frozen=True)
class _RayGrid:
    """One grid of the ray ladder: its sums per level, its evaluations and what the next grid reuses."""

    grid: tuple[int, int]  # (angular nodes, cells)
    # a row per sum, a column per level, ascending: mu, the root errors, the term sizes, the term counts, the root
    # errors known only to a whole cell, mu on half the cells and, at m <= 2, mu on half the angular nodes, on half
    # of both and on a quarter of the angular nodes
    sums: np.ndarray
    blocks: int
    evaluations: int
    log_u: np.ndarray | None  # (rays, cells + 1), kept for the next grid
    keys: np.ndarray | None  # (ray * cells + cell) * levels + level of each crossing, ascending
    lo: np.ndarray | None  # the last bracket of each crossing's root
    hi: np.ndarray | None


def _ray_grid(m: int, samples: int) -> tuple[int, int]:
    """(angular nodes of integrate._sphere_rule, radial cells) of the largest ray grid for m <= 3.

    From 8 and 8, doubles the angular nodes while the rule has fewer than 4
    directions per cell, else the cells, until directions x cells reaches
    `samples`: 1024 x 256 at m = 2 and 2048 x 512 at m = 3 for 200,000 and
    10^6 samples.  At m = 1 the two rays take at most 2^15 cells each.
    `samples` is a cap: `_ray_measures` starts from the grid of 1000 samples
    (64 x 16 at m = 2, 128 x 16 at m = 3) and never passes this one.
    """
    n_ang, cells = 8, 8

    def directions(n):
        return (2, n, n * (n // 2))[m - 1]

    while directions(n_ang) * cells < samples:
        if m > 1 and directions(n_ang) < 4 * cells:
            n_ang *= 2
        elif cells < 1 << 15:
            cells *= 2
        else:
            break
    return n_ang, cells


def _ray_measures(f, params, log_grid, samples, centre):
    """mu at decreasing thresholds, m <= 3, from the crossings of log u = log t along rays.

    Returns mu, its error, the (directions, radii) of the grid that gave them
    and the density evaluations of every grid tried.  `_ray_pass` measures
    one grid and returns its sums per level; the gap, the error, the stop and
    the step are formed here.  The gap is to the grid of half the angular
    nodes and half the cells: a sub-grid at m <= 2, and at m = 3, whose
    Gauss-Legendre polar rule does not nest in the angle, a second
    `_ray_pass`, whose evaluations count too.  The error is the gap plus the
    root errors plus, per sum of n terms over b blocks, 2^-53 (n + b + 8)
    times the sum of their sizes.

    The ladder starts at `_ray_grid(m, 1000)` and stops at the first grid
    whose discretisation error, the gap plus the roots known only to a whole
    cell, lies within its floating-point terms at every level: the trapezoid
    in the angle converges geometrically on a level set seen whole from the
    centre (Trefethen & Weideman 2014), and stopping only at the roundoff
    floor is the safeguard of Aurentz & Trefethen 2017.  Otherwise it doubles
    the cells or the angular nodes, whichever has the larger gap (the cells'
    to half the cells, with the whole-cell roots; the angle's to half the
    angular nodes, at m = 3 taken at half the cells), and it stops on the cap
    `_ray_grid(m, samples)` whatever the error, so the grid it stops on
    depends on `samples` only where the cap binds.  It leaves for the cap in
    place of an angular step at m = 3, where the step would reuse nothing,
    and at m = 2 where the gap to half the angular nodes is more than a
    quarter of the gap between a half and a quarter of them (algebraic
    convergence, as over a small hole off the centre, whose chords have
    square-root edges in the angle).  Every grid, the cap too, reuses the
    density values and roots of a last grid with half its cells or, at m = 2,
    half its angular nodes.

    The error rests on the assumption that no cell holds two crossings of
    one level, which cancel and go unseen: the gap shows such a pair only
    where one grid resolves it.  Where rays cross a small hole of a level set
    off the centre, the gap can fall short of the cap grid's error.
    """
    samples = _integer(samples, 1000, "need an integer count of at least 1000 samples")
    m = params.m
    log_t = np.asarray(log_grid, dtype=float)[::-1]  # ascending
    centre = np.asarray(centre, dtype=float)
    reach = math.hypot(*centre) + 1.05 * envelope_radius(f, params, log_t[0])
    cap, grid = _ray_grid(m, samples), _ray_grid(m, 1000)
    ray, points = None, 0
    while True:
        ray = _ray_pass(f, params, log_t, centre, reach, grid, ray, grid != cap)
        points += ray.evaluations
        mu, root_error, size, terms, whole, half_cells = ray.sums[:6]
        if m == 3:
            half = _ray_pass(f, params, log_t, centre, reach, (grid[0] // 2, grid[1] // 2), None, False)
            points += half.evaluations
            coarse = half.sums[0]
            angular = np.sum(np.abs(half_cells - coarse))
        else:
            half_angles, coarse, quarter = ray.sums[6:]
            angular = np.sum(np.abs(mu - half_angles))
        gap = np.abs(mu - coarse)
        roundoff = 2.0**-53 * (terms + ray.blocks + 8.0) * size
        if grid == cap or np.all(gap + whole <= root_error - whole + roundoff):
            break
        if grid[1] < cap[1] and (np.sum(np.abs(mu - half_cells) + whole) >= angular or grid[0] == cap[0]):
            grid = (grid[0], 2 * grid[1])
        elif m == 3 or angular > 0.25 * np.sum(np.abs(half_angles - quarter)):
            grid = cap
        else:
            grid = (2 * grid[0], grid[1])
    return mu[::-1], (gap + root_error + roundoff)[::-1], (len(_sphere_rule(m, grid[0])[1]), grid[1] + 1), points


def _ray_pass(f, params, log_t, centre, reach, grid, prev, keep) -> _RayGrid:
    """The sums per level of one ray grid (angular nodes, cells), from which `_ray_measures` forms mu and its error.

    In polar coordinates about the centre, mu(t) = (1/m) sum over directions
    w of sum_i s_i r_i^m, over the crossings r_i of the ray with the boundary
    of {u > t}, s_i = +1 where the ray leaves the set and -1 where it enters
    it, for any set whose crossings are bracketed, annuli and sets with holes
    among them.  The directions and weights w come from one
    integrate._sphere_rule; each ray is sampled at the ends of equal cells
    out to `reach`, beyond which u < t at every level.  One searchsorted
    counts the levels below log u at every grid point, so a cell whose two
    counts differ brackets one crossing of each level in between; `_illinois`
    refines the brackets together to adjacent doubles.  A root's error is
    the width of its last bracket plus the shift of a 2^-50 (|log t| +
    (alpha p/2)|x|^2 + 1) error in log u - log t over its slope across the
    cell (the whole cell where an end is a zero of f), times m r^(m-1) w.
    The grid of half the cells, and at m <= 2 the grids of half the angular
    nodes, of both halved and of a quarter of the angular nodes, are
    sub-grids, whose doubled cells bracket a level where the counts at their
    ends straddle it, so their mu costs no evaluation.

    Where `prev` is the grid of half the cells, or at m = 2 of half the
    angular nodes, only the new points are evaluated, and a root `prev` found
    in the cell holding a crossing is kept where its last bracket lies in the
    crossing's cell; with `keep` the grid hands its own values and roots on.
    Without `prev` every point and root is its own.  Blocks of whole rays, at
    most 2^16 grid points and _BLOCK_CROSSINGS crossings at one per level,
    run in turn on the calling thread, each refining at most _REFINE_CHUNK
    brackets at once, and their sums are added in block order.  A block calls
    _log_density_and_weight, not the wrapped log_density_batch.
    """
    m, count = params.m, len(log_t)
    n_ang, cells = grid
    n_rad = cells + 1
    # prev has every other radius of this grid, or at m = 2 every other direction
    halved_cells = prev is not None and prev.grid == (n_ang, cells // 2)
    halved_angles = prev is not None and m == 2 and prev.grid == (n_ang // 2, cells)
    nested = halved_cells or halved_angles
    directions, ray_weights = _sphere_rule(m, n_ang)
    ray_weights, radii = ray_weights / m, np.linspace(0.0, reach, n_rad)
    # the fewest blocks of whole rays, of near-equal size, with at most 2^16 grid points and, at one
    # crossing per level, _BLOCK_CROSSINGS crossings each
    rays = len(ray_weights)
    most = max(1, min(_block_sizes(rays * n_rad)[0] // n_rad, _BLOCK_CROSSINGS // count))
    blocks = -(-rays // most)
    bounds = (rays * np.arange(blocks + 1) // blocks).tolist()

    def block(lo, hi):
        """Sums per level (see above), this block's state and its evaluations."""
        omega, weights = directions[lo:hi], ray_weights[lo:hi]
        new_rays, new_cells = slice(None), slice(None)  # the new points
        if nested:
            log_u = np.empty((hi - lo, n_rad))
            if halved_cells:
                log_u[:, ::2], new_cells = prev.log_u[lo:hi], slice(1, None, 2)
            else:  # the even directions are prev's
                log_u[lo % 2 :: 2] = prev.log_u[(lo + 1) // 2 : (hi + 1) // 2]
                new_rays = slice(1 - lo % 2, None, 2)
        new_omega, new_radii = omega[new_rays], radii[new_cells]
        shape = len(new_omega), len(new_radii)
        evaluations = shape[0] * shape[1]
        # column-major: a ray's points run down each column
        X = np.empty((m, evaluations)).T
        for c in range(m):
            np.multiply.outer(new_omega[:, c], new_radii, out=X[:, c].reshape(shape))
            X[:, c] += centre[c]
        if nested:
            log_u[new_rays, new_cells] = _log_density_and_weight(f, params, X)[0].reshape(shape)
        else:
            log_u = _log_density_and_weight(f, params, X)[0]
        del X, new_omega
        log_u = log_u.reshape(-1)
        below = np.searchsorted(log_t, log_u)  # the levels below log u, whose sets hold the point
        ends_of = below.reshape(hi - lo, n_rad)
        cell = np.flatnonzero(ends_of[:, 1:] != ends_of[:, :-1])  # the cells whose counts differ, per ray
        cell += cell // (n_rad - 1)  # as the grid index of the cell's inner end
        step = below[cell + 1] - below[cell]
        n = np.abs(step)  # one crossing per level between the two counts
        at = np.repeat(np.arange(cell.size), n)
        level = np.minimum(below[cell], below[cell + 1])[at] + np.arange(at.size) - np.repeat(np.cumsum(n) - n, n)
        cell = cell[at]
        ray, j = np.divmod(cell, n_rad)
        # w s: the ray's weight, + where the count falls (the ray leaves the set), - where it rises
        w = np.where(step[at] < 0, weights[ray], -weights[ray])
        # the doubled cell holding this one brackets the level where the counts at its ends straddle it
        inner = cell - j % 2
        ends = below[inner], below[inner + 2]
        half_cells = (level >= np.minimum(*ends)) & (level < np.maximum(*ends))
        if m < 3:  # every m-th direction is one of half the angular nodes, every 2m-th one of a quarter
            half_angles, quarter = (lo + ray) % m == 0, (lo + ray) % (2 * m) == 0
        del inner, ends
        lt = log_t[level]
        phi_lo, phi_hi = log_u[cell] - lt, log_u[cell + 1] - lt
        columns = [omega[:, c][ray] for c in range(m)]
        keys = ((lo + ray) * (n_rad - 1) + j) * count + level if keep else None
        r_lo, r_hi, fresh = radii[j], radii[j + 1], None
        if nested and prev.keys.size:
            # prev's key of each crossing: its ray, where prev has it, and prev's cell holding this one
            if halved_cells:
                kept, old = True, ((lo + ray) * (n_rad // 2) + j // 2) * count + level
            else:
                kept, old = (lo + ray) % 2 == 0, ((lo + ray) // 2 * (n_rad - 1) + j) * count + level
            near = np.minimum(np.searchsorted(prev.keys, old), prev.keys.size - 1)
            lo_old, hi_old = prev.lo[near], prev.hi[near]
            fresh = ~(kept & (prev.keys[near] == old) & (r_lo <= lo_old) & (hi_old <= r_hi))
            r_lo, r_hi = np.where(fresh, r_lo, lo_old), np.where(fresh, r_hi, hi_old)
            del near, old, kept, lo_old, hi_old
        grid_u = log_u.reshape(hi - lo, n_rad) if keep else None
        del log_u, below, ends_of, step, cell, n, at, ray

        def phi(x, lt, *columns):
            X = np.empty((m, x.size)).T
            for c, column in enumerate(columns):
                np.multiply(column, x, out=X[:, c])
                X[:, c] += centre[c]
            return _log_density_and_weight(f, params, X)[0] - lt

        # the new brackets are refined _REFINE_CHUNK at a time, which bounds the block's working set
        todo = None if fresh is None else np.flatnonzero(fresh)
        for lo_c in range(0, level.size if todo is None else todo.size, _REFINE_CHUNK):
            part = slice(lo_c, lo_c + _REFINE_CHUNK) if todo is None else todo[lo_c : lo_c + _REFINE_CHUNK]
            cols = [column[part] for column in columns]
            r_lo[part], r_hi[part], e = _illinois(
                phi, r_lo[part], r_hi[part], phi_lo[part], phi_hi[part], lt[part], *cols
            )
            evaluations += e
        h, r = radii[1] - radii[0], 0.5 * (r_lo + r_hi)
        quad = sum((column * r + centre[c]) ** 2 for c, column in enumerate(columns))
        noise = 2.0**-50 * (np.abs(lt) + 0.5 * params.rate * quad + 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.abs(phi_hi - phi_lo) / h
            # an infinite phi at a cell end (a zero of f) gives no slope: then the whole cell
            whole = ~np.isfinite(slope)
            root_error = (r_hi - r_lo) + np.fmin(noise / np.where(whole, 0.0, slope), h)
        r_m1 = r if m == 2 else r * r if m == 3 else np.ones_like(r)
        root_error *= m * r_m1  # d(r^m) = m r^(m-1) dr
        terms = w * r_m1 * r
        size, root_error = np.abs(terms), np.abs(w) * root_error
        sums = [
            np.bincount(level, terms, count),
            np.bincount(level, root_error, count),
            np.bincount(level, size, count),
            np.bincount(level, minlength=count),
            np.bincount(level, np.where(whole, root_error, 0.0), count),
            np.bincount(level, np.where(half_cells, terms, 0.0), count),
        ]
        if m < 3:
            for x, k in ((half_angles, m), (half_cells & half_angles, m), (quarter, 2 * m)):
                sums.append(np.bincount(level, np.where(x, k * terms, 0.0), count))
        return sums, (grid_u, keys, r_lo, r_hi) if keep else None, evaluations

    sums, evaluations, parts = np.zeros((6 if m == 3 else 9, count)), 0, []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part_sums, part, e = block(lo, hi)
        sums += part_sums
        evaluations += e
        parts.append(part)
    state = [np.concatenate(column) for column in zip(*parts)] if keep else [None] * 4
    return _RayGrid(grid, sums, blocks, evaluations, *state)


# ---------------------------------------------------------------------------
# monotone diagnostic


def g_from_mu(mu, t, params: FockParams, variant: IsoperimetricVariant):
    """g(t) = t * exp(kappa(m) * alpha p * mu^(2/m)), as exp(log t + exponent); scalars give a float."""
    mu, t = np.asarray(mu, dtype=float), _thresholds(t)
    if not np.all(mu >= 0):
        raise InvalidInputError(f"measure must be nonnegative, got {mu}")
    expo = variant.kappa(params.m) * params.rate * mu ** (2.0 / params.m)
    with np.errstate(over="ignore"):
        g = np.exp(np.log(t) + expo)
    return float(g) if g.ndim == 0 else g


def g_diagnostic(
    f: TestFunction,
    params: FockParams,
    grid: LevelGrid | None = None,
    variant: IsoperimetricVariant = IsoperimetricVariant.SHARP_BALL,
    samples: int = 200_000,
    seed: int = 0,
    restarts: int = 16,
) -> LevelProfile:
    """Profile of the diagnostic g on a geometric grid below the density max.

    One `find_max` on f with log_scale 0 gives the peak; both rules measure
    that function on thresholds relative to its peak, and p log_scale is
    added to log_t_max once, so mu and its error are bit-identical under
    f -> e^delta f.  For m <= 3, mu comes from ray crossings (`_ray_measures`,
    rule "rays") about the radial profile's centre, or else the argmax, on a
    grid that doubles until its error reaches the roundoff floor, with
    `samples` as the cap; mu_stderr is the stated error bound and seed only
    feeds `find_max`.  For m >= 4 one stratified cloud over nested shells
    (`_nested_measures`, rule "cloud") answers all levels, each at the
    density of `samples` points in its own ball, drawn in 2^16-row blocks,
    block i from child i of SeedSequence(seed, spawn_key=(0,)), apart from
    the `find_max` stream default_rng(seed), so reruns are bit-identical on
    any number of cores; mu_stderr is its sd.  Both rules bypass
    log_density_batch, so `points` counts their density evaluations: the
    cloud's, or those of every ray grid tried and, at m = 3, of the half
    grid each is checked against.  Levels share points and are therefore
    correlated.  A monotonicity violation is recorded only when the drop
    between adjacent levels exceeds 3x the summed propagated errors; that
    rule runs on g / t_max, which the scale of f leaves unchanged.
    """
    grid = grid or LevelGrid()
    seed = _seed(seed)
    log_rel = grid.log_levels()[1:]  # log(t / t_max)
    rel = np.exp(log_rel)
    unscaled = f.log_shifted(-f.log_scale)
    mx = find_max(unscaled, params, restarts=restarts, seed=seed)
    if params.m <= 3:
        profile = unscaled.radial_profile(params)
        centre = mx.argmax if profile is None else profile.centre
        mu, mu_err, ray_grid, points = _ray_measures(unscaled, params, mx.log_t_max + log_rel, samples, centre)
        rule = "rays"
    else:
        cloud = _nested_measures(unscaled, params, mx.log_t_max + log_rel, samples, seed)
        mu, mu_err, points, rule, ray_grid = cloud.mu, np.sqrt(cloud.var), cloud.points, "cloud", None
    log_t_max = mx.log_t_max + params.p * f.log_scale
    g, up, dn = g_from_mu(
        np.array([mu, mu + mu_err, np.maximum(mu - mu_err, 0.0)]), rel, params, variant
    )
    g_err = np.maximum(up - g, g - dn)

    # correlated levels keep the rule valid: Var(a - b) <= (sigma_a + sigma_b)^2 always
    drop = g[:-1] - g[1:]
    thresh = 3.0 * (g_err[:-1] + g_err[1:])
    levels = np.flatnonzero(drop > thresh)
    t_max = _exp(log_t_max)
    t_grid, g, g_err = t_max * rel, t_max * g, t_max * g_err
    violations = [
        (float(t_grid[k]), float(t_grid[k + 1]), t_max * float(drop[k] - thresh[k])) for k in levels
    ]

    return LevelProfile(
        params=params,
        variant=variant,
        log_t_max=log_t_max,
        t_grid=t_grid,
        mu=mu,
        mu_stderr=mu_err,
        g=g,
        g_err=g_err,
        violations=tuple(violations),
        violation_levels=tuple(int(k) + 1 for k in levels),
        samples=samples,
        seed=seed,
        points=points,
        rule=rule,
        ray_grid=ray_grid,
    )


# ---------------------------------------------------------------------------
# layer cake


@dataclass(frozen=True)
class LayerCakeResult:
    """The layer-cake value of the integral of G(u) beside the direct quadrature.

    error_bound is |GL16 - GL8| over the geometric cells, plus the sd of the
    GL16 sum when mu is sampled, plus the tail mu(t_end) G(t_end) below the last
    cell.  direct_error is the direct quadrature's own bound, and mu_mode says
    where mu came from: "exact-radial" (closed form) or "mc" (the level cloud).
    discrepancy is derived, |value - direct_value|.
    """

    value: float
    error_bound: float
    direct_value: float
    direct_error: float
    t_max: float
    mu_mode: str
    discrepancy = property(lambda self: abs(self.value - self.direct_value))


_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)


def layer_cake(
    f: TestFunction,
    params: FockParams,
    G: ConvexFunction,
    grid: LevelGrid | None = None,
    method=GaussHermite(),
    samples: int = 200_000,
    seed: int = 0,
) -> LayerCakeResult:
    """Integral of G(u) two ways: the layer cake, integral of G'(t) mu(t) dt, vs direct.

    One cell rule serves both sources of mu: GL8 and GL16 on every cell of the
    geometric grid, plus the tail mu(t_end) G(t_end) below the last cell.  For
    radially representable densities mu is exact, from the profile's closed-form
    radii at every node at once, and only then is the grid extended down to
    t_end <= 1e-12 t_max.  Otherwise one level cloud on the grid's shells counts
    hits at both rules' nodes, so |GL16 - GL8| measures the t-rule, not noise.
    G takes t, so this raises MethodUnavailableError where a cell edge is not
    a normal double.
    """
    grid = grid or LevelGrid()
    seed = _seed(seed)
    samples = _integer(samples, 1000, "need an integer count of at least 1000 samples")
    log_t_max = find_max(f, params, seed=seed).log_t_max
    exact = f.radial_profile(params) is not None

    count = grid.count
    if exact:
        count = max(count, math.ceil(math.log(1e-12) / math.log(grid.ratio)))
    log_rel = grid.log_levels(count)  # log(t / t_max) at the cell edges
    log_edges, edges = log_t_max + log_rel, _exp(log_t_max) * np.exp(log_rel)
    if not (edges[0] < math.inf and edges[-1] >= np.finfo(float).tiny):
        raise MethodUnavailableError(
            f"cell edges at log t {log_edges[-1]:.6g}..{log_t_max:.6g} are not normal doubles"
        )
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[:-1] - edges[1:])
    ts8, ts16 = (mid[:, None] + half[:, None] * nodes for nodes, _ in (_GL8, _GL16))  # a row per cell
    t_end = float(edges[-1])
    G_end = float(G.value(np.array([t_end]))[0])
    ts = np.concatenate([ts8.ravel(), ts16.ravel(), [t_end]])  # both rules' nodes and t_end
    if exact:
        mu, sd = superlevel_measure_exact(f, params, ts), 0.0
    else:
        # one cloud counts hits at every node; weights . mu is the GL16 sum plus tail
        weights = np.zeros(ts.size)
        weights[ts8.size :] = np.append(half[:, None] * _GL16[1] * G.derivative(ts16), G_end)
        order = np.argsort(-ts)
        cloud = _nested_measures(f, params, log_edges[1:], samples, seed, np.log(ts[order]), weights[order])
        mu, sd = cloud.mu[np.argsort(order)], math.sqrt(cloud.weighted_var)
    mu8, mu16 = mu[: ts8.size].reshape(ts8.shape), mu[ts8.size : -1].reshape(ts16.shape)
    mu_end = float(mu[-1])
    coarse = float(half @ ((mu8 * G.derivative(ts8)) @ _GL8[1]))
    fine = float(half @ ((mu16 * G.derivative(ts16)) @ _GL16[1]))
    tail = mu_end * G_end
    value, err = fine + tail, abs(fine - coarse) + sd + tail
    direct = convex_functional(f, params, G, method=method)
    mode = "exact-radial" if exact else "mc"
    return LayerCakeResult(value, err, direct.value, direct.error_bound, float(edges[0]), mode)
