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
    _log_density_and_weight,
    _thresholds,
    envelope_radius,
    log_density_batch,
)
from .integrate import ConvexFunction, GaussHermite, _block_sizes, _exp, _in_lanes, convex_functional

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
    (0 of 0), or "simplex" for the one multistart search, whose
    restarts_agreeing of restarts_total ended within 1e-8 of the best log u.
    t_max is derived, exp(log_t_max): inf or 0 outside the double range.
    """

    argmax: tuple[float, ...]
    restarts_agreeing: int
    restarts_total: int
    log_t_max: float
    rule: str
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
        if not float(self.count).is_integer() or self.count < 2:
            raise InvalidInputError(f"grid needs an integer count of at least 2 levels, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        if not (0 < self.ratio < 1):
            raise InvalidInputError("grid ratio must lie in (0, 1)")

    def log_levels(self, count: int | None = None) -> np.ndarray:
        """log(t_k / t_max) = k log ratio, k = 0..count (self.count unless given): the peak, then the grid."""
        return np.arange((self.count if count is None else count) + 1) * math.log(self.ratio)


@dataclass
class LevelProfile:
    """mu and g sampled on a decreasing threshold grid, with violation records.

    violations holds triples (t_hi, t_lo, excess): adjacent grid levels where g
    dropped while t decreased, by more than 3x the propagated sampling error;
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
    t_max = property(lambda self: _exp(self.log_t_max))

    def violation_flags(self) -> np.ndarray:
        return np.isin(np.arange(len(self.t_grid)), self.violation_levels)


# ---------------------------------------------------------------------------
# maximization


_NM_STEP, _NM_ZERO_STEP = 0.05, 0.00025  # initial simplex: relative step, step for a zero coordinate
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1.0, 2.0, 0.5, 0.5  # reflection, expansion, contraction, shrink


def _simplex_search(objective, starts, xatol, fatol, maxiter=4000, maxfev=8000):
    """Nelder-Mead minimization from every row of `starts`, all simplices in lockstep.

    objective maps an (n, N) array of points to n values.  Each simplex takes
    the steps of scipy's non-adaptive Nelder-Mead with the same options: the
    initial simplex moves one coordinate at a time by 5 percent (0.00025 if it
    is zero), the coefficients are the standard (1, 2, 1/2, 1/2), and a simplex stops when
    both its size and its value spread are within xatol and fatol, after
    maxiter iterations or after maxfev evaluations.  An iteration makes one
    objective call for the reflections of every running simplex, one for their
    expansion or contraction points and one for the shrinks, if any.  A
    simplex whose best value stops being finite is abandoned.  Returns (fun, x),
    the best value and point of each start.
    """
    S, N = starts.shape
    sim = np.repeat(starts[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    stepped = sim[:, k + 1, k]
    sim[:, k + 1, k] = np.where(stepped != 0, (1 + _NM_STEP) * stepped, _NM_ZERO_STEP)
    fsim = objective(sim.reshape(-1, N)).reshape(S, N + 1)
    order = np.argsort(fsim, axis=1)
    sim, fsim = sim[np.arange(S)[:, None], order], fsim[np.arange(S)[:, None], order]
    fcalls = np.full(S, N + 1)
    iters = 1  # simplices run in lockstep, so the running ones share their iteration count
    a = np.arange(S)  # the running simplices
    while True:
        s, fs = sim[a], fsim[a]
        done = (fcalls[a] >= maxfev) | ~np.isfinite(fs[:, 0])
        done |= (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol
        )
        a, s, fs = a[~done], s[~done], fs[~done]
        if a.size == 0 or iters >= maxiter:
            break
        iters += 1
        xbar = s[:, 0]
        for j in range(1, N):
            xbar = xbar + s[:, j]
        xbar = xbar / N
        worst = s[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = objective(xr)
        fcalls[a] += 1

        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~accept & (fxr < fs[:, -1])
        trial = np.where(
            expand[:, None],
            (1 + _NM_RHO * _NM_CHI) * xbar - _NM_RHO * _NM_CHI * worst,
            np.where(
                outside[:, None],
                (1 + _NM_PSI * _NM_RHO) * xbar - _NM_PSI * _NM_RHO * worst,
                (1 - _NM_PSI) * xbar + _NM_PSI * worst,
            ),
        )
        # a simplex out of evaluations stops before its second point, unchanged
        second = ~accept & (fcalls[a] < maxfev)
        ft = np.full(a.size, np.nan)
        ft[second] = objective(trial[second])
        fcalls[a[second]] += 1
        take = second & np.where(expand, ft < fxr, np.where(outside, ft <= fxr, ft < fs[:, -1]))
        replace = accept | take | (second & expand)
        s[replace, -1] = np.where(take[:, None], trial, xr)[replace]
        fs[replace, -1] = np.where(take, ft, fxr)[replace]

        shrink = second & ~replace
        if shrink.any():
            ss, fss = s[shrink], fs[shrink]
            moved = ss[:, :1] + _NM_SIGMA * (ss[:, 1:] - ss[:, :1])
            # only the vertices within the evaluation budget move
            evaluated = k < (maxfev - fcalls[a[shrink]])[:, None]
            fss[:, 1:][evaluated] = objective(moved[evaluated])
            fcalls[a[shrink]] += evaluated.sum(axis=1)
            ss[:, 1:] = np.where(evaluated[:, :, None], moved, ss[:, 1:])
            s[shrink], fs[shrink] = ss, fss
        order = np.argsort(fs, axis=1)
        rows = np.arange(a.size)[:, None]
        sim[a], fsim[a] = s[rows, order], fs[rows, order]
    return np.min(fsim, axis=1), sim[:, 0]


def find_max(
    f: TestFunction, params: FockParams, restarts: int = 16, seed: int = 0
) -> MaxResult:
    """The density maximum: the radial profile's closed form, or else one search.

    Where f has a radial profile, its `peak` answers (rule "closed_form", 0 of
    0 restarts) and raises OptimizationFailureError where u vanishes or grows
    without bound.  Otherwise `_search_max` runs the multistart simplex search.
    """
    _check_dims(f, params)
    profile = f.radial_profile(params)
    if profile is None:
        return _search_max(f, params, restarts, seed)
    log_t_max, point = profile.peak()
    return MaxResult(
        argmax=point, restarts_agreeing=0, restarts_total=0, log_t_max=log_t_max, rule="closed_form"
    )


def _search_max(f: TestFunction, params: FockParams, restarts: int = 16, seed: int = 0) -> MaxResult:
    """Multistart simplex ascent on log u; gradient-free on purpose.

    Starts at the family's own candidate extremizers, then at `restarts`
    Gaussian draws matched to the weight scale from default_rng(seed); a start
    where u = 0 is jittered up to 20 times.  All starts run as one lockstep
    Nelder-Mead (`_simplex_search`, xatol 1e-12, fatol 1e-14).  A restart
    agrees when it ends within 1e-8 of the best log u, which a scale factor
    on f leaves unchanged.  Working on log u, it finds log t_max at any scale.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(params.rate)

    def neg_log_u(X):
        return -log_density_batch(f, params, X)

    starts = [np.asarray(h, dtype=float) for h in f.max_hints(params)]
    starts = np.vstack(starts + [rng.standard_normal((restarts, params.m)) * scale])
    finite = np.isfinite(neg_log_u(starts))
    for i in np.flatnonzero(~finite):
        for _ in range(20):
            x0 = starts[i] + rng.standard_normal(params.m) * (scale * 0.1)
            if np.isfinite(neg_log_u(x0[None, :])[0]):
                starts[i], finite[i] = x0, True
                break
    if not finite.any():
        raise OptimizationFailureError("no starting point with nonzero density found")

    funs, xs = _simplex_search(neg_log_u, starts[finite], xatol=1e-12, fatol=1e-14)
    ok = np.isfinite(funs)
    if not ok.any():
        raise OptimizationFailureError("all simplex restarts failed")
    funs, xs = funs[ok], xs[ok]
    best = int(np.argmin(funs))
    return MaxResult(
        argmax=tuple(float(c) for c in xs[best]),
        restarts_agreeing=int(np.sum(funs - funs[best] <= 1e-8)),
        restarts_total=len(funs),
        log_t_max=-float(funs[best]),
        rule="simplex",
    )


# ---------------------------------------------------------------------------
# superlevel measure


@dataclass(frozen=True)
class _NestedCloud:
    mu: np.ndarray  # mu at each threshold
    var: np.ndarray  # Var(mu), one per threshold
    weighted_var: float  # Var(weights . mu), 0 without weights
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
    Var(weights . mu) take O(thresholds) per shell.

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
    samples = int(samples)
    if samples < 1000:
        raise InvalidInputError(f"need at least 1000 samples, got {samples}")
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
    mu, var, weighted_var = np.zeros(count), np.zeros(count), 0.0
    for j, n_j, shell_blocks in zip(shells, n, blocks):
        shell_counts = sum(next(counts) for _ in shell_blocks)  # the shell's blocks, in block order
        at_least = np.cumsum(shell_counts[::-1])[::-1]
        k = first[j]
        hits = at_least[count - k : 0 : -1]  # thresholds k..count-1
        mu[k:] += shell[j] * hits / n_j
        h = (hits + 1.0) / (n_j + 2.0)
        s2n = shell[j] ** 2 / n_j
        var[k:] += s2n * (h * (1.0 - h))
        if weights is not None:  # c.Cov.c = sum_l c_l (1 - h_l) (2 sum_{i<=l} c_i h_i - c_l h_l)
            ch = weights[k:] * h
            weighted_var += s2n * float(weights[k:] * (1.0 - h) @ (2.0 * np.cumsum(ch) - ch))
    return _NestedCloud(mu, var, weighted_var, radii, sum(n))


def superlevel_measure(
    f: TestFunction, params: FockParams, t: float, samples: int = 200_000, seed: int = 0
) -> MeasureEstimate:
    """Uniform hit-counting inside the envelope ball, radius padded by 5 percent.

    The one-level case of the nested-shell estimator behind `g_diagnostic`.
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

    All levels are answered from one stratified cloud over nested shells, in
    which each level sees at least the density of `samples` points in its own
    ball (`_nested_measures`).  The cloud is drawn in blocks of 2^16 rows,
    block i from child i of SeedSequence(seed, spawn_key=(0,)), separate from
    the `find_max` stream default_rng(seed), and its blocks run in the Monte
    Carlo lanes, so reruns are bit-identical on any number of cores.  Its
    density calls bypass log_density_batch, so `points` is the one count of
    them.  Levels share points and are therefore correlated.  A monotonicity
    violation is recorded only when the drop between adjacent levels exceeds
    3x the summed propagated errors.
    The rule runs on g / t_max, which the scale of f leaves unchanged.
    """
    grid = grid or LevelGrid()
    mx = find_max(f, params, restarts=restarts, seed=seed)
    log_rel = grid.log_levels()[1:]  # log(t / t_max)
    log_grid, rel = mx.log_t_max + log_rel, np.exp(log_rel)

    cloud = _nested_measures(f, params, log_grid, samples, seed)
    mu, mu_err = cloud.mu, np.sqrt(cloud.var)
    g, up, dn = g_from_mu(
        np.array([mu, mu + mu_err, np.maximum(mu - mu_err, 0.0)]), rel, params, variant
    )
    g_err = np.maximum(up - g, g - dn)

    # correlated levels keep the rule valid: Var(a - b) <= (sigma_a + sigma_b)^2 always
    drop = g[:-1] - g[1:]
    thresh = 3.0 * (g_err[:-1] + g_err[1:])
    levels = np.flatnonzero(drop > thresh)
    t_grid, g, g_err = mx.t_max * rel, mx.t_max * g, mx.t_max * g_err
    violations = [
        (float(t_grid[k]), float(t_grid[k + 1]), mx.t_max * float(drop[k] - thresh[k])) for k in levels
    ]

    return LevelProfile(
        params=params,
        variant=variant,
        log_t_max=mx.log_t_max,
        t_grid=t_grid,
        mu=mu,
        mu_stderr=mu_err,
        g=g,
        g_err=g_err,
        violations=tuple(violations),
        violation_levels=tuple(int(k) + 1 for k in levels),
        samples=samples,
        seed=seed,
        points=cloud.points,
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
