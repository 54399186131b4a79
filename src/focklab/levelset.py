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

from .errors import InvalidInputError, OptimizationFailureError
from .functions import (
    _LOG_FLOAT_MAX,
    FockParams,
    TestFunction,
    _check_dims,
    _thresholds,
    envelope_radius,
    log_density_batch,
)
from .integrate import ConvexFunction, GaussHermite, convex_functional

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
    """Maximum of the density and how it was found.

    rule is "simplex" for the multistart search, whose restarts_agreeing of
    restarts_total reached the best value, or "closed_form" for a radial
    profile's peak, which makes no restarts (0 of 0).
    """

    t_max: float
    argmax: tuple[float, ...]
    restarts_agreeing: int
    restarts_total: int
    log_t_max: float
    rule: str


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
    """Geometric threshold grid t_k = t_max * ratio^k, k = 1..count."""

    count: int = 60
    ratio: float = 0.9

    def __post_init__(self):
        if self.count < 2:
            raise InvalidInputError("grid needs at least 2 levels")
        if not (0 < self.ratio < 1):
            raise InvalidInputError("grid ratio must lie in (0, 1)")

    def levels(self, t_max: float) -> np.ndarray:
        return t_max * self.ratio ** np.arange(1, self.count + 1)


@dataclass
class LevelProfile:
    """mu and g sampled on a decreasing threshold grid, with violation records.

    violations holds triples (t_hi, t_lo, excess): adjacent grid levels where g
    dropped while t decreased, by more than 3x the propagated sampling error.
    """

    params: FockParams
    variant: IsoperimetricVariant
    t_max: float
    t_grid: np.ndarray
    mu: np.ndarray
    mu_stderr: np.ndarray
    g: np.ndarray
    g_err: np.ndarray
    violations: tuple[tuple[float, float, float], ...]
    samples: int
    seed: int
    points: int  # density evaluations made for mu, all levels together

    def violation_flags(self) -> np.ndarray:
        return np.isin(self.t_grid, [t_lo for _, t_lo, _ in self.violations])


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
    """Multistart simplex ascent on log u; gradient-free on purpose.

    Starts at the family's own candidate extremizers, then at `restarts`
    Gaussian draws matched to the weight scale from default_rng(seed); a start
    where u = 0 is jittered up to 20 times.  All starts run as one lockstep
    Nelder-Mead (`_simplex_search`, xatol 1e-11, fatol 1e-13) and the best
    point is polished by a tighter run (1e-12, 1e-14).  Agreement is counted
    at 1e-8 relative in the maximum value.  This is always the numeric search,
    also for families whose radial profile has the maximum in closed form.
    The first point evaluated with log u above log(float max) ends the search
    with OptimizationFailureError, since t_max is at least exp of it.
    """
    _check_dims(f, params)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(params.rate)

    def neg_log_u(X):
        log_u = log_density_batch(f, params, X)
        over = log_u > _LOG_FLOAT_MAX
        if over.any():
            raise OptimizationFailureError(f"log u reached {log_u[over].max():.6g}; t_max overflows")
        return -log_u

    starts = [np.asarray(h, dtype=float) for h in f.max_hints(params)]
    starts = np.vstack(starts + [rng.standard_normal((restarts, params.m)) * scale])
    # the density may overflow on its way past the line, before neg_log_u raises
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(neg_log_u(starts))
        for i in np.flatnonzero(~finite):
            for _ in range(20):
                x0 = starts[i] + rng.standard_normal(params.m) * (scale * 0.1)
                if np.isfinite(neg_log_u(x0[None, :])[0]):
                    starts[i], finite[i] = x0, True
                    break
        if not finite.any():
            raise OptimizationFailureError("no starting point with nonzero density found")

        funs, xs = _simplex_search(neg_log_u, starts[finite], xatol=1e-11, fatol=1e-13)
        ok = np.isfinite(funs)
        if not ok.any():
            raise OptimizationFailureError("all simplex restarts failed")
        funs, xs = funs[ok], xs[ok]
        best = int(np.argmin(funs))
        best_fun, best_x = float(funs[best]), xs[best]
        polish_fun, polish_x = _simplex_search(neg_log_u, best_x[None, :], xatol=1e-12, fatol=1e-14)
    if math.isfinite(polish_fun[0]) and polish_fun[0] < best_fun:
        best_fun, best_x = float(polish_fun[0]), polish_x[0]
    t_max = math.exp(-best_fun)  # -best_fun <= _LOG_FLOAT_MAX, or neg_log_u raised

    tol = 1e-8 * max(1.0, abs(best_fun))
    return MaxResult(
        t_max=t_max,
        argmax=tuple(float(c) for c in best_x),
        restarts_agreeing=int(np.sum(funs - best_fun <= tol)),
        restarts_total=len(funs),
        log_t_max=-best_fun,
        rule="simplex",
    )


def _peak(f: TestFunction, params: FockParams, restarts: int = 16, seed: int = 0) -> MaxResult:
    """The density maximum from the radial profile's closed form, or else from `find_max`."""
    _check_dims(f, params)
    profile = f.radial_profile(params)
    if profile is None:
        return find_max(f, params, restarts=restarts, seed=seed)
    log_t_max, point = profile.peak()
    return MaxResult(
        t_max=math.exp(log_t_max),
        argmax=point,
        restarts_agreeing=0,
        restarts_total=0,
        log_t_max=log_t_max,
        rule="closed_form",
    )


# ---------------------------------------------------------------------------
# superlevel measure


def _level_rng(seed: int) -> np.random.Generator:
    """The level-set stream of `seed`: a spawned child of SeedSequence(seed).

    It never equals default_rng(s'), the `find_max` stream of any seed s'.
    """
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


@dataclass(frozen=True)
class _NestedCloud:
    mu: np.ndarray  # mu(t_k), one per level
    cov: np.ndarray  # covariance matrix of mu
    radii: np.ndarray  # padded ball radii R_k, nondecreasing
    points: int  # density evaluations, all shells together


def _nested_measures(
    f: TestFunction, params: FockParams, t_grid: np.ndarray, samples: int, seed: int
) -> _NestedCloud:
    """Hit-count estimates of mu(t_k) on a decreasing grid from one stratified cloud.

    Level k samples the ball B_k of radius R_k = 1.05 * envelope radius of t_k
    (made nondecreasing), so the balls are nested.  Shell j = B_j minus B_{j-1}
    gets ceil(samples |S_j| / |B_j|) uniform points: every level sees at least
    the point density of `samples` points in its own ball.  log u is evaluated
    once per point, and each shell's hits at every level come from one
    searchsorted against the ascending log-t grid.  Hits at two nested levels
    are correlated, Cov(I_k, I_l) = h_k (1 - h_l) for t_k >= t_l; the
    covariance uses h = (hits + 1) / (n + 2), so that a shell with no hits or
    all hits still states a positive variance.
    """
    samples = int(samples)
    if samples < 1000:
        raise InvalidInputError(f"need at least 1000 samples, got {samples}")
    m, count = params.m, len(t_grid)
    radii = np.maximum.accumulate(1.05 * envelope_radius(f, params, t_grid))
    ball = unit_ball_volume(m) * radii**m
    shell = np.diff(ball, prepend=0.0)
    log_t_asc = np.log(t_grid[::-1])
    rng = _level_rng(seed)
    mu = np.zeros(count)
    cov = np.zeros((count, count))
    points = 0
    for j in range(count):
        if shell[j] <= 0.0:
            continue
        n = math.ceil(samples * shell[j] / ball[j])
        pts = rng.standard_normal((n, m))
        inner = radii[j - 1] ** m if j > 0 else 0.0
        r = (inner + rng.random(n) * (radii[j] ** m - inner)) ** (1.0 / m)
        pts *= (r / np.sqrt(np.einsum("ij,ij->i", pts, pts)))[:, None]
        # thresholds below log u, counted on the ascending grid
        below = np.searchsorted(log_t_asc, log_density_batch(f, params, pts))
        at_least = np.cumsum(np.bincount(below, minlength=count + 1)[::-1])[::-1]
        hits = at_least[count - j : 0 : -1]  # levels j..count-1; B_j misses the smaller sets
        mu[j:] += shell[j] * hits / n
        h = (hits + 1.0) / (n + 2.0)
        upper = np.triu(np.outer(h, 1.0 - h))
        cov[j:, j:] += shell[j] ** 2 / n * (upper + np.triu(upper, 1).T)
        points += n
    return _NestedCloud(mu, cov, radii, points)


def superlevel_measure(
    f: TestFunction, params: FockParams, t: float, samples: int = 200_000, seed: int = 0
) -> MeasureEstimate:
    """Uniform hit-counting inside the envelope ball, radius padded by 5 percent.

    The one-level case of the nested-shell estimator behind `g_diagnostic`.
    """
    _thresholds(t)
    cloud = _nested_measures(f, params, np.array([float(t)]), samples, seed)
    return MeasureEstimate(
        float(cloud.mu[0]), math.sqrt(cloud.cov[0, 0]), t, int(samples), seed, float(cloud.radii[0])
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
    """g(t) = t * exp(kappa(m) * alpha p * mu^(2/m)), elementwise; scalars give a float."""
    mu, t = np.asarray(mu, dtype=float), np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise InvalidInputError("threshold t must be positive")
    if np.any(mu < 0):
        raise InvalidInputError("measure must be nonnegative")
    expo = variant.kappa(params.m) * params.rate * mu ** (2.0 / params.m)
    # exp would overflow past 700; the diagnostic is +inf there
    g = np.where(expo > 700.0, math.inf, t * np.exp(np.minimum(expo, 700.0)))
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
    ball.  The cloud is drawn from a stream of `seed` separate from the
    `find_max` one, so reruns are bit-identical.  Levels share points and are
    therefore correlated.  A monotonicity violation is recorded only when the
    drop between adjacent levels exceeds 3x the summed propagated errors.
    """
    grid = grid or LevelGrid()
    mx = _peak(f, params, restarts=restarts, seed=seed)
    t_grid = grid.levels(mx.t_max)

    cloud = _nested_measures(f, params, t_grid, samples, seed)
    mu = cloud.mu
    mu_err = np.sqrt(np.diag(cloud.cov))
    g, up, dn = g_from_mu(
        np.array([mu, mu + mu_err, np.maximum(mu - mu_err, 0.0)]), t_grid, params, variant
    )
    g_err = np.maximum(up - g, g - dn)

    # correlated levels keep the rule valid: Var(a - b) <= (sigma_a + sigma_b)^2 always
    drop = g[:-1] - g[1:]
    thresh = 3.0 * (g_err[:-1] + g_err[1:])
    violations = [
        (float(t_grid[k]), float(t_grid[k + 1]), float(drop[k] - thresh[k]))
        for k in np.flatnonzero(drop > thresh)
    ]

    return LevelProfile(
        params=params,
        variant=variant,
        t_max=mx.t_max,
        t_grid=t_grid,
        mu=mu,
        mu_stderr=mu_err,
        g=g,
        g_err=g_err,
        violations=tuple(violations),
        samples=samples,
        seed=seed,
        points=cloud.points,
    )


# ---------------------------------------------------------------------------
# layer cake


@dataclass(frozen=True)
class LayerCakeResult:
    value: float
    error_bound: float
    direct_value: float
    direct_error: float
    discrepancy: float
    t_max: float
    mu_mode: str


_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)


def _cells_quadrature(f: TestFunction, params: FockParams, G: ConvexFunction, edges, rule) -> float:
    """Sum of per-cell Gauss-Legendre integrals of mu * G' over [edges[i+1], edges[i]], mu exact."""
    nodes, weights = rule
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[:-1] - edges[1:])
    ts = mid[:, None] + half[:, None] * nodes  # one row of nodes per cell
    vals = superlevel_measure_exact(f, params, ts) * G.derivative(ts)
    return float(half @ (vals @ weights))


def layer_cake(
    f: TestFunction,
    params: FockParams,
    G: ConvexFunction,
    grid: LevelGrid | None = None,
    method=GaussHermite(),
    samples: int = 200_000,
    seed: int = 0,
) -> LayerCakeResult:
    """Integral of G(u) two ways: layer cake over the threshold grid vs direct.

    For radially representable densities mu(t) is exact, from the
    closed-form radii of the profile evaluated on every quadrature node at
    once, and the geometric grid is extended until the remaining tail is
    negligible; otherwise mu comes from hit-count sampling on the given grid,
    all levels from one cloud, and the statistical error is propagated through
    the covariance of the levels.
    """
    G.validate()
    grid = grid or LevelGrid()
    t_max = _peak(f, params, seed=seed).t_max

    if f.radial_profile(params) is not None:
        ratio = grid.ratio
        count = max(grid.count, int(math.ceil(math.log(1e-12) / math.log(ratio))))
        edges = t_max * ratio ** np.arange(0, count + 1)

        coarse = _cells_quadrature(f, params, G, edges, _GL8)
        fine = _cells_quadrature(f, params, G, edges, _GL16)
        t_end = float(edges[-1])
        tail = superlevel_measure_exact(f, params, t_end) * float(G.value(np.array([t_end]))[0])
        value = fine + tail
        err = abs(fine - coarse) + tail
        mode = "exact-radial"
    else:
        t_grid = grid.levels(t_max)
        cloud = _nested_measures(f, params, t_grid, samples, seed)
        # value = c . mu: the trapezoid on [t_grid[-1], ..., t_grid[0], t_max]
        # with mu(t_max) = 0, plus the tail mu(t_end) G(t_end)
        ts = np.concatenate([t_grid[::-1], [t_max]])
        w = np.zeros(len(ts))
        w[1:] += 0.5 * np.diff(ts)
        w[:-1] += 0.5 * np.diff(ts)
        c = (w * G.derivative(ts))[-2::-1]
        G_end = float(G.value(t_grid[-1:])[0])
        c[-1] += G_end
        value = float(c @ cloud.mu)
        tail = cloud.mu[-1] * G_end
        err = math.sqrt(float(c @ cloud.cov @ c)) + tail
        mode = "mc"

    direct = convex_functional(f, params, G, method=method)
    return LayerCakeResult(
        value=value,
        error_bound=err,
        direct_value=direct.value,
        direct_error=direct.error_bound,
        discrepancy=abs(value - direct.value),
        t_max=t_max,
        mu_mode=mode,
    )
