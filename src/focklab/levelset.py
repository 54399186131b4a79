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
from scipy.optimize import minimize
from scipy.special import gamma as gamma_fn

from .errors import InvalidInputError, OptimizationFailureError
from .functions import FockParams, TestFunction, _thresholds, envelope_radius, log_density_batch
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
    "has_exact_measure",
    "g_from_mu",
    "mu_from_g",
    "g_diagnostic",
    "layer_cake",
]


class IsoperimetricVariant(Enum):
    """Choice of dimensional constant in the diagnostic exponent."""

    SHARP_BALL = "sharp-ball"
    PAPER_LITERAL = "paper-literal"

    def kappa(self, m: int) -> float:
        """Coefficient of alpha*p*mu^(2/m) in log(g/t)."""
        if self is IsoperimetricVariant.SHARP_BALL:
            return gamma_fn(1.0 + m / 2.0) ** (2.0 / m) / (2.0 * math.pi)
        return gamma_fn(m / 2.0) ** (2.0 / m) / (2.0 * math.pi)


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / gamma_fn(1.0 + m / 2.0)


@dataclass(frozen=True)
class MaxResult:
    t_max: float
    argmax: tuple[float, ...]
    restarts_agreeing: int
    restarts_total: int
    log_t_max: float


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


def find_max(
    f: TestFunction, params: FockParams, restarts: int = 16, seed: int = 0
) -> MaxResult:
    """Multistart simplex ascent on log u; gradient-free on purpose.

    Starts at Gaussian draws matched to the weight scale plus the family's own
    candidate extremizers.  Agreement is counted at 1e-8 relative in the
    maximum value.
    """
    if f.m != params.m:
        raise InvalidInputError(f"function lives on R^{f.m}, params say m={params.m}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(params.rate)

    def neg_log_u(x):
        return -float(log_density_batch(f, params, np.asarray(x, dtype=float)[None, :])[0])

    starts = [np.asarray(h, dtype=float) for h in f.max_hints(params)]
    starts.extend(rng.standard_normal((restarts, params.m)) * scale)

    usable = []
    for s in starts:
        x0 = s.copy()
        tries = 0
        while not math.isfinite(neg_log_u(x0)) and tries < 20:
            x0 = s + rng.standard_normal(params.m) * (scale * 0.1)
            tries += 1
        if math.isfinite(neg_log_u(x0)):
            usable.append(x0)
    if not usable:
        raise OptimizationFailureError("no starting point with nonzero density found")

    results = []
    for x0 in usable:
        res = minimize(
            neg_log_u,
            x0,
            method="Nelder-Mead",
            options=dict(xatol=1e-11, fatol=1e-13, maxiter=4000, maxfev=8000),
        )
        if math.isfinite(res.fun):
            results.append((float(res.fun), np.asarray(res.x)))
    if not results:
        raise OptimizationFailureError("all simplex restarts failed")

    best_fun, best_x = min(results, key=lambda r: r[0])
    polish = minimize(
        neg_log_u,
        best_x,
        method="Nelder-Mead",
        options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000, maxfev=8000),
    )
    if math.isfinite(polish.fun) and polish.fun < best_fun:
        best_fun, best_x = float(polish.fun), np.asarray(polish.x)

    tol = 1e-8 * max(1.0, abs(best_fun))
    agreeing = sum(1 for fun, _ in results if fun - best_fun <= tol)
    return MaxResult(
        t_max=math.exp(-best_fun),
        argmax=tuple(float(c) for c in best_x),
        restarts_agreeing=agreeing,
        restarts_total=len(results),
        log_t_max=-best_fun,
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


def has_exact_measure(f: TestFunction) -> bool:
    """True when u is a radial profile about some center; that does not depend on p or alpha."""
    return f.radial_profile(FockParams(f.m, 1.0, 1.0)) is not None


def superlevel_measure_exact(f: TestFunction, params: FockParams, t):
    """mu(t) from the closed-form radii of the radial profile, for radially representable densities.

    t is a scalar, giving a float, or an array of thresholds, all solved at once.
    """
    log_t = np.log(_thresholds(t))
    if f.m != params.m:
        raise InvalidInputError(f"function lives on R^{f.m}, params say m={params.m}")
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


def mu_from_g(
    g_value: float, t: float, params: FockParams, variant: IsoperimetricVariant
) -> float:
    """Inverse of g_from_mu at fixed t; needs g >= t."""
    if not (t > 0):
        raise InvalidInputError("threshold t must be positive")
    ratio = g_value / t
    if ratio < 1.0 - 1e-12:
        raise InvalidInputError(f"g = {g_value} below t = {t}; no nonnegative measure")
    log_ratio = max(math.log(max(ratio, 1.0)), 0.0)
    return (log_ratio / (variant.kappa(params.m) * params.rate)) ** (params.m / 2.0)


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
    mx = find_max(f, params, restarts=restarts, seed=seed)
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
    mx = find_max(f, params, seed=seed)
    t_max = mx.t_max

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
