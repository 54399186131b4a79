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
from .functions import FockParams, TestFunction, envelope_radius, log_density_batch
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
    """Hit-count estimate of mu(t) = |{u > t}| with its binomial stderr."""

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

    def violation_flags(self) -> np.ndarray:
        flags = np.zeros(len(self.t_grid), dtype=bool)
        lows = {t_lo for _, t_lo, _ in self.violations}
        for i, t in enumerate(self.t_grid):
            if t in lows:
                flags[i] = True
        return flags


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


def superlevel_measure(
    f: TestFunction, params: FockParams, t: float, samples: int = 200_000, seed: int = 0
) -> MeasureEstimate:
    """Uniform hit-counting inside the envelope ball, radius padded by 5 percent."""
    if not (t > 0) or not math.isfinite(t):
        raise InvalidInputError(f"threshold t must be finite and positive, got {t}")
    samples = int(samples)
    if samples < 1000:
        raise InvalidInputError(f"need at least 1000 samples, got {samples}")
    R = envelope_radius(f, params, t)
    if R == 0.0:
        return MeasureEstimate(0.0, 0.0, t, samples, seed, 0.0)
    R_s = 1.05 * R
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, params.m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = R_s * rng.random(samples) ** (1.0 / params.m)
    pts = dirs * radii[:, None]
    hits = log_density_batch(f, params, pts) > math.log(t)
    vol = unit_ball_volume(params.m) * R_s**params.m
    phat = float(np.mean(hits))
    value = vol * phat
    stderr = vol * math.sqrt(phat * (1.0 - phat) / samples)
    return MeasureEstimate(value, stderr, t, samples, seed, R_s)


def has_exact_measure(f: TestFunction) -> bool:
    """True when u is a radial profile about some center; that does not depend on p or alpha."""
    return f.radial_profile(FockParams(f.m, 1.0, 1.0)) is not None


def superlevel_measure_exact(f: TestFunction, params: FockParams, t: float) -> float:
    """mu(t) from the radii of the radial profile; only for radially representable densities."""
    if not (t > 0) or not math.isfinite(t):
        raise InvalidInputError(f"threshold t must be finite and positive, got {t}")
    if f.m != params.m:
        raise InvalidInputError(f"function lives on R^{f.m}, params say m={params.m}")
    profile = f.radial_profile(params)
    if profile is None:
        raise InvalidInputError(f"no radial representation for family '{f.family}'")
    if profile.B <= 0:
        raise InvalidInputError("density is not decaying; measure is infinite")
    r_in, r_out = profile.radii(math.log(t))
    return unit_ball_volume(params.m) * (r_out**params.m - r_in**params.m)


# ---------------------------------------------------------------------------
# monotone diagnostic


def g_from_mu(
    mu: float, t: float, params: FockParams, variant: IsoperimetricVariant
) -> float:
    """g(t) = t * exp(kappa(m) * alpha p * mu^(2/m))."""
    if not (t > 0):
        raise InvalidInputError("threshold t must be positive")
    if mu < 0:
        raise InvalidInputError("measure must be nonnegative")
    expo = variant.kappa(params.m) * params.rate * mu ** (2.0 / params.m)
    if expo > 700.0:  # exp would overflow; the diagnostic is +inf there
        return math.inf
    return t * math.exp(expo)


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

    Per-level seeds are derived as seed + 1 + k so reruns are bit-identical and
    levels are statistically independent.  A monotonicity violation is recorded
    only when the drop between adjacent levels exceeds 3x the summed
    propagated errors.
    """
    grid = grid or LevelGrid()
    mx = find_max(f, params, restarts=restarts, seed=seed)
    t_grid = grid.levels(mx.t_max)

    mu = np.zeros(grid.count)
    mu_err = np.zeros(grid.count)
    g = np.zeros(grid.count)
    g_err = np.zeros(grid.count)
    for k, t in enumerate(t_grid):
        est = superlevel_measure(f, params, float(t), samples=samples, seed=seed + 1 + k)
        mu[k], mu_err[k] = est.value, est.stderr
        g[k] = g_from_mu(mu[k], float(t), params, variant)
        up = g_from_mu(mu[k] + mu_err[k], float(t), params, variant)
        dn = g_from_mu(max(mu[k] - mu_err[k], 0.0), float(t), params, variant)
        g_err[k] = max(up - g[k], g[k] - dn)

    violations = []
    for k in range(1, grid.count):
        drop = g[k - 1] - g[k]
        thresh = 3.0 * (g_err[k - 1] + g_err[k])
        if drop > thresh:
            violations.append((float(t_grid[k - 1]), float(t_grid[k]), float(drop - thresh)))

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


def _cells_quadrature(mu_fn, G: ConvexFunction, edges: np.ndarray, rule) -> float:
    """Sum of per-cell Gauss-Legendre integrals of mu * G' over [edges[i+1], edges[i]]."""
    nodes, weights = rule
    total = 0.0
    for hi, lo in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        ts = mid + half * nodes
        vals = np.array([mu_fn(float(t)) for t in ts]) * G.derivative(ts)
        total += half * float(weights @ vals)
    return total


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

    For radially representable densities mu(t) is computed exactly by
    root-finding and the geometric grid is extended until the remaining tail is
    negligible; otherwise mu comes from hit-count sampling on the given grid
    and the statistical error is propagated.
    """
    G.validate()
    grid = grid or LevelGrid()
    mx = find_max(f, params, seed=seed)
    t_max = mx.t_max

    if f.radial_profile(params) is not None:
        ratio = grid.ratio
        count = max(grid.count, int(math.ceil(math.log(1e-12) / math.log(ratio))))
        edges = t_max * ratio ** np.arange(0, count + 1)

        def mu_fn(t):
            return superlevel_measure_exact(f, params, t)

        coarse = _cells_quadrature(mu_fn, G, edges, _GL8)
        fine = _cells_quadrature(mu_fn, G, edges, _GL16)
        t_end = float(edges[-1])
        tail = mu_fn(t_end) * float(G.value(np.array([t_end]))[0])
        value = fine + tail
        err = abs(fine - coarse) + tail
        mode = "exact-radial"
    else:
        t_grid = grid.levels(t_max)
        mu = np.zeros(grid.count)
        sig = np.zeros(grid.count)
        for k, t in enumerate(t_grid):
            est = superlevel_measure(f, params, float(t), samples=samples, seed=seed + 1 + k)
            mu[k], sig[k] = est.value, est.stderr
        # trapezoid on [t_grid[-1], ..., t_grid[0], t_max] with mu(t_max) = 0
        ts = np.concatenate([t_grid[::-1], [t_max]])
        ys = np.concatenate([mu[::-1], [0.0]]) * G.derivative(ts)
        value = float(np.trapezoid(ys, ts))
        w = np.zeros(len(ts))
        w[1:] += 0.5 * np.diff(ts)
        w[:-1] += 0.5 * np.diff(ts)
        sig_full = np.concatenate([sig[::-1], [0.0]]) * G.derivative(ts)
        stat = math.sqrt(float(np.sum((w * sig_full) ** 2)))
        t_end = float(t_grid[-1])
        tail = mu[-1] * float(G.value(np.array([t_end]))[0])
        value += tail
        err = stat + tail
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
