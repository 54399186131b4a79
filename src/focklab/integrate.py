"""Weighted-norm integration backends and convex functionals.

All backends integrate the density u = |f|^p exp(-(alpha p/2)|x|^2) over R^m.
The Gaussian factor is folded into the quadrature weights (Gauss-Hermite and
generalized Gauss-Laguerre rules) or into the importance-sampling proposal, so
the integrand handed to exp() stays moderate even at large p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import logsumexp, roots_genlaguerre, roots_hermite, roots_legendre

from .errors import (
    InvalidInputError,
    MethodUnavailableError,
    NoEnvelopeError,
    UnsupportedFunctionalError,
)
from .functions import FockParams, TestFunction, log_density_batch

__all__ = [
    "GaussHermite",
    "Radial",
    "MonteCarlo",
    "IntegralEstimate",
    "NormEstimate",
    "FunctionalEstimate",
    "ConvexFunction",
    "Power",
    "PiecewiseLinear",
    "Custom",
    "norm_constant",
    "gauss_hermite_integrate",
    "radial_integrate",
    "mc_integrate",
    "fock_norm",
    "convex_functional",
]

# hard cap on tensor-grid size; beyond this the backend refuses
_MAX_TENSOR_POINTS = 1 << 27
# grids at most this large are evaluated in one chunk / error-estimated by doubling
_CHUNK_POINTS = 1 << 21
_DOUBLING_BUDGET = 1 << 24


@dataclass(frozen=True)
class GaussHermite:
    """Tensor Gauss-Hermite rule with a fixed node count per axis."""

    nodes_per_axis: int = 32


@dataclass(frozen=True)
class Radial:
    """Generalized Gauss-Laguerre in radius times a product rule on the sphere."""

    radial_nodes: int = 48
    angular_nodes: int = 64


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded importance sampling against the Gaussian weight."""

    samples: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    error_bound: float


@dataclass(frozen=True)
class NormEstimate:
    """Norm value with the raw p-th power integral it was taken from.

    raw_integral includes the normalizing constant, so value == raw_integral**(1/p)
    and error_bound is on the raw_integral scale.
    """

    value: float
    raw_integral: float
    method: object
    error_bound: float
    p: float

    @property
    def value_error(self) -> float:
        """error_bound propagated through the p-th root."""
        if self.raw_integral <= 0 or not math.isfinite(self.raw_integral):
            return 0.0
        return self.value * self.error_bound / (self.p * self.raw_integral)


@dataclass(frozen=True)
class FunctionalEstimate:
    value: float
    error_bound: float
    method: object


def norm_constant(params: FockParams) -> float:
    """Normalizer (alpha p / 2 pi)^(m/2) making the weight a probability measure."""
    return (params.rate / (2.0 * math.pi)) ** (params.m / 2.0)


# ---------------------------------------------------------------------------
# Gauss-Hermite tensor grid


@lru_cache(maxsize=32)
def _gh_axis(n: int):
    # physicists' rule for weight exp(-y^2); fold the weight back into log-space
    y, w = roots_hermite(n)
    return y, np.log(w) + y * y


def _iter_gh_chunks(params: FockParams, n: int):
    """Yield (X, logw) blocks of the tensor rule, weights carrying the exp(y^2)
    correction and the change-of-variables Jacobian."""
    m = params.m
    y, lw = _gh_axis(n)
    scale = math.sqrt(2.0 / params.rate)
    log_jac = 0.5 * m * math.log(2.0 / params.rate)

    k = 0
    while n ** (m - k) > _CHUNK_POINTS:
        k += 1
    inner_dims = m - k
    if inner_dims > 0:
        mesh = np.meshgrid(*([y] * inner_dims), indexing="ij")
        inner_y = np.stack([g.ravel() for g in mesh], axis=1)
        mesh_w = np.meshgrid(*([lw] * inner_dims), indexing="ij")
        inner_lw = sum(g.ravel() for g in mesh_w)
    else:
        inner_y = np.zeros((1, 0))
        inner_lw = np.zeros(1)

    B = inner_y.shape[0]
    for outer in itertools.product(range(n), repeat=k):
        X = np.empty((B, m))
        for d, idx in enumerate(outer):
            X[:, d] = y[idx] * scale
        if inner_dims > 0:
            X[:, k:] = inner_y * scale
        logw = inner_lw + sum(lw[idx] for idx in outer) + log_jac
        yield X, logw


def _gh_raw(log_u: Callable, params: FockParams, n: int) -> float:
    parts = []
    for X, logw in _iter_gh_chunks(params, n):
        le = logw + log_u(X)
        parts.append(logsumexp(le))
    return float(np.exp(logsumexp(parts)))


def gauss_hermite_integrate(
    log_u: Callable, params: FockParams, nodes_per_axis: int = 32
) -> IntegralEstimate:
    """Integral of exp(log_u) over R^m; error from a node-count refinement pair."""
    n, m = int(nodes_per_axis), params.m
    if m > 6:
        raise MethodUnavailableError(f"tensor Gauss-Hermite supports m <= 6, got m={m}")
    if n < 8:
        raise InvalidInputError(f"need at least 8 nodes per axis, got {n}")
    if n**m > _MAX_TENSOR_POINTS:
        raise MethodUnavailableError(
            f"tensor grid {n}^{m} exceeds the supported budget of {_MAX_TENSOR_POINTS} points"
        )
    # refine by doubling while the finer grid fits the budget, else halve for the coarse one
    n_coarse, n_fine = (n, 2 * n) if (2 * n) ** m <= _DOUBLING_BUDGET else (max(8, n // 2), n)
    coarse = _gh_raw(log_u, params, n_coarse)
    fine = _gh_raw(log_u, params, n_fine)
    return IntegralEstimate(value=fine, error_bound=abs(fine - coarse))


# ---------------------------------------------------------------------------
# radial-spherical grid (m <= 3)


@lru_cache(maxsize=32)
def _radial_axis(n: int, m: int):
    s, w = roots_genlaguerre(n, m / 2.0 - 1.0)
    return s, np.log(w) + s


@lru_cache(maxsize=32)
def _sphere_rule(m: int, n_ang: int):
    """Nodes and weights integrating the surface measure of S^(m-1) exactly-ish."""
    if m == 1:
        omega = np.array([[1.0], [-1.0]])
        aw = np.array([1.0, 1.0])
    elif m == 2:
        theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        aw = np.full(n_ang, 2.0 * math.pi / n_ang)
    elif m == 3:
        n_pol = max(4, n_ang // 2)
        u, wu = roots_legendre(n_pol)
        theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
        su = np.sqrt(1.0 - u * u)
        nodes = []
        weights = []
        for ui, sui, wui in zip(u, su, wu):
            for th in theta:
                nodes.append([sui * math.cos(th), sui * math.sin(th), ui])
                weights.append(wui * 2.0 * math.pi / n_ang)
        omega = np.array(nodes)
        aw = np.array(weights)
    else:
        raise MethodUnavailableError(f"radial backend supports m <= 3, got m={m}")
    return omega, aw


def _radial_raw(log_u: Callable, params: FockParams, nr: int, na: int) -> float:
    m = params.m
    s, lws = _radial_axis(nr, m)
    omega, aw = _sphere_rule(m, na)
    r = np.sqrt(2.0 * s / params.rate)
    log_jac = math.log(0.5) + 0.5 * m * math.log(2.0 / params.rate)
    X = (r[:, None, None] * omega[None, :, :]).reshape(-1, m)
    logw = (lws[:, None] + np.log(aw)[None, :] + log_jac).reshape(-1)
    return float(np.exp(logsumexp(logw + log_u(X))))


def radial_integrate(
    log_u: Callable, params: FockParams, radial_nodes: int = 48, angular_nodes: int = 64
) -> IntegralEstimate:
    nr, na = int(radial_nodes), int(angular_nodes)
    if nr < 4 or na < 4:
        raise InvalidInputError("radial and angular node counts must be at least 4")
    coarse = _radial_raw(log_u, params, nr, na)
    fine = _radial_raw(log_u, params, 2 * nr, 2 * na)
    return IntegralEstimate(value=fine, error_bound=abs(fine - coarse))


# ---------------------------------------------------------------------------
# Monte Carlo


def mc_integrate(
    log_u: Callable, params: FockParams, samples: int = 100_000, seed: int = 0
) -> IntegralEstimate:
    """Importance sampling with the proposal matched to the Gaussian weight.

    Bit-identical for identical (seed, samples, params); the standard error is
    reported as error_bound.
    """
    samples = int(samples)
    if samples < 1000:
        raise InvalidInputError(f"need at least 1000 samples, got {samples}")
    X = np.random.default_rng(seed).standard_normal((samples, params.m)) / math.sqrt(params.rate)
    half_rate_sq = 0.5 * params.rate * np.sum(X * X, axis=1)
    log_ratio = log_u(X) + half_rate_sq - math.log(norm_constant(params))
    peak = float(np.max(log_ratio))
    if peak == -math.inf:
        return IntegralEstimate(value=0.0, error_bound=0.0)
    w = np.exp(log_ratio - peak)
    mean_w = float(np.mean(w))
    std_w = float(np.std(w, ddof=1)) if samples > 1 else 0.0
    value = math.exp(peak) * mean_w
    stderr = math.exp(peak) * std_w / math.sqrt(samples)
    return IntegralEstimate(value=value, error_bound=stderr)


# ---------------------------------------------------------------------------
# norm and convex functionals


def _dispatch_raw(log_u: Callable, params: FockParams, method) -> IntegralEstimate:
    if isinstance(method, GaussHermite):
        return gauss_hermite_integrate(log_u, params, method.nodes_per_axis)
    if isinstance(method, Radial):
        return radial_integrate(log_u, params, method.radial_nodes, method.angular_nodes)
    if isinstance(method, MonteCarlo):
        return mc_integrate(log_u, params, method.samples, method.seed)
    raise InvalidInputError(f"unknown integration method {method!r}")


def fock_norm(f: TestFunction, params: FockParams, method=GaussHermite()) -> NormEstimate:
    """Weighted p-norm of f: (normalized integral of |f|^p against the weight)^(1/p)."""
    if not f.has_envelope(params):
        raise NoEnvelopeError(
            "the weighted p-th power integral diverges for this function at these params"
        )

    def log_u(X):
        return log_density_batch(f, params, X)

    est = _dispatch_raw(log_u, params, method)
    c = norm_constant(params)
    raw = c * est.value
    err = c * est.error_bound
    value = raw ** (1.0 / params.p) if raw > 0 else 0.0
    return NormEstimate(value=value, raw_integral=raw, method=method, error_bound=err, p=params.p)


class ConvexFunction:
    """Convex nondecreasing G on [0, inf) with G(0) = 0."""

    def value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def validate(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Power(ConvexFunction):
    """G(t) = t^r with r >= 1."""

    exponent: float

    def validate(self):
        if not (self.exponent >= 1.0) or not math.isfinite(self.exponent):
            raise UnsupportedFunctionalError(
                f"power exponent must be >= 1, got {self.exponent}"
            )

    def value(self, t):
        return np.asarray(t, dtype=float) ** self.exponent

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        r = self.exponent
        if r == 1.0:
            return np.ones_like(t)
        with np.errstate(divide="ignore"):
            return r * t ** (r - 1.0)


@dataclass(frozen=True)
class PiecewiseLinear(ConvexFunction):
    """Continuous piecewise-linear G with G(0) = 0.

    slopes[i] applies on [knots[i-1], knots[i]] (knots[-1] extends to infinity);
    convexity requires the slopes to be nondecreasing, and we additionally ask
    for nonnegative slopes so that G is nondecreasing.
    """

    knots: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))
        object.__setattr__(self, "slopes", tuple(float(s) for s in self.slopes))

    def validate(self):
        if len(self.slopes) != len(self.knots) + 1:
            raise UnsupportedFunctionalError("need len(slopes) == len(knots) + 1")
        if any(k <= 0 for k in self.knots) or any(
            b <= a for a, b in zip(self.knots, self.knots[1:])
        ):
            raise UnsupportedFunctionalError("knots must be positive and strictly increasing")
        if any(b < a for a, b in zip(self.slopes, self.slopes[1:])):
            raise UnsupportedFunctionalError("slopes must be nondecreasing (convexity)")
        if self.slopes[0] < 0:
            raise UnsupportedFunctionalError("slopes must be nonnegative (G nondecreasing)")

    def _nodes(self):
        xs = np.concatenate([[0.0], np.asarray(self.knots)])
        ys = np.concatenate([[0.0], np.cumsum(np.diff(xs) * np.asarray(self.slopes[:-1]))])
        return xs, ys

    def value(self, t):
        t = np.asarray(t, dtype=float)
        xs, ys = self._nodes()
        out = np.interp(t, xs, ys)
        beyond = t > xs[-1]
        if np.any(beyond):
            out = np.where(beyond, ys[-1] + self.slopes[-1] * (t - xs[-1]), out)
        return out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.knots), t, side="right")
        return np.asarray(self.slopes)[idx]


@dataclass(frozen=True)
class Custom(ConvexFunction):
    """User-supplied G, screened for G(0) = 0, monotonicity and convexity on a grid."""

    fn: Callable
    fn_prime: Callable | None = None
    check_upper: float = 4.0

    def validate(self):
        g0 = float(self.fn(0.0))
        if abs(g0) > 1e-12:
            raise UnsupportedFunctionalError(f"need G(0) = 0, got G(0) = {g0}")
        ts = np.linspace(0.0, self.check_upper, 257)
        vals = np.asarray([float(self.fn(t)) for t in ts])
        d1 = np.diff(vals)
        if np.any(d1 < -1e-10):
            raise UnsupportedFunctionalError("G must be nondecreasing")
        if np.any(np.diff(d1) < -1e-9):
            raise UnsupportedFunctionalError("G failed the convexity screen")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.asarray([float(self.fn(ti)) for ti in t.ravel()]).reshape(t.shape)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.fn_prime is not None:
            return np.asarray([float(self.fn_prime(ti)) for ti in t.ravel()]).reshape(t.shape)
        h = 1e-7
        up = self.value(t + h)
        dn = self.value(np.maximum(t - h, 0.0))
        return (up - dn) / (np.minimum(t, h) + h)


def convex_functional(
    f: TestFunction, params: FockParams, G: ConvexFunction, method=GaussHermite()
) -> FunctionalEstimate:
    """Integral of G(u) over R^m for convex nondecreasing G with G(0) = 0.

    Runs through the norm backends with the integrand log G(u) in place of log u.
    """
    G.validate()
    if not f.has_envelope(params):
        raise NoEnvelopeError("density is unbounded; the functional diverges")

    def log_G(X):
        g = G.value(np.exp(log_density_batch(f, params, X)))
        if np.any(g < 0):
            raise UnsupportedFunctionalError("G must be nonnegative")
        with np.errstate(divide="ignore"):
            return np.log(g)

    est = _dispatch_raw(log_G, params, method)
    return FunctionalEstimate(value=est.value, error_bound=est.error_bound, method=method)
