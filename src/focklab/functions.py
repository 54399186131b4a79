"""Test-function families and pointwise density machinery.

Every family evaluates log|f| in closed form, vectorized over batches of
points, so densities u = |f|^p * exp(-(alpha*p/2)|x|^2) can be formed in pure
log-space.  Zeros of f are represented by log|f| = -inf; exp is applied only
at the last moment, if at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DimensionMismatchError,
    EvaluationAtZeroError,
    InvalidInputError,
    NoEnvelopeError,
)

__all__ = [
    "FockParams",
    "DensityValue",
    "TestFunction",
    "RadialProfile",
    "Constant",
    "Coherent",
    "Monomial",
    "Polynomial",
    "ExpQuadratic",
    "SumOfCoherent",
    "SpotCheck",
    "eval_log_abs",
    "eval_density",
    "log_density_batch",
    "envelope_radius",
    "subharmonicity_spot_check",
    "subharmonic_tolerance",
]


@dataclass(frozen=True)
class FockParams:
    """Ambient dimension m, norm exponent p > 0, and weight rate alpha > 0."""

    m: int
    p: float
    alpha: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise InvalidInputError(f"dimension m must be a positive integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if not (self.p > 0) or not math.isfinite(self.p):
            raise InvalidInputError(f"exponent p must be finite and positive, got {self.p}")
        if not (self.alpha > 0) or not math.isfinite(self.alpha):
            raise InvalidInputError(f"weight rate alpha must be finite and positive, got {self.alpha}")

    @property
    def rate(self) -> float:
        """Gaussian decay rate alpha*p of the weighted density."""
        return self.alpha * self.p


@dataclass(frozen=True)
class DensityValue:
    """Weighted density at a point, carried in log-space."""

    log_u: float

    @property
    def u(self) -> float:
        return math.exp(self.log_u) if self.log_u != -math.inf else 0.0


@dataclass(frozen=True)
class RadialProfile:
    """Density of the form log u(x) = A + K log r - B r^2 with r = |x - centre|.

    K >= 0; B > 0 whenever u is integrable.  Zero K makes every superlevel set
    a ball about the centre; positive K makes it an annulus.
    """

    centre: tuple[float, ...]
    A: float
    K: float
    B: float

    def radii(self, log_t: float) -> tuple[float, float]:
        """(r_in, r_out) with {u > t} = {r_in < r < r_out}; (0, 0) when it is empty."""
        if self.K == 0.0:
            rho2 = (self.A - log_t) / self.B
            return 0.0, (math.sqrt(rho2) if rho2 > 0 else 0.0)

        def psi(r):
            return self.A + self.K * math.log(r) - self.B * r * r

        r_peak = math.sqrt(self.K / (2.0 * self.B))
        if psi(r_peak) <= log_t:
            return 0.0, 0.0
        # psi(r) < A + K log r, so psi < log_t below exp((log_t - A) / K) < r_peak
        r_lo = 0.5 * math.exp((log_t - self.A) / self.K)
        r_in = brentq(lambda r: psi(r) - log_t, r_lo, r_peak, xtol=1e-15, rtol=8.9e-16)
        r_hi = 2.0 * r_peak
        while psi(r_hi) >= log_t:
            r_hi *= 2.0
        r_out = brentq(lambda r: psi(r) - log_t, r_peak, r_hi, xtol=1e-15, rtol=8.9e-16)
        return r_in, r_out


def _as_tuple(v) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise InvalidInputError("expected a flat coordinate vector")
    return tuple(float(c) for c in arr)


@dataclass(frozen=True, kw_only=True)
class TestFunction:
    """Base class: a nonnegative |f| on R^m with log-subharmonic log|f|.

    log_scale is an additive offset on log|f|, used for exact scalar
    multiplication (normalization) without leaving log-space.
    """

    log_scale: float = 0.0

    @property
    def m(self) -> int:
        raise NotImplementedError

    @property
    def family(self) -> str:
        raise NotImplementedError

    def _log_abs_raw(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_abs(self, X: np.ndarray) -> np.ndarray:
        """log|f| on an (N, m) batch of points; -inf at zeros of f."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.m:
            raise DimensionMismatchError(
                f"expected points of shape (N, {self.m}), got {X.shape}"
            )
        out = self._log_abs_raw(X)
        if self.log_scale != 0.0:
            out = out + self.log_scale
        return out

    def _radial_bound_raw(self, r: float) -> float:
        """Upper bound for log|f| (without log_scale) on the sphere |x| = r."""
        raise NotImplementedError

    def radial_profile(self, params: FockParams) -> RadialProfile | None:
        """The density as a radial profile about a centre, or None if it is not one."""
        return None

    def max_hints(self, params: FockParams) -> list[np.ndarray]:
        """Candidate maximizers of the density, used to seed multistart search."""
        return [np.zeros(self.m)]

    def scaled(self, c: float) -> "TestFunction":
        """The function c*f, realized as an exact log-space shift."""
        if not (c > 0):
            raise InvalidInputError("scale factor must be positive")
        return replace(self, log_scale=self.log_scale + math.log(c))

    def log_shifted(self, delta: float) -> "TestFunction":
        return replace(self, log_scale=self.log_scale + delta)

    def has_envelope(self, params: FockParams) -> bool:
        profile = self.radial_profile(params)
        return profile is None or profile.B > 0


@dataclass(frozen=True, kw_only=True)
class Constant(TestFunction):
    """f = c >= 0."""

    value: float
    dim: int

    def __post_init__(self):
        if self.value < 0:
            raise InvalidInputError("constant value must be nonnegative")
        if int(self.dim) != self.dim or self.dim < 1:
            raise InvalidInputError("dimension must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def m(self) -> int:
        return self.dim

    @property
    def family(self) -> str:
        return "const"

    def _log_abs_raw(self, X):
        v = math.log(self.value) if self.value > 0 else -math.inf
        return np.full(X.shape[0], v)

    def radial_profile(self, params):
        top = params.p * ((math.log(self.value) if self.value > 0 else -math.inf) + self.log_scale)
        return RadialProfile((0.0,) * self.m, top, 0.0, 0.5 * params.rate)


@dataclass(frozen=True, kw_only=True)
class Coherent(TestFunction):
    """log|f_a(x)| = alpha*(<a, x> - |a|^2/2), the reproducing-kernel state at a.

    The rate here is the one the state was built with; it need not match the
    alpha of the norm being computed, though the equality cases require it to.
    """

    center: tuple[float, ...]
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_tuple(self.center))
        if not (self.alpha > 0):
            raise InvalidInputError("coherent rate alpha must be positive")

    @property
    def m(self) -> int:
        return len(self.center)

    @property
    def family(self) -> str:
        return "coherent"

    def _log_abs_raw(self, X):
        a = np.asarray(self.center)
        return self.alpha * (X @ a - 0.5 * float(a @ a))

    def radial_profile(self, params):
        # completing the square: u peaks at (built-in rate / weight rate) * a
        a = np.asarray(self.center)
        c0 = (self.alpha / params.alpha) * a
        top = (
            0.5 * params.rate * float(c0 @ c0)
            - 0.5 * params.p * self.alpha * float(a @ a)
            + params.p * self.log_scale
        )
        return RadialProfile(_as_tuple(c0), top, 0.0, 0.5 * params.rate)

    def max_hints(self, params):
        centre = np.asarray(self.radial_profile(params).centre)
        return [centre, np.asarray(self.center), np.zeros(self.m)]


@dataclass(frozen=True, kw_only=True)
class Monomial(TestFunction):
    """f(z) = z^k on C^n identified with R^(2n); k is a multi-index."""

    powers: tuple[int, ...]

    def __post_init__(self):
        pw = tuple(int(k) for k in np.atleast_1d(np.asarray(self.powers)))
        if len(pw) < 1 or any(k < 0 for k in pw):
            raise InvalidInputError("monomial powers must be nonnegative integers")
        object.__setattr__(self, "powers", pw)

    @property
    def m(self) -> int:
        return 2 * len(self.powers)

    @property
    def family(self) -> str:
        return "monomial"

    @property
    def degree(self) -> int:
        return sum(self.powers)

    def _log_abs_raw(self, X):
        out = np.zeros(X.shape[0])
        with np.errstate(divide="ignore"):
            for j, k in enumerate(self.powers):
                if k == 0:
                    continue
                r2 = X[:, 2 * j] ** 2 + X[:, 2 * j + 1] ** 2
                out = out + 0.5 * k * np.log(r2)
        return out

    def _radial_bound_raw(self, r):
        if r <= 0:
            return -math.inf if self.degree > 0 else 0.0
        return self.degree * math.log(r)

    def radial_profile(self, params):
        if len(self.powers) != 1:
            return None
        return RadialProfile(
            (0.0, 0.0), params.p * self.log_scale, params.p * self.powers[0], 0.5 * params.rate
        )

    def max_hints(self, params):
        x = np.zeros(self.m)
        for j, k in enumerate(self.powers):
            x[2 * j] = math.sqrt(k / params.alpha)
        return [x]


def _validate_multi_index(key) -> tuple[int, ...]:
    pw = tuple(int(k) for k in np.atleast_1d(np.asarray(key)))
    if any(k < 0 for k in pw):
        raise InvalidInputError("polynomial multi-indices must be nonnegative")
    return pw


@dataclass(frozen=True, kw_only=True)
class Polynomial(TestFunction):
    """f(z) = sum_k c_k z^k on C^n; terms is a mapping multi-index -> complex."""

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        if isinstance(self.terms, dict):
            items = self.terms.items()
        else:
            items = self.terms
        norm = []
        n = None
        for key, coeff in items:
            pw = _validate_multi_index(key)
            if n is None:
                n = len(pw)
            elif len(pw) != n:
                raise InvalidInputError("all multi-indices must have the same length")
            norm.append((pw, complex(coeff)))
        if not norm:
            raise InvalidInputError("polynomial needs at least one term")
        norm.sort(key=lambda kc: kc[0])
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def n_complex(self) -> int:
        return len(self.terms[0][0])

    @property
    def m(self) -> int:
        return 2 * self.n_complex

    @property
    def family(self) -> str:
        return "poly"

    @property
    def degree(self) -> int:
        return max(sum(k) for k, _ in self.terms)

    def _log_abs_raw(self, X):
        Z = X[:, 0::2] + 1j * X[:, 1::2]
        total = np.zeros(X.shape[0], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for pw, coeff in self.terms:
                term = np.full(X.shape[0], coeff, dtype=complex)
                for j, k in enumerate(pw):
                    if k:
                        term = term * Z[:, j] ** k
                total = total + term
            with np.errstate(divide="ignore"):
                return np.log(np.abs(total))

    def _radial_bound_raw(self, r):
        # triangle inequality with |z_j| <= r: log sum_k |c_k| r^{|k|}
        if r <= 0:
            r = 0.0
        logs = []
        for pw, coeff in self.terms:
            if abs(coeff) == 0:
                continue
            deg = sum(pw)
            lr = deg * math.log(r) if r > 0 else (0.0 if deg == 0 else -math.inf)
            logs.append(math.log(abs(coeff)) + lr)
        if not logs:
            return -math.inf
        mx = max(logs)
        if mx == -math.inf:
            return mx
        return mx + math.log(sum(math.exp(v - mx) for v in logs))


@dataclass(frozen=True, kw_only=True)
class ExpQuadratic(TestFunction):
    """|f(x)| = exp(c |x|^2), c >= 0.  Norm diverges unless c < alpha/2."""

    c: float
    dim: int

    def __post_init__(self):
        if self.c < 0:
            raise InvalidInputError("quadratic rate c must be nonnegative")
        if int(self.dim) != self.dim or self.dim < 1:
            raise InvalidInputError("dimension must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def m(self) -> int:
        return self.dim

    @property
    def family(self) -> str:
        return "expquad"

    def _log_abs_raw(self, X):
        return self.c * np.sum(X * X, axis=1)

    def radial_profile(self, params):
        return RadialProfile(
            (0.0,) * self.m, params.p * self.log_scale, 0.0, params.p * (params.alpha / 2 - self.c)
        )


@dataclass(frozen=True, kw_only=True)
class SumOfCoherent(TestFunction):
    """f = sum_j w_j f_{a_j} with w_j >= 0 and a shared built-in rate."""

    atoms: tuple[tuple[float, tuple[float, ...]], ...]
    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0):
            raise InvalidInputError("rate alpha must be positive")
        norm = []
        dim = None
        for w, a in self.atoms:
            if w < 0:
                raise InvalidInputError("atom weights must be nonnegative")
            at = _as_tuple(a)
            if dim is None:
                dim = len(at)
            elif len(at) != dim:
                raise InvalidInputError("all atom centers must share one dimension")
            norm.append((float(w), at))
        if not norm:
            raise InvalidInputError("need at least one atom")
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.atoms[0][1])

    @property
    def family(self) -> str:
        return "sumcoherent"

    def _atom_exponents(self, X):
        cols = []
        with np.errstate(divide="ignore"):
            for w, a in self.atoms:
                av = np.asarray(a)
                expo = self.alpha * (X @ av - 0.5 * float(av @ av))
                cols.append(math.log(w) + expo if w > 0 else np.full(X.shape[0], -math.inf))
        return cols

    def _log_abs_raw(self, X):
        cols = self._atom_exponents(X)
        out = cols[0]
        for c in cols[1:]:
            out = np.logaddexp(out, c)
        return out

    def _radial_bound_raw(self, r):
        vals = []
        for w, a in self.atoms:
            if w == 0:
                continue
            na = float(np.linalg.norm(np.asarray(a)))
            vals.append(math.log(w) + self.alpha * (na * r - 0.5 * na * na))
        if not vals:
            return -math.inf
        mx = max(vals)
        return mx + math.log(sum(math.exp(v - mx) for v in vals))

    def max_hints(self, params):
        hints = [np.asarray(a) * (self.alpha / params.alpha) for _, a in self.atoms]
        hints.append(np.zeros(self.m))
        return hints


# ---------------------------------------------------------------------------
# pointwise operations


def _check_dims(f: TestFunction, params: FockParams):
    if f.m != params.m:
        raise DimensionMismatchError(
            f"function lives on R^{f.m} but params specify m={params.m}"
        )


def eval_log_abs(f: TestFunction, x) -> float:
    """log|f(x)| at a single point; -inf exactly at zeros of f."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != f.m:
        raise DimensionMismatchError(f"point has dimension {x.size}, expected {f.m}")
    return float(f.log_abs(x[None, :])[0])


def log_density_batch(f: TestFunction, params: FockParams, X: np.ndarray) -> np.ndarray:
    """log u on an (N, m) batch, u = |f|^p exp(-(alpha p/2)|x|^2)."""
    _check_dims(f, params)
    X = np.asarray(X, dtype=float)
    return params.p * f.log_abs(X) - 0.5 * params.rate * np.sum(X * X, axis=1)


def eval_density(f: TestFunction, params: FockParams, x) -> DensityValue:
    """The weighted density u at one point, returned in log-space."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != params.m:
        raise DimensionMismatchError(f"point has dimension {x.size}, expected {params.m}")
    _check_dims(f, params)
    return DensityValue(log_u=float(log_density_batch(f, params, x[None, :])[0]))


def _envelope_bisect(f: TestFunction, params: FockParams, log_t: float) -> float:
    def phi(r):
        return params.p * (f._radial_bound_raw(r) + f.log_scale) - 0.5 * params.rate * r * r - log_t

    r_hi = 1.0
    while phi(r_hi) > -1.0 and r_hi < 1e8:
        r_hi *= 2.0
    grid = np.geomspace(1e-9, r_hi, 512)
    vals = np.array([phi(r) for r in grid])
    if not np.any(vals >= 0.0):
        return 0.0
    i_last = int(np.max(np.nonzero(vals >= 0.0)[0]))
    if i_last == len(grid) - 1:
        # positive all the way to r_hi despite phi(r_hi) <= -1: cannot happen
        raise InvalidInputError("envelope bracketing failed")
    return float(brentq(phi, grid[i_last], r_hi, xtol=1e-13, rtol=1e-14))


def envelope_radius(f: TestFunction, params: FockParams, t: float) -> float:
    """Radius R with u(x) < t whenever |x| > R.  Returns 0 when u < t everywhere.

    Uses the exact radii of the radial profile where the family has one and
    monotone bisection on a radial upper bound for the others.
    """
    _check_dims(f, params)
    if not (t > 0) or not math.isfinite(t):
        raise InvalidInputError(f"threshold t must be finite and positive, got {t}")
    if not f.has_envelope(params):
        raise NoEnvelopeError(
            f"|f| grows like exp({getattr(f, 'c', '?')}|x|^2) >= exp(alpha/2 |x|^2); no envelope"
        )
    log_t = math.log(t)
    profile = f.radial_profile(params)
    if profile is None:
        return _envelope_bisect(f, params, log_t)
    r_out = profile.radii(log_t)[1]
    return math.hypot(*profile.centre) + r_out if r_out > 0 else 0.0


@dataclass(frozen=True)
class SpotCheck:
    """Finite-difference Laplacian of log|f| at one point, with its flag."""

    value: float
    violation: bool
    tol: float


def subharmonic_tolerance(h: float) -> float:
    """Discretization allowance for the finite-difference Laplacian check."""
    return 10.0 * h * h + 1e-9


def subharmonicity_spot_check(f: TestFunction, x, h: float = 1e-3) -> SpotCheck:
    """Centered second-difference Laplacian of log|f| at x.

    Raises EvaluationAtZeroError when any stencil point lands on a zero of f;
    the caller should skip such points rather than read a sign off -inf.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != f.m:
        raise DimensionMismatchError(f"point has dimension {x.size}, expected {f.m}")
    if not (h > 0):
        raise InvalidInputError("step h must be positive")
    pts = [x]
    for d in range(f.m):
        for s in (+1.0, -1.0):
            xp = x.copy()
            xp[d] += s * h
            pts.append(xp)
    vals = f.log_abs(np.array(pts))
    if not np.all(np.isfinite(vals)):
        raise EvaluationAtZeroError("stencil touches the zero set of f")
    center = vals[0]
    lap = 0.0
    for d in range(f.m):
        lap += (vals[1 + 2 * d] + vals[2 + 2 * d] - 2.0 * center) / (h * h)
    tol = subharmonic_tolerance(h)
    return SpotCheck(value=float(lap), violation=bool(lap < -tol), tol=tol)


def default_family_members(m: int = 2) -> tuple[TestFunction, ...]:
    """Canonical test inputs covering every family at ambient dimension m.

    Holomorphic families (monomial, polynomial) only exist for even m and are
    omitted otherwise.
    """
    if m < 1:
        raise InvalidInputError("dimension must be at least 1")
    e1 = (1.0,) + (0.0,) * (m - 1)
    members: list[TestFunction] = [
        Constant(value=1.0, dim=m),
        Coherent(center=e1, alpha=1.0),
        ExpQuadratic(c=0.1, dim=m),
        SumOfCoherent(
            atoms=(
                (0.7, (0.5,) + (0.0,) * (m - 1)),
                (0.3, (-1.0,) + (0.0,) * (m - 1)),
            ),
            alpha=1.0,
        ),
    ]
    if m % 2 == 0:
        n = m // 2
        members.append(Monomial(powers=(1,) + (0,) * (n - 1)))
        members.append(Monomial(powers=(2,) + (0,) * (n - 1)))
        members.append(
            Polynomial(
                terms=(
                    ((0,) * n, 1.0 + 0.0j),
                    ((2,) + (0,) * (n - 1), 0.5j),
                )
            )
        )
    return tuple(members)
