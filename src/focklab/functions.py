"""Test-function families and pointwise density machinery.

Every family evaluates log|f| in closed form, vectorized over batches of
points, so densities u = |f|^p * exp(-(alpha*p/2)|x|^2) can be formed in pure
log-space.  Zeros of f are represented by log|f| = -inf; exp is applied only
at the last moment, if at all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NoEnvelopeError,
    OptimizationFailureError,
)

__all__ = [
    "FockParams",
    "TestFunction",
    "RadialProfile",
    "Constant",
    "Coherent",
    "Monomial",
    "Polynomial",
    "ExpQuadratic",
    "SumOfCoherent",
    "log_density_batch",
    "envelope_radius",
]

def _sq_norm(X: np.ndarray) -> np.ndarray:
    """|x|^2 of each row of an (N, m) array, one column at a time.

    Gives the bits of np.sum(X * X, axis=1), which adds the columns left to right
    for m <= 7, without the (N, m) temporary X * X or a strided row reduction.
    """
    s = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        s += X[:, j] * X[:, j]
    return s


@dataclass(frozen=True)
class FockParams:
    """Ambient dimension m, norm exponent p > 0, and weight rate alpha > 0."""

    m: int
    p: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, 1, "dimension m must be a positive integer"))
        if not (self.p > 0) or not math.isfinite(self.p):
            raise InvalidInputError(f"exponent p must be finite and positive, got {self.p}")
        if not (self.alpha > 0) or not math.isfinite(self.alpha):
            raise InvalidInputError(f"weight rate alpha must be finite and positive, got {self.alpha}")

    @property
    def rate(self) -> float:
        """Gaussian decay rate alpha*p of the weighted density."""
        return self.alpha * self.p


def _neg_lambertw(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-W_0(z), -W_-1(z)) for z = -e^L, -700 <= L < -1: the roots y < 1 < y' of y - log y = -L.

    Halley's iteration on that equation (Corless et al. 1996, Adv. Comput.
    Math. 5), elementwise, from the branch-point series in p = sqrt(2(ez + 1))
    where ez + 1 < 1/2 and from the asymptotic series of each branch elsewhere.
    ez + 1 = -expm1(L + 1) and the residual (y - 1) - log1p(y - 1) + (L + 1) near
    y = 1 are formed without cancellation, so the roots keep full accuracy up to
    the branch point.  Three steps reach roundoff from these starts; four are taken.
    """
    q = -np.expm1(L + 1.0)
    near = q < 0.5
    p = np.sqrt(2.0 * q)
    c2, c3 = p * p / 3.0, 11.0 / 72.0 * p**3
    e, log_mL = np.exp(L), np.log(-L)
    y_in = np.where(near, 1.0 - p + c2 - c3, e * (1.0 + e))
    y_out = np.where(near, 1.0 + p + c2 + c3, log_mL - L - log_mL / L)
    for _ in range(4):
        for y in (y_in, y_out):
            t = y - 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.where(np.abs(t) < 0.5, (t - np.log1p(t)) + (L + 1.0), (y - np.log(y)) + L)
            y -= 2.0 * g * y * t / (2.0 * t * t - g)
    return y_in, y_out


@dataclass(frozen=True)
class RadialProfile:
    """Density of the form log u(x) = A + K log r - B r^2 with r = |x - centre|.

    K >= 0; B > 0 whenever u is integrable.  Zero K makes every superlevel set
    a ball about the centre; positive K makes it an annulus.  `peak` gives the
    maximum in closed form, `radii` the superlevel sets.
    """

    centre: tuple[float, ...]
    A: float
    K: float
    B: float

    def peak(self) -> tuple[float, tuple[float, ...]]:
        """(log t_max, a maximizer): A at the centre for K = 0; for K > 0 the
        maximum A + (K/2)(log(K/(2B)) - 1) is taken on the whole sphere
        r^2 = K/(2B), and the point returned is centre + r e_1.

        Raises OptimizationFailureError when u vanishes identically (A = -inf)
        or has no maximum (B < 0, or B = 0 with K > 0).
        """
        if self.A == -math.inf:
            raise OptimizationFailureError("density vanishes identically; no maximum")
        if self.B < 0 or (self.B == 0 and self.K > 0):
            raise OptimizationFailureError("density grows without bound; no maximum")
        if self.K == 0.0:
            return self.A, self.centre
        r2 = self.K / (2.0 * self.B)
        point = (self.centre[0] + math.sqrt(r2),) + self.centre[1:]
        return self.A + 0.5 * self.K * (math.log(r2) - 1.0), point

    def radii(self, log_t) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (r_in, r_out) with {u > t} = {r_in < r < r_out}, (0, 0) where it is empty.

        For positive K, c r^2 = -W(z) on the two real branches of Lambert W, with
        c = 2B/K and log(-z) = log c + 2(log t - A)/K kept in log form.
        """
        log_t = np.asarray(log_t, dtype=float)
        r_in, r_out = np.zeros(log_t.shape), np.zeros(log_t.shape)
        if self.K == 0.0:
            return r_in, np.sqrt(np.maximum((self.A - log_t) / self.B, 0.0))
        log_c = math.log(2.0 * self.B / self.K)
        log_mz = log_c + 2.0 * (log_t - self.A) / self.K
        inside = log_mz < -1.0  # -z < 1/e: t lies below the peak value
        L = log_mz[inside]
        # y = -W(z) solves y - log y = -L on both branches; the clamp keeps -W_0(z) ~ e^L normal
        y_in, y_out = _neg_lambertw(np.maximum(L, -700.0))
        for _ in range(6):  # below the clamp, y = -L + log y contracts by 1/y < 1/700
            y_out = np.where(L < -700.0, np.log(y_out) - L, y_out)
        r_in[inside] = np.exp(0.5 * (L + y_in - log_c))  # log y_in = L + y_in, y_in < e^-700 if clamped
        r_out[inside] = np.exp(0.5 * (np.log(y_out) - log_c))
        return r_in, r_out


def _integer(value, least: int, message: str) -> int:
    """value as an int where it is an integer, as a float too, of at least `least`; else InvalidInputError."""
    try:
        whole = float(value).is_integer() and value >= least
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidInputError(f"{message}, got {value}")
    return int(value)


def _seed(seed) -> int:
    """seed as an int where it is a nonnegative integer, as a float too; else InvalidInputError."""
    return _integer(seed, 0, "seed must be a nonnegative integer")


def _as_tuple(v) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise InvalidInputError("expected a flat coordinate vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"coordinates must be finite, got {tuple(arr.tolist())}")
    return tuple(float(c) for c in arr)


@dataclass(frozen=True, kw_only=True)
class TestFunction:
    """Base class: a nonnegative |f| on R^m with log-subharmonic log|f|.

    Every family is log-subharmonic by construction: log|f| is harmonic off
    the zeros of a holomorphic f, affine for a coherent state, a log-sum-exp
    of affine terms for a mixture, and c|x|^2 with c >= 0 for ExpQuadratic.

    log_scale is an additive offset on log|f|, used for exact scalar
    multiplication (normalization) without leaving log-space; it must be
    finite, also after `log_shifted`.
    """

    log_scale: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.log_scale):
            raise InvalidInputError(f"log_scale must be finite, got {self.log_scale}")

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

    def _log_abs_jet(self, X: np.ndarray):
        """(log|f|, its gradient, its Hessian) without log_scale on an (N, m) batch, for the peak search.

        A family without a radial profile must give one to be searched:
        find_max raises MethodUnavailableError where neither is given.
        """
        raise NotImplementedError

    def _radial_bound_raw(self, r) -> np.ndarray:
        """Upper bound for log|f| (without log_scale) on the spheres |x| = r, elementwise."""
        raise NotImplementedError

    def radial_profile(self, params: FockParams) -> RadialProfile | None:
        """The density as a radial profile about a centre, or None if it is not one."""
        return None

    def max_hints(self, params: FockParams) -> list[np.ndarray]:
        """Candidate maximizers of the density, the first starts of the Newton search; they depend on alpha, not p."""
        return [np.zeros(self.m)]

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
        super().__post_init__()
        if not (0 <= self.value < math.inf):
            raise InvalidInputError(f"constant value must be finite and nonnegative, got {self.value}")
        object.__setattr__(self, "dim", _integer(self.dim, 1, "dimension must be a positive integer"))

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
        super().__post_init__()
        object.__setattr__(self, "center", _as_tuple(self.center))
        if not (0 < self.alpha < math.inf):
            raise InvalidInputError(f"coherent rate alpha must be finite and positive, got {self.alpha}")

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
        super().__post_init__()
        pw = tuple(_integer(k, 0, "monomial powers must be nonnegative integers") for k in np.atleast_1d(self.powers))
        if not pw:
            raise InvalidInputError("monomial needs at least one power")
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
                r2 = X[:, 2 * j] * X[:, 2 * j]
                r2 += X[:, 2 * j + 1] * X[:, 2 * j + 1]
                np.log(r2, out=r2)
                r2 *= 0.5 * k
                out += r2
        return out

    def _log_abs_jet(self, X):
        # in logs, so that no power of z overflows: h = log f = sum_j k_j log z_j, h_j = k_j / z_j, h_jj = -k_j / z_j^2
        K = np.array(self.powers)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(K > 0, K / (X[:, 0::2] + 1j * X[:, 1::2]), 0.0)
            hh = -h[:, :, None] * h[:, None, :] * (np.eye(K.size) / np.maximum(K, 1))
        return _holomorphic_jet(self._log_abs_raw(X), h, hh)

    def _radial_bound_raw(self, r):
        with np.errstate(divide="ignore"):
            return self.degree * np.log(np.maximum(r, 0.0)) if self.degree else np.zeros(np.shape(r))

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


def _holomorphic_jet(value, h, hh):
    """(log|f|, its gradient, its Hessian) on R^(2n) from h_j and h_jk, the derivatives of h = log f in z.

    log|f| = Re h, so with z_j = x_j + i y_j the gradient in (x_j, y_j) is
    (Re h_j, -Im h_j) and the Hessian block (j, k) is
    [[Re h_jk, -Im h_jk], [-Im h_jk, -Re h_jk]], traceless as log|f| is harmonic.
    """
    N, n = h.shape
    grad = np.stack([h.real, -h.imag], axis=2).reshape(N, 2 * n)
    rows = np.stack([hh.real, -hh.imag], axis=3), np.stack([-hh.imag, -hh.real], axis=3)
    return value, grad, np.stack(rows, axis=2).reshape(N, 2 * n, 2 * n)


def _validate_multi_index(key) -> tuple[int, ...]:
    return tuple(_integer(k, 0, "polynomial multi-indices must be nonnegative integers") for k in np.atleast_1d(key))


@dataclass(frozen=True, kw_only=True)
class Polynomial(TestFunction):
    """f(z) = sum_k c_k z^k on C^n; terms is a mapping multi-index -> complex."""

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        super().__post_init__()
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
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise InvalidInputError(f"polynomial coefficients must be finite, got {coeff}")
            norm.append((pw, c))
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
        # Z in one complex array, a term's coefficient times its first power in
        # the power's own temporary, and the first term as the running total
        N = X.shape[0]
        Z = np.empty((N, self.n_complex), dtype=complex)
        Z.real, Z.imag = X[:, 0::2], X[:, 1::2]
        total = None
        with np.errstate(over="ignore", invalid="ignore"):
            for pw, coeff in self.terms:
                term = None
                for j, k in enumerate(pw):
                    if k:
                        term = (coeff if term is None else term) * Z[:, j] ** k
                if term is None:
                    term = np.full(N, coeff, dtype=complex)
                if total is None:
                    total = term
                else:
                    total += term
        del Z, term
        out = np.abs(total)
        del total
        with np.errstate(divide="ignore"):
            return np.log(out, out=out)

    def _log_abs_jet(self, X):
        # h = log f has h_j = f_j / f and h_jk = f_jk / f - h_j h_k
        N, n = X.shape[0], self.n_complex
        K, coeff = np.array([k for k, _ in self.terms]), np.array([c for _, c in self.terms])  # a row per term
        Z = X[:, None, 0::2] + 1j * X[:, None, 1::2]

        def at(*orders):  # the derivative of f of these orders in z_0, z_1, ...
            return np.prod([powers[r][:, :, j] for j, r in enumerate(orders)], axis=0) @ coeff

        e = np.eye(n, dtype=int)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # d^r/dz^r z^k = k (k - 1) ... (k - r + 1) z^(k - r), for r = 0, 1, 2, per point, term and variable
            powers = [Z ** np.maximum(K - r, 0) * np.prod([K - i for i in range(r)], axis=0) for r in range(3)]
            f = at(*[0] * n)
            h = np.stack([at(*e[j]) for j in range(n)], axis=1) / f[:, None]
            hh = np.stack([at(*e[j] + e[k]) for j in range(n) for k in range(n)], axis=1).reshape(N, n, n)
            hh = hh / f[:, None, None] - h[:, :, None] * h[:, None, :]
            value = np.log(np.abs(f))
        return _holomorphic_jet(value, h, hh)

    def _radial_bound_raw(self, r):
        # triangle inequality with |z_j| <= r: log sum_k |c_k| r^{|k|}
        with np.errstate(divide="ignore"):
            log_r = np.log(np.maximum(np.asarray(r, dtype=float), 0.0))
        out = np.full(log_r.shape, -math.inf)
        for pw, coeff in self.terms:
            if abs(coeff) > 0:
                deg = sum(pw)  # r^0 = 1 even at r = 0
                out = np.logaddexp(out, math.log(abs(coeff)) + (deg * log_r if deg else 0.0))
        return out


@dataclass(frozen=True, kw_only=True)
class ExpQuadratic(TestFunction):
    """|f(x)| = exp(c |x|^2), c >= 0.  Norm diverges unless c < alpha/2."""

    c: float
    dim: int

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.c < math.inf):
            raise InvalidInputError(f"quadratic rate c must be finite and nonnegative, got {self.c}")
        object.__setattr__(self, "dim", _integer(self.dim, 1, "dimension must be a positive integer"))

    @property
    def m(self) -> int:
        return self.dim

    @property
    def family(self) -> str:
        return "expquad"

    def _log_abs_raw(self, X):
        return self.c * _sq_norm(X)

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
        super().__post_init__()
        if not (0 < self.alpha < math.inf):
            raise InvalidInputError(f"rate alpha must be finite and positive, got {self.alpha}")
        norm = []
        dim = None
        for w, a in self.atoms:
            if not (0 <= w < math.inf):
                raise InvalidInputError(f"atom weights must be finite and nonnegative, got {w}")
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

    def _log_abs_jet(self, X):
        # with the atoms' softmax weights w (nan where f = 0): gradient alpha E_w[a], Hessian alpha^2 Cov_w(a)
        value, A = self._log_abs_raw(X), np.array([a for _, a in self.atoms])
        with np.errstate(invalid="ignore"):
            w = np.exp(np.stack(self._atom_exponents(X), axis=1) - value[:, None])
        D = A - (w @ A)[:, None, :]
        return value, self.alpha * (w @ A), self.alpha**2 * np.einsum("nj,njk,njl->nkl", w, D, D)

    def _radial_bound_raw(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, -math.inf)
        for w, a in self.atoms:
            if w > 0:
                na = float(np.linalg.norm(np.asarray(a)))
                out = np.logaddexp(out, math.log(w) + self.alpha * (na * r - 0.5 * na * na))
        return out

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


def _log_density_and_weight(f: TestFunction, params: FockParams, X: np.ndarray):
    """(log u, (alpha p/2)|x|^2) on an (N, m) batch, u = |f|^p exp(-(alpha p/2)|x|^2).

    The second array is the minus log-weight that log u subtracts, fresh, for
    callers that add it back.
    """
    _check_dims(f, params)
    X = np.asarray(X, dtype=float)
    log_u = params.p * f.log_abs(X)
    quad = _sq_norm(X)
    quad *= 0.5 * params.rate
    log_u -= quad
    return log_u, quad


def log_density_batch(f: TestFunction, params: FockParams, X: np.ndarray) -> np.ndarray:
    """log u on an (N, m) batch, u = |f|^p exp(-(alpha p/2)|x|^2)."""
    return _log_density_and_weight(f, params, X)[0]


def _illinois(phi, lo: np.ndarray, hi: np.ndarray, phi_lo: np.ndarray, phi_hi: np.ndarray, *args: np.ndarray):
    """Refine brackets lo < hi down to adjacent doubles, all of them in lockstep.

    The ends of bracket i lie on opposite sides: exactly one of phi_lo[i] > 0
    and phi_hi[i] > 0 holds.  phi(x, *args) gives phi at the points x of the
    running brackets, each arg cut down to their entries.  Each bracket keeps
    an end a and its last point b; a step evaluates the false-position point
    c of a and b, and c replaces a where it lies on the other side than b,
    else a's value is halved (Illinois); then c becomes b.  Where c is not
    strictly inside, as once an end is the root to the last bit, the next
    double inside from the end it fell on or past is taken; where c or the
    value at an end is not finite, the midpoint.  Every third step, a bracket
    that has not halved since the last such step, counting the halving of a
    midpoint taken there, takes the midpoint too, so it shrinks at least as
    fast as every third bisection would.  A bracket stops when no double lies
    strictly between its ends.  No input is written to.  Returns (lo, hi,
    evaluations), the final ends in the callers' order.
    """
    a, b, fa, fb = (np.asarray(v, dtype=float) for v in (lo, hi, phi_lo, phi_hi))
    args = list(args)
    b_pos = fb > 0.0
    i = np.arange(a.size)
    out_lo, out_hi = np.empty(a.size), np.empty(a.size)
    ref = np.full(a.size, math.inf)  # the width at the last check, halved where it bisected
    evaluations = steps = 0
    while i.size:
        d = b - a
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # an infinite phi gives nan
            c = fb - fa
            np.divide(d, c, out=c)
            np.multiply(c, fb, out=c)
            np.subtract(b, c, out=c)
        steps += 1
        check = steps % 3 == 0
        if check:
            width = np.abs(d, out=d)
            slow = width > 0.5 * ref
            ref = np.where(slow, 0.5 * width, width)  # a slow bracket bisects now
        outside = (c - a) * (c - b) < 0.0
        np.logical_not(outside, out=outside)
        if check:
            outside |= slow
        fix = np.flatnonzero(outside)
        if fix.size:
            af, bf, cf = a.take(fix), b.take(fix), c.take(fix)
            l, r = np.minimum(af, bf), np.maximum(af, bf)
            past = cf >= r
            # a false position off an infinite end (a zero of f) is no estimate: bisect there too
            mid = ~np.isfinite(cf + fa.take(fix) + fb.take(fix))
            if check:
                mid |= slow.take(fix)
            cf = np.where(mid, 0.5 * (l + r), np.nextafter(np.where(past, r, l), np.where(past, l, r)))
            c[fix] = cf
            stop = np.flatnonzero(~((l < cf) & (cf < r)))
            if stop.size:
                done = fix.take(stop)
                out_lo[i.take(done)], out_hi[i.take(done)] = l.take(stop), r.take(stop)
                keep = np.ones(i.size, dtype=bool)
                keep[done] = False
                keep = np.flatnonzero(keep)  # one array at a time, so one extra copy is alive at once
                a = a.take(keep)
                b = b.take(keep)
                fa = fa.take(keep)
                fb = fb.take(keep)
                b_pos = b_pos.take(keep)
                i = i.take(keep)
                c = c.take(keep)
                ref = ref.take(keep)
                for n in range(len(args)):
                    args[n] = args[n].take(keep)
                if not i.size:
                    break
        fc = phi(c, *args)
        evaluations += i.size
        c_pos = fc > 0.0
        flip = c_pos != b_pos  # b and c bracket the root: b becomes the kept end
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb, b_pos = c, fc, c_pos
    return out_lo, out_hi, evaluations


def _envelope_bisect(f: TestFunction, params: FockParams, log_t: np.ndarray) -> np.ndarray:
    """Outer roots of the radial bound minus log t, every level of the 1-D array at once.

    Each level keeps its own bracket: r_hi doubles until the bound is one unit
    below log t, and the last nonnegative point of a 512-point geometric grid
    on [1e-9, r_hi] and the grid point after it bracket the root, which
    `_illinois` refines to adjacent doubles.  The radius is the outer end, at
    which the bound lies below log t, and it does not depend on the other
    levels of the call.
    """
    def phi(r, log_t):
        return params.p * (f._radial_bound_raw(r) + f.log_scale) - 0.5 * params.rate * r * r - log_t

    r_hi = np.ones(log_t.shape)
    while np.any(grow := (phi(r_hi, log_t) > -1.0) & (r_hi < 1e8)):
        r_hi = np.where(grow, 2.0 * r_hi, r_hi)
    grid = np.exp(np.linspace(math.log(1e-9), np.log(r_hi), 512))  # geometric, one column per level
    values = phi(grid, log_t)
    nonneg = values >= 0.0
    found = nonneg.any(axis=0)
    i_last = 511 - np.argmax(nonneg[::-1], axis=0)
    if np.any(found & (i_last == 511)):
        # positive all the way to r_hi despite phi(r_hi) <= -1: cannot happen
        raise InvalidInputError("envelope bracketing failed")
    cols = np.flatnonzero(found)
    lo, hi = i_last[cols], i_last[cols] + 1
    R = np.zeros(log_t.shape)
    # the refiner's sign classes are "phi > 0" or not, so it refines -phi: lo has phi >= 0, hi phi < 0
    _, R[cols], _ = _illinois(
        lambda r, log_t: -phi(r, log_t),
        grid[lo, cols], grid[hi, cols], -values[lo, cols], -values[hi, cols], log_t[cols],
    )
    return R


def _thresholds(t) -> np.ndarray:
    """t, a scalar or an array, as a float array whose entries are finite and positive."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0) & np.isfinite(t_arr)):
        raise InvalidInputError(f"threshold t must be finite and positive, got {t}")
    return t_arr


def envelope_radius(f: TestFunction, params: FockParams, log_t):
    """Radius R with log u(x) < log_t whenever |x| > R.  Returns 0 when u < t everywhere.

    log_t is a finite scalar, giving a float, or an array of log thresholds, so
    t itself need not be a double.  Uses the closed-form radii of the radial
    profile where the family has one and bisection on a radial upper bound,
    all levels together, for the others.
    """
    _check_dims(f, params)
    log_t = np.asarray(log_t, dtype=float)
    if not np.all(np.isfinite(log_t)):
        raise InvalidInputError(f"log threshold must be finite, got {log_t}")
    profile = f.radial_profile(params)
    if not f.has_envelope(params):
        raise NoEnvelopeError(f"log u = A + K log r - B r^2 has B = {profile.B:g} <= 0; no envelope")
    if profile is None:
        R = _envelope_bisect(f, params, log_t.ravel()).reshape(log_t.shape)
    else:
        r_out = profile.radii(log_t)[1]
        R = np.where(r_out > 0, math.hypot(*profile.centre) + r_out, 0.0)
    return float(R) if R.ndim == 0 else R


def default_family_members(m: int = 2) -> tuple[TestFunction, ...]:
    """Canonical test inputs covering every family at ambient dimension m.

    Holomorphic families (monomial, polynomial) only exist for even m and are
    omitted otherwise.
    """
    m = _integer(m, 1, "dimension must be a positive integer")
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
