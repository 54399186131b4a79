"""Numerical verification checks for the norm and level-set theory.

Each check returns a VerificationReport whose margin is oriented so that the
claimed inequality corresponds to margin >= 0; a check passes when
margin >= -tolerance, with tolerance derived from propagated numerical error.
Error bounds cover at least roundoff, so verdicts are invariant under f -> c f;
equality_detected marks a margin within tolerance for a multiple of a coherent
state at the weight's rate (constants included), the cases of equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidInputError, MethodUnavailableError
from .functions import (
    Coherent,
    FockParams,
    TestFunction,
    _integer,
    _seed,
    envelope_radius,
    log_density_batch,
)
from .integrate import (
    ConvexFunction,
    GaussHermite,
    _exp,
    convex_functional,
    fock_norm,
)
from .levelset import LevelProfile, MaxResult, find_max

__all__ = [
    "VerificationReport",
    "PowerDecayProfile",
    "TabulatedProfile",
    "PowerPhi",
    "LogPowerPhi",
    "PowerPsi",
    "richardson_limit",
    "check_contraction",
    "check_monotone_g",
    "check_pointwise_bound",
    "check_decay",
    "check_limit_norm",
    "check_extremal_convex",
    "check_rearrangement_lemma",
    "check_isoperimetric_variant",
    "random_rearrangement_case",
]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


@dataclass
class VerificationReport:
    check_name: str
    inputs: dict
    passed: bool
    margin: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "inputs": _jsonable(self.inputs),
            "pass": bool(self.passed),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
            "details": _jsonable(self.details),
        }


def _fn_label(f: TestFunction) -> str:
    return f"{f.family}(m={f.m})"


def _equality_case(f: TestFunction, params: FockParams) -> bool:
    """The density is a Gaussian of the weight's rate about some centre."""
    profile = f.radial_profile(params)
    return profile is not None and profile.K == 0.0 and profile.B == 0.5 * params.rate


# ---------------------------------------------------------------------------
# contraction p -> q


def check_contraction(
    f: TestFunction,
    p: float,
    q: float,
    alpha: float,
    method=GaussHermite(32),
) -> VerificationReport:
    """Norm monotonicity in the exponent: the p-norm dominates the q-norm for p < q."""
    if not (0 < p < q):
        raise InvalidInputError(f"need 0 < p < q, got p={p}, q={q}")
    est_p = fock_norm(f, FockParams(f.m, p, alpha), method=method)
    est_q = fock_norm(f, FockParams(f.m, q, alpha), method=method)
    margin = est_p.value - est_q.value
    combined = est_p.value_error + est_q.value_error
    tolerance = 3.0 * combined
    equality = _equality_case(f, FockParams(f.m, p, alpha)) and abs(margin) <= tolerance
    return VerificationReport(
        check_name="contraction",
        inputs={"fn": _fn_label(f), "p": p, "q": q, "alpha": alpha, "method": repr(method)},
        passed=bool(margin >= -tolerance),
        margin=float(margin),
        tolerance=float(tolerance),
        details={
            "norm_p": est_p.value,
            "norm_q": est_q.value,
            "combined_error": combined,
            "equality_detected": equality,
        },
    )


# ---------------------------------------------------------------------------
# monotone diagnostic


def check_monotone_g(profile: LevelProfile) -> VerificationReport:
    """Passes iff the profile recorded no monotonicity violations beyond error."""
    worst = max((v[2] for v in profile.violations), default=0.0)
    return VerificationReport(
        check_name="monotone_g",
        inputs={
            "m": profile.params.m,
            "p": profile.params.p,
            "alpha": profile.params.alpha,
            "variant": profile.variant.value,
            "levels": len(profile.t_grid),
            "samples": profile.samples,
        },
        passed=not profile.violations,
        margin=float(-worst),
        tolerance=0.0,
        details={
            "n_violations": len(profile.violations),
            "violations": list(profile.violations[:10]),
            "t_max": profile.t_max,
            "rule": profile.rule,
            "ray_grid": profile.ray_grid,
            "points": profile.points,
        },
    )


# ---------------------------------------------------------------------------
# pointwise bound


def check_pointwise_bound(
    f: TestFunction,
    params: FockParams,
    n_points: int = 10_000,
    seed: int = 0,
    method=GaussHermite(32),
) -> VerificationReport:
    """Density never exceeds the p-th power of the norm, in logs: margin 1 - max u / ||f||^p."""
    n_points = _integer(n_points, 1, "n_points must be an integer of at least 1")
    seed = _seed(seed)
    est = fock_norm(f, params, method=method)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_points, params.m)) / math.sqrt(params.rate)
    log_u = log_density_batch(f, params, X)
    worst = int(np.argmax(log_u))
    margin = -math.expm1(float(log_u[worst]) - est.log_value)  # 1 - max u / ||f||^p
    tolerance = 3.0 * est.relative_error
    details = {
        "norm_p_power": est.raw_integral,
        "max_u_sampled": _exp(float(log_u[worst])),
        "worst_point": X[worst].tolist(),
    }
    if _equality_case(f, params):
        details["equality_gap_at_center"] = -math.expm1(find_max(f, params).log_t_max - est.log_value)
    return VerificationReport(
        check_name="pointwise_bound",
        inputs={"fn": _fn_label(f), "p": params.p, "alpha": params.alpha, "n_points": n_points, "seed": seed},
        passed=bool(margin >= -tolerance),
        margin=margin,
        tolerance=float(tolerance),
        details=details,
    )


def _max_details(mx: MaxResult) -> dict:
    """How t_max was found: the rule, for the search how many restarts agreed, and the certificate at the argmax."""
    return {
        "max_rule": mx.rule,
        "restarts_agreeing": mx.restarts_agreeing,
        "restarts_total": mx.restarts_total,
        "gradient_norm": mx.gradient_norm,
        "hessian_eigenvalues": mx.hessian_eigenvalues,
    }


# ---------------------------------------------------------------------------
# decay along rays

_DECAY_FRACTION = 1e-6  # the share of t_max beyond its envelope radius, and of a ray's peak at its end, decay allows


def check_decay(
    f: TestFunction,
    params: FockParams,
    n_directions: int = 8,
    seed: int = 0,
    n_radii: int = 72,
) -> VerificationReport:
    """|f(r w)| exp(-(alpha/2) r^2) dies along every ray.

    This is the decay that makes every superlevel set {u > t} of the paper
    bounded, so that mu(t) is finite.  The exponent here is alpha/2,
    independent of p.  t_max at p = 1, which sets the ray length, comes from
    `find_max`; the details say how.  Beyond the envelope radius of
    _DECAY_FRACTION t_max, a closed-form bound, every sampled value must lie
    below _DECAY_FRACTION t_max, and the far end of each ray must keep less
    than _DECAY_FRACTION of the ray's own peak.  The margin is
    _DECAY_FRACTION less the larger of the two shares.
    """
    n_radii = _integer(n_radii, 1, "n_radii must be an integer of at least 1")
    n_directions = _integer(n_directions, 0, "n_directions must be an integer of at least 0")
    seed = _seed(seed)
    alpha = params.alpha
    p1 = FockParams(f.m, 1.0, alpha)
    mx = find_max(f, p1, seed=seed)
    r_env = envelope_radius(f, p1, mx.log_t_max + math.log(_DECAY_FRACTION))
    r_max = 1.2 * max(1.0, envelope_radius(f, p1, mx.log_t_max + math.log(1e-8))) + 1.0

    rng = np.random.default_rng(seed)
    dirs = []
    for d in range(f.m):
        e = np.zeros(f.m)
        e[d] = 1.0
        dirs.extend([e, -e])
    for h in f.max_hints(params):
        h = np.asarray(h, dtype=float)
        if np.linalg.norm(h) > 1e-12:
            dirs.append(h / np.linalg.norm(h))
    extra = rng.standard_normal((n_directions, f.m))
    dirs.extend(extra / np.linalg.norm(extra, axis=1, keepdims=True))

    dirs = np.array(dirs)
    radii = np.linspace(r_max / n_radii, r_max, n_radii)
    pts = (dirs[:, None, :] * radii[:, None]).reshape(-1, f.m)  # one row of radii per ray
    log_v = f.log_abs(pts).reshape(len(dirs), n_radii) - 0.5 * alpha * radii**2
    log_vmax = log_v.max(axis=1)
    with np.errstate(invalid="ignore"):  # nan on a ray where f vanishes identically: it takes no part
        far_end = np.nan_to_num(np.exp(log_v[:, -1] - log_vmax), nan=-math.inf)  # over the ray's own peak
    beyond = np.exp(log_v[:, radii >= r_env] - mx.log_t_max).max(axis=1, initial=0.0)  # over t_max
    share = np.maximum(far_end, beyond)
    worst = int(np.argmax(share))
    worst_share = float(share[worst])
    margin = _DECAY_FRACTION - worst_share
    return VerificationReport(
        check_name="decay",
        inputs={"fn": _fn_label(f), "alpha": alpha, "n_directions": len(dirs), "seed": seed},
        passed=bool(margin >= 0.0),
        margin=margin,
        tolerance=0.0,
        details={
            "r_max": r_max,
            "r_envelope": r_env,
            "worst_tail_fraction": worst_share,
            "worst_direction": dirs[worst].tolist() if log_vmax[worst] > -math.inf else None,
            **_max_details(mx),
        },
    )


# ---------------------------------------------------------------------------
# limit norm via the exponent ladder


def richardson_limit(values) -> float:
    """Repeated first-order elimination for a ladder at halving step 1/p.

    The ladder error carries an h*log(1/h) term, so the factor-2 elimination is
    applied at every level rather than the classical 2^k schedule.
    """
    R = [float(v) for v in values]
    while len(R) > 1:
        R = [2.0 * R[i + 1] - R[i] for i in range(len(R) - 1)]
    return R[0]


_EXTRAPOLATION_TOL = 1e-3  # relative to the sup norm


def check_limit_norm(
    f: TestFunction,
    alpha: float,
    p_ladder=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    method=GaussHermite(48),
    seed: int = 0,
) -> VerificationReport:
    """p-norm ladder decreases to the weighted sup norm; extrapolation hits it to relative tol."""
    p_ladder = [float(p) for p in p_ladder]
    seed = _seed(seed)
    if len(p_ladder) < 2:
        raise InvalidInputError(f"p ladder needs at least two rungs, got {len(p_ladder)}")
    if any(b <= a for a, b in zip(p_ladder, p_ladder[1:])):
        raise InvalidInputError("p ladder must be strictly increasing")
    norms = [fock_norm(f, FockParams(f.m, p, alpha), method=method) for p in p_ladder]
    values = [n.value for n in norms]
    errors = [n.value_error for n in norms]

    mx = find_max(f, FockParams(f.m, 1.0, alpha), seed=seed)
    sup_norm = mx.t_max

    mono_margin = min(
        values[i] - values[i + 1] + 3.0 * (errors[i] + errors[i + 1])
        for i in range(len(values) - 1)
    )
    above_margin = min(v - sup_norm + 3.0 * e for v, e in zip(values, errors))
    extrapolated = richardson_limit(values)
    gap = abs(extrapolated - sup_norm)
    extrap_margin = _EXTRAPOLATION_TOL * sup_norm - gap

    margin = min(mono_margin, above_margin, extrap_margin)
    return VerificationReport(
        check_name="limit_norm",
        inputs={"fn": _fn_label(f), "alpha": alpha, "p_ladder": list(p_ladder), "method": repr(method)},
        passed=bool(margin >= 0.0),
        margin=float(margin),
        tolerance=0.0,
        details={
            "ladder": values,
            "ladder_errors": errors,
            "sup_norm": sup_norm,
            "extrapolated": extrapolated,
            "extrapolation_gap": gap,
            "argmax": list(mx.argmax),
            **_max_details(mx),
        },
    )


# ---------------------------------------------------------------------------
# extremality of coherent states for convex functionals


def check_extremal_convex(
    f: TestFunction,
    params: FockParams,
    G: ConvexFunction,
    method=GaussHermite(32),
) -> VerificationReport:
    """Among unit-norm functions, the centered coherent state maximizes int G(u).

    f is normalized by its estimated norm v, which holds to within e, in logs
    (log v = log I / p, e/v = relative_error / p).  Under f -> e^s f,
    J(s) = int G(e^(ps) u) is nondecreasing and convex in s, and
    -log(1 - e/v) >= log(1 + e/v), so J(f/(v - e)) - J(f/v) bounds the change
    of J on both sides of the norm's error.  One more convex_functional pass
    gives J(f/(v - e)); its error bound is added to the norm term.  Raises
    MethodUnavailableError when e >= v, where f/(v - e) does not exist.
    """
    est = fock_norm(f, params, method=method)
    if est.log_value == -math.inf:
        raise InvalidInputError("cannot normalize a function with zero norm")
    if est.relative_error >= params.p:  # e/v = relative_error / p
        raise MethodUnavailableError(
            f"the norm's error {est.value_error:.3g} reaches its value {est.value:.3g}; no bracket for J"
        )
    log_v = est.log_value / params.p
    J_f = convex_functional(f.log_shifted(-log_v), params, G, method=method)
    f_hi = f.log_shifted(-log_v - math.log1p(-est.relative_error / params.p))
    J_hi = convex_functional(f_hi, params, G, method=method)
    ref = Coherent(center=tuple([0.0] * params.m), alpha=params.alpha)
    J_ref = convex_functional(ref, params, G, method=method)
    margin = J_ref.value - J_f.value

    norm_term = J_hi.value - J_f.value + J_hi.error_bound
    combined = J_ref.error_bound + J_f.error_bound + norm_term
    tolerance = 3.0 * combined
    return VerificationReport(
        check_name="extremal_convex",
        inputs={"fn": _fn_label(f), "p": params.p, "alpha": params.alpha, "G": repr(G)},
        passed=bool(margin >= -tolerance),
        margin=float(margin),
        tolerance=float(tolerance),
        details={
            "functional_at_coherent": J_ref.value,
            "functional_at_f": J_f.value,
            "norm_of_f": est.value,
            "norm_error_term": norm_term,
            "equality_detected": _equality_case(f, params) and abs(margin) <= tolerance,
        },
    )


# ---------------------------------------------------------------------------
# rearrangement comparison: the profile side never beats the g == 1 side


@dataclass(frozen=True)
class PowerDecayProfile:
    """g(t) = t^(-beta); beta >= 0 gives the nonincreasing profiles the lemma wants.

    The multiplicative constant is not stored here: it is the free parameter
    the constraint solver adjusts.
    """

    beta: float

    def log_g(self, log_t: np.ndarray) -> np.ndarray:
        return -self.beta * np.asarray(log_t, dtype=float)

    @property
    def nonincreasing(self) -> bool:
        return self.beta >= 0


@dataclass(frozen=True)
class TabulatedProfile:
    """Profile interpolated log-log linearly from (t, g) samples, t increasing."""

    t_points: tuple[float, ...]
    g_values: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.t_points, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        if t.ndim != 1 or t.shape != g.shape or len(t) < 2:
            raise InvalidInputError("need matching 1-D t and g samples, at least 2")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(g))):
            raise InvalidInputError("t and g samples must be finite")
        if np.any(t <= 0) or np.any(g <= 0):
            raise InvalidInputError("t and g samples must be positive")
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("t samples must be strictly increasing")
        object.__setattr__(self, "t_points", tuple(float(v) for v in t))
        object.__setattr__(self, "g_values", tuple(float(v) for v in g))

    @classmethod
    def from_level_profile(cls, profile: LevelProfile) -> "TabulatedProfile":
        t = list(profile.t_grid[::-1])
        g = list(profile.g[::-1])
        t.append(profile.t_max)
        g.append(profile.t_max)  # mu -> 0 at the top level
        return cls(t_points=tuple(t), g_values=tuple(g))

    def log_g(self, log_t: np.ndarray) -> np.ndarray:
        lt = np.log(np.asarray(self.t_points))
        lg = np.log(np.asarray(self.g_values))
        return np.interp(np.asarray(log_t, dtype=float), lt, lg)

    @property
    def nonincreasing(self) -> bool:
        return bool(np.all(np.diff(np.log(self.g_values)) <= 0.0))


@dataclass(frozen=True)
class PowerPhi:
    """Phi(s) = s^gamma, gamma > 0."""

    gamma: float

    def __post_init__(self):
        if not (0 < self.gamma < math.inf):
            raise InvalidInputError(f"phi power must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class LogPowerPhi:
    """Phi(s) = max(log s, 0)^power; power = m/2 matches the measure inversion.

    Only positive multiples of 1/2 are accepted: there the lemma's incomplete
    gamma has a closed form.
    """

    power: float

    def __post_init__(self):
        if not (0 < self.power < math.inf and (2.0 * self.power).is_integer()):
            raise InvalidInputError(f"log-phi power must be a positive multiple of 1/2, got {self.power}")


@dataclass(frozen=True)
class PowerPsi:
    """Psi(t) = r t^(r-1), the derivative of t^r; increasing for r >= 1."""

    r: float

    def __post_init__(self):
        if not (1 <= self.r < math.inf):
            raise InvalidInputError(f"psi exponent must be finite and at least 1, got {self.r}")


_UNWEIGHTED = PowerPsi(1.0)  # Psi == 1, the side of the Phi-constraint
_GL32 = np.polynomial.legendre.leggauss(32)
_PANEL_WIDTH = 5.0
_LEMMA_TOLERANCE = 1e-8  # absolute, on the margin rhs - lhs


def _profile_beta(profile) -> float:
    return profile.beta if isinstance(profile, PowerDecayProfile) else 0.0


def _lemma_s_max(phi, psi, beta: float, onset: float = 0.0) -> float:
    """Length S of the window [0, S] in s = log(T/t) that the panel rule integrates when t_lo = 0.

    For log-phi the integrand is (b (s - onset))^q e^(-r s) past the onset
    of _log_phi_onset, q = phi.power, r = psi.r: a Gamma(q + 1) density in
    x = r (s - onset), which peaks near x = q.  The window runs to
    x = a + 42 + sqrt(84 a), a = q + 1, where the Chernoff bound
    (x/a)^a e^(a - x) on its tail falls below e^-42, and at least to 140,
    which it is for q <= 3/2, r >= 1 and an onset below 81.
    """
    if isinstance(phi, PowerPhi):
        lam = psi.r - phi.gamma * (1.0 + max(beta, 0.0))
        if lam <= 0.04:
            raise InvalidInputError("phi grows too fast for this profile; not integrable")
        return max(60.0, 45.0 / lam + 45.0)
    a = phi.power + 1.0
    return max(140.0, onset + (a + 42.0 + math.sqrt(84.0 * a)) / psi.r)


def _log_phi_onset(profile, log_scale: float, log_T: float) -> float:
    """An s >= 0 past which arg(s) = log_scale + log g(T e^-s) - log(T e^-s) is linear in s and positive.

    A power profile gives arg slope 1 + beta everywhere; a table holds g at
    its first value below its least t, which gives slope 1 there.  Where arg
    falls with s (beta <= -1) the integrand sits near s = 0, and the onset is 0.
    """
    if isinstance(profile, TabulatedProfile):
        s_lin = max(0.0, log_T - math.log(profile.t_points[0]))
        return max(s_lin, log_T - log_scale - math.log(profile.g_values[0]))
    b = 1.0 + profile.beta
    return max(0.0, log_T - log_scale / b) if b > 0.0 else 0.0


def _lemma_rule(profile, phi, log_scale, log_T, S):
    """Flat nodes s and weights w of the panel rule on [0, S] in s = log(T/t).

    Gauss-Legendre panels at most _PANEL_WIDTH wide end at the table's knots; a
    kink of log-phi inside the window, or within one panel width left of it,
    anchors a sqrt substitution on its panel.
    """
    edges = {0.0, S}
    if isinstance(profile, TabulatedProfile):
        for t in profile.t_points:
            s = log_T - math.log(t)
            if 0.0 < s < S:
                edges.add(s)
    kink = None
    if isinstance(phi, LogPowerPhi):
        # arg(s) = log_scale + log_g(log t) - log t, t = T e^-s, is linear between
        # edges (power profiles are linear in log t, tabulated ones interpolate
        # there), so its zero is the root of one segment's line; arg is assumed
        # to increase with s
        s = np.array(sorted(edges))
        arg = log_scale + profile.log_g(log_T - s) - (log_T - s)
        if arg[-1] <= 0.0:
            return np.empty(0), np.empty(0)  # integrand vanishes on the whole window
        j = max(int(np.argmax(arg >= 0.0)) - 1, 0)  # the segment where arg turns nonnegative
        slope = (arg[j + 1] - arg[j]) / (s[j + 1] - s[j])
        # a zero left of s = 0, within one panel width, still bends the first panel
        if arg[0] < 0.0 or 0.0 < slope and arg[0] < slope * _PANEL_WIDTH:
            kink = float(s[j] - (s[j + 1] - s[j]) * arg[j] / (arg[j + 1] - arg[j]))
            if arg[0] < 0.0:
                edges.add(kink)
    ordered = sorted(edges)
    cuts = [np.linspace(a, b, max(1, math.ceil((b - a) / _PANEL_WIDTH)) + 1)
            for a, b in zip(ordered, ordered[1:])]
    a = np.concatenate([c[:-1] for c in cuts])[:, None]  # one row of nodes per panel
    b = np.concatenate([c[1:] for c in cuts])[:, None]
    nodes, weights = _GL32
    s = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    w = 0.5 * (b - a) * weights
    if kink is not None:
        # s = kink + (b - kink) tau^2 tames the half-power kink of log-phi
        k = np.abs(a[:, 0] - max(kink, 0.0)) < 1e-12
        tau0 = np.sqrt((a[k] - kink) / (b[k] - kink))
        tau = tau0 + (1.0 - tau0) * 0.5 * (nodes + 1.0)
        s[k] = kink + (b[k] - kink) * tau**2
        w[k] = (1.0 - tau0) * 0.5 * weights * (2.0 * (b[k] - kink) * tau)
    return s.ravel(), w.ravel()


def _lemma_integral(profile, phi, psi, log_scale: float, T: float, t_lo: float) -> float:
    """integral over (t_lo, T] of Phi(scale * g(t)/t) * Psi(t) dt, via s = log(T/t)."""
    log_T = math.log(T)
    if t_lo > 0.0:
        S = log_T - math.log(t_lo)
    else:
        onset = _log_phi_onset(profile, log_scale, log_T) if isinstance(phi, LogPowerPhi) else 0.0
        S = _lemma_s_max(phi, psi, _profile_beta(profile), onset)
    s, w = _lemma_rule(profile, phi, log_scale, log_T, S)
    lt = log_T - s
    la = log_scale + profile.log_g(lt) - lt
    log_w = lt + math.log(psi.r) + (psi.r - 1.0) * lt  # Psi(t) times the jacobian dt = t ds
    # the integrand in log form, 0 where la <= 0 for log-phi; inf where it passes the largest double
    with np.errstate(divide="ignore", over="ignore"):
        if isinstance(phi, PowerPhi):
            return float(w @ np.exp(phi.gamma * la + log_w))
        return float(w @ np.exp(phi.power * np.log(np.maximum(la, 0.0)) + log_w))


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a a positive multiple of 1/2.

    Q(1/2, x) = erfc(sqrt x), Q(1, x) = e^-x and Q(a+1, x) = Q(a, x) +
    x^a e^-x / Gamma(a+1) (DLMF 8.4.6, 8.4.10, 8.8.2); each added term is
    formed in logs, so it underflows only where it is below the least double.
    """
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    n = math.ceil(a) - 1  # a = a0 + n with a0 in {1/2, 1}
    a0 = a - n
    q = math.erfc(math.sqrt(x)) if a0 == 0.5 else math.exp(-x)
    log_x = math.log(x)
    for j in range(n):
        term = math.exp((a0 + j) * log_x - x - math.lgamma(a0 + j + 1.0))
        if q + term == q and a0 + j + 1.0 >= 2.0 * x:
            break  # each later term is at most half the one before, so none changes q
        q += term
    return q


def _log_gamma_lower(a: float, x: float) -> float:
    """log of the lower incomplete gamma function gamma(a, x) for 0 < x <= a.

    gamma(a, x) = x^a e^-x sum_j x^j / (a (a+1) ... (a+j)) (DLMF 8.7.1); with
    x <= a every term is at most the one before, so the sum stops at the
    first term that no longer changes it.
    """
    term = total = 1.0 / a
    j = 1
    while total + (term := term * x / (a + j)) != total:
        total += term
        j += 1
    return a * math.log(x) - x + math.log(total)


def _lemma_closed_form(beta: float, phi, psi, log_scale: float, T: float, t_lo: float) -> float:
    """_lemma_integral for g(t) = t^(-beta), beta > -1, in closed form.

    With b = 1 + beta the argument of Phi is e^log_scale t^(-b): power phi
    integrates a power of t, log-phi an incomplete gamma in v = log_scale - b log t
    with first argument power + 1, a multiple of 1/2.  Both are formed in logs
    and return inf where the integral passes the largest double.
    """
    if t_lo == 0.0:
        _lemma_s_max(phi, psi, beta)  # the integrability gate of the panel rule
    r = psi.r
    b, log_T = 1.0 + beta, math.log(T)
    if isinstance(phi, PowerPhi):
        lam = r - phi.gamma * b
        L = log_T - math.log(t_lo) if t_lo > 0.0 else math.inf
        # (T^lam - t_lo^lam) / lam = T^lam * span
        span = -math.expm1(-lam * L) / lam if lam != 0.0 else L
        return r * _exp(phi.gamma * log_scale + lam * log_T) * span
    q, k = phi.power, r / b
    v_a = max(0.0, log_scale - b * log_T)
    v_b = max(v_a, log_scale - b * math.log(t_lo)) if t_lo > 0.0 else math.inf
    # e^(k log_scale) k^-q (Gamma(q+1, k v_a) - Gamma(q+1, k v_b)), in logs: Gamma(q + 1)
    # alone overflows from q = 171 on
    a, x_a, x_b = q + 1.0, k * v_a, k * v_b
    if x_b <= a:  # both Q near 1: take the gap as gamma(a, x_b) - gamma(a, x_a), which keeps its digits
        lo, hi = (_log_gamma_lower(a, x) if x > 0.0 else -math.inf for x in (x_a, x_b))
        if not lo < hi:
            return 0.0
        log_gap = hi + math.log1p(-math.exp(lo - hi))
    else:
        gap = _gamma_q(a, x_a) - _gamma_q(a, x_b)
        if not gap > 0.0:
            return 0.0
        log_gap = math.lgamma(a) + math.log(gap)
    return _exp(k * log_scale - q * math.log(k) + log_gap)


def _solve_constraint_scale(integral, phi, T: float, t_lo: float, target: float) -> float:
    """log of the multiplier making the profile side match the g == 1 constraint.

    integral(phi, psi, log_scale, T, t_lo) is the profile side's rule.  Power phi
    is homogeneous, C(ls) = e^(gamma ls) C(0), so its scale is explicit.
    """
    def C(ls):
        return integral(phi, _UNWEIGHTED, ls, T, t_lo)

    c0 = C(0.0) if isinstance(phi, PowerPhi) else 0.0
    if 0.0 < c0 < math.inf:
        return math.log(target / c0) / phi.gamma
    lo, hi = -60.0, 60.0
    c_lo, c_hi = C(lo), C(hi)
    while not c_lo < target and lo > -420.0:
        lo -= 60.0
        c_lo = C(lo)
    while not c_hi > target and hi < 420.0:
        hi += 60.0
        c_hi = C(hi)
    if not (c_lo < target < c_hi):
        raise InvalidInputError("constraint not satisfiable by rescaling this profile")
    # C increases in ls: bisect to xtol 1e-14 or to adjacent doubles
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-14 and lo < mid < hi:
        if C(mid) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def check_rearrangement_lemma(
    profile,
    phi,
    psi: PowerPsi,
    t_max: float,
    t_lo: float = 0.0,
) -> VerificationReport:
    """With the Phi-constraint matched, the g == 1 side dominates the Psi-weighted side.

    The inequality only holds for nonincreasing profiles; increasing profiles
    are still accepted and honestly reported, which is how the orientation of
    the hypothesis can be demonstrated numerically.
    """
    if not (t_max > 0):
        raise InvalidInputError("t_max must be positive")
    if not (0 <= t_lo < t_max):
        raise InvalidInputError("need 0 <= t_lo < t_max")
    # power profiles, the g == 1 reference among them, integrate in closed form
    closed = isinstance(profile, PowerDecayProfile) and profile.beta > -1.0
    integral = (
        partial(_lemma_closed_form, profile.beta) if closed else partial(_lemma_integral, profile)
    )
    target = _lemma_closed_form(0.0, phi, _UNWEIGHTED, 0.0, t_max, t_lo)
    if target == math.inf:
        raise MethodUnavailableError(f"the lemma's constraint integral overflows a double for {phi!r}")
    log_scale = _solve_constraint_scale(integral, phi, t_max, t_lo, target)
    # the panel rule checks the scale independently of the rule that solved for it
    residual = _lemma_integral(profile, phi, _UNWEIGHTED, log_scale, t_max, t_lo) - target
    if not abs(residual) <= 1e-9 * target:  # the rules agree to ~1e-14 where both apply
        raise InvalidInputError(f"constraint residual {residual:.3g} exceeds 1e-9 * {target:.6g}")
    lhs = integral(phi, psi, log_scale, t_max, t_lo)
    rhs = _lemma_closed_form(0.0, phi, psi, 0.0, t_max, t_lo)
    if math.inf in (lhs, rhs):
        raise MethodUnavailableError(f"the lemma's weighted integrals overflow a double for {phi!r}")
    margin = rhs - lhs
    hyp_ok = profile.nonincreasing
    return VerificationReport(
        check_name="rearrangement_lemma",
        inputs={
            "profile": repr(profile) if not isinstance(profile, TabulatedProfile) else
            f"tabulated({len(profile.t_points)} pts)",
            "phi": repr(phi),
            "psi": repr(psi),
            "t_max": t_max,
            "t_lo": t_lo,
        },
        passed=bool(margin >= -_LEMMA_TOLERANCE),
        margin=float(margin),
        tolerance=_LEMMA_TOLERANCE,
        details={
            "weighted_reference": rhs,
            "weighted_profile": lhs,
            "constraint_scale_log": log_scale,
            "constraint_residual": residual,
            "lemma_rule": "closed_form" if closed else "panels",
            "profile_nonincreasing": hyp_ok,
        },
    )


def random_rearrangement_case(rng: np.random.Generator):
    """One admissible random (profile, phi, psi, t_max) tuple for the lemma check."""
    beta = float(rng.uniform(0.0, 1.0))
    profile = PowerDecayProfile(beta=beta)
    if rng.random() < 0.5:
        gamma = float(rng.uniform(0.05, 0.85 / (1.0 + beta)))
        phi = PowerPhi(gamma=gamma)
    else:
        phi = LogPowerPhi(power=float(rng.integers(1, 4)) / 2.0)
    psi = PowerPsi(r=float(rng.uniform(1.0, 4.0)))
    t_max = float(rng.uniform(0.5, 2.0))
    return profile, phi, psi, t_max


# ---------------------------------------------------------------------------
# isoperimetric constant discriminator

_ISOPERIMETRIC_RADII = (0.5, 1.0, 2.0)
_ISOPERIMETRIC_TOLERANCE = 1e-10


def check_isoperimetric_variant(m: int) -> VerificationReport:
    """Balls: squared surface area vs the two candidate constants.

    The sharp-ball constant gives equality in every dimension; the literal
    Gamma(m/2) constant overshoots the true squared perimeter for m > 2 by the
    factor (m/2)^(2/m) and undershoots for m = 1.
    """
    m = _integer(m, 1, "dimension must be a positive integer")
    # in logs: Gamma(1 + m/2) overflows a double from m = 342 on
    log_gamma = math.lgamma(1.0 + m / 2.0)
    log_omega = 0.5 * m * math.log(math.pi) - log_gamma
    worst_eq = 0.0
    for r in _ISOPERIMETRIC_RADII:
        log_vol = log_omega + m * math.log(r)
        log_per2 = 2.0 * (math.log(m) + log_omega + (m - 1) * math.log(r))
        log_sharp = (
            2.0 * math.log(m) + math.log(math.pi) - 2.0 / m * log_gamma + 2.0 * (m - 1) / m * log_vol
        )
        worst_eq = max(worst_eq, abs(math.expm1(log_sharp - log_per2)))
    ratio = math.exp(2.0 / m * (log_gamma - math.lgamma(m / 2.0)))
    ratio_expected = (m / 2.0) ** (2.0 / m)
    ratio_err = abs(ratio - ratio_expected) / ratio_expected
    margin = -max(worst_eq, ratio_err)
    return VerificationReport(
        check_name="isoperimetric_variant",
        inputs={"m": m, "radii": list(_ISOPERIMETRIC_RADII)},
        passed=bool(margin >= -_ISOPERIMETRIC_TOLERANCE),
        margin=float(margin),
        tolerance=_ISOPERIMETRIC_TOLERANCE,
        details={
            "sharp_ball_relative_gap": worst_eq,
            "literal_over_sharp_ratio": ratio,
            "ratio_expected": ratio_expected,
            "literal_exceeds_perimeter": m > 2,
        },
    )
