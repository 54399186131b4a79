"""Numerical verification checks for the norm and level-set theory.

Each check returns a VerificationReport whose margin is oriented so that the
claimed inequality corresponds to margin >= 0; a check passes when
margin >= -tolerance, with tolerance derived from propagated numerical error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn, gammaincc

from .errors import InvalidInputError
from .functions import (
    Coherent,
    FockParams,
    TestFunction,
    envelope_radius,
    log_density_batch,
)
from .integrate import (
    ConvexFunction,
    GaussHermite,
    Power,
    convex_functional,
    fock_norm,
)
from .levelset import LevelProfile, find_max

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


# ---------------------------------------------------------------------------
# contraction p -> q


def check_contraction(
    f: TestFunction,
    p: float,
    q: float,
    alpha: float,
    method=GaussHermite(32),
    equality_tol: float = 1e-6,
) -> VerificationReport:
    """Norm monotonicity in the exponent: the p-norm dominates the q-norm for p < q."""
    if not (0 < p < q):
        raise InvalidInputError(f"need 0 < p < q, got p={p}, q={q}")
    est_p = fock_norm(f, FockParams(f.m, p, alpha), method=method)
    est_q = fock_norm(f, FockParams(f.m, q, alpha), method=method)
    margin = est_p.value - est_q.value
    combined = est_p.value_error + est_q.value_error
    tolerance = 3.0 * combined + 1e-12
    equality = isinstance(f, Coherent) and abs(margin) <= equality_tol
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
    """Density never exceeds the p-th power of the norm; coherent states touch it."""
    est = fock_norm(f, params, method=method)
    bound = est.raw_integral
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((int(n_points), params.m)) / math.sqrt(params.rate)
    u = np.exp(log_density_batch(f, params, X))
    worst = int(np.argmax(u))
    margin = float(bound - u[worst])
    tolerance = 3.0 * est.error_bound + 1e-9
    details = {
        "norm_p_power": bound,
        "max_u_sampled": float(u[worst]),
        "worst_point": X[worst].tolist(),
    }
    if isinstance(f, Coherent):
        center = np.asarray(f.max_hints(params)[0])
        u_center = float(np.exp(log_density_batch(f, params, center[None, :])[0]))
        details["equality_gap_at_center"] = bound - u_center
    return VerificationReport(
        check_name="pointwise_bound",
        inputs={"fn": _fn_label(f), "p": params.p, "alpha": params.alpha, "n_points": n_points, "seed": seed},
        passed=bool(margin >= -tolerance),
        margin=margin,
        tolerance=float(tolerance),
        details=details,
    )


# ---------------------------------------------------------------------------
# decay along rays


def check_decay(
    f: TestFunction,
    params: FockParams,
    n_directions: int = 8,
    seed: int = 0,
    n_radii: int = 72,
    decay_fraction: float = 1e-6,
) -> VerificationReport:
    """|f(r w)| exp(-(alpha/2) r^2) dies along every ray, monotonically far out.

    The exponent here is alpha/2, independent of p.
    """
    alpha = params.alpha
    p1 = FockParams(f.m, 1.0, alpha)
    mx = find_max(f, p1, seed=seed)
    r_max = 1.2 * max(1.0, envelope_radius(f, p1, max(mx.t_max * 1e-8, 1e-300))) + 1.0

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

    radii = np.linspace(r_max / n_radii, r_max, n_radii)
    tail_from = 0.6 * r_max
    worst_rel = -math.inf
    tail_monotone = True
    worst_dir = None
    for w in dirs:
        pts = radii[:, None] * np.asarray(w)[None, :]
        vals = np.exp(f.log_abs(pts) - 0.5 * alpha * radii**2)
        vmax = float(np.max(vals))
        if vmax == 0.0:
            continue  # f vanishes identically on this ray; decayed trivially
        rel_last = float(vals[-1]) / vmax
        if rel_last > worst_rel:
            worst_rel = rel_last
            worst_dir = np.asarray(w).tolist()
        tail = vals[radii >= tail_from]
        if np.any(np.diff(tail) > 1e-12 * vmax):
            tail_monotone = False
            worst_dir = np.asarray(w).tolist()
    if worst_rel == -math.inf:
        worst_rel = 0.0
    margin = float(decay_fraction - worst_rel)
    return VerificationReport(
        check_name="decay",
        inputs={"fn": _fn_label(f), "alpha": alpha, "n_directions": len(dirs), "seed": seed},
        passed=bool(margin >= 0.0 and tail_monotone),
        margin=margin,
        tolerance=0.0,
        details={
            "r_max": r_max,
            "worst_tail_fraction": worst_rel,
            "tail_monotone": tail_monotone,
            "worst_direction": worst_dir,
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
    if len(R) < 2:
        return R[0]
    while len(R) > 1:
        R = [2.0 * R[i + 1] - R[i] for i in range(len(R) - 1)]
    return R[0]


def check_limit_norm(
    f: TestFunction,
    alpha: float,
    p_ladder=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    method=GaussHermite(48),
    extrapolation_tol: float = 1e-3,
    seed: int = 0,
) -> VerificationReport:
    """Ladder of p-norms decreases to the weighted sup norm; extrapolation hits it."""
    p_ladder = [float(p) for p in p_ladder]
    if any(b <= a for a, b in zip(p_ladder, p_ladder[1:])):
        raise InvalidInputError("p ladder must be strictly increasing")
    norms = [fock_norm(f, FockParams(f.m, p, alpha), method=method) for p in p_ladder]
    values = [n.value for n in norms]
    errors = [n.value_error for n in norms]

    mx = find_max(f, FockParams(f.m, 1.0, alpha), seed=seed)
    sup_norm = mx.t_max

    # a flat (coherent) ladder differs by roundoff only, hence the relative floor
    mono_margin = min(
        values[i] - values[i + 1] + 3.0 * (errors[i] + errors[i + 1]) + 1e-12 * abs(values[i])
        for i in range(len(values) - 1)
    )
    above_margin = min(
        v - sup_norm + 3.0 * e + 1e-9 for v, e in zip(values, errors)
    )
    extrapolated = richardson_limit(values)
    gap = abs(extrapolated - sup_norm)
    extrap_margin = extrapolation_tol - gap

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
    """Among unit-norm functions, the centered coherent state maximizes int G(u)."""
    est = fock_norm(f, params, method=method)
    if not (est.value > 0):
        raise InvalidInputError("cannot normalize a function with zero norm")
    f_unit = f.log_shifted(-math.log(est.value))
    J_f = convex_functional(f_unit, params, G, method=method)
    ref = Coherent(center=tuple([0.0] * params.m), alpha=params.alpha)
    J_ref = convex_functional(ref, params, G, method=method)
    margin = J_ref.value - J_f.value

    r_eff = G.exponent if isinstance(G, Power) else 2.0
    norm_term = 0.0
    if est.value > 0 and est.value_error > 0:
        norm_term = abs(J_f.value) * params.p * r_eff * (est.value_error / est.value)
    combined = J_ref.error_bound + J_f.error_bound + norm_term
    tolerance = 3.0 * combined + 1e-12
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
            "equality_detected": isinstance(f, Coherent) and abs(margin) <= 1e-6,
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
        return bool(np.all(np.diff(np.asarray(self.g_values)) <= 1e-12))


@dataclass(frozen=True)
class PowerPhi:
    """Phi(s) = s^gamma, gamma > 0."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0):
            raise InvalidInputError("phi power must be positive")


@dataclass(frozen=True)
class LogPowerPhi:
    """Phi(s) = max(log s, 0)^power; power = m/2 matches the measure inversion."""

    power: float

    def __post_init__(self):
        if not (self.power > 0):
            raise InvalidInputError("log-phi power must be positive")


@dataclass(frozen=True)
class PowerPsi:
    """Psi(t) = r t^(r-1), the derivative of t^r; increasing for r >= 1."""

    r: float

    def __post_init__(self):
        if not (self.r >= 1):
            raise InvalidInputError("psi exponent must be at least 1")


_GL32 = np.polynomial.legendre.leggauss(32)
_PANEL_WIDTH = 5.0


def _profile_beta(profile) -> float:
    return profile.beta if isinstance(profile, PowerDecayProfile) else 0.0


def _lemma_s_max(phi, psi, beta: float) -> float:
    r = psi.r if psi is not None else 1.0
    if isinstance(phi, PowerPhi):
        lam = r - phi.gamma * (1.0 + max(beta, 0.0))
        if lam <= 0.04:
            raise InvalidInputError("phi grows too fast for this profile; not integrable")
        return max(60.0, 45.0 / lam + 45.0)
    return 140.0


def _lemma_panels(profile, phi, log_scale, log_T, S):
    """Panels (a, b, kink) in s = log(T/t); a kink of log-phi inside the window, or
    within one panel width left of it, anchors a sqrt substitution on its panel."""
    edges = {0.0, S}
    if isinstance(profile, TabulatedProfile):
        for t in profile.t_points:
            s = log_T - math.log(t)
            if 0.0 < s < S:
                edges.add(s)
    kink = None
    if isinstance(phi, LogPowerPhi):
        # solve log_scale + log_g(log t) - log t = 0; argument increases with s
        def arg(s):
            lt = log_T - s
            return log_scale + float(profile.log_g(np.array([lt]))[0]) - lt

        if arg(S) <= 0.0:
            return []  # integrand vanishes on the whole window
        arg_lo = arg(0.0)
        if arg_lo < 0.0:
            kink = brentq(arg, 0.0, S, xtol=1e-15, rtol=8.9e-16)
            edges.add(kink)
        else:
            # arg is linear on the first panel; a zero of its extension within
            # one panel width left of s = 0 still bends the integrand there
            h = min(min(e for e in edges if e > 0.0), _PANEL_WIDTH)
            slope = (arg(h) - arg_lo) / h
            if 0.0 < slope and arg_lo < slope * _PANEL_WIDTH:
                kink = -arg_lo / slope
    ordered = sorted(edges)
    panels = []
    for a, b in zip(ordered, ordered[1:]):
        n_sub = max(1, int(math.ceil((b - a) / _PANEL_WIDTH)))
        sub = np.linspace(a, b, n_sub + 1)
        for aa, bb in zip(sub[:-1], sub[1:]):
            anchored = kink is not None and abs(aa - max(kink, 0.0)) < 1e-12
            panels.append((aa, bb, kink if anchored else None))
    return panels


def _lemma_integral(profile, phi, psi, log_scale: float, T: float, t_lo: float) -> float:
    """integral over (t_lo, T] of Phi(scale * g(t)/t) * [Psi(t)] dt, via s = log(T/t)."""
    log_T = math.log(T)
    if t_lo > 0.0:
        S = log_T - math.log(t_lo)
    else:
        S = _lemma_s_max(phi, psi, _profile_beta(profile))
    panels = _lemma_panels(profile, phi, log_scale, log_T, S)
    nodes, weights = _GL32

    def contrib(s):
        lt = log_T - s
        la = log_scale + profile.log_g(lt) - lt
        log_w = lt.copy()  # jacobian dt = t ds
        if psi is not None:
            log_w = log_w + math.log(psi.r) + (psi.r - 1.0) * lt
        if isinstance(phi, PowerPhi):
            return np.exp(phi.gamma * la + log_w)
        return np.maximum(la, 0.0) ** phi.power * np.exp(log_w)

    total = 0.0
    for a, b, kink in panels:
        if kink is not None:
            # s = kink + (b-kink) tau^2 tames the half-power kink of log-phi
            tau0 = math.sqrt((a - kink) / (b - kink))
            tau = tau0 + (1.0 - tau0) * 0.5 * (nodes + 1.0)
            w = (1.0 - tau0) * 0.5 * weights
            s = kink + (b - kink) * tau**2
            jac = 2.0 * (b - kink) * tau
            total += float(np.sum(w * jac * contrib(s)))
        else:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            s = mid + half * nodes
            total += half * float(np.sum(weights * contrib(s)))
    return total


def _lemma_closed_form(beta: float, phi, psi, log_scale: float, T: float, t_lo: float) -> float:
    """_lemma_integral for g(t) = t^(-beta), beta > -1, in closed form.

    With b = 1 + beta the argument of Phi is e^log_scale t^(-b): power phi
    integrates a power of t, log-phi an incomplete gamma in v = log_scale - b log t.
    """
    if t_lo == 0.0:
        _lemma_s_max(phi, psi, beta)  # the integrability gate of the panel rule
    r = psi.r if psi is not None else 1.0
    b, log_T = 1.0 + beta, math.log(T)
    if isinstance(phi, PowerPhi):
        lam = r - phi.gamma * b
        L = log_T - math.log(t_lo) if t_lo > 0.0 else math.inf
        # (T^lam - t_lo^lam) / lam = T^lam * span
        span = -math.expm1(-lam * L) / lam if lam != 0.0 else L
        return r * math.exp(phi.gamma * log_scale + lam * log_T) * span
    q, k = phi.power, r / b
    v_a = max(0.0, log_scale - b * log_T)
    v_b = max(v_a, log_scale - b * math.log(t_lo)) if t_lo > 0.0 else math.inf
    tail = gammaincc(q + 1.0, k * v_a) - gammaincc(q + 1.0, k * v_b)
    return float(math.exp(k * log_scale) * gamma_fn(q + 1.0) * k**-q * tail)


def _solve_constraint_scale(integral, phi, T: float, t_lo: float, target: float) -> float:
    """log of the multiplier making the profile side match the g == 1 constraint.

    integral(phi, psi, log_scale, T, t_lo) is the profile side's rule.  Power phi
    is homogeneous, C(ls) = e^(gamma ls) C(0), so its scale is explicit.
    """
    def C(ls):
        return integral(phi, None, ls, T, t_lo)

    c0 = C(0.0) if isinstance(phi, PowerPhi) else 0.0
    if 0.0 < c0 < math.inf:
        return math.log(target / c0) / phi.gamma
    lo, hi = -60.0, 60.0
    for _ in range(6):
        if C(lo) < target:
            break
        lo -= 60.0
    for _ in range(6):
        if C(hi) > target:
            break
        hi += 60.0
    if not (C(lo) < target < C(hi)):
        raise InvalidInputError("constraint not satisfiable by rescaling this profile")
    return brentq(lambda ls: C(ls) - target, lo, hi, xtol=1e-14)


def check_rearrangement_lemma(
    profile,
    phi,
    psi: PowerPsi,
    t_max: float,
    t_lo: float = 0.0,
    tolerance: float = 1e-8,
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
    target = _lemma_closed_form(0.0, phi, None, 0.0, t_max, t_lo)
    log_scale = _solve_constraint_scale(integral, phi, t_max, t_lo, target)
    # the panel rule checks the scale independently of the rule that solved for it
    residual = _lemma_integral(profile, phi, None, log_scale, t_max, t_lo) - target
    if not abs(residual) <= 1e-9 * target:  # the rules agree to ~1e-14 where both apply
        raise InvalidInputError(f"constraint residual {residual:.3g} exceeds 1e-9 * {target:.6g}")
    lhs = integral(phi, psi, log_scale, t_max, t_lo)
    rhs = _lemma_closed_form(0.0, phi, psi, 0.0, t_max, t_lo)
    margin = rhs - lhs
    hyp_ok = getattr(profile, "nonincreasing", True)
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
        passed=bool(margin >= -tolerance),
        margin=float(margin),
        tolerance=float(tolerance),
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


def check_isoperimetric_variant(
    m: int, radii=(0.5, 1.0, 2.0), tolerance: float = 1e-10
) -> VerificationReport:
    """Balls: squared surface area vs the two candidate constants.

    The sharp-ball constant gives equality in every dimension; the literal
    Gamma(m/2) constant overshoots the true squared perimeter for m > 2 by the
    factor (m/2)^(2/m) and undershoots for m = 1.
    """
    if m < 1:
        raise InvalidInputError("dimension must be at least 1")
    omega = math.pi ** (m / 2.0) / gamma_fn(1.0 + m / 2.0)
    worst_eq = 0.0
    for r in radii:
        vol = omega * r**m
        surf = m * omega * r ** (m - 1)
        per2 = surf * surf
        sharp = m * m * math.pi * gamma_fn(1.0 + m / 2.0) ** (-2.0 / m) * vol ** (
            2.0 * (m - 1) / m
        )
        worst_eq = max(worst_eq, abs(per2 - sharp) / per2)
    ratio = (gamma_fn(1.0 + m / 2.0) / gamma_fn(m / 2.0)) ** (2.0 / m)
    ratio_expected = (m / 2.0) ** (2.0 / m)
    ratio_err = abs(ratio - ratio_expected) / ratio_expected
    margin = -max(worst_eq, ratio_err)
    return VerificationReport(
        check_name="isoperimetric_variant",
        inputs={"m": m, "radii": list(radii)},
        passed=bool(margin >= -tolerance),
        margin=float(margin),
        tolerance=float(tolerance),
        details={
            "sharp_ball_relative_gap": worst_eq,
            "literal_over_sharp_ratio": ratio,
            "ratio_expected": ratio_expected,
            "literal_exceeds_perimeter": m > 2,
        },
    )
