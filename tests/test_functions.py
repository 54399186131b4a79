"""Function-model tests: evaluation, scaling, envelopes, subharmonicity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import lambertw

from focklab import (
    Coherent,
    Constant,
    DimensionMismatchError,
    ExpQuadratic,
    FockParams,
    InvalidInputError,
    Monomial,
    NoEnvelopeError,
    Polynomial,
    SumOfCoherent,
    default_family_members,
    envelope_radius,
    log_density_batch,
)
from focklab.functions import RadialProfile, _illinois, _neg_lambertw, _sq_norm

P2 = FockParams(2, 2.0, 1.0)


# ---------------------------------------------------------------------------
# parameters


@pytest.mark.parametrize(
    "m,p,alpha",
    [
        (0, 2, 1), (2, 0, 1), (2, -1, 1), (2, 2, 0), (2, 2, -0.5),
        (math.nan, 2, 1), (math.inf, 2, 1), (2.5, 2, 1), ("2", 2, 1), (2, math.nan, 1), (2, 2, math.inf),
    ],
)
def test_params_rejects_bad_values(m, p, alpha):
    with pytest.raises(InvalidInputError):
        FockParams(m, p, alpha)


_NON_FINITE = {
    "const value": lambda x: Constant(value=x, dim=2),
    "const dim": lambda x: Constant(value=1.0, dim=x),
    "coherent centre": lambda x: Coherent(center=(x, 0.0), alpha=1.0),
    "coherent alpha": lambda x: Coherent(center=(0.0, 0.0), alpha=x),
    "monomial power": lambda x: Monomial(powers=(x,)),
    "poly coefficient": lambda x: Polynomial(terms={(1,): complex(1.0, x)}),
    "poly index": lambda x: Polynomial(terms={(x,): 1.0}),
    "expquad c": lambda x: ExpQuadratic(c=x, dim=2),
    "expquad dim": lambda x: ExpQuadratic(c=0.1, dim=x),
    "sumcoherent weight": lambda x: SumOfCoherent(atoms=((x, (0.0, 0.0)),), alpha=1.0),
    "sumcoherent centre": lambda x: SumOfCoherent(atoms=((1.0, (0.0, x)),), alpha=1.0),
    "sumcoherent alpha": lambda x: SumOfCoherent(atoms=((1.0, (0.0, 0.0)),), alpha=x),
    "default members m": default_family_members,
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", list(_NON_FINITE.values()), ids=list(_NON_FINITE))
def test_families_reject_non_finite_parameters(build, x):
    # a nan or inf parameter is refused where the function is built, before it can reach an integrator
    with pytest.raises(InvalidInputError):
        build(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_log_scale_must_be_finite(x):
    # a nan or infinite log_scale is refused where the function is built and where it is shifted,
    # rather than surfacing later as an overflowed integral
    for build in (
        lambda: Constant(value=1.0, dim=2, log_scale=x),
        lambda: Coherent(center=(1.0, 0.0), alpha=1.0).log_shifted(x),
        lambda: Polynomial(terms={(1,): 1.0}, log_scale=x),
        lambda: Constant(value=1.0, dim=2).log_shifted(1e308).log_shifted(1e308),
    ):
        with pytest.raises(InvalidInputError, match="log_scale must be finite"):
            build()
    assert Coherent(center=(1.0, 0.0), alpha=1.0).log_shifted(-700.0).log_scale == -700.0


_JETTED = [f for m in (2, 4) for f in default_family_members(m) if f.family in ("poly", "sumcoherent", "monomial")] + [
    Polynomial(terms={(1, 2): 1 + 2j, (3, 0): -0.5, (0, 0): 2j, (2, 1): 0.25 - 1j}),
    Monomial(powers=(3, 2)),
    SumOfCoherent(atoms=((0.2, (1.0, -0.5, 0.3)), (0.5, (-1.0, 0.0, 0.7)), (0.3, (0.0, 2.0, -1.0))), alpha=0.7),
]


@pytest.mark.parametrize("log_scale", [0.0, -37.5], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("f", _JETTED, ids=lambda f: f"{f.family}-m{f.m}-{len(str(f))}")
def test_jet_matches_central_differences_of_the_density(f, log_scale):
    # the jet (log|f|, its gradient and Hessian, without log_scale) against central differences of
    # log_density_batch at p = 1, from which the weight's (alpha/2)|x|^2 is added back
    f, h, m = f.log_shifted(log_scale), 1e-4, f.m
    params = FockParams(m, 1.0, 1.0)

    def log_abs(X):
        return log_density_batch(f, params, X) + 0.5 * _sq_norm(X) - log_scale

    X = np.random.default_rng(7).standard_normal((6, m))
    value, grad, hess = f._log_abs_jet(X)
    np.testing.assert_allclose(value, log_abs(X), rtol=0.0, atol=1e-12)
    E = h * np.eye(m)
    for i in range(m):
        fd = (log_abs(X + E[i]) - log_abs(X - E[i])) / (2.0 * h)
        np.testing.assert_allclose(grad[:, i], fd, rtol=0.0, atol=1e-6 * (1.0 + np.abs(fd).max()))
        for j in range(m):
            fd = (log_abs(X + E[i] + E[j]) - log_abs(X + E[i] - E[j]) - log_abs(X - E[i] + E[j])
                  + log_abs(X - E[i] - E[j])) / (4.0 * h * h)
            np.testing.assert_allclose(hess[:, i, j], fd, rtol=0.0, atol=1e-5 * (1.0 + np.abs(fd).max()))
    np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), rtol=0.0, atol=1e-14 * (1.0 + np.abs(hess).max()))


@pytest.mark.parametrize("f", [f for f in _JETTED if f.family != "sumcoherent"], ids=lambda f: f"{f.family}-m{f.m}")
def test_polynomial_hessian_is_traceless(f):
    # log|f| is harmonic away from the zeros of a holomorphic f
    hess = f._log_abs_jet(np.random.default_rng(8).standard_normal((16, f.m)))[2]
    assert np.all(np.abs(np.trace(hess, axis1=1, axis2=2)) <= 1e-12 * (1.0 + np.abs(hess).max(axis=(1, 2))))


def test_integer_parameters_must_be_whole():
    # a fractional count is refused, not truncated
    for build in (lambda: Monomial(powers=(1.5,)), lambda: Constant(value=1.0, dim=2.5)):
        with pytest.raises(InvalidInputError):
            build()
    assert Monomial(powers=(2.0,)).powers == (2,) and Constant(value=1.0, dim=2.0).dim == 2


def test_params_rate():
    assert FockParams(3, 4.0, 0.5).rate == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# evaluation


def test_constant_log_abs():
    f = Constant(value=2.0, dim=2)
    X = np.zeros((3, 2))
    assert np.allclose(f.log_abs(X), math.log(2.0))


def test_coherent_closed_form():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    x = np.array([[0.3, -0.2]])
    expected = 1.0 * (0.3 - 0.5)
    assert f.log_abs(x)[0] == pytest.approx(expected, abs=1e-14)


def test_monomial_zero_at_origin():
    f = Monomial(powers=(1,))
    assert f.log_abs(np.zeros((1, 2)))[0] == -math.inf


def test_monomial_homogeneity():
    f = Monomial(powers=(2, 1))
    x = np.array([[0.4, -0.3, 1.1, 0.2]])
    assert f.log_abs(2.0 * x)[0] == pytest.approx(f.log_abs(x)[0] + 3 * math.log(2.0), abs=1e-12)


def test_polynomial_single_term_matches_monomial():
    poly = Polynomial(terms=(((2,), 3.0 + 0.0j),))
    mono = Monomial(powers=(2,))
    X = np.array([[0.5, 0.7], [-1.2, 0.1], [2.0, -2.0]])
    assert np.allclose(poly.log_abs(X), mono.log_abs(X) + math.log(3.0), atol=1e-12)


def test_polynomial_complex_coefficients():
    # 1 + i z^2 at z = 1: |1 + i| = sqrt(2)
    poly = Polynomial(terms=(((0,), 1.0 + 0.0j), ((2,), 1.0j)))
    assert poly.log_abs(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_sum_of_coherent_singleton_bitwise_equal():
    a = (0.7, -0.4)
    single = SumOfCoherent(atoms=((1.0, a),), alpha=1.3)
    plain = Coherent(center=a, alpha=1.3)
    X = np.random.default_rng(5).standard_normal((200, 2))
    assert np.array_equal(single.log_abs(X), plain.log_abs(X))


def test_dimension_mismatch_rejected():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    with pytest.raises(DimensionMismatchError):
        f.log_abs(np.zeros((4, 3)))


def test_density_batch_matches_pointwise():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    log_u = log_density_batch(f, P2, X)
    # u = exp(-(rate/2)|x - a|^2) for a matched coherent state
    assert log_u[0] == pytest.approx(0.0, abs=1e-14)
    assert log_u[1] == pytest.approx(-1.0, abs=1e-14)
    # one point at a time agrees with the batch
    assert [log_density_batch(f, P2, x[None, :])[0] for x in X] == pytest.approx(log_u, abs=1e-14)
    with pytest.raises(DimensionMismatchError):
        log_density_batch(f, FockParams(3, 2.0, 1.0), np.array([[1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_sq_norm_matches_row_sum(m, order):
    rng = np.random.default_rng(m)
    X = rng.standard_normal((4096, m)) * np.exp(rng.uniform(-30.0, 30.0, (4096, m)))
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.5e-310, 1e200, -1e200]
    X[: len(special) * m].flat = np.resize(special, len(special) * m * m)
    X = np.asarray(X, order=order)
    before = X.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got, ref = _sq_norm(X), np.sum(X * X, axis=1)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(X, before, equal_nan=True)


def test_monomial_log_abs_matches_out_of_place_reference():
    X = np.random.default_rng(5).standard_normal((4096, 6))
    X[:3, 2:4] = 0.0  # log 0 = -inf on the second factor
    f = Monomial(powers=(3, 1, 0))
    ref = np.zeros(len(X))
    with np.errstate(divide="ignore"):
        for j, k in enumerate(f.powers):
            if k:
                ref = ref + 0.5 * k * np.log(X[:, 2 * j] ** 2 + X[:, 2 * j + 1] ** 2)
    assert np.array_equal(f.log_abs(X), ref)


@pytest.mark.parametrize("N", [1, 7, 4096, 1 << 16])
def test_polynomial_log_abs_matches_out_of_place_reference(N):
    rng = np.random.default_rng(N)
    polys = [f for f in default_family_members(4) if f.family == "poly"] + [
        Polynomial(terms={(0, 0): 2j, (1, 2): 1 + 2j, (2, 1): 0.25 - 1j, (3, 0): -0.5, (0, 4): 1.5}),
    ]
    X = rng.standard_normal((N, 4)) * 3.0
    for f in polys:
        Z = X[:, 0::2] + 1j * X[:, 1::2]
        total = np.zeros(N, dtype=complex)
        for pw, coeff in f.terms:
            term = np.full(N, coeff, dtype=complex)
            for j, k in enumerate(pw):
                if k:
                    term = term * Z[:, j] ** k
            total = total + term
        assert np.array_equal(f.log_abs(X), np.log(np.abs(total)))


@pytest.mark.parametrize("f", default_family_members(4), ids=lambda f: f.family)
def test_log_density_batch_memory_budget(f):
    # real-valued families need |x|^2 and log|f| but no (N, m) temporary: at most 3.5 N doubles;
    # the polynomial also holds complex Z (m N), its running total and one power (2 N each)
    budget = 8.5 if f.family == "poly" else 3.5
    N = 1 << 18
    X = np.random.default_rng(0).standard_normal((N, 4))
    params = FockParams(4, 2.0, 1.0)
    tracemalloc.start()
    try:
        log_density_batch(f, params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget * N * 8


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_log_shift_moves_log_abs(delta):
    f = Monomial(powers=(1,)).log_shifted(delta)
    base = Monomial(powers=(1,))
    X = np.array([[0.7, -0.2]])
    assert f.log_abs(X)[0] == pytest.approx(base.log_abs(X)[0] + delta, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_scaled_multiplies_modulus(c):
    f = Coherent(center=(0.5, 0.5), alpha=1.0)
    X = np.array([[0.1, 0.9]])
    assert f.log_shifted(math.log(c)).log_abs(X)[0] == pytest.approx(
        f.log_abs(X)[0] + math.log(c), abs=1e-12
    )


# ---------------------------------------------------------------------------
# envelopes


@pytest.mark.parametrize("f", default_family_members(2), ids=lambda f: f.family)
@pytest.mark.parametrize("t_frac", [0.5, 1e-3, 1e-8])
def test_envelope_radius_is_sound(f, t_frac):
    # all density values on the sphere of radius 1.01 R must sit below t
    params = P2
    t = t_frac  # density max is O(1) for every default member
    R = envelope_radius(f, params, math.log(t))
    rng = np.random.default_rng(11)
    w = rng.standard_normal((1000, 2))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    log_u = log_density_batch(f, params, 1.01 * R * w)
    assert np.all(log_u < math.log(t))


def _radial_cases():
    cases = []
    for m in (1, 2, 3):
        e1 = (0.7,) + (-0.4,) * (m - 1)
        cases += [
            (Constant(value=1.3, dim=m), FockParams(m, 2.0, 1.0)),
            (Coherent(center=e1, alpha=1.0), FockParams(m, 3.0, 1.0)),
            (Coherent(center=e1, alpha=0.6), FockParams(m, 2.0, 1.4)),  # built-in rate differs
            (ExpQuadratic(c=0.2, dim=m), FockParams(m, 1.5, 1.0)),
        ]
    cases += [(Monomial(powers=(k,)), FockParams(2, 2.5, 0.8)) for k in (0, 1, 2)]
    return [(f.log_shifted(shift), params) for f, params in cases for shift in (0.0, 0.37)]


_RADIAL_CASES = _radial_cases()


@pytest.mark.parametrize(
    "f,params",
    _RADIAL_CASES,
    ids=[f"{f.family}-m{p.m}-alpha{p.alpha}-shift{f.log_scale}" for f, p in _RADIAL_CASES],
)
def test_radial_profile_matches_density(f, params):
    # checked against log_density_batch, which does not go through the profile
    prof = f.radial_profile(params)
    X = np.random.default_rng(5).normal(scale=1.5, size=(200, params.m))
    r = np.linalg.norm(X - np.asarray(prof.centre), axis=1)
    with np.errstate(divide="ignore"):
        log_u = prof.A + prof.K * np.log(r) - prof.B * r * r
    np.testing.assert_allclose(log_u, log_density_batch(f, params, X), rtol=1e-12)


def test_radial_profile_absent_for_other_families():
    assert Monomial(powers=(1, 1)).radial_profile(FockParams(4, 2.0, 1.0)) is None
    for f in default_family_members(2):
        if f.family in ("poly", "sumcoherent"):
            assert f.radial_profile(P2) is None


@pytest.mark.parametrize("K", [0.5, 1.0, 2.0, 8.0])
def test_radii_solve_the_profile(K):
    A, B = 0.0, 0.25
    prof = RadialProfile((0.0, 0.0), A, K, B)
    peak = A + 0.5 * K * (math.log(K / (2.0 * B)) - 1.0)  # psi at r = sqrt(K / 2B)
    log_t = peak - np.geomspace(1e-4, peak + 400.0, 120)  # down to log t = -400
    r_in, r_out = prof.radii(log_t)
    assert np.all(np.isfinite(r_in)) and np.all(np.isfinite(r_out))
    assert np.all((0.0 <= r_in) & (r_in < r_out))

    def psi(r):
        return A + K * np.log(r) - B * r * r

    tol = 1e-13 * np.maximum(np.abs(log_t), 1.0)  # psi's terms are O(1) where log t crosses 0
    assert np.all(np.abs(psi(r_out) - log_t) <= tol)
    # r_in ~ exp((log t - A) / K) leaves the normal range only below log r = -708
    normal = r_in >= np.finfo(float).tiny
    assert np.all((log_t[~normal] - A) / K < -700.0)
    assert np.all(np.abs(psi(r_in[normal]) - log_t[normal]) <= tol[normal])
    # above the peak the superlevel set is empty
    assert [float(r) for r in prof.radii(peak + 1e-9)] == [0.0, 0.0]


# Lambert W: y = -W_k(z), z = -e^L, is a root of y - log y = -L.  An ulp of L
# moves y by about y/|y - 1| ulps of L, and forming the residual costs |L| ulps
EPS = np.finfo(float).eps


def _w_tolerance(L, y):
    return 8.0 * EPS * (1.0 + np.abs(L)) * y / np.abs(y - 1.0)


def _w_by_brentq(L, branch):
    lo, hi = (0.5, 1.0) if branch == 0 else (1.0, 2.0 * (1.0 - L) + 10.0)
    return brentq(lambda y: y - math.log(y) + L, lo, hi, xtol=1e-300, rtol=4.0 * EPS)


@pytest.mark.parametrize("branch", [0, -1])
def test_neg_lambertw_matches_scipy(branch):
    L = -np.geomspace(1.02, 700.0, 200)
    y = _neg_lambertw(L)[-branch]
    y_ref = -lambertw(-np.exp(L), branch).real
    assert np.all(np.abs(y - y_ref) <= _w_tolerance(L, y_ref))


@pytest.mark.parametrize("branch", [0, -1])
def test_neg_lambertw_near_the_branch_point(branch):
    # scipy's lambertw stops near the branch-point value here (at L = -1 - 1e-12
    # its W_-1 is off by 1.4e-6, and nan at tol=1e-15), so brentq on the
    # residual is the reference: it is as accurate as the conditioning allows
    L = -1.0 - np.geomspace(2.0**-52, 1e-2, 60)
    y = _neg_lambertw(L)[-branch]
    y_ref = np.array([_w_by_brentq(v, branch) for v in L])
    assert np.all(np.abs(y - y_ref) <= _w_tolerance(L, y_ref))
    assert np.all(y < 1.0) if branch == 0 else np.all(y > 1.0)


def test_radii_below_the_lambertw_clamp():
    # A = 0, K = 2, B = 1 gives c = 1 and log(-z) = log t: r_in^2 = -W_0, r_out^2 = -W_-1
    prof = RadialProfile((0.0, 0.0), 0.0, 2.0, 1.0)
    L = np.concatenate([-np.geomspace(700.25, 708.0, 8), -np.geomspace(708.5, 1e4, 40)])
    r_in, r_out = prof.radii(L)
    y_ref = np.array([_w_by_brentq(v, -1) for v in L])
    assert np.all(np.abs(r_out**2 - y_ref) <= 16.0 * EPS * y_ref)
    scipy_range = L >= -708.0  # z = -e^L is still a normal double
    y_scipy = -lambertw(-np.exp(L[scipy_range]), -1).real
    assert np.all(np.abs(r_out[scipy_range] ** 2 - y_scipy) <= 16.0 * EPS * y_scipy)
    # -W_0(z) = e^L to double precision, so r_in = e^(L/2) however far below the clamp
    assert np.array_equal(r_in, np.exp(0.5 * L))


_BOUND_CASES = [
    f
    for m in (2, 4)
    for f in default_family_members(m)
    if f.family in ("monomial", "poly", "sumcoherent")
] + [
    Monomial(powers=(0, 0)),
    Polynomial(terms={(0, 0): 0.0, (1, 3): 0.5, (2, 0): -1j, (0, 1): 2.0}),
    SumOfCoherent(atoms=((0.0, (1.0, 0.0)), (2.0, (0.0, 3.0)), (0.5, (0.2, 0.1))), alpha=1.5),
]


def _radial_bound_reference(f, r):
    """The radial bound written out on one radius with math, term by term."""
    if isinstance(f, SumOfCoherent):
        norms = [math.hypot(*a) for _, a in f.atoms]
        total = sum(
            w * math.exp(f.alpha * (na * r - 0.5 * na * na)) for (w, _), na in zip(f.atoms, norms)
        )
    else:
        terms = f.terms if isinstance(f, Polynomial) else [((f.degree,), 1.0)]
        total = sum(abs(c) * r ** sum(pw) for pw, c in terms)
    return math.log(total) if total > 0 else -math.inf


@pytest.mark.parametrize("f", _BOUND_CASES, ids=lambda f: f"{f.family}-m{f.m}")
def test_radial_bound_array_matches_scalar(f):
    # the envelope bisection evaluates its whole bracket grid in one call
    r = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 64)])
    bound = f._radial_bound_raw(r)
    assert bound.shape == r.shape
    scalar = [float(f._radial_bound_raw(float(x))) for x in r]
    np.testing.assert_allclose(bound, scalar, rtol=1e-14)
    # absolute in the log: the reference loses relative digits where the sum is near 1
    reference = [_radial_bound_reference(f, x) for x in r]
    np.testing.assert_allclose(bound, reference, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("f", default_family_members(2), ids=lambda f: f.family)
def test_envelope_radius_array_matches_scalar(f):
    # profile families solve all levels at once, the others bisect level by level
    log_ts = np.log(np.geomspace(2.0, 1e-9, 13)).reshape(13, 1)
    scalar = [envelope_radius(f, P2, float(log_t)) for log_t in log_ts.ravel()]
    assert all(type(R) is float for R in scalar)
    R = envelope_radius(f, P2, log_ts)
    assert R.shape == log_ts.shape
    assert R.ravel().tolist() == scalar


_BISECTED = [
    f for m in (2, 3) for f in default_family_members(m) if f.radial_profile(FockParams(m, 1.0, 1.0)) is None
] + [Monomial(powers=(1, 1)), Monomial(powers=(2, 1)).log_shifted(math.log(3.0))]


@pytest.mark.parametrize("f", _BISECTED, ids=lambda f: f"{f.family}-m{f.m}")
def test_envelope_bisection_ends_on_adjacent_doubles(f):
    # the radius is the first double past the outer crossing of the radial bound
    params = FockParams(f.m, 2.0, 1.0)
    log_ts = np.log(np.geomspace(0.5, 1e-250, 40))
    R = envelope_radius(f, params, log_ts)

    def excess(r):
        return params.p * (f._radial_bound_raw(r) + f.log_scale) - 0.5 * params.rate * r * r - log_ts

    assert np.all(R > 0)
    assert np.all(excess(R) < 0.0)
    assert np.all(excess(np.nextafter(R, 0.0)) >= 0.0)


def test_envelope_radius_coherent_closed_form():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    t = 0.1
    # matched coherent density is exp(-(rate/2)|x-a|^2); radius |a| + sqrt((2/rate) log(1/t))
    expected = 1.0 + math.sqrt(math.log(1.0 / t))
    assert envelope_radius(f, P2, math.log(t)) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_envelope_radius_rejects_bad_threshold():
    # t = 0: no finite radius keeps u below it
    with pytest.raises(InvalidInputError):
        envelope_radius(Constant(value=1.0, dim=2), P2, -math.inf)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, [0.5, 0.0]])
def test_envelope_radius_rejects_any_bad_threshold(t):
    # a threshold that is not finite and positive has no finite log, which is refused
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.log(t)
    for f in (Constant(value=1.0, dim=2), SumOfCoherent(atoms=((1.0, (0.5, 0.0)),), alpha=1.0)):
        with pytest.raises(InvalidInputError):
            envelope_radius(f, P2, log_t)


def test_expquad_envelope_existence():
    params = FockParams(2, 2.0, 1.0)
    assert ExpQuadratic(c=0.4, dim=2).has_envelope(params)
    assert not ExpQuadratic(c=0.6, dim=2).has_envelope(params)
    with pytest.raises(NoEnvelopeError):
        envelope_radius(ExpQuadratic(c=0.6, dim=2), params, math.log(0.5))


def test_envelope_radius_above_max_is_zero_or_tight():
    # at t above the global max the superlevel set is empty; radius may be 0
    f = Coherent(center=(0.0, 0.0), alpha=1.0)
    R = envelope_radius(f, P2, math.log(2.0))
    rng = np.random.default_rng(3)
    w = rng.standard_normal((100, 2))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    assert np.all(log_density_batch(f, P2, 1.01 * max(R, 1e-9) * w) < math.log(2.0))


# ---------------------------------------------------------------------------
# subharmonicity spot checks


_POLY_ZEROS = np.array([[1.0, 1.0], [-1.0, -1.0]])  # roots of 1 + 0.5i z^2


def _unit_distance_point(f, rng):
    """A random point at least unit distance from the zero set of a default member."""
    x = rng.standard_normal(2)
    if f.family == "monomial":
        r = np.linalg.norm(x)
        return x / r * max(r, 1.0)
    if f.family == "poly":
        while np.min(np.linalg.norm(_POLY_ZEROS - x, axis=1)) < 1.0:
            x = rng.standard_normal(2)
        return x
    return x


def _laplacian(f, x, h):
    """Second-difference Laplacian of log|f| on the 2m + 1 stencil at x, and its roundoff.

    The roundoff is a few ulps of the stencil's log values and of the change a
    one-ulp move of x makes in them (|x| times the gradient of the stencil),
    amplified by 1/h^2.
    """
    pts = np.tile(x, (2 * f.m + 1, 1))
    for d in range(f.m):
        pts[1 + 2 * d, d] += h
        pts[2 + 2 * d, d] -= h
    v = f.log_abs(pts)
    plus, minus = v[1::2], v[2::2]
    lap = float(np.sum(plus + minus - 2.0 * v[0])) / (h * h)
    scale = np.max(np.abs(v)) + (np.linalg.norm(x) + h) * np.max(np.abs(plus - minus)) / (2.0 * h)
    return lap, 16.0 * f.m * np.finfo(float).eps * scale / (h * h)


@pytest.mark.parametrize("f", default_family_members(2), ids=lambda f: f.family)
def test_spot_check_at_random_points(f):
    # the truncation error of the step h is about |L(2h) - L(h)| / 3: the tolerance
    # states it from the function itself, with no absolute floor
    rng = np.random.default_rng(17)
    h = 1e-3
    for _ in range(40):
        x = _unit_distance_point(f, rng)
        lap, roundoff = _laplacian(f, x, h)
        lap_2h, roundoff_2h = _laplacian(f, x, 2.0 * h)
        tol = abs(lap_2h - lap) + roundoff + roundoff_2h
        assert lap >= -tol, f"{f.family} at {x}: laplacian {lap}, tolerance {tol}"


# ---------------------------------------------------------------------------
# hints and defaults


def test_coherent_hint_accounts_for_weight_mismatch():
    f = Coherent(center=(2.0, 0.0), alpha=0.5)
    params = FockParams(2, 2.0, 1.0)
    hints = f.max_hints(params)
    # density peak of exp(alpha_b(<a,x> - |a|^2/2) p - rate|x|^2/2) is at (alpha_b/alpha) a
    assert np.allclose(hints[0], [1.0, 0.0])


def test_default_family_members_dimensions():
    for m in (1, 2, 3, 4):
        for f in default_family_members(m):
            assert f.m == m
    assert len(default_family_members(2)) > len(default_family_members(3))


# ---------------------------------------------------------------------------
# the bracketed root refiner


def _log_or_minus_inf(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


_REFINER_CASES = {  # phi(x, i) for bracket i, and its bracket: exactly one end has phi > 0
    "simple root": (lambda x, i: 1.0 + i - x * x, 0.0, 60.0),
    "monomial ray": (lambda x, i: 2.0 * np.log(x) - x * x + 1.0 + 0.05 * (1.0 + i), 1.0, 60.0),
    "double root": (lambda x, i: np.where(x < 1.0 + i, 1.0, -1.0) * (x - 1.0 - i) ** 2, 0.0, 60.0),
    "zero of f at an end": (lambda x, i: _log_or_minus_inf(x) - math.log(0.01) - np.log1p(i), 0.0, 60.0),
}


@pytest.mark.parametrize("case", list(_REFINER_CASES))
def test_illinois_ends_every_bracket_on_adjacent_doubles(case):
    # 50 brackets in lockstep, each with its own root; the ends keep their sides
    phi, lo, hi = _REFINER_CASES[case]
    i = np.arange(50)
    lo, hi = np.full(50, lo), np.full(50, hi)
    a, b, evaluations = _illinois(phi, lo, hi, phi(lo, i), phi(hi, i), i)
    assert np.all(np.nextafter(a, math.inf) == b)
    assert np.all((phi(a, i) > 0) != (phi(b, i) > 0))
    # at least as fast as a bisection every third step: 3 x 64 steps span any bracket of doubles
    assert evaluations <= 50 * 3 * 64
