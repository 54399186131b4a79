"""Function-model tests: evaluation, scaling, envelopes, subharmonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import (
    Coherent,
    Constant,
    DimensionMismatchError,
    EvaluationAtZeroError,
    ExpQuadratic,
    FockParams,
    InvalidInputError,
    Monomial,
    NoEnvelopeError,
    Polynomial,
    SumOfCoherent,
    default_family_members,
    envelope_radius,
    eval_density,
    eval_log_abs,
    log_density_batch,
    subharmonic_tolerance,
    subharmonicity_spot_check,
)

P2 = FockParams(2, 2.0, 1.0)


# ---------------------------------------------------------------------------
# parameters


@pytest.mark.parametrize("m,p,alpha", [(0, 2, 1), (2, 0, 1), (2, -1, 1), (2, 2, 0), (2, 2, -0.5)])
def test_params_rejects_bad_values(m, p, alpha):
    with pytest.raises(InvalidInputError):
        FockParams(m, p, alpha)


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
    assert eval_log_abs(f, [0.0, 0.0]) == -math.inf


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
    assert eval_log_abs(poly, [1.0, 0.0]) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


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
    assert eval_density(f, P2, [1.0, 0.0]).u == pytest.approx(1.0, abs=1e-14)


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
    assert f.scaled(c).log_abs(X)[0] == pytest.approx(
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
    R = envelope_radius(f, params, t)
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


def test_envelope_radius_coherent_closed_form():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    t = 0.1
    # matched coherent density is exp(-(rate/2)|x-a|^2); radius |a| + sqrt((2/rate) log(1/t))
    expected = 1.0 + math.sqrt(math.log(1.0 / t))
    assert envelope_radius(f, P2, t) == pytest.approx(expected, rel=1e-12)


def test_envelope_radius_rejects_bad_threshold():
    with pytest.raises(InvalidInputError):
        envelope_radius(Constant(value=1.0, dim=2), P2, 0.0)


def test_expquad_envelope_existence():
    params = FockParams(2, 2.0, 1.0)
    assert ExpQuadratic(c=0.4, dim=2).has_envelope(params)
    assert not ExpQuadratic(c=0.6, dim=2).has_envelope(params)
    with pytest.raises(NoEnvelopeError):
        envelope_radius(ExpQuadratic(c=0.6, dim=2), params, 0.5)


def test_envelope_radius_above_max_is_zero_or_tight():
    # at t above the global max the superlevel set is empty; radius may be 0
    f = Coherent(center=(0.0, 0.0), alpha=1.0)
    R = envelope_radius(f, P2, 2.0)
    rng = np.random.default_rng(3)
    w = rng.standard_normal((100, 2))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    assert np.all(log_density_batch(f, P2, 1.01 * max(R, 1e-9) * w) < math.log(2.0))


# ---------------------------------------------------------------------------
# subharmonicity spot checks


# zero loci of the default members; the 10 h^2 allowance is for points at
# unit distance from the zero set (the h^2 truncation term grows like 1/r^4)
_POLY_ZEROS = np.array([[1.0, 1.0], [-1.0, -1.0]])  # roots of 1 + 0.5i z^2


def _unit_distance_point(f, rng):
    x = rng.standard_normal(2)
    if f.family == "monomial":
        r = np.linalg.norm(x)
        return x / r * max(r, 1.0)
    if f.family == "poly":
        while np.min(np.linalg.norm(_POLY_ZEROS - x, axis=1)) < 1.0:
            x = rng.standard_normal(2)
        return x
    return x


@pytest.mark.parametrize("f", default_family_members(2), ids=lambda f: f.family)
def test_spot_check_at_random_points(f):
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(40):
        x = _unit_distance_point(f, rng)
        try:
            chk = subharmonicity_spot_check(f, x, h=1e-3)
        except EvaluationAtZeroError:
            continue
        assert not chk.violation, f"{f.family} at {x}: laplacian {chk.value}"
        checked += 1
    assert checked > 30


def test_spot_check_tolerance_scale():
    assert subharmonic_tolerance(1e-3) == pytest.approx(1e-5, rel=0.2)


def test_spot_check_raises_on_zero_set():
    f = Monomial(powers=(1,))
    with pytest.raises(EvaluationAtZeroError):
        subharmonicity_spot_check(f, [0.0, 0.0], h=1e-3)


def test_expquad_is_strictly_subharmonic():
    # log|f| = c|x|^2 has laplacian 4c > 0 in the plane
    f = ExpQuadratic(c=0.25, dim=2)
    chk = subharmonicity_spot_check(f, [0.3, -0.8], h=1e-4)
    assert chk.value == pytest.approx(4 * 0.25, rel=1e-4)


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
