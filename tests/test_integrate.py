"""Quadrature and Monte Carlo tests for weighted norms and convex functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from focklab import (
    Coherent,
    Constant,
    Custom,
    ExpQuadratic,
    FockParams,
    GaussHermite,
    MethodUnavailableError,
    Monomial,
    MonteCarlo,
    NoEnvelopeError,
    PiecewiseLinear,
    Power,
    Radial,
    SumOfCoherent,
    UnsupportedFunctionalError,
    convex_functional,
    fock_norm,
    gauss_hermite_integrate,
    mc_integrate,
    norm_constant,
    radial_integrate,
)

P2 = FockParams(2, 2.0, 1.0)


def monomial_norm_oracle(k: int, p: float, alpha: float) -> float:
    """Closed-form |z|^k norm from the radial integral, via log-gamma."""
    return (2.0 / (alpha * p)) ** (k / 2.0) * math.exp(gammaln(1.0 + k * p / 2.0) / p)


# ---------------------------------------------------------------------------
# normalization and closed forms


def test_norm_constant_value():
    assert norm_constant(P2) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert norm_constant(FockParams(1, 2.0, 1.0)) == pytest.approx(
        math.sqrt(1.0 / math.pi), rel=1e-14
    )


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_constant_norm_is_its_value(m, p, alpha):
    est = fock_norm(Constant(value=2.5, dim=m), FockParams(m, p, alpha))
    assert est.value == pytest.approx(2.5, rel=1e-10)


@pytest.mark.parametrize(
    "p,expected",
    [
        (2.0, 1.0),
        (4.0, 0.840896415253715),   # (2/p)^{1/2} Gamma(1 + p/2)^{1/p}
        (8.0, 0.743868913082245),
    ],
)
def test_monomial_radial_oracle(p, expected):
    est = fock_norm(Monomial(powers=(1,)), FockParams(2, p, 1.0))
    assert est.value == pytest.approx(expected, abs=1e-12)
    assert est.value == pytest.approx(monomial_norm_oracle(1, p, 1.0), abs=1e-12)


def test_norm_is_root_of_raw_integral():
    est = fock_norm(Monomial(powers=(2,)), FockParams(2, 4.0, 1.0))
    assert est.value == pytest.approx(est.raw_integral ** (1.0 / 4.0), rel=1e-14)


def test_coherent_norm_all_backends():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    gh = fock_norm(f, P2, method=GaussHermite(32))
    rad = fock_norm(f, P2, method=Radial())
    mc = fock_norm(f, P2, method=MonteCarlo(samples=100_000, seed=1))
    assert gh.value == pytest.approx(1.0, abs=1e-10)
    assert rad.value == pytest.approx(1.0, abs=1e-9)
    assert abs(mc.value - 1.0) <= 4.0 * mc.value_error + 1e-12


def test_backend_agreement_within_combined_error():
    f = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
    gh = fock_norm(f, P2, method=GaussHermite(32))
    mc = fock_norm(f, P2, method=MonteCarlo(samples=200_000, seed=2))
    assert abs(gh.value - mc.value) <= 3.0 * (gh.value_error + mc.value_error)


def test_radial_matches_gauss_hermite_m3():
    f = Coherent(center=(0.5, 0.0, 0.0), alpha=1.0)
    params = FockParams(3, 2.0, 1.0)
    gh = fock_norm(f, params, method=GaussHermite(24))
    rad = fock_norm(f, params, method=Radial(radial_nodes=48, angular_nodes=64))
    assert rad.value == pytest.approx(gh.value, abs=1e-8)


@given(st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_norm_scales_with_log_shift(delta):
    f = Monomial(powers=(1,))
    base = fock_norm(f, P2).value
    shifted = fock_norm(f.log_shifted(delta), P2).value
    assert shifted == pytest.approx(base * math.exp(delta), rel=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo semantics


def test_mc_deterministic_under_seed():
    f = Monomial(powers=(1,))
    a = fock_norm(f, P2, method=MonteCarlo(samples=50_000, seed=9))
    b = fock_norm(f, P2, method=MonteCarlo(samples=50_000, seed=9))
    c = fock_norm(f, P2, method=MonteCarlo(samples=50_000, seed=10))
    assert a.value == b.value and a.error_bound == b.error_bound
    assert a.value != c.value


def test_mc_constant_has_zero_variance():
    est = fock_norm(Constant(value=1.0, dim=2), P2, method=MonteCarlo(samples=2_000, seed=0))
    assert est.value == 1.0
    assert est.error_bound == 0.0


def test_mc_stderr_shrinks_like_sqrt_n():
    params = P2
    small = mc_integrate(lambda X: _mono_log_u(X, params), params, samples=20_000, seed=4)
    big = mc_integrate(lambda X: _mono_log_u(X, params), params, samples=320_000, seed=4)
    ratio = small.error_bound / big.error_bound
    assert 2.5 < ratio < 6.5  # ideal factor 4 for 16x the samples


def _mono_log_u(X, params):
    with np.errstate(divide="ignore"):
        return params.p * np.log(np.linalg.norm(X, axis=1)) - 0.5 * params.rate * np.sum(
            X**2, axis=1
        )


def test_mc_requires_minimum_samples():
    from focklab import InvalidInputError

    with pytest.raises(InvalidInputError):
        mc_integrate(lambda X: np.zeros(len(X)), P2, samples=10, seed=0)


# ---------------------------------------------------------------------------
# guards


def test_no_envelope_rejected():
    with pytest.raises(NoEnvelopeError):
        fock_norm(ExpQuadratic(c=0.6, dim=2), P2)


def test_tensor_budget_guard():
    from focklab import InvalidInputError

    params = FockParams(7, 2.0, 1.0)
    with pytest.raises(MethodUnavailableError):
        gauss_hermite_integrate(lambda X: -np.sum(X**2, axis=1), params, nodes_per_axis=16)
    with pytest.raises(InvalidInputError):
        gauss_hermite_integrate(lambda X: -np.sum(X**2, axis=1), P2, nodes_per_axis=4)


def test_radial_dimension_guard():
    params = FockParams(4, 2.0, 1.0)
    with pytest.raises(MethodUnavailableError):
        radial_integrate(lambda X: -np.sum(X**2, axis=1), params)


def test_high_p_stays_finite():
    est = fock_norm(Monomial(powers=(1,)), FockParams(2, 64.0, 1.0), method=GaussHermite(48))
    assert math.isfinite(est.value)
    assert est.value == pytest.approx(monomial_norm_oracle(1, 64.0, 1.0), abs=1e-9)


# ---------------------------------------------------------------------------
# convex functionals


def test_power_functional_closed_form():
    # int G(u) dA for the centered coherent density exp(-rate/2 |x|^2),
    # G = t^r: (2 pi / (r * rate))^{m/2}
    f = Coherent(center=(0.0, 0.0), alpha=1.0)
    est = convex_functional(f, P2, Power(2.0))
    assert est.value == pytest.approx(math.pi / 2.0, abs=1e-10)
    est1 = convex_functional(f, P2, Power(1.0))
    assert est1.value == pytest.approx(math.pi, abs=1e-10)


def test_power_functional_monomial_closed_form():
    # u = r^2 exp(-r^2); int u^2 dA = 2 pi int r^5 exp(-2 r^2) dr = pi/4
    est = convex_functional(Monomial(powers=(1,)), P2, Power(2.0))
    assert est.value == pytest.approx(math.pi / 4.0, abs=1e-10)


def test_functional_backend_agreement():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    gh = convex_functional(f, P2, Power(2.0), method=GaussHermite(32))
    rad = convex_functional(f, P2, Power(2.0), method=Radial())
    mc = convex_functional(f, P2, Power(2.0), method=MonteCarlo(samples=200_000, seed=3))
    assert rad.value == pytest.approx(gh.value, abs=1e-8)
    assert abs(mc.value - gh.value) <= 4.0 * (mc.error_bound + gh.error_bound)


def test_power_validation():
    with pytest.raises(UnsupportedFunctionalError):
        convex_functional(Constant(value=1.0, dim=2), P2, Power(0.5))


def test_piecewise_linear_validation_and_value():
    G = PiecewiseLinear(knots=(0.5,), slopes=(0.0, 2.0))
    G.validate()
    assert G.value(np.array([0.25]))[0] == pytest.approx(0.0)
    assert G.value(np.array([1.5]))[0] == pytest.approx(2.0)
    with pytest.raises(UnsupportedFunctionalError):
        PiecewiseLinear(knots=(0.5,), slopes=(2.0, 1.0)).validate()  # concave
    with pytest.raises(UnsupportedFunctionalError):
        PiecewiseLinear(knots=(0.5, 0.4), slopes=(0.0, 1.0, 2.0)).validate()


def test_piecewise_linear_matches_custom():
    G1 = PiecewiseLinear(knots=(0.5,), slopes=(0.0, 2.0))
    G2 = Custom(fn=lambda t: max(0.0, 2.0 * (t - 0.5)))
    f = Coherent(center=(0.0, 0.0), alpha=1.0)
    a = convex_functional(f, P2, G1)
    b = convex_functional(f, P2, G2)
    assert a.value == pytest.approx(b.value, rel=1e-10)


@pytest.mark.parametrize("method", [GaussHermite(), Radial()], ids=repr)
def test_negative_G_is_rejected(method):
    # passes the grid screen on [0, 4] but dips below 0 for tiny u in the tails
    G = Custom(fn=lambda t: t * t - 1e-18 if t > 0 else 0.0)
    with pytest.raises(UnsupportedFunctionalError, match="nonnegative"):
        convex_functional(Coherent(center=(0.0, 0.0), alpha=1.0), P2, G, method=method)


def test_custom_screening():
    with pytest.raises(UnsupportedFunctionalError):
        Custom(fn=lambda t: t + 1.0).validate()  # G(0) != 0
    with pytest.raises(UnsupportedFunctionalError):
        Custom(fn=lambda t: -t).validate()  # decreasing
    with pytest.raises(UnsupportedFunctionalError):
        Custom(fn=lambda t: math.sqrt(t)).validate()  # concave
    Custom(fn=lambda t: t * t).validate()


def test_error_bound_is_nonnegative():
    for method in (GaussHermite(16), Radial(radial_nodes=24, angular_nodes=32),
                   MonteCarlo(samples=20_000, seed=5)):
        est = fock_norm(Monomial(powers=(1,)), P2, method=method)
        assert est.error_bound >= 0.0
