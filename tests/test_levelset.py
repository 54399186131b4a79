"""Superlevel measures, the monotone diagnostic, and layer-cake integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import (
    Coherent,
    Constant,
    FockParams,
    InvalidInputError,
    Monomial,
    Power,
    SumOfCoherent,
    default_family_members,
    fock_norm,
)
from focklab.levelset import (
    _level_rng,
    _nested_measures,
    IsoperimetricVariant,
    LevelGrid,
    find_max,
    g_diagnostic,
    g_from_mu,
    has_exact_measure,
    layer_cake,
    mu_from_g,
    superlevel_measure,
    superlevel_measure_exact,
    unit_ball_volume,
)

P2 = FockParams(2, 2.0, 1.0)

# superlevel measure of u = r^2 e^{-r^2} at t = e^{-1}/2: annulus between the
# two roots of s e^{-s} = t, computed independently from the Lambert W branches
MONOMIAL_MU_AT_HALF_PEAK = 7.685548401778491
MONOMIAL_ROOT_LO = 0.23196095298653444
MONOMIAL_ROOT_HI = 2.6783469900166605


# ---------------------------------------------------------------------------
# maximization


def test_find_max_coherent():
    mx = find_max(Coherent(center=(1.0, 0.0), alpha=1.0), P2)
    assert mx.t_max == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(mx.argmax, [1.0, 0.0], atol=1e-6)
    assert mx.restarts_agreeing >= 2


def test_find_max_monomial():
    # u = r^2 e^{-r^2} peaks at r = 1 with value e^{-1}
    mx = find_max(Monomial(powers=(1,)), P2)
    assert mx.t_max == pytest.approx(math.exp(-1.0), rel=1e-10)
    assert np.linalg.norm(mx.argmax) == pytest.approx(1.0, abs=1e-6)


def test_find_max_weight_mismatch_center():
    # density peak moves to (alpha_b/alpha) a when the weights differ
    mx = find_max(Coherent(center=(2.0, 0.0), alpha=0.5), FockParams(2, 2.0, 1.0))
    assert np.allclose(mx.argmax, [1.0, 0.0], atol=1e-6)


# ---------------------------------------------------------------------------
# measures


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_exact_measure_monomial_annulus():
    t = math.exp(-1.0) / 2.0
    mu = superlevel_measure_exact(Monomial(powers=(1,)), P2, t)
    assert mu == pytest.approx(MONOMIAL_MU_AT_HALF_PEAK, rel=1e-10)
    assert mu == pytest.approx(
        math.pi * (MONOMIAL_ROOT_HI - MONOMIAL_ROOT_LO), rel=1e-10
    )


def test_exact_measure_coherent_disc():
    # matched coherent: u = e^{-(rate/2)|x-a|^2}, so mu(t) = pi (2/rate) log(1/t)
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    for t in (0.9, 0.5, 0.01):
        assert superlevel_measure_exact(f, P2, t) == pytest.approx(
            math.pi * math.log(1.0 / t), rel=1e-12
        )


def test_exact_measure_constant_step():
    f = Constant(value=1.0, dim=2)
    assert superlevel_measure_exact(f, P2, 2.0) == 0.0  # above the max
    # below the max the superlevel set is a disc of radius given by the weight
    t = 0.5
    expected = math.pi * (2.0 / P2.rate) * math.log(1.0 / t)  # rho^2 = (2/rate) log(1/t)
    assert superlevel_measure_exact(f, P2, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "f", [Monomial(powers=(2,)), Coherent(center=(1.0, 0.0), alpha=1.0)], ids=lambda f: f.family
)
def test_exact_measure_array_matches_scalar(f):
    # the t-grid spans empty sets above the peak down to far-tail levels
    ts = np.geomspace(3.0, 1e-300, 40).reshape(8, 5)
    scalar = [superlevel_measure_exact(f, P2, float(t)) for t in ts.ravel()]
    assert all(type(mu) is float for mu in scalar)
    mu = superlevel_measure_exact(f, P2, ts)
    assert mu.shape == ts.shape
    assert mu.ravel().tolist() == scalar


def test_exact_measure_rejects_like_the_scalar_call():
    mixture = SumOfCoherent(atoms=((0.5, (0.0, 0.0)), (0.5, (1.0, 0.0))), alpha=1.0)
    for f, t in [(mixture, 0.5), (mixture, [0.5, 0.1]), (Monomial(powers=(1,)), [0.5, -0.1])]:
        with pytest.raises(InvalidInputError):
            superlevel_measure_exact(f, P2, t)


def test_has_exact_measure_flags():
    assert has_exact_measure(Monomial(powers=(1,)))
    assert has_exact_measure(Coherent(center=(1.0, 0.0), alpha=1.0))
    assert has_exact_measure(Constant(value=1.0, dim=3))
    assert not has_exact_measure(Monomial(powers=(1, 2)))
    assert not has_exact_measure(
        SumOfCoherent(atoms=((0.5, (0.0, 0.0)), (0.5, (1.0, 0.0))), alpha=1.0)
    )


def test_mc_measure_matches_exact():
    f = Monomial(powers=(1,))
    t = math.exp(-1.0) / 2.0
    est = superlevel_measure(f, P2, t, samples=400_000, seed=12)
    assert est.stderr > 0
    assert abs(est.value - MONOMIAL_MU_AT_HALF_PEAK) <= 4.0 * est.stderr


def test_mc_measure_states_error_without_hits():
    # a ball of radius 1.32 around a sliver {u > t}: 1000 points miss it, yet mu > 0
    f = next(g for g in default_family_members(2) if isinstance(g, SumOfCoherent))
    params = FockParams(2, 2.0, 1.0)
    t = 0.9999 * find_max(f, params).t_max
    est = superlevel_measure(f, params, t, samples=1000, seed=0)
    assert est.value == 0.0 and est.ball_radius > 1.0
    assert est.stderr > 0


def test_level_stream_differs_from_find_max_streams():
    for s in range(5):
        draws = _level_rng(s).random(4)
        for j in range(4):
            assert not np.array_equal(draws, np.random.default_rng(s + j).random(4))


def test_nested_covariance_matches_replicates():
    # annular superlevel sets: levels share the inner shells, so they correlate
    f = Monomial(powers=(1,))
    t_grid = math.exp(-1.0) * np.array([0.9, 0.6, 0.3])
    clouds = [_nested_measures(f, P2, t_grid, 1000, seed) for seed in range(1000)]
    empirical = np.cov(np.array([c.mu for c in clouds]).T)
    stated = np.mean([c.cov for c in clouds], axis=0)
    sd = np.sqrt(np.diag(stated))
    scale = np.outer(sd, sd)
    assert np.allclose(np.diag(empirical / scale), 1.0, atol=0.15)
    assert np.allclose(empirical / scale, stated / scale, atol=0.12)


def test_mc_measure_deterministic():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    a = superlevel_measure(f, P2, 0.3, samples=50_000, seed=21)
    b = superlevel_measure(f, P2, 0.3, samples=50_000, seed=21)
    assert a.value == b.value and a.stderr == b.stderr


def test_measure_nonincreasing_in_t():
    f = Monomial(powers=(1,))
    t_max = math.exp(-1.0)
    ts = t_max * 0.9 ** np.arange(1, 20)
    mus = [superlevel_measure_exact(f, P2, float(t)) for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))


def test_chebyshev_bound():
    # t * mu(t) <= integral of u = raw_integral / c_{p,alpha}
    f = Monomial(powers=(1,))
    est = fock_norm(f, P2)
    total_mass = est.raw_integral / (P2.rate / (2.0 * math.pi))
    t_max = math.exp(-1.0)
    for frac in (0.9, 0.5, 0.1, 1e-3):
        t = frac * t_max
        assert t * superlevel_measure_exact(f, P2, t) <= total_mass + 1e-12


# ---------------------------------------------------------------------------
# the diagnostic g


@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-8, max_value=0.99),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(list(IsoperimetricVariant)),
)
@settings(max_examples=60, deadline=None)
def test_g_mu_round_trip(mu, t, m, variant):
    params = FockParams(m, 2.0, 1.0)
    g = g_from_mu(mu, t, params, variant)
    back = mu_from_g(g, t, params, variant)
    assert back == pytest.approx(mu, rel=1e-12, abs=1e-12)


def test_g_from_mu_saturates_to_inf():
    # huge measures push the exponent past the double range; inf, not a raise
    g = g_from_mu(5000.0, 0.5, FockParams(1, 2.0, 1.0), IsoperimetricVariant.PAPER_LITERAL)
    assert g == math.inf


def test_g_from_mu_array_matches_scalar():
    params, variant = FockParams(1, 2.0, 1.0), IsoperimetricVariant.PAPER_LITERAL
    mu = np.array([0.0, 1e-6, 0.3, 2.0, 40.0, 5000.0])  # the last one saturates
    t = np.geomspace(0.9, 1e-12, mu.size)
    scalar = [g_from_mu(float(a), float(b), params, variant) for a, b in zip(mu, t)]
    assert all(type(g) is float for g in scalar) and scalar[-1] == math.inf
    assert g_from_mu(mu, t, params, variant).tolist() == scalar
    with pytest.raises(InvalidInputError):
        g_from_mu(mu, -t, params, variant)
    with pytest.raises(InvalidInputError):
        g_from_mu(-mu - 1.0, t, params, variant)


def test_mu_from_g_rejects_g_below_t():
    with pytest.raises(InvalidInputError):
        mu_from_g(0.5, 0.6, P2, IsoperimetricVariant.SHARP_BALL)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_coherent_g_is_constant_with_exact_measure(m):
    # sharp-ball variant: exact measures give g identically equal to the peak
    center = (1.0,) + (0.0,) * (m - 1)
    f = Coherent(center=center, alpha=1.0)
    params = FockParams(m, 2.0, 1.0)
    for frac in (0.9, 0.5, 0.1, 1e-3):
        t = frac * 1.0
        mu = superlevel_measure_exact(f, params, t)
        g = g_from_mu(mu, t, params, IsoperimetricVariant.SHARP_BALL)
        assert g == pytest.approx(1.0, rel=1e-12)


def test_variants_coincide_in_the_plane():
    a = IsoperimetricVariant.SHARP_BALL.kappa(2)
    b = IsoperimetricVariant.PAPER_LITERAL.kappa(2)
    assert a == pytest.approx(b, rel=1e-14)
    assert a == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_literal_variant_power_law_m3():
    # centered coherent in m=3 with the literal constant: g(t) = t^(1 - (2/3)^(2/3))
    f = Coherent(center=(0.0, 0.0, 0.0), alpha=1.0)
    params = FockParams(3, 2.0, 1.0)
    expo = 1.0 - (2.0 / 3.0) ** (2.0 / 3.0)
    for t in (0.9, 0.5, 0.05):
        mu = superlevel_measure_exact(f, params, t)
        g = g_from_mu(mu, t, params, IsoperimetricVariant.PAPER_LITERAL)
        assert g == pytest.approx(t**expo, rel=1e-12)


def test_level_grid_contract():
    grid = LevelGrid(count=10, ratio=0.8)
    levels = grid.levels(2.0)
    assert len(levels) == 10
    assert levels[0] == pytest.approx(1.6)
    assert np.all(np.diff(levels) < 0)
    with pytest.raises(InvalidInputError):
        LevelGrid(count=0, ratio=0.9)
    with pytest.raises(InvalidInputError):
        LevelGrid(count=10, ratio=1.1)


def test_g_diagnostic_coherent_no_violations():
    f = Coherent(center=(1.0,), alpha=1.0)
    params = FockParams(1, 2.0, 1.0)
    prof = g_diagnostic(f, params, grid=LevelGrid(count=30, ratio=0.9), samples=50_000, seed=0)
    assert prof.violations == ()
    assert np.max(np.abs(prof.g - 1.0)) <= 0.05
    flags = prof.violation_flags()
    assert len(flags) == 30 and not np.any(flags)


def test_g_diagnostic_reproducible():
    f = Monomial(powers=(1,))
    a = g_diagnostic(f, P2, grid=LevelGrid(count=8, ratio=0.8), samples=20_000, seed=3)
    b = g_diagnostic(f, P2, grid=LevelGrid(count=8, ratio=0.8), samples=20_000, seed=3)
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.g, b.g)


def test_g_diagnostic_flags_decreasing_profile():
    # the literal constant in m=3 makes g a decreasing function along the grid
    f = Coherent(center=(0.0, 0.0, 0.0), alpha=1.0)
    params = FockParams(3, 2.0, 1.0)
    prof = g_diagnostic(
        f,
        params,
        grid=LevelGrid(count=15, ratio=0.85),
        variant=IsoperimetricVariant.PAPER_LITERAL,
        samples=50_000,
        seed=0,
    )
    assert len(prof.violations) > 0
    assert np.any(prof.violation_flags())


def test_g_diagnostic_stderr_covers_exact_measure():
    # z = (mc - exact) / stated stderr over 5 cases x 30 levels x 10 seeds
    cases = [
        (Coherent(center=(0.0,), alpha=1.0), FockParams(1, 2.0, 1.0)),
        (Coherent(center=(0.0, 0.0), alpha=1.0), P2),
        (Coherent(center=(0.0, 0.0, 0.0), alpha=1.0), FockParams(3, 2.0, 1.0)),
        (Monomial(powers=(1,)), P2),
        (Coherent(center=(0.7, -0.3), alpha=1.0), FockParams(2, 3.0, 1.0)),
    ]
    zs = []
    for f, params in cases:
        for seed in range(10):
            prof = g_diagnostic(f, params, grid=LevelGrid(30, 0.85), samples=50_000, seed=seed)
            exact = np.array([superlevel_measure_exact(f, params, t) for t in prof.t_grid])
            assert np.all(prof.mu_stderr > 0)
            assert np.all(np.diff(prof.mu) >= 0)  # nested sets, one cloud
            zs.append((prof.mu - exact) / prof.mu_stderr)
    z = np.abs(np.concatenate(zs))
    assert np.mean(z > 3.0) <= 0.01
    assert np.max(z) <= 5.0


# ---------------------------------------------------------------------------
# layer cake


def test_layer_cake_constant_gives_pi():
    res = layer_cake(Constant(value=1.0, dim=2), P2, Power(1.0))
    assert res.mu_mode == "exact-radial"
    assert res.value == pytest.approx(math.pi, abs=1e-6)


def test_layer_cake_matches_direct_quadrature():
    res = layer_cake(Monomial(powers=(1,)), P2, Power(2.0))
    assert res.mu_mode == "exact-radial"
    assert res.discrepancy <= 3.0 * (res.error_bound + res.direct_error) + 1e-12
    # closed form: int u^2 dA = pi/4
    assert res.value == pytest.approx(math.pi / 4.0, abs=1e-5)


def test_layer_cake_mc_fallback():
    f = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
    res = layer_cake(
        f, P2, Power(2.0), grid=LevelGrid(count=120, ratio=0.95), samples=200_000, seed=0
    )
    assert res.mu_mode == "mc"
    assert res.discrepancy <= 3.0 * (res.error_bound + res.direct_error) + 1e-12
