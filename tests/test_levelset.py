"""Superlevel measures, the monotone diagnostic, and layer-cake integration."""

import functools
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize
from scipy.special import gamma as scipy_gamma
from scipy.special import gammaln

from focklab import (
    Coherent,
    Constant,
    DimensionMismatchError,
    ExpQuadratic,
    FockParams,
    InvalidInputError,
    MethodUnavailableError,
    Monomial,
    OptimizationFailureError,
    PiecewiseLinear,
    Polynomial,
    Power,
    SumOfCoherent,
    default_family_members,
    fock_norm,
    log_density_batch,
)
from focklab import integrate, levelset
from focklab.levelset import (
    _nested_measures,
    _search_max,
    IsoperimetricVariant,
    LevelGrid,
    find_max,
    g_diagnostic,
    g_from_mu,
    layer_cake,
    superlevel_measure,
    superlevel_measure_exact,
    unit_ball_volume,
)
from focklab.verify import check_monotone_g

P2 = FockParams(2, 2.0, 1.0)

# superlevel measure of u = r^2 e^{-r^2} at t = e^{-1}/2: annulus between the
# two roots of s e^{-s} = t, computed independently from the Lambert W branches
MONOMIAL_MU_AT_HALF_PEAK = 7.685548401778491
MONOMIAL_ROOT_LO = 0.23196095298653444
MONOMIAL_ROOT_HI = 2.6783469900166605


# ---------------------------------------------------------------------------
# maximization


def test_find_max_coherent():
    # a one-atom mixture is the coherent state at (1, 0), and the search finds its peak
    mx = _search_max(SumOfCoherent(atoms=((1.0, (1.0, 0.0)),), alpha=1.0), P2)
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


_TWO_PEAKS = SumOfCoherent(atoms=((1.0, (0.0, 0.0)), (1e100, (40.0, 0.0))), alpha=1.0)


_PROFILED = [
    f for m in (2, 3) for f in default_family_members(m) if f.radial_profile(FockParams(m, 1.0, 1.0))
]


def _neg_log_u(f, params):
    return lambda x: -float(log_density_batch(f, params, x[None, :])[0])


_NELDER_MEAD = dict(method="Nelder-Mead", options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000, maxfev=8000))


def _central_hessian(f, params, x, h=1e-4):
    """The Hessian of log u at x from central differences of log_density_batch."""
    m = len(x)
    E, signs = h * np.eye(m), list(itertools.product((1, -1), repeat=2))
    points = np.array([x + s * E[i] + t * E[j] for i in range(m) for j in range(m) for s, t in signs])
    v = log_density_batch(f, params, points).reshape(m, m, 4)
    return (v[..., 0] - v[..., 1] - v[..., 2] + v[..., 3]) / (4.0 * h * h)


@pytest.mark.parametrize("f", _PROFILED, ids=lambda f: f"{f.family}-m{f.m}")
def test_closed_form_peak_matches_search(f):
    # scipy's Nelder-Mead sees only log_density_batch, never the profile; so do the central
    # differences that check the closed form's Hessian eigenvalues
    for p, alpha in itertools.product((0.5, 1.0, 2.0, 4.0), (0.5, 1.0)):
        params = FockParams(f.m, p, alpha)
        prof = f.radial_profile(params)
        log_t, point = prof.peak()
        ref = minimize(_neg_log_u(f, params), np.asarray(point) + 0.3, **_NELDER_MEAD)
        assert abs(-ref.fun - log_t) <= 1e-10, (p, alpha)
        r_peak = math.sqrt(prof.K / (2.0 * prof.B))
        assert math.dist(ref.x, prof.centre) == pytest.approx(r_peak, abs=1e-5)
        assert math.dist(point, prof.centre) == pytest.approx(r_peak, rel=1e-15, abs=1e-300)
        assert log_density_batch(f, params, np.array([point]))[0] == pytest.approx(log_t, abs=1e-12)
        mx = find_max(f, params)
        assert mx.gradient_norm == 0.0
        lam = np.linalg.eigvalsh(_central_hessian(f, params, np.asarray(point)))
        np.testing.assert_allclose(mx.hessian_eigenvalues, lam, rtol=0.0, atol=1e-5 * (1.0 + np.abs(lam).max()))


_SEARCHED = [f for m in (2, 3) for f in default_family_members(m) if f.family in ("poly", "sumcoherent")]


@pytest.mark.parametrize("f", _SEARCHED, ids=lambda f: f"{f.family}-m{f.m}")
def test_lockstep_search_matches_scipy(f):
    # scipy's Nelder-Mead on log_density_batch from the search's own starts, the hints and then the draws
    # of N(0, I/alpha) from default_rng(seed), finds the peak the Newton search finds on the jet
    for p, alpha, seed in ((2.0, 1.0, 0), (1.0, 0.5, 3), (8.0, 2.0, 5)):
        params = FockParams(f.m, p, alpha)
        draws = np.random.default_rng(seed).standard_normal((6, f.m)) / math.sqrt(alpha)
        refs = [minimize(_neg_log_u(f, params), x0, **_NELDER_MEAD) for x0 in f.max_hints(params) + list(draws)]
        ref = min(refs, key=lambda r: r.fun)
        mx = find_max(f, params, restarts=6, seed=seed)
        assert mx.rule == "newton" and mx.restarts_total == len(refs)
        assert -1e-13 * max(1.0, abs(ref.fun)) <= mx.log_t_max + ref.fun <= 1e-10, (p, alpha)
        # the README polynomial's peak at 0 is degenerate, quartic along x = -y: Nelder-Mead stops ~1e-4 off it
        np.testing.assert_allclose(mx.argmax, ref.x, rtol=0.0, atol=1e-3 if f.family == "poly" else 1e-6)


_SEARCHED_ALL = [
    f for m in (2, 3, 4) for f in default_family_members(m) if f.radial_profile(FockParams(m, 1.0, 1.0)) is None
]


@pytest.mark.parametrize("f", _SEARCHED_ALL + [_TWO_PEAKS], ids=lambda f: f"{f.family}-m{f.m}-{len(str(f))}")
def test_search_does_not_depend_on_p(f):
    # the search runs on log|f| - (alpha/2)|x|^2 = log u / p - log_scale: the argmax is the same bits at every p
    base = find_max(f, FockParams(f.m, 1.0, 1.0))
    for p in (0.5, 2.0, 8.0):
        mx = find_max(f, FockParams(f.m, p, 1.0))
        assert mx.argmax == base.argmax
        assert abs(mx.log_t_max / p - base.log_t_max) <= 4.0 * np.spacing(abs(base.log_t_max))
        assert (mx.restarts_total, mx.rule) == (base.restarts_total, "newton")


@pytest.mark.parametrize("f", _SEARCHED_ALL, ids=lambda f: f"{f.family}-m{f.m}-{len(str(f))}")
def test_search_certificate_matches_central_differences(f):
    # the gradient and Hessian the search reports at its argmax, against central differences of log u
    params = FockParams(f.m, 2.0, 1.0)
    mx = find_max(f, params)
    lam = np.linalg.eigvalsh(_central_hessian(f, params, np.asarray(mx.argmax)))
    np.testing.assert_allclose(mx.hessian_eigenvalues, lam, rtol=0.0, atol=1e-5 * (1.0 + np.abs(lam).max()))
    assert mx.gradient_norm <= 1e-6 and max(mx.hessian_eigenvalues) <= 1e-6


@pytest.mark.parametrize("powers, alpha", [((300, 1), 1.0), ((150, 0), 0.01)], ids=["300-1", "150-0"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_monomial_search_runs_past_the_double_range(powers, alpha, p):
    # z^k overflows near the peak (z0^300 ~ e^855 at |z0| = sqrt(300)), so the monomial's jet works in logs:
    # the peak lies on r_j = sqrt(k_j / alpha) at log u = p sum_j (k_j / 2)(log(k_j / alpha) - 1)
    f = Monomial(powers=powers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mx = find_max(f, FockParams(4, p, alpha))
    exact = p * sum(0.5 * k * (math.log(k / alpha) - 1.0) for k in powers if k)
    assert mx.log_t_max == pytest.approx(exact, rel=1e-13, abs=0.0)
    radii = np.hypot(mx.argmax[0::2], mx.argmax[1::2])
    np.testing.assert_allclose(radii, np.sqrt(np.array(powers) / alpha), rtol=1e-7, atol=1e-7)
    assert mx.restarts_agreeing == mx.restarts_total and mx.gradient_norm <= 1e-6 * p


@pytest.mark.parametrize("m,p", itertools.product((2, 3), (1.0, 2.0, 4.0)))
def test_sumcoherent_max_matches_axis_root(m, p):
    # both atoms lie on the x_1 axis, so by symmetry the maximum does too
    f = next(g for g in default_family_members(m) if g.family == "sumcoherent")
    alpha = 1.0
    axis = [(w, a[0]) for w, a in f.atoms]

    def atoms(s):
        return [(w * math.exp(f.alpha * (c * s - 0.5 * c * c)), c) for w, c in axis]

    def log_u(s):
        return p * math.log(sum(t for t, _ in atoms(s))) - 0.5 * alpha * p * s * s

    def slope(s):
        terms = atoms(s)
        return p * f.alpha * sum(t * c for t, c in terms) / sum(t for t, _ in terms) - alpha * p * s

    grid = np.linspace(-4.0, 4.0, 801)
    roots = [brentq(slope, lo, hi, xtol=1e-15) for lo, hi in zip(grid, grid[1:]) if slope(lo) * slope(hi) < 0]
    s_star = max(roots, key=log_u)
    mx = find_max(f, FockParams(m, p, alpha))
    assert abs(mx.log_t_max - log_u(s_star)) <= 1e-10
    assert np.allclose(mx.argmax, [s_star] + [0.0] * (m - 1), atol=1e-5)


def test_max_result_states_its_rule():
    coherent = Coherent(center=(1.0, 0.0), alpha=1.0)
    closed = find_max(coherent, P2)
    assert (closed.rule, closed.restarts_agreeing, closed.restarts_total) == ("closed_form", 0, 0)
    assert closed.argmax == (1.0, 0.0) and closed.t_max == math.exp(closed.log_t_max)
    assert (closed.gradient_norm, closed.hessian_eigenvalues) == (0.0, (-2.0, -2.0))  # log u = -|x - a|^2 + A
    mixture = next(g for g in default_family_members(2) if g.family == "sumcoherent")
    searched = find_max(mixture, P2)
    assert searched.rule == "newton"
    assert searched.restarts_total == 16 + len(mixture.max_hints(P2))
    assert searched.restarts_agreeing >= 1
    assert searched.argmax[1] == 0.0  # both atoms lie on the x_1 axis
    assert searched.gradient_norm <= 1e-8 and len(searched.hessian_eigenvalues) == 2


def test_growing_profile_has_no_peak():
    f, params = ExpQuadratic(c=0.6, dim=2), FockParams(2, 2.0, 1.0)
    assert f.radial_profile(params).B < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for find in (f.radial_profile(params).peak, lambda: g_diagnostic(f, params, samples=1000),
                     lambda: find_max(f, params)):
            with pytest.raises(OptimizationFailureError):
                find()


@pytest.mark.parametrize(
    "f",
    [Constant(value=1e200, dim=2), Coherent(center=(1.0, 0.0), alpha=1.0).log_shifted(400.0)],
    ids=["const", "coherent"],
)
def test_closed_form_peak_past_the_largest_double_raises(f):
    # at p = 2, u peaks at e^921 (const) and e^800 (coherent): t_max is no double, but log t_max
    # is, and the level profile keeps its measures; only the layer cake, whose G takes t, raises
    unit = Constant(value=1.0, dim=2) if f.family == "const" else f.log_shifted(-400.0)
    shift = 2.0 * (math.log(1e200) if f.family == "const" else 400.0)
    grid = LevelGrid(count=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mx = find_max(f, P2)
        assert mx.t_max == math.inf and mx.log_t_max == pytest.approx(find_max(unit, P2).log_t_max + shift)
        prof, base = g_diagnostic(f, P2, grid, samples=1000), g_diagnostic(unit, P2, grid, samples=1000)
        assert prof.log_t_max == mx.log_t_max and np.all(prof.t_grid == math.inf)
        np.testing.assert_allclose(prof.mu, base.mu, rtol=1e-9, atol=0.0)
        with pytest.raises(MethodUnavailableError, match="not normal doubles"):
            layer_cake(f, P2, Power(1.0), samples=1000)
    # just below the line the closed form is still a number
    assert find_max(Constant(value=1.0, dim=2).log_shifted(354.0), P2).t_max == math.exp(708.0)


@pytest.mark.parametrize(
    "f, p",
    [(ExpQuadratic(c=0.6, dim=2), p) for p in (0.5, 1.0, 2.0)] + [(_TWO_PEAKS, 8.0)],
    ids=["expquad-0.5", "expquad-1", "expquad-2", "two-peaks-8"],
)
def test_find_max_stops_where_the_density_overflows(monkeypatch, f, p):
    # u = exp(0.1 p |x|^2) has no maximum, which its radial profile says before any search;
    # in the mixture the atom at (40, 0) peaks at log u = 8 (log 1e100 + 800) - 6400 ~ 1842,
    # past the largest double, and the one at the origin near 0: the search finds the first
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return log_density_batch(*args, **kwargs)

    monkeypatch.setattr(levelset, "log_density_batch", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if f is not _TWO_PEAKS:
            with pytest.raises(OptimizationFailureError, match="grows without bound"):
                find_max(f, FockParams(2, p, 1.0))
        else:
            mx = find_max(f, FockParams(2, p, 1.0))
            assert mx.log_t_max == pytest.approx(8.0 * (100.0 * math.log(10.0) + 800.0) - 6400.0, rel=1e-13)
            assert mx.t_max == math.inf and math.dist(mx.argmax, (40.0, 0.0)) <= 1e-5
    assert len(calls) <= 2000


def test_flat_profile_peaks_at_its_level():
    # c = alpha/2 leaves u = e^A everywhere: B = 0 and K = 0
    f, params = ExpQuadratic(c=0.5, dim=2).log_shifted(math.log(2.0)), FockParams(2, 2.0, 1.0)
    prof = f.radial_profile(params)
    assert (prof.B, prof.K) == (0.0, 0.0)
    mx = find_max(f, params)
    assert mx.rule == "closed_form" and mx.log_t_max == prof.A
    assert mx.t_max == pytest.approx(4.0, rel=1e-15, abs=0.0)
    assert mx.hessian_eigenvalues == (0.0, 0.0)
    X = np.random.default_rng(1).standard_normal((16, 2)) * 3.0
    np.testing.assert_allclose(np.exp(log_density_batch(f, params, X)), 4.0, rtol=1e-14, atol=0.0)


def test_zero_function_has_no_peak():
    # the constant's profile says so before any search; the search finds no start to jitter to
    f = Constant(value=0.0, dim=2)
    with pytest.raises(OptimizationFailureError, match="vanishes identically"):
        find_max(f, P2)
    nothing = SumOfCoherent(atoms=((0.0, (0.0, 0.0)),), alpha=1.0)
    for find in (lambda: find_max(nothing, P2), lambda: find_max(Polynomial(terms={(1,): 0}), P2)):
        with pytest.raises(OptimizationFailureError, match="no starting point with nonzero density found"):
            find()


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_search_jitters_off_a_zero_of_f(alpha):
    # f = z0 has its only hint at its zero, the origin; u = |z|^2 e^{-alpha |z|^2}
    # peaks at log t_max = -(p/2)(1 + log alpha) on the circle |z| = alpha^(-1/2)
    f, params = Polynomial(terms={(1,): 1}), FockParams(2, 2.0, alpha)
    hints = f.max_hints(params)
    assert len(hints) == 1 and log_density_batch(f, params, np.array(hints))[0] == -math.inf
    mx = find_max(f, params)
    assert mx.rule == "newton" and mx.restarts_total == 17  # the jittered hint and 16 draws
    assert mx.log_t_max == pytest.approx(-(1.0 + math.log(alpha)), rel=0.0, abs=1e-12)
    assert math.hypot(*mx.argmax) == pytest.approx(alpha**-0.5, rel=0.0, abs=1e-6)


def test_agreeing_restarts_ignore_the_scale_of_f():
    # at p = 2 the two atoms' peaks differ by 2 log(1 + 2e-7) ~ 4e-7 in log u: only the
    # restarts that reach the higher one agree, whatever constant factor e^delta multiplies f
    f = SumOfCoherent(atoms=((0.5, (2.0, 0.0)), (0.5 * (1 + 2e-7), (-2.0, 0.0))), alpha=1.0)
    params = FockParams(2, 2.0, 1.0)
    base = find_max(f, params)
    assert 1 <= base.restarts_agreeing < base.restarts_total
    for delta in (-100.0, 100.0):
        mx = find_max(f.log_shifted(delta), params)
        assert (mx.restarts_agreeing, mx.restarts_total) == (base.restarts_agreeing, base.restarts_total)


# ---------------------------------------------------------------------------
# measures


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14, abs=0.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14, abs=0.0)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14, abs=0.0)


def test_gamma_constants_match_scipy():
    # math.gamma and scipy's gamma differ by at most an ulp or two at half-integers
    for m in range(1, 41):
        ball = math.pi ** (m / 2.0) / scipy_gamma(1.0 + m / 2.0)
        assert unit_ball_volume(m) == pytest.approx(ball, rel=1e-15, abs=0.0)
        for variant, arg in ((IsoperimetricVariant.SHARP_BALL, 1.0 + m / 2.0),
                             (IsoperimetricVariant.PAPER_LITERAL, m / 2.0)):
            kappa = scipy_gamma(arg) ** (2.0 / m) / (2.0 * math.pi)
            assert variant.kappa(m) == pytest.approx(kappa, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("m", [342, 1000])
def test_gamma_constants_past_gamma_overflow(m):
    # Gamma(1 + m/2) overflows a double from m = 342; V(342) ~ 8e-225 is normal, V(1000) underflows
    ball = math.exp(0.5 * m * math.log(math.pi) - gammaln(1.0 + m / 2.0))
    assert unit_ball_volume(m) == pytest.approx(ball, rel=1e-12, abs=0.0)
    for variant, arg in ((IsoperimetricVariant.SHARP_BALL, 1.0 + m / 2.0),
                         (IsoperimetricVariant.PAPER_LITERAL, m / 2.0)):
        kappa = math.exp(2.0 / m * gammaln(arg)) / (2.0 * math.pi)
        assert variant.kappa(m) == pytest.approx(kappa, rel=1e-14, abs=0.0)


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
            math.pi * math.log(1.0 / t), rel=1e-12, abs=0.0
        )


def test_exact_measure_constant_step():
    f = Constant(value=1.0, dim=2)
    assert superlevel_measure_exact(f, P2, 2.0) == 0.0  # above the max
    # below the max the superlevel set is a disc of radius given by the weight
    t = 0.5
    expected = math.pi * (2.0 / P2.rate) * math.log(1.0 / t)  # rho^2 = (2/rate) log(1/t)
    assert superlevel_measure_exact(f, P2, t) == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    # the radial profile, which carries the exact measure, exists at every p and alpha or at none
    for p, alpha in [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)]:
        assert Monomial(powers=(1,)).radial_profile(FockParams(2, p, alpha)) is not None
        assert Coherent(center=(1.0, 0.0), alpha=1.0).radial_profile(FockParams(2, p, alpha)) is not None
        assert Constant(value=1.0, dim=3).radial_profile(FockParams(3, p, alpha)) is not None
        assert Monomial(powers=(1, 2)).radial_profile(FockParams(4, p, alpha)) is None
        mixture = SumOfCoherent(atoms=((0.5, (0.0, 0.0)), (0.5, (1.0, 0.0))), alpha=1.0)
        assert mixture.radial_profile(FockParams(2, p, alpha)) is None


@pytest.mark.lanes
def test_mc_measure_matches_exact():
    f = Monomial(powers=(1,))
    t = math.exp(-1.0) / 2.0
    est = superlevel_measure(f, P2, t, samples=400_000, seed=12)
    assert est.stderr > 0
    assert abs(est.value - MONOMIAL_MU_AT_HALF_PEAK) <= 4.0 * est.stderr


@pytest.mark.lanes
def test_mc_measure_states_error_without_hits():
    # a ball of radius 1.32 around a sliver {u > t}: 1000 points miss it, yet mu > 0
    f = next(g for g in default_family_members(2) if isinstance(g, SumOfCoherent))
    params = FockParams(2, 2.0, 1.0)
    t = 0.9999 * find_max(f, params).t_max
    est = superlevel_measure(f, params, t, samples=1000, seed=0)
    assert est.value == 0.0 and est.ball_radius > 1.0
    assert est.stderr > 0


def _cloud_reference_blocks(params, log_grid, samples, seed, rows):
    """The points of _nested_measures drawn on their own: block i of rows (the last of each shell
    ragged) from child i of SeedSequence(seed, spawn_key=(0,)), normals along each ray, r^m uniform
    over the block's shell."""
    radii = np.maximum.accumulate(1.05 * levelset.envelope_radius(Monomial(powers=(1,)), params, log_grid))
    ball = unit_ball_volume(params.m) * radii**params.m
    shell = np.diff(ball, prepend=0.0)
    sizes = [math.ceil(samples * shell[j] / ball[j] * (1.0 - 1e-9)) for j in range(len(log_grid))]
    jobs = [(j, min(rows, n - lo)) for j, n in enumerate(sizes) for lo in range(0, n, rows)]
    children = np.random.SeedSequence(seed, spawn_key=(0,)).spawn(len(jobs))
    blocks = []
    for child, (j, n) in zip(children, jobs):
        rng = np.random.default_rng(child)
        X = rng.standard_normal((n, params.m))
        inner = radii[j - 1] ** params.m if j else 0.0
        r = (inner + rng.random(n) * (radii[j] ** params.m - inner)) ** (1.0 / params.m)
        blocks.append(X * (r / np.linalg.norm(X, axis=1))[:, None])
    return blocks


@pytest.mark.lanes
def test_nested_cloud_points_are_its_block_streams(monkeypatch):
    # blocks of 1000 rows on one lane: shell 0 holds 2500 points in three blocks, shells 1 and 2
    # one ragged block each
    log_grid = np.log(math.exp(-1.0) * np.array([0.9, 0.6, 0.3]))
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 4000)
    monkeypatch.setattr(integrate, "_lane_count", lambda: 1)
    blocks, density = [], levelset._log_density_and_weight
    monkeypatch.setattr(
        levelset, "_log_density_and_weight", lambda f, p, X: blocks.append(X.copy()) or density(f, p, X)
    )
    _nested_measures(Monomial(powers=(1,)), P2, log_grid, 2500, 11)
    ref = _cloud_reference_blocks(P2, log_grid, 2500, 11, 1000)
    assert [len(X) for X in ref][:3] == [1000, 1000, 500] and len(ref) == 5
    assert [len(X) for X in blocks] == [len(X) for X in ref]
    for X, R in zip(blocks, ref):
        np.testing.assert_allclose(X, R, rtol=1e-13, atol=0.0)


def test_level_stream_differs_from_find_max_streams():
    # the cloud's blocks come from children of SeedSequence(seed, spawn_key=(0,)), none of which is
    # default_rng(s'), the find_max stream of any seed
    for s in range(5):
        for child in np.random.SeedSequence(s, spawn_key=(0,)).spawn(3):
            draws = np.random.default_rng(child).random(4)
            for j in range(4):
                assert not np.array_equal(draws, np.random.default_rng(s + j).random(4))


@pytest.mark.lanes
def test_nested_covariance_matches_replicates():
    # annular superlevel sets: levels share the inner shells, so they correlate;
    # the stated Var(e_k) and Var(e_k + e_l) together give every covariance entry
    f = Monomial(powers=(1,))
    log_grid = np.log(math.exp(-1.0) * np.array([0.9, 0.6, 0.3]))
    pairs = list(itertools.combinations(range(3), 2))
    pair_weights = np.array([np.eye(3)[k] + np.eye(3)[l] for k, l in pairs])
    clouds = [_nested_measures(f, P2, log_grid, 1000, seed, weights=pair_weights) for seed in range(2000)]
    empirical = np.cov(np.array([c.mu for c in clouds]).T)
    stated = np.diag(np.mean([c.var for c in clouds], axis=0))
    for i, (k, l) in enumerate(pairs):
        pair_var = np.mean([c.weighted_var[i] for c in clouds])
        stated[k, l] = stated[l, k] = 0.5 * (pair_var - stated[k, k] - stated[l, l])
    sd = np.sqrt(np.diag(stated))
    scale = np.outer(sd, sd)
    assert np.allclose(np.diag(empirical / scale), 1.0, atol=0.15)
    assert np.allclose(empirical / scale, stated / scale, atol=0.12)


@pytest.mark.lanes
def test_nested_weighted_variance_of_a_layer_cake_matches_replicates():
    # the GL16 sum plus tail of a layer cake of G = t^2 over three cells, as weights . mu
    f = Monomial(powers=(1,))
    edges = math.exp(-1.0) * 0.6 ** np.arange(4)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[:-1] - edges[1:])
    nodes, w = np.polynomial.legendre.leggauss(16)
    ts = np.append(mid[:, None] + half[:, None] * nodes, edges[-1])
    weights = np.append(half[:, None] * w * 2.0 * (mid[:, None] + half[:, None] * nodes), edges[-1] ** 2)
    order = np.argsort(-ts)
    clouds = [
        _nested_measures(f, P2, np.log(edges[1:]), 1000, seed, np.log(ts[order]), weights[order])
        for seed in range(1000)
    ]
    empirical = np.var([weights[order] @ c.mu for c in clouds], ddof=1)
    stated = np.mean([c.weighted_var for c in clouds])
    assert abs(empirical / stated - 1.0) <= 0.15


@pytest.mark.lanes
def test_nested_shell_hits_only_thresholds_below_its_top():
    # levels below the top add shells outside B_0, which stay out of the top level's estimate
    f = Monomial(powers=(1,))
    log_grid = np.log(math.exp(-1.0) * np.array([0.9, 0.6, 0.3]))
    top, nested = _nested_measures(f, P2, log_grid[:1], 1000, 3), _nested_measures(f, P2, log_grid, 1000, 3)
    assert (nested.mu[0], nested.var[0]) == (top.mu[0], top.var[0])


@pytest.mark.lanes
@pytest.mark.parametrize("chunk, samples", [(4000, 5500), (1 << 18, 200_000)], ids=["small blocks", "2^16-row blocks"])
def test_nested_measures_do_not_depend_on_the_lane_count(monkeypatch, chunk, samples):
    # lane k takes blocks k, k + lanes, ...; each shell adds up its blocks' counts whichever lane ran them
    # 4 lanes on fewer cores, switching threads every 10 us, to shake out a lost or misplaced block
    f, params = Coherent(center=(0.4, -0.3), alpha=1.0), FockParams(2, 2.5, 1.0)
    log_grid = find_max(f, params).log_t_max + LevelGrid(count=8, ratio=0.7).log_levels()[1:]
    weights = np.linspace(1.0, 2.0, len(log_grid))
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", chunk)
    clouds, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for lanes in (1, 2, 4):
            monkeypatch.setattr(integrate, "_lane_count", lambda lanes=lanes: lanes)
            threads = threading.active_count()
            clouds.append(_nested_measures(f, params, log_grid, samples, 5, weights=weights))
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert clouds[0].weighted_var > 0 and clouds[0].points > samples
    for cloud in clouds[1:]:
        assert np.array_equal(cloud.mu, clouds[0].mu) and np.array_equal(cloud.var, clouds[0].var)
        assert (cloud.weighted_var, cloud.points) == (clouds[0].weighted_var, clouds[0].points)


class _LaneFailure(Exception):
    pass


@pytest.mark.lanes
def test_nested_cloud_lane_failure_is_raised_on_the_caller(monkeypatch):
    # two lanes over five blocks of at most 1000 rows: the worker's first block raises, the caller's run
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 4000)
    monkeypatch.setattr(integrate, "_lane_count", lambda: 2)
    density, callers = levelset._log_density_and_weight, []

    def failing(f, params, X):
        on_worker = threading.current_thread() is not threading.main_thread()
        callers.append(on_worker)
        if on_worker:
            raise _LaneFailure(threading.current_thread().name)
        return density(f, params, X)

    monkeypatch.setattr(levelset, "_log_density_and_weight", failing)
    log_grid = np.log(math.exp(-1.0) * np.array([0.9, 0.6, 0.3]))
    threads = threading.active_count()
    with pytest.raises(_LaneFailure) as info:
        _nested_measures(Monomial(powers=(1,)), P2, log_grid, 2500, 0)
    assert str(info.value) != threading.main_thread().name
    assert sorted(callers) == [False, False, False, True] and threading.active_count() == threads


@pytest.mark.lanes
def test_small_nested_cloud_starts_no_thread(monkeypatch):
    # fewer than 2^16 points in all run in one lane, on the calling thread, whatever the lane count
    monkeypatch.setattr(integrate, "_lane_count", lambda: 4)
    lane, lanes = integrate._lane, []
    monkeypatch.setattr(integrate, "_lane", lambda *args: lanes.append(threading.current_thread()) or lane(*args))
    log_grid = np.log(math.exp(-1.0) * 0.9 ** np.arange(1, 31))
    cloud = _nested_measures(Monomial(powers=(1,)), P2, log_grid, 1000, 0)
    assert lanes == [threading.main_thread()] and 1000 < cloud.points < 1 << 16


@pytest.mark.lanes
def test_nested_measure_above_the_peak_draws_nothing():
    # every ball has radius 0, so no shell holds a point and no block runs
    f = Coherent(center=(0.0, 0.0), alpha=1.0)
    cloud = _nested_measures(f, P2, np.log([2.0, 1.5]), 1000, 0)
    assert cloud.points == 0 and not cloud.mu.any() and not cloud.var.any()


def test_g_diagnostic_memory_budget():
    # 10^6 samples at m = 3 cap the rays at a 2048 x 513 grid.  The coherent state reaches the roundoff floor on
    # the ladder's first grid, 128 x 17 with its coarser 32 x 9: 2.23-2.24 MB measured.  The mixture of
    # default_family_members(3) never settles and runs the cap, its 17 blocks and its coarser grid's 4, at most
    # 2^16 points and 8192 crossings each, one after another on the calling thread: 3.23-3.32 MB measured.  Each
    # budget is about a quarter over its peak.
    params = FockParams(3, 2.0, 1.0)
    mixture = next(g for g in default_family_members(3) if isinstance(g, SumOfCoherent))
    for f, budget in ((Coherent(center=(0.0, 0.0, 0.0), alpha=1.0), 2.8e6), (mixture, 4.1e6)):
        tracemalloc.start()
        try:
            g_diagnostic(f, params, samples=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, f.family


@pytest.mark.lanes
def test_mc_measure_takes_one_threshold():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    for t in (np.array([0.1, 0.2]), np.array([0.1]), [0.1, 0.2]):
        with pytest.raises(InvalidInputError):
            superlevel_measure(f, P2, t, samples=1000)
    assert superlevel_measure(f, P2, np.float64(0.1), samples=1000).value > 0


@pytest.mark.lanes
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
    # kappa(m) = Gamma(1 + m/2)^(2/m) / (2 pi) for the sharp ball, Gamma(m/2)^(2/m) / (2 pi) literally
    # Gamma(3/2) = sqrt(pi)/2, Gamma(2) = 1, Gamma(5/2) = 3 sqrt(pi)/4
    sharp = {1: math.pi / 4.0, 2: 1.0, 3: (0.75 * math.sqrt(math.pi)) ** (2.0 / 3.0)}
    literal = {1: math.pi, 2: 1.0, 3: (0.5 * math.sqrt(math.pi)) ** (2.0 / 3.0)}
    kappa = (sharp if variant is IsoperimetricVariant.SHARP_BALL else literal)[m] / (2.0 * math.pi)
    params = FockParams(m, 2.0, 1.0)
    g = g_from_mu(mu, t, params, variant)
    assert g == pytest.approx(t * math.exp(kappa * params.rate * mu ** (2.0 / m)), rel=1e-12, abs=0.0)


def test_g_from_mu_saturates_to_inf():
    # huge measures push the exponent past the double range; inf, not a raise
    g = g_from_mu(5000.0, 0.5, FockParams(1, 2.0, 1.0), IsoperimetricVariant.PAPER_LITERAL)
    assert g == math.inf


def test_g_from_mu_is_finite_where_g_is():
    # m = 2, p = 2: the exponent is mu / pi = 701, past exp's range, yet g = 1e-300 e^701 ~ 2.76e4
    g = g_from_mu(701.0 * math.pi, 1e-300, P2, IsoperimetricVariant.SHARP_BALL)
    assert g == pytest.approx(1e-300 * math.exp(1.0) * math.exp(700.0), rel=1e-12, abs=0.0)


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
    # the thresholds pass the check of envelope_radius and superlevel_measure: an infinite t is no threshold
    with pytest.raises(InvalidInputError):
        g_from_mu(1.0, math.inf, params, variant)
    with pytest.raises(InvalidInputError):
        g_from_mu(math.nan, 0.5, params, variant)


@pytest.mark.parametrize("call", [find_max, superlevel_measure_exact], ids=lambda c: c.__name__)
def test_dimension_mismatch_is_typed(call):
    # the coherent state has a closed-form peak, so find_max checks before it reads the profile
    f, params = Coherent(center=(0.0, 0.0), alpha=1.0), FockParams(3, 2.0, 1.0)
    args = (0.5,) if call is superlevel_measure_exact else ()
    with pytest.raises(DimensionMismatchError):
        call(f, params, *args)


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
        assert g == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_variants_coincide_in_the_plane():
    a = IsoperimetricVariant.SHARP_BALL.kappa(2)
    b = IsoperimetricVariant.PAPER_LITERAL.kappa(2)
    assert a == pytest.approx(b, rel=1e-14, abs=0.0)
    assert a == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14, abs=0.0)


def test_literal_variant_power_law_m3():
    # centered coherent in m=3 with the literal constant: g(t) = t^(1 - (2/3)^(2/3))
    f = Coherent(center=(0.0, 0.0, 0.0), alpha=1.0)
    params = FockParams(3, 2.0, 1.0)
    expo = 1.0 - (2.0 / 3.0) ** (2.0 / 3.0)
    for t in (0.9, 0.5, 0.05):
        mu = superlevel_measure_exact(f, params, t)
        g = g_from_mu(mu, t, params, IsoperimetricVariant.PAPER_LITERAL)
        assert g == pytest.approx(t**expo, rel=1e-12, abs=0.0)


def test_level_grid_contract():
    grid = LevelGrid(count=10, ratio=0.8)
    levels = grid.log_levels()  # log(t_k / t_max), the peak first
    assert len(levels) == 11 and levels[0] == 0.0
    assert math.exp(levels[1]) == pytest.approx(0.8)
    assert np.all(np.diff(levels) < 0)
    assert len(grid.log_levels(count=3)) == 4
    with pytest.raises(InvalidInputError):
        LevelGrid(count=0, ratio=0.9)
    with pytest.raises(InvalidInputError):
        LevelGrid(count=10, ratio=1.1)
    with pytest.raises(InvalidInputError):  # as FockParams does for m
        LevelGrid(count=2.5, ratio=0.9)
    assert type(LevelGrid(count=3.0).count) is int


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


def test_violation_flags_follow_the_levels_at_every_scale():
    # at delta = -400 the grid underflows to 0, so flags matched on t would mark every level
    f = Coherent(center=(0.0, 0.0, 0.0), alpha=1.0)
    params = FockParams(3, 2.0, 1.0)

    def flags(g):
        return g_diagnostic(
            g, params, LevelGrid(count=15, ratio=0.85), IsoperimetricVariant.PAPER_LITERAL, 20_000
        ).violation_flags()

    base, low = flags(f), flags(f.log_shifted(-400.0))
    assert 0 < base.sum() < base.size
    assert np.array_equal(low, base)


@pytest.mark.parametrize("f", default_family_members(2), ids=lambda f: f.family)
def test_level_profile_is_invariant_under_scaling(f):
    # u -> e^(p delta) u leaves every relative level, and so mu and the flags, where they are;
    # at delta = +-400 and p = 2, t_max = e^(+-800) is no double
    grid = LevelGrid(count=12, ratio=0.8)
    base = g_diagnostic(f, P2, grid, samples=20_000, seed=4)
    for delta in (-400.0, 400.0):
        prof = g_diagnostic(f.log_shifted(delta), P2, grid, samples=20_000, seed=4)
        np.testing.assert_allclose(prof.mu, base.mu, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(prof.mu_stderr, base.mu_stderr, rtol=1e-9, atol=0.0)
        assert np.array_equal(prof.violation_flags(), base.violation_flags())
        assert prof.log_t_max == pytest.approx(base.log_t_max + 2.0 * delta, rel=0.0, abs=1e-12)


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
# superlevel measures from ray crossings (m <= 3)


def _radial_params(f):
    return FockParams(f.m, 2.0, 1.0)


_RAY_RADIAL = [
    (f, _radial_params(f))
    for m in (1, 2, 3)
    for f in default_family_members(m)
    if f.radial_profile(_radial_params(f)) is not None
] + [
    (Coherent(center=(0.8,), alpha=1.0), FockParams(1, 2.0, 1.0)),
    (Coherent(center=(1.5, -0.5), alpha=1.0), FockParams(2, 2.0, 1.0)),
    (Coherent(center=(0.7, -0.3), alpha=1.0), FockParams(2, 3.0, 1.0)),
    (Coherent(center=(-1.0, 0.5, 0.25), alpha=1.0), FockParams(3, 2.0, 1.0)),
]


def _ray_case_id(case):
    f, params = case
    return f"{f.family}{getattr(f, 'powers', '')}-m{f.m}-{getattr(f, 'center', '')}-p{params.p:g}"


@pytest.mark.parametrize("grid", [LevelGrid(), LevelGrid(30, 0.85)], ids=["60x0.9", "30x0.85"])
@pytest.mark.parametrize("case", _RAY_RADIAL, ids=_ray_case_id)
def test_ray_measure_lies_within_its_error_of_the_closed_form(case, grid):
    # every level, no slack: a bound that under-covers the root or sum errors fails here
    f, params = case
    prof = g_diagnostic(f, params, grid)
    exact = superlevel_measure_exact(f, params, prof.t_grid)
    assert prof.rule == "rays" and prof.ray_grid is not None
    assert np.all(prof.mu_stderr > 0)
    assert np.all(np.abs(prof.mu - exact) <= prof.mu_stderr)


_RAY_NON_RADIAL = [
    (next(g for g in default_family_members(2) if isinstance(g, Polynomial)), P2),
    (next(g for g in default_family_members(3) if isinstance(g, SumOfCoherent)), FockParams(3, 2.0, 1.0)),
    (Monomial(powers=(1,)), P2),
]


@pytest.mark.parametrize("chunk", [4000, 1 << 18], ids=["small blocks", "2^16-point blocks"])
@pytest.mark.parametrize("case", _RAY_NON_RADIAL, ids=_ray_case_id)
def test_ray_measures_do_not_depend_on_the_lane_count(monkeypatch, case, chunk):
    # the ray blocks run in turn on the calling thread, so no lane count moves a bit or starts a thread
    f, params = case
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", chunk)
    profiles, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for lanes in (1, 2, 4):
            monkeypatch.setattr(integrate, "_lane_count", lambda lanes=lanes: lanes)
            threads = threading.active_count()
            profiles.append(g_diagnostic(f, params, LevelGrid(20, 0.8), samples=50_000))
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    for prof in profiles[1:]:
        assert np.array_equal(prof.mu, profiles[0].mu) and np.array_equal(prof.mu_stderr, profiles[0].mu_stderr)
        assert prof.points == profiles[0].points


def _verify_cli_specs():
    from focklab.cli import parse_function_spec

    specs = ("coherent:a=1,0;alpha=1", "monomial:k=1", "sumcoherent:w=0.7;a=0.5,0;w=0.3;a=-1,0")
    return [(parse_function_spec(spec), P2) for spec in specs]


_NO_TRADE = [(f, _radial_params(f)) for m in (2, 3) for f in default_family_members(m)] + _verify_cli_specs()


@pytest.mark.lanes
@pytest.mark.parametrize("case", _NO_TRADE, ids=_ray_case_id)
def test_ray_error_is_within_the_cloud_sd(case):
    # at the same samples and grid the rays state no larger error than the cloud's sd, at every level
    f, params = case
    prof = g_diagnostic(f, params, samples=200_000, seed=0)
    cloud = _nested_measures(f, params, prof.log_t_max + LevelGrid().log_levels()[1:], 200_000, 0)
    assert np.all(prof.mu_stderr <= np.sqrt(cloud.var))


@pytest.mark.parametrize(
    "f",
    [pytest.param(f, marks=pytest.mark.lanes if m == 4 else ()) for m in (2, 3, 4) for f in default_family_members(m)],
    ids=lambda f: f"{f.family}-m{f.m}",
)
def test_ray_measures_are_bit_identical_under_scaling(f):
    # both rules, the rays (m <= 3) and the cloud (m = 4), run on f with log_scale 0 and on thresholds relative
    # to that function's own peak
    params, grid = _radial_params(f), LevelGrid(12, 0.8)
    base = g_diagnostic(f, params, grid, samples=20_000, seed=4)
    for delta in (-400.0, -1.5, 30.0):
        prof = g_diagnostic(f.log_shifted(delta), params, grid, samples=20_000, seed=4)
        assert np.array_equal(prof.mu, base.mu) and np.array_equal(prof.mu_stderr, base.mu_stderr)


@pytest.mark.parametrize(
    "f,params,grid",
    [
        (next(g for g in default_family_members(2) if isinstance(g, Polynomial)), P2, None),
        # stops on 128 x 17, whose half grid of 32 x 9, a second pass at m = 3, is evaluated too
        (Coherent(center=(0.0, 0.0, 0.0), alpha=1.0), FockParams(3, 2.0, 1.0), (128, 17)),
    ],
    ids=["poly-m2", "coherent-m3"],
)
def test_ray_points_count_every_density_evaluation(monkeypatch, f, params, grid):
    # every grid, the m = 3 half grid too, and every refinement step go through the private density call, and
    # nothing else does
    density, calls = levelset._log_density_and_weight, []
    monkeypatch.setattr(levelset, "_log_density_and_weight", lambda f, p, X: calls.append(len(X)) or density(f, p, X))
    prof = g_diagnostic(f, params, LevelGrid(10, 0.8), samples=20_000)
    directions, radii = prof.ray_grid
    assert grid is None or prof.ray_grid == grid
    assert prof.points == sum(calls) > directions * radii
    assert check_monotone_g(prof).details["rule"] == "rays"


@pytest.mark.lanes
def test_g_diagnostic_keeps_the_cloud_from_m4():
    # m >= 4 takes mu and its sd from _nested_measures, bit for bit
    f, params, grid = Monomial(powers=(1, 1)), FockParams(4, 2.0, 1.0), LevelGrid(10, 0.8)
    prof = g_diagnostic(f, params, grid, samples=20_000, seed=3)
    cloud = _nested_measures(f, params, prof.log_t_max + grid.log_levels()[1:], 20_000, 3)
    assert prof.rule == "cloud" and prof.ray_grid is None
    assert np.array_equal(prof.mu, cloud.mu) and np.array_equal(prof.mu_stderr, np.sqrt(cloud.var))
    assert prof.points == cloud.points


# the ladder of ray grids: a level set seen whole from the centre stops at the roundoff floor, a hole off the
# centre runs to the grid that `samples` caps


def _floor_cases():
    """(case, samples, grid): the benchmark's ray cases at their samples and at 10,000 and 20,000, and two bumps."""
    names = ["coherent-m3", "verify-coherent", "verify-monomial", "verify-sumcoherent"]
    cases = [(Coherent(center=(0.0, 0.0, 0.0), alpha=1.0), FockParams(3, 2.0, 1.0))] + _verify_cli_specs()
    grids = [(128, 17), (64, 17), (64, 129), (128, 17)]
    for name, case, samples, grid in zip(names, cases, [1_000_000, 200_000, 200_000, 200_000], grids):
        yield pytest.param(case, samples, grid, id=name)
        for s in (10_000, 20_000):
            # 10,000 samples cap the monomial at 64 cells, fewer than the 128 it needs, so it runs to the cap
            capped = (name, s) == ("verify-monomial", 10_000)
            yield pytest.param(case, s, (256, 65) if capped else grid, id=f"{name}-{s}")
    two_bumps = SumOfCoherent(atoms=((0.7, (0.0, 0.0)), (0.3, (-2.0, -1.0))), alpha=1.0)
    for s in (20_000, 200_000, 1_000_000):
        yield pytest.param((two_bumps, P2), s, (256, 17), id=f"two-bumps-{s}")


@pytest.mark.parametrize("case,samples,grid", _floor_cases())
def test_ray_ladder_stops_at_the_roundoff_floor(case, samples, grid):
    # the monomial's rays start on its zero, so its cells must shrink past its innermost crossing; the others stop
    # on the first grid or after one or two angular doublings, the two bumps' second atom off the centre too.  The
    # grid a ladder stops on does not depend on `samples` unless the cap binds
    f, params = case
    assert g_diagnostic(f, params, samples=samples).ray_grid == grid


def _ladder_and_cap(f, params, samples):
    """g_diagnostic's profile, and the one the grid `samples` caps gives alone (its ladder starts on it)."""
    ladder = g_diagnostic(f, params, samples=samples)
    cap = levelset._ray_grid(params.m, samples)
    with mock.patch.object(levelset, "_ray_grid", lambda m, samples: cap):
        return ladder, g_diagnostic(f, params, samples=samples)


def _assert_the_ladder_keeps_to_its_cap(ladder, alone):
    # within their errors of each other, no larger error, and at most a quarter more evaluations
    assert np.all(np.abs(ladder.mu - alone.mu) <= ladder.mu_stderr + alone.mu_stderr)
    assert np.all(ladder.mu_stderr <= alone.mu_stderr)
    assert ladder.points <= 1.25 * alone.points


@pytest.mark.parametrize("case", _RAY_RADIAL + _NO_TRADE, ids=_ray_case_id)
def test_ray_ladder_keeps_to_its_cap(case):
    _assert_the_ladder_keeps_to_its_cap(*_ladder_and_cap(*case, 200_000))


def test_ray_ladder_leaves_an_m3_mixture_for_its_cap():
    # the default m = 3 mixture never settles; at m = 3 an angular step would reuse nothing, so the ladder leaves
    # its first grid for the cap and pays little beyond the cap alone
    f = next(g for g in default_family_members(3) if isinstance(g, SumOfCoherent))
    ladder, alone = _ladder_and_cap(f, FockParams(3, 2.0, 1.0), 1_000_000)
    assert ladder.ray_grid == alone.ray_grid == (2048, 513)
    assert ladder.points <= 1.05 * alone.points


@settings(derandomize=True, deadline=None, max_examples=8)
@given(
    m=st.sampled_from([2, 3]),
    theta=st.floats(0.0, 2.0 * math.pi),
    z=st.floats(-1.0, 1.0),
    distance=st.floats(1.0, 2.5),
    weight=st.floats(0.1, 0.4),
)
def test_ray_ladder_keeps_to_its_cap_on_two_bumps(m, theta, z, distance, weight):
    # a second atom at a random direction sits off the centre the rays start from
    s = math.sqrt(1.0 - z * z) if m == 3 else 1.0
    direction = (s * math.cos(theta), s * math.sin(theta), z)[:m]
    f = SumOfCoherent(atoms=((1.0 - weight, (0.0,) * m), (weight, tuple(distance * c for c in direction))), alpha=1.0)
    _assert_the_ladder_keeps_to_its_cap(*_ladder_and_cap(f, FockParams(m, 2.0, 1.0), 200_000))


@functools.lru_cache(maxsize=None)
def _hole_profile(k, samples):
    # z0^k as a polynomial has no radial profile: its rays start at the find_max argmax on the ring of maxima,
    # from where the zero at the origin is a small hole off the centre
    return g_diagnostic(Polynomial(terms={(k,): 1.0}), P2, samples=samples)


_HOLES = [(1, 20_000, (256, 129)), (1, 200_000, (1024, 257)), (1, 1_000_000, (2048, 513)), (2, 200_000, (1024, 257))]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 14, holes off the centre: the doubling gap of a chord with square-root edges in the "
    "angle can fall short of the grid's error",
)
@pytest.mark.parametrize("k,samples", [hole[:2] for hole in _HOLES])
def test_ray_error_covers_a_hole_off_the_centre(k, samples):
    prof = _hole_profile(k, samples)
    exact = superlevel_measure_exact(Monomial(powers=(k,)), P2, prof.t_grid)
    assert np.all(np.abs(prof.mu - exact) <= prof.mu_stderr)


@pytest.mark.parametrize("k,samples,grid", _HOLES)
def test_ray_ladder_runs_a_hole_to_the_cap(k, samples, grid):
    # the gap over a hole decays only algebraically: a stop rule that let these stop early would trust it
    assert _hole_profile(k, samples).ray_grid == grid


@pytest.mark.lanes
def test_nested_weight_rows_match_one_dimensional_calls():
    # a 2-D weights array gives one weighted_var per row, each with the bits of its own 1-D call
    log_grid = np.log(math.exp(-1.0) * np.array([0.9, 0.6, 0.3]))
    rows = np.array([[1.0, 0.0, 2.0], [0.5, 1.5, -1.0]])
    both = _nested_measures(Monomial(powers=(1,)), P2, log_grid, 5000, 7, weights=rows)
    for row, w in zip(both.weighted_var, rows):
        assert row == _nested_measures(Monomial(powers=(1,)), P2, log_grid, 5000, 7, weights=w).weighted_var


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


@pytest.mark.parametrize(
    "G, exact",
    [
        (PiecewiseLinear(knots=(0.1,), slopes=(1.0, 3.0)), None),
        (Power(2.0), math.pi / 4.0),  # int u^2 dA = pi/4
    ],
    ids=["piecewise-linear", "power"],
)
def test_layer_cake_through_each_derivative(G, exact):
    # the exact-radial layer cake integrates mu * G', so each derivative rule is exercised
    res = layer_cake(Monomial(powers=(1,)), P2, G)
    assert res.mu_mode == "exact-radial"
    assert res.discrepancy <= 3.0 * (res.error_bound + res.direct_error) + 1e-12
    if exact is not None:
        assert res.value == pytest.approx(exact, abs=1e-5)


def test_layer_cake_rule_gap_covers_a_coarse_grid():
    # ratio 0.1 leaves GL16 a visible error on the top cell, where mu has a square-root edge
    res = layer_cake(Monomial(powers=(1,)), P2, Power(2.0), grid=LevelGrid(count=2, ratio=0.1))
    assert res.mu_mode == "exact-radial"
    assert 1e-6 < abs(res.value - math.pi / 4.0) <= res.error_bound


@pytest.mark.lanes
def test_layer_cake_mc_fallback():
    f = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
    res = layer_cake(
        f, P2, Power(2.0), grid=LevelGrid(count=120, ratio=0.95), samples=200_000, seed=0
    )
    assert res.mu_mode == "mc"
    assert res.discrepancy <= 3.0 * (res.error_bound + res.direct_error) + 1e-12


@pytest.mark.lanes
@pytest.mark.parametrize(
    "family, r",
    [(Polynomial, 2.0), (Polynomial, 4.0), (SumOfCoherent, 4.0)],
    ids=["poly-t2", "poly-t4", "sumcoherent-t4"],
)
def test_layer_cake_mc_covers_direct_on_the_default_grid(family, r):
    # the 60-level, 0.9 grid: the t-rule's own error has to be in the bound
    f = next(g for g in default_family_members(2) if isinstance(g, family))
    for seed in range(3):
        res = layer_cake(f, P2, Power(r), grid=LevelGrid(), samples=200_000, seed=seed)
        assert res.mu_mode == "mc"
        assert res.discrepancy <= 3.0 * (res.error_bound + res.direct_error)
        fields = (res.value, res.error_bound, res.direct_value, res.direct_error, res.discrepancy, res.t_max)
        assert all(type(v) is float for v in fields)
