"""Inequality checks: contraction, bounds, limits, rearrangement, isoperimetry."""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln

from focklab import (
    Coherent,
    Constant,
    FockParams,
    GaussHermite,
    InvalidInputError,
    MethodUnavailableError,
    Monomial,
    MonteCarlo,
    NormEstimate,
    PiecewiseLinear,
    Polynomial,
    Power,
    Radial,
    SumOfCoherent,
    convex_functional,
    default_family_members,
    fock_norm,
)
from focklab import verify
from focklab.functions import TestFunction as _TestFunction
from focklab.levelset import IsoperimetricVariant, LevelGrid, find_max, g_diagnostic, layer_cake, superlevel_measure
from focklab.verify import (
    LogPowerPhi,
    PowerDecayProfile,
    PowerPhi,
    PowerPsi,
    TabulatedProfile,
    check_contraction,
    check_decay,
    check_extremal_convex,
    check_isoperimetric_variant,
    check_limit_norm,
    check_monotone_g,
    check_pointwise_bound,
    check_rearrangement_lemma,
    random_rearrangement_case,
    richardson_limit,
)
from focklab.verify import (  # white-box cross-checks
    _gamma_q,
    _lemma_closed_form,
    _lemma_integral,
    _lemma_s_max,
    _log_gamma_lower,
)

P2 = FockParams(2, 2.0, 1.0)
GH16 = GaussHermite(16)

# closed-form contraction margin for |z| norms between p=2 and p=4 at alpha=1
MONOMIAL_MARGIN_2_TO_4 = 0.1591035847462855


def ladder_oracle(p: float) -> float:
    """|z| norm at alpha=1 from the radial closed form."""
    return math.sqrt(2.0 / p) * math.exp(gammaln(1.0 + p / 2.0) / p)


# ---------------------------------------------------------------------------
# extrapolation


def test_richardson_constant_ladder():
    assert richardson_limit([2.0, 2.0, 2.0]) == pytest.approx(2.0, abs=1e-14)
    assert richardson_limit([5.0]) == 5.0


def test_richardson_on_closed_form_ladder():
    values = [ladder_oracle(p) for p in (2, 4, 8, 16, 32, 64)]
    limit = richardson_limit(values)
    assert limit == pytest.approx(0.6066545369440786, abs=1e-12)
    assert abs(limit - math.exp(-0.5)) <= 1.3e-4


# ---------------------------------------------------------------------------
# contraction


def test_contraction_monomial_frozen_margin():
    report = check_contraction(Monomial(powers=(1,)), 2.0, 4.0, 1.0)
    assert report.passed
    assert report.margin == pytest.approx(MONOMIAL_MARGIN_2_TO_4, abs=1e-9)
    assert not report.details["equality_detected"]


def test_contraction_coherent_equality():
    report = check_contraction(Coherent(center=(1.0, 0.0), alpha=1.0), 2.0, 4.0, 1.0)
    assert report.passed
    assert abs(report.margin) <= 1e-6
    assert report.details["equality_detected"]


def test_contraction_equality_at_any_scale():
    # e^40 times a coherent state: norms near 2.4e17, whose roundoff dwarfs any fixed floor
    report = check_contraction(Coherent(center=(1.0, 0.0), alpha=1.0).log_shifted(40.0), 2.0, 4.0, 1.0,
                               method=GH16)
    assert report.passed and report.details["equality_detected"]
    # a constant is a multiple of the coherent state at 0: an equality case as well
    report = check_contraction(Constant(value=1.0, dim=2), 2.0, 4.0, 1.0, method=GH16)
    assert report.passed and report.details["equality_detected"]


def test_contraction_requires_ordered_exponents():
    with pytest.raises(InvalidInputError):
        check_contraction(Monomial(powers=(1,)), 4.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# monotone diagnostic wrapper


def test_monotone_check_passes_on_clean_profile():
    prof = g_diagnostic(
        Coherent(center=(1.0,), alpha=1.0),
        FockParams(1, 2.0, 1.0),
        grid=LevelGrid(count=15, ratio=0.85),
        samples=50_000,
        seed=0,
    )
    report = check_monotone_g(prof)
    assert report.passed and report.margin == 0.0


@pytest.mark.parametrize(
    "check,count",
    [
        (find_max, {"restarts": -1}),
        (check_decay, {"n_radii": 0}),
        (check_decay, {"n_directions": -1}),
        (check_pointwise_bound, {"n_points": 0}),
        (find_max, {"restarts": 2.5}),
        (check_decay, {"n_radii": 2.5}),
        (check_decay, {"n_directions": 2.5}),
        (check_pointwise_bound, {"n_points": math.nan}),
        (g_diagnostic, {"samples": math.nan}),
        (g_diagnostic, {"samples": math.inf}),
        (lambda f, params, **count: layer_cake(f, params, Power(2.0), **count), {"samples": math.nan}),
        (lambda f, params, **count: fock_norm(f, params, MonteCarlo(**count)), {"samples": math.nan}),
        (lambda f, params, **count: fock_norm(f, params, MonteCarlo(**count)), {"samples": math.inf}),
        (lambda f, params, **count: fock_norm(f, params, GaussHermite(**count)), {"nodes_per_axis": math.nan}),
        (lambda f, params, **count: fock_norm(f, params, GaussHermite(**count)), {"nodes_per_axis": 8.9}),
        (lambda f, params, **count: fock_norm(f, params, Radial(**count)), {"radial_nodes": math.nan}),
    ],
    ids=[
        "restarts", "n_radii", "n_directions", "n_points", "restarts=2.5", "n_radii=2.5", "n_directions=2.5",
        "n_points=nan", "g samples=nan", "g samples=inf", "layer cake samples=nan", "mc samples=nan",
        "mc samples=inf", "gh nodes=nan", "gh nodes=8.9", "radial nodes=nan",
    ],
)
def test_bad_counts_raise_typed_errors(check, count):
    # the polynomial has no radial profile, so find_max would run its search
    f = next(g for g in default_family_members(2) if isinstance(g, Polynomial))
    with pytest.raises(InvalidInputError):
        check(f, FockParams(2, 2.0, 1.0), **count)


_MIXTURE = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
_SEEDED = {
    "find_max searched": lambda seed: find_max(_MIXTURE, P2, seed=seed),
    "find_max closed form": lambda seed: find_max(Coherent(center=(1.0, 0.0), alpha=1.0), P2, seed=seed),
    "g_diagnostic": lambda seed: g_diagnostic(
        next(g for g in default_family_members(2) if isinstance(g, Polynomial)), P2, samples=1000, seed=seed
    ),
    "layer_cake exact": lambda seed: layer_cake(Monomial(powers=(1,)), P2, Power(2.0), seed=seed),
    "superlevel_measure": lambda seed: superlevel_measure(_MIXTURE, P2, 0.1, samples=1000, seed=seed),
    "MonteCarlo": lambda seed: MonteCarlo(1000, seed=seed),
    "check_pointwise_bound": lambda seed: check_pointwise_bound(Monomial(powers=(1,)), P2, n_points=10, seed=seed),
    "check_decay": lambda seed: check_decay(Coherent(center=(1.0, 0.0), alpha=1.0), P2, seed=seed),
    "check_limit_norm": lambda seed: check_limit_norm(Monomial(powers=(1,)), 1.0, seed=seed),
}


@pytest.mark.parametrize("seed", [2.5, math.nan, -1, "0"], ids=["2.5", "nan", "-1", "str"])
@pytest.mark.parametrize("call", list(_SEEDED.values()), ids=list(_SEEDED))
def test_bad_seeds_raise_typed_errors(call, seed):
    # every entry that takes a seed refuses one that is not a nonnegative integer, also where it ignores it
    with pytest.raises(InvalidInputError, match="seed must be a nonnegative integer"):
        call(seed)


def test_layer_cake_checks_samples_on_the_radial_branch():
    # exact radial measures never read samples, but a nan count is still refused
    with pytest.raises(InvalidInputError, match="samples"):
        layer_cake(Coherent(center=(1.0, 0.0), alpha=1.0), P2, Power(2.0), samples=math.nan)


def test_monotone_check_reports_points():
    def profile():
        return g_diagnostic(
            Coherent(center=(0.0, 0.0), alpha=1.0),
            FockParams(2, 2.0, 1.0),
            grid=LevelGrid(count=10, ratio=0.8),
            samples=10_000,
            seed=4,
        )

    prof = profile()
    # 10,000 samples cap the ray grid at 256 directions x 65 radii, but the centred coherent state reaches the
    # roundoff floor on the ladder's first grid, 64 x 17: 5,770 points, grid and refinements together.  A fresh
    # cloud per level would cost count x samples
    assert prof.points == 5_770 < 10 * 10_000
    details = check_monotone_g(prof).details
    assert details["points"] == prof.points == profile().points
    assert details["ray_grid"] == prof.ray_grid == (64, 17)


def test_monotone_check_fails_on_literal_m3():
    prof = g_diagnostic(
        Coherent(center=(0.0, 0.0, 0.0), alpha=1.0),
        FockParams(3, 2.0, 1.0),
        grid=LevelGrid(count=15, ratio=0.85),
        variant=IsoperimetricVariant.PAPER_LITERAL,
        samples=50_000,
        seed=0,
    )
    report = check_monotone_g(prof)
    assert not report.passed
    assert report.margin < 0
    assert report.details["n_violations"] > 0


# ---------------------------------------------------------------------------
# pointwise bound and decay


def test_pointwise_bound_coherent_equality():
    report = check_pointwise_bound(Coherent(center=(1.0, 0.0), alpha=1.0), P2)
    assert report.passed
    assert abs(report.details["equality_gap_at_center"]) <= 1e-9


@dataclass(frozen=True, kw_only=True)
class _Bump(_TestFunction):
    """|f| = exp(-5|x|^2) on R^2: log|f| is superharmonic, so the paper's bound need not hold."""

    @property
    def m(self):
        return 2

    @property
    def family(self):
        return "bump"

    def _log_abs_raw(self, X):
        return -5.0 * np.sum(X * X, axis=1)


@pytest.mark.parametrize("delta", [0.0, -5.0, -10.0, -12.0, -20.0])
def test_pointwise_bound_fails_a_bump_at_every_scale(delta):
    # the p-th power of the norm is 1/11 of the density's peak, whatever the scale
    report = check_pointwise_bound(_Bump().log_shifted(delta), P2, n_points=1_000, method=GH16)
    assert not report.passed
    assert report.margin < -10.0 * report.tolerance


def test_search_needs_a_jet():
    # the bump has neither a radial profile nor a jet of log|f|, so no check can find its peak
    for find in (
        lambda: find_max(_Bump(), P2),
        lambda: check_decay(_Bump(), P2),
        lambda: g_diagnostic(_Bump(), P2, samples=10_000),
    ):
        with pytest.raises(MethodUnavailableError, match="_log_abs_jet"):
            find()


def test_pointwise_bound_monomial():
    report = check_pointwise_bound(Monomial(powers=(1,)), P2, n_points=5_000, seed=1)
    assert report.passed
    assert report.margin > 0


def test_decay_along_rays():
    for f in (
        Coherent(center=(1.0, 0.0), alpha=1.0),
        Monomial(powers=(2,)),
        SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0),
    ):
        report = check_decay(f, P2)
        assert report.passed, (f.family, report.details)
        d = report.details
        assert 0.0 <= d["worst_tail_fraction"] < 1e-6 and d["r_envelope"] < d["r_max"]


def test_decay_margin_follows_the_verdict():
    for f in default_family_members(2):
        report = check_decay(f, P2)
        assert report.passed == (report.margin >= -report.tolerance), f.family


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_decay_passes_through_a_zero_of_f_far_out(alpha):
    # z0 - 6 vanishes at |z| = 6, far out on the ray along +z0, where the density rises again off its zero; it
    # still dies, so the check passes at every alpha, wherever the zero falls among the sampled radii
    report = check_decay(Polynomial(terms={(0,): -6.0, (1,): 1.0}), FockParams(2, 2.0, alpha))
    assert report.passed and report.tolerance == 0.0 and report.margin >= 0.0


def test_decay_fails_where_the_envelope_is_too_small(monkeypatch):
    # the sampled density is checked against the closed-form envelope, not against itself: an envelope 10% short
    # leaves sampled values above the fraction it stands for
    envelope = verify.envelope_radius
    monkeypatch.setattr(verify, "envelope_radius", lambda f, params, log_t: 0.9 * envelope(f, params, log_t))
    report = check_decay(Coherent(center=(1.0, 0.0), alpha=1.0), P2)
    assert not report.passed and report.margin < 0.0 and report.details["worst_tail_fraction"] > 1e-6


def test_decay_reports_how_t_max_was_found():
    # radial families take t_max in closed form and run no search beside it
    for f in (Coherent(center=(1.0, 0.0), alpha=1.0), Monomial(powers=(2,))):
        d = check_decay(f, P2).details
        assert (d["max_rule"], d["restarts_agreeing"], d["restarts_total"]) == ("closed_form", 0, 0)
        assert d["gradient_norm"] == 0.0 and max(d["hessian_eigenvalues"]) <= 0.0
        assert "log_t_max_search" not in d and "log_t_max_gap" not in d
    mixture = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
    d = check_decay(mixture, P2).details
    assert d["max_rule"] == "newton" and d["restarts_total"] == 19
    assert d["gradient_norm"] <= 1e-8 and len(d["hessian_eigenvalues"]) == 2 and max(d["hessian_eigenvalues"]) < 0.0
    assert 1 <= d["restarts_agreeing"] <= 19
    assert "log_t_max_search" not in d and "log_t_max_gap" not in d


# ---------------------------------------------------------------------------
# limit norm


def test_limit_norm_monomial():
    report = check_limit_norm(Monomial(powers=(1,)), 1.0)
    assert report.passed
    assert report.details["sup_norm"] == pytest.approx(math.exp(-0.5), rel=1e-9)
    ladder = report.details["ladder"]
    assert all(b < a for a, b in zip(ladder, ladder[1:]))
    assert report.details["extrapolation_gap"] <= 1e-3


def test_limit_norm_reports_how_t_max_was_found():
    d = check_limit_norm(Monomial(powers=(1,)), 1.0).details
    assert (d["max_rule"], d["restarts_agreeing"], d["restarts_total"]) == ("closed_form", 0, 0)
    assert d["argmax"] == [1.0, 0.0]  # centre + r e_1 on the peak circle r = 1
    assert d["sup_norm"] == math.exp(-0.5)
    mixture = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
    d = check_limit_norm(mixture, 1.0).details
    assert d["max_rule"] == "newton" and d["restarts_total"] == 19


def test_limit_norm_coherent_flat_ladder():
    report = check_limit_norm(Coherent(center=(1.0, 0.0), alpha=1.0), 1.0)
    assert report.passed
    assert np.max(np.abs(np.asarray(report.details["ladder"]) - 1.0)) <= 1e-6


def test_limit_norm_flat_ladder_tolerates_roundoff():
    # this ladder reads 1.0, 0.9999999999999998, 0.9999999999999999, 1.0, ...
    f = Coherent(center=(0.18902713714856834, 0.05509667889786518), alpha=1.0)
    report = check_limit_norm(f, 1.0)
    assert report.passed, report.margin


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the peak of 1 + 0.5i z0^2 at 0 is degenerate (u = 1 - s^2/4 + ... in "
    "s = |z|^2), so the ladder's error is not the nondegenerate expansion that the factor-2 "
    "Richardson elimination assumes; the extrapolated 0.99497 misses the sup norm 1 by 5e-3 > 1e-3",
)
def test_limit_norm_degenerate_peak_of_readme_polynomial():
    # the README's example spec poly:1;0.5i*z0^2 on R^2
    f = Polynomial(terms=(((0,), 1.0 + 0.0j), ((2,), 0.5j)))
    report = check_limit_norm(f, 1.0)
    assert report.details["sup_norm"] == pytest.approx(1.0, rel=1e-9)
    assert report.passed, report.details["extrapolated"]


def test_limit_norm_rejects_unordered_ladder():
    with pytest.raises(InvalidInputError):
        check_limit_norm(Monomial(powers=(1,)), 1.0, p_ladder=(4.0, 2.0))


@pytest.mark.parametrize("p_ladder", [(2.0,), ()], ids=["one_rung", "empty"])
def test_limit_norm_rejects_ladder_without_a_pair(p_ladder):
    # the monotonicity margin compares adjacent rungs, so it needs at least one pair
    with pytest.raises(InvalidInputError, match="at least two rungs"):
        check_limit_norm(Monomial(powers=(1,)), 1.0, p_ladder=p_ladder)


# ---------------------------------------------------------------------------
# extremality of coherent states


def test_extremal_monomial_frozen_margin():
    # J(coherent) = pi/2 and J(z-monomial) = pi/4 for G = t^2 in the plane
    report = check_extremal_convex(Monomial(powers=(1,)), P2, Power(2.0))
    assert report.passed
    assert report.details["functional_at_coherent"] == pytest.approx(math.pi / 2, abs=1e-9)
    assert report.margin == pytest.approx(math.pi / 4, abs=1e-9)


def test_extremal_coherent_is_equality():
    report = check_extremal_convex(Coherent(center=(1.0, 0.0), alpha=1.0), P2, Power(2.0))
    assert report.passed
    assert abs(report.margin) <= 1e-9
    assert report.details["equality_detected"]


_MC200K = MonteCarlo(samples=200_000)


@pytest.mark.parametrize("kappa", [0.9, 0.97])
def test_extremal_norm_term_covers_the_first_order_change(kappa):
    # G = (t - k)_+ with its knot near the peak e^-1 of |z|^2 e^-|z|^2: the elasticity
    # E = int u G'(u) / int G(u) is far above 2, and an error d of the norm moves J(f/|f|)
    # by about p d E J to first order
    f, G = Monomial(powers=(1,)), PiecewiseLinear(knots=(kappa * math.exp(-1.0),), slopes=(0.0, 1.0))
    report = check_extremal_convex(f, P2, G, method=_MC200K)
    est = fock_norm(f, P2, method=_MC200K)
    f_unit, h = f.log_shifted(-math.log(est.value)), 1e-3

    def J(s):
        return convex_functional(f_unit.log_shifted(s), P2, G, method=GaussHermite(128)).value

    E = (J(h) - J(-h)) / (2.0 * h * P2.p * J(0.0))
    assert E > 10.0
    first_order = P2.p * (est.value_error / est.value) * E * report.details["functional_at_f"]
    assert report.details["norm_error_term"] >= first_order


@pytest.mark.parametrize("method", [GH16, _MC200K], ids=["gh16", "mc"])
@pytest.mark.parametrize("r", [1.0, 2.0, 3.5])
def test_extremal_norm_term_of_a_power(method, r):
    # J(c f) = c^(pr) J(f) for G = t^r, so the bracket is J_f ((1 - d)^(-pr) - 1), d the
    # norm's relative error, plus the error bound of J at f/(v - e), which is (1 - d)^(-pr)
    # times the bound at f/v: the same rule runs on a scaled integrand
    f = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
    report = check_extremal_convex(f, P2, Power(r), method=method)
    est = fock_norm(f, P2, method=method)
    J_f = convex_functional(f.log_shifted(-math.log(est.value)), P2, Power(r), method=method)
    grow = (1.0 - est.value_error / est.value) ** (-P2.p * r)
    term = report.details["norm_error_term"]
    expected = J_f.value * (grow - 1.0) + grow * J_f.error_bound
    assert term == pytest.approx(expected, rel=1e-9, abs=1e-13 * J_f.value)


def test_extremal_raises_when_the_norm_error_reaches_the_norm(monkeypatch):
    # v - e <= 0 leaves no f/(v - e) to bracket J(f/|f|) with
    def loose_norm(f, params, method):
        return NormEstimate(log_value=0.0, relative_error=2.0 * params.p, method=method, p=params.p)

    monkeypatch.setattr(verify, "fock_norm", loose_norm)
    with pytest.raises(MethodUnavailableError, match="no bracket"):
        check_extremal_convex(Monomial(powers=(1,)), P2, Power(2.0))


# ---------------------------------------------------------------------------
# rearrangement comparison


def test_rearrangement_decreasing_profile_frozen_margin():
    # g = c t^{-0.3}, Phi = positive part of log, Psi = 2t on (0, 1]: margin 3/26
    report = check_rearrangement_lemma(
        PowerDecayProfile(beta=0.3), LogPowerPhi(power=1.0), PowerPsi(r=2.0), 1.0
    )
    assert report.passed
    assert report.margin == pytest.approx(3.0 / 26.0, abs=1e-10)
    assert abs(report.details["constraint_residual"]) <= 1e-10


def test_rearrangement_increasing_profile_flips_sign():
    # an increasing profile violates the hypothesis; the margin goes negative
    report = check_rearrangement_lemma(
        PowerDecayProfile(beta=-0.3), LogPowerPhi(power=1.0), PowerPsi(r=2.0), 1.0
    )
    assert not report.passed
    assert report.margin == pytest.approx(-0.15, abs=1e-10)
    assert not report.details["profile_nonincreasing"]


def test_rearrangement_constant_profile_is_equality():
    report = check_rearrangement_lemma(
        PowerDecayProfile(beta=0.0), PowerPhi(gamma=0.5), PowerPsi(r=3.0), 1.0
    )
    assert abs(report.margin) <= 1e-12


def test_rearrangement_power_phi_frozen_margin():
    report = check_rearrangement_lemma(
        PowerDecayProfile(beta=0.5), PowerPhi(gamma=0.4), PowerPsi(r=2.0), 1.0
    )
    assert report.passed
    assert report.margin == pytest.approx(25.0 / 84.0, abs=1e-10)


def test_lemma_quadrature_against_scipy():
    profile = PowerDecayProfile(beta=0.3)
    phi = LogPowerPhi(power=1.0)
    psi = PowerPsi(r=2.0)
    report = check_rearrangement_lemma(profile, phi, psi, 1.0)
    ls = report.details["constraint_scale_log"]
    kink = math.exp(ls / 1.3)  # where c g(t)/t crosses 1

    def integrand(t):
        return max(ls - 1.3 * math.log(t), 0.0) * 2.0 * t

    ref, _ = quad(integrand, 0.0, 1.0, points=[kink], limit=200)
    ours = _lemma_integral(profile, phi, psi, ls, 1.0, 0.0)
    assert ours == pytest.approx(ref, rel=1e-9)


def test_rearrangement_tabulated_profile():
    prof = g_diagnostic(
        Monomial(powers=(1,)),
        P2,
        grid=LevelGrid(count=20, ratio=0.9),
        samples=50_000,
        seed=2,
    )
    tab = TabulatedProfile.from_level_profile(prof)
    report = check_rearrangement_lemma(
        tab, PowerPhi(gamma=0.5), PowerPsi(r=2.0),
        t_max=tab.t_points[-1], t_lo=tab.t_points[0],
    )
    assert report.passed, report.details


@pytest.mark.parametrize("t_lo", [0.0, 0.2])
@pytest.mark.parametrize("psi", [PowerPsi(r=1.0), PowerPsi(r=2.5)], ids=["constraint", "weighted"])
@pytest.mark.parametrize(
    "phi", [PowerPhi(gamma=0.4), LogPowerPhi(power=0.5), LogPowerPhi(power=1.5)], ids=repr
)
@pytest.mark.parametrize("log_scale", [-0.7, 0.8])
def test_lemma_closed_form_against_quad(phi, psi, t_lo, log_scale):
    beta, T = 0.6, 1.3
    b = 1.0 + beta
    r = psi.r
    kink = math.exp(log_scale / b)  # where e^log_scale t^-b crosses 1

    def integrand(t):
        log_a = log_scale - b * math.log(t)
        if isinstance(phi, PowerPhi):
            return math.exp(phi.gamma * log_a) * r * t ** (r - 1.0)
        return max(log_a, 0.0) ** phi.power * r * t ** (r - 1.0)

    points = [kink] if t_lo < kink < T else None
    ref, _ = quad(integrand, t_lo, T, points=points, limit=200, epsabs=0.0, epsrel=1e-13)
    ours = _lemma_closed_form(beta, phi, psi, log_scale, T, t_lo)
    assert ours == pytest.approx(ref, rel=1e-10)


def test_lemma_closed_form_matches_panels():
    # seed 7 draws a log-phi kink just left of the window (draw 198): the panel
    # rule agrees only if that kink anchors the sqrt substitution of its first panel
    rng = np.random.default_rng(7)
    for _ in range(200):
        profile, phi, psi, t_max = random_rearrangement_case(rng)
        report = check_rearrangement_lemma(profile, phi, psi, t_max)
        assert report.details["lemma_rule"] == "closed_form"
        ls = report.details["constraint_scale_log"]
        t_lo = float(rng.uniform(0.0, 0.9)) * t_max
        for weight in (psi, PowerPsi(r=1.0)):
            for lo in (0.0, t_lo):
                exact = _lemma_closed_form(profile.beta, phi, weight, ls, t_max, lo)
                panels = _lemma_integral(profile, phi, weight, ls, t_max, lo)
                case = (profile, phi, weight, lo)
                assert panels == pytest.approx(exact, rel=1e-9, abs=1e-300), case


@pytest.mark.parametrize("phi", [PowerPhi(gamma=0.4), LogPowerPhi(power=1.0)], ids=repr)
def test_lemma_integral_is_one_array_pass(monkeypatch, phi):
    # the window (0, 1] spans 16 to 28 panels, yet one log_g call may locate the
    # log-phi kink and one more evaluates every node
    calls = []
    log_g = PowerDecayProfile.log_g
    monkeypatch.setattr(PowerDecayProfile, "log_g", lambda self, lt: calls.append(1) or log_g(self, lt))
    _lemma_integral(PowerDecayProfile(beta=0.3), phi, PowerPsi(r=2.0), 0.5, 1.0, 0.0)
    assert 1 <= len(calls) <= 2


def test_tabulated_power_profile_matches_closed_form():
    # log-log interpolation of t^-beta is exact, so only the rule differs; this
    # draw puts the log-phi kink at s = -4.6e-4, just left of the window
    beta, T = 0.94446771545297, 0.5237282895852404
    phi, psi = LogPowerPhi(power=0.5), PowerPsi(r=2.6365874442001926)
    t = np.geomspace(T * math.exp(-145.0), T, 40)
    tab = TabulatedProfile(t_points=tuple(t), g_values=tuple(t**-beta))
    exact = check_rearrangement_lemma(PowerDecayProfile(beta=beta), phi, psi, T)
    report = check_rearrangement_lemma(tab, phi, psi, T)
    assert exact.details["lemma_rule"] == "closed_form"
    assert report.details["lemma_rule"] == "panels"
    assert report.margin == pytest.approx(exact.margin, abs=1e-12)
    assert report.details["weighted_profile"] == pytest.approx(
        exact.details["weighted_profile"], rel=1e-12
    )


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-8, 0.5, 1.0, 30.0, 700.0, math.inf])
@pytest.mark.parametrize("a", [0.5 * n for n in range(1, 21)])
def test_gamma_q_matches_scipy(a, x):
    ref = gammaincc(a, x)
    if x == 1e-300:
        # the terms x^a e^-x / Gamma(a+1) underflow: Q is 1 to far below an ulp
        assert _gamma_q(a, x) == pytest.approx(ref, rel=0.0, abs=1e-300)
    else:
        # at x = 700 both round exponents near -700, so they part by up to ~700 ulps
        assert _gamma_q(a, x) == pytest.approx(ref, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("frac", [1e-300, 1e-8, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.5, 172.5])
def test_log_gamma_lower_matches_scipy(a, frac):
    x = frac * a  # the series' domain 0 < x <= a
    p = gammainc(a, x)
    # where scipy's P underflows, x is tiny and the series' first two terms are the whole sum
    ref = math.log(p) + gammaln(a) if p > 0.0 else a * math.log(x) - x - math.log(a) + math.log1p(x / (a + 1.0))
    assert _log_gamma_lower(a, x) == pytest.approx(ref, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
@pytest.mark.parametrize("power", [0.5, 1.5, 3.5])
def test_lemma_closed_form_keeps_a_narrow_window_near_the_kink(power, eps):
    # on [T(1 - eps), T], with the kink at T, both Q(power + 1, .) are 1 - O(eps^power);
    # their difference lost every digit (0.0 at power 3.5, eps 1e-6), the lower gamma keeps them
    beta, T, psi = 0.6, 1.3, PowerPsi(r=2.5)
    b = 1.0 + beta
    k, log_scale, t_lo = psi.r / b, b * math.log(T), T * (1.0 - eps)
    x_b = k * (log_scale - b * math.log(t_lo))
    ref = math.exp(k * log_scale - power * math.log(k) + gammaln(power + 1.0)) * gammainc(power + 1.0, x_b)
    ours = _lemma_closed_form(beta, LogPowerPhi(power=power), psi, log_scale, T, t_lo)
    assert ours == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "cls,value",
    [
        (PowerPhi, math.inf), (PowerPhi, math.nan),
        (LogPowerPhi, math.inf), (LogPowerPhi, 0.7), (LogPowerPhi, 0.0),
        (PowerPsi, math.inf), (PowerPsi, math.nan), (PowerPsi, 0.5),
    ],
)
def test_lemma_parameters_reject_bad_values(cls, value):
    with pytest.raises(InvalidInputError):
        cls(value)


def test_lemma_parameters_accept_half_integer_powers():
    for power in (0.5, 1, 1.5, 2.0, 12.5):
        assert LogPowerPhi(power=power).power == power
    assert LogPowerPhi(power=np.float64(1.5)).power == 1.5


def test_lemma_integrability_gate_still_raises():
    # lambda = 1 - gamma (1 + beta) = 0.03 <= 0.04 for the constraint integral
    phi = PowerPhi(gamma=0.97 / 1.5)
    with pytest.raises(InvalidInputError):
        check_rearrangement_lemma(PowerDecayProfile(beta=0.5), phi, PowerPsi(r=2.0), 1.0)
    # a window bounded away from t = 0 is integrable whatever lambda is
    report = check_rearrangement_lemma(
        PowerDecayProfile(beta=0.5), phi, PowerPsi(r=2.0), 1.0, t_lo=0.1
    )
    assert abs(report.details["constraint_residual"]) <= 1e-12


def test_lemma_residual_gate_rejects_a_missed_integrand():
    # g = t^1.5 makes arg = log_scale + log g - log t fall as t -> 0, against the
    # panel rule's assumption: it misses the integrand near t = 0 and the solved
    # scale lands on a jump (residual -0.886 of the target 0.886)
    with pytest.raises(InvalidInputError, match="residual"):
        check_rearrangement_lemma(PowerDecayProfile(-1.5), LogPowerPhi(0.5), PowerPsi(2.0), 1.0)


def test_lemma_log_phi_near_the_largest_double():
    # power 170.5: Gamma(171.5) = 9.5e307 fits a double, though the panel integrand
    # max(la, 0)^power once overflowed; on (1e-100, 1] both rules cover the integrand
    phi, psi = LogPowerPhi(power=170.5), PowerPsi(r=2.0)
    report = check_rearrangement_lemma(PowerDecayProfile(beta=0.3), phi, psi, 1.0, t_lo=1e-100)
    assert report.passed and math.isfinite(report.margin)
    assert report.details["weighted_reference"] == _lemma_closed_form(0.0, phi, psi, 0.0, 1.0, 1e-100)
    # on (0, 1] the panel window grows with the power and covers the integrand too
    report = check_rearrangement_lemma(PowerDecayProfile(beta=0.3), phi, psi, 1.0)
    assert report.passed and math.isfinite(report.margin)


@pytest.mark.parametrize("power", [60.5, 100.5])
@pytest.mark.parametrize("t_max", [0.01, 1.0, 50.0])
@pytest.mark.parametrize("r", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("beta", [0.3, 1.5])
def test_lemma_log_phi_window_covers_high_powers(beta, r, t_max, power):
    # the integrand (b (s - onset))^q e^(-s) of the constraint peaks near s = onset + q, with the
    # onset log T + q log(1 + beta) past s = 0, beyond a fixed window of 140 for most of these
    phi = LogPowerPhi(power)
    report = check_rearrangement_lemma(PowerDecayProfile(beta), phi, PowerPsi(r), t_max)
    target = _lemma_closed_form(0.0, phi, PowerPsi(1.0), 0.0, t_max, 0.0)
    assert report.passed
    assert abs(report.details["constraint_residual"]) <= 1e-12 * target


@pytest.mark.parametrize("power", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("r", [1.0, 1.7, 4.0])
def test_lemma_log_phi_window_stays_140_for_the_cli_powers(power, r):
    assert _lemma_s_max(LogPowerPhi(power), PowerPsi(r), 0.4) == 140.0


@pytest.mark.parametrize("power", [171.5, 1e300])
@pytest.mark.parametrize("t_lo", [0.0, 1e-100])
def test_lemma_log_phi_past_the_largest_double_raises(power, t_lo):
    # the constraint integral Gamma(power + 1, .) leaves the double range: a typed error
    with pytest.raises(MethodUnavailableError, match="overflows a double"):
        check_rearrangement_lemma(PowerDecayProfile(beta=0.3), LogPowerPhi(power), PowerPsi(2.0), 1.0, t_lo)
    assert _lemma_closed_form(0.0, LogPowerPhi(power), PowerPsi(1.0), 0.0, 1.0, t_lo) == math.inf


def test_tabulated_profile_validation():
    with pytest.raises(InvalidInputError):
        TabulatedProfile(t_points=(0.5, 0.4), g_values=(1.0, 1.0))
    with pytest.raises(InvalidInputError):
        TabulatedProfile(t_points=(0.4, 0.5), g_values=(1.0, -1.0))
    with pytest.raises(InvalidInputError, match="finite"):
        TabulatedProfile(t_points=(0.4, math.nan), g_values=(1.0, 1.0))
    # a level profile peaking at e^800 reads t and g as inf: no table of inf
    big = g_diagnostic(Coherent(center=(1.0, 0.0), alpha=1.0).log_shifted(400.0), P2, samples=2000)
    with pytest.raises(InvalidInputError, match="finite"):
        TabulatedProfile.from_level_profile(big)


def test_tabulated_monotonicity_is_scale_free():
    # g doubles on a table of tiny values; a falling table stays falling when scaled by e^30
    rising = TabulatedProfile(t_points=(1.0, 2.0), g_values=(1e-13, 2e-13))
    assert not rising.nonincreasing
    report = check_rearrangement_lemma(rising, PowerPhi(gamma=0.5), PowerPsi(r=2.0), t_max=2.0, t_lo=1.0)
    assert report.details["profile_nonincreasing"] is False
    falling = (2.0, 1.0, 1.0)
    for scale in (1.0, math.exp(30.0)):
        table = TabulatedProfile(t_points=(1.0, 2.0, 3.0), g_values=tuple(scale * g for g in falling))
        assert table.nonincreasing


# ---------------------------------------------------------------------------
# scale invariance: every inequality is homogeneous in f


_SCALE_CHECKS = {
    "contraction": lambda f: check_contraction(f, 1.0, 2.0, 1.0, method=GH16),
    "pointwise_bound": lambda f: check_pointwise_bound(f, P2, n_points=1_000, method=GH16),
    "extremal_convex": lambda f: check_extremal_convex(f, P2, Power(2.0), method=GH16),
    "decay": lambda f: check_decay(f, P2, n_directions=2, n_radii=24),
    "monotone_g": lambda f: check_monotone_g(
        g_diagnostic(f, P2, grid=LevelGrid(count=4, ratio=0.7), samples=1_000, seed=0)
    ),
    "limit_norm": lambda f: check_limit_norm(f, 1.0, method=GH16),
}


def _verdicts(f):
    """passed per check."""
    return {name: check(f).passed for name, check in _SCALE_CHECKS.items()}


_base_verdicts = lru_cache(maxsize=None)(_verdicts)


@pytest.mark.parametrize("f", default_family_members(2), ids=lambda f: f.family)
@given(delta=st.floats(min_value=-400.0, max_value=400.0).filter(lambda d: d != 0.0))
@example(delta=-400.0)
@example(delta=400.0)
@settings(derandomize=True, deadline=None, max_examples=3)
def test_verdicts_are_invariant_under_scaling(f, delta):
    # every integral is held as its log, the limit ladder's p = 64 integral e^(64 delta) included,
    # and every threshold as log t: at |delta| = 400 and p = 2, t_max = e^(+-800) is no double
    base, scaled = _base_verdicts(f), _verdicts(f.log_shifted(delta))
    for name, passed in scaled.items():
        assert passed == base[name], (name, delta)


def test_random_rearrangement_cases_all_pass():
    rng = np.random.default_rng(100)
    for _ in range(100):
        profile, phi, psi, t_max = random_rearrangement_case(rng)
        report = check_rearrangement_lemma(profile, phi, psi, t_max)
        assert report.margin >= -1e-8, (profile, phi, psi, t_max, report.margin)


# ---------------------------------------------------------------------------
# isoperimetric constants


@pytest.mark.parametrize("m", [1, 2, 3, 4, 342, 1000])
def test_isoperimetric_sharp_ball_equality(m):
    # past m = 341 Gamma(1 + m/2) overflows and at m = 1000 the ball's volume
    # underflows; the check works in logs
    report = check_isoperimetric_variant(m)
    assert report.passed
    assert report.details["sharp_ball_relative_gap"] <= 1e-12
    ratio = math.exp(2.0 / m * (gammaln(1.0 + m / 2.0) - gammaln(m / 2.0)))
    assert report.details["literal_over_sharp_ratio"] == pytest.approx(ratio, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [math.nan, math.inf, 2.5, 0], ids=["nan", "inf", "2.5", "0"])
def test_isoperimetric_variant_rejects_a_bad_m(m):
    # max(0.0, nan) drops a nan margin, so a nan m would pass
    with pytest.raises(InvalidInputError):
        check_isoperimetric_variant(m)


def test_isoperimetric_m3_excess_factor():
    report = check_isoperimetric_variant(3)
    assert report.passed
    assert report.details["literal_over_sharp_ratio"] == pytest.approx(
        (1.5) ** (2.0 / 3.0), abs=1e-12
    )
    assert report.details["literal_exceeds_perimeter"]


def test_isoperimetric_variants_agree_in_plane():
    report = check_isoperimetric_variant(2)
    assert report.details["literal_over_sharp_ratio"] == pytest.approx(1.0, abs=1e-14)
    assert not report.details["literal_exceeds_perimeter"]


# ---------------------------------------------------------------------------
# report plumbing


def test_report_serializes_to_json():
    report = check_contraction(Monomial(powers=(1,)), 2.0, 4.0, 1.0)
    doc = report.to_dict()
    assert doc["pass"] is True
    assert "margin" in doc and "tolerance" in doc and "inputs" in doc
    json.dumps(doc)  # everything must be plain JSON types
