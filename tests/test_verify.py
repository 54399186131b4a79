"""Inequality checks: contraction, bounds, limits, rearrangement, isoperimetry."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from focklab import (
    Coherent,
    FockParams,
    InvalidInputError,
    Monomial,
    Power,
    SumOfCoherent,
)
from focklab.levelset import IsoperimetricVariant, LevelGrid, g_diagnostic
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
from focklab.verify import _lemma_closed_form, _lemma_integral  # white-box cross-checks

P2 = FockParams(2, 2.0, 1.0)

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
    # shell 1 alone is a full `samples` cloud; a fresh cloud per level would cost count x samples
    assert 10_000 <= prof.points < 10 * 10_000
    assert check_monotone_g(prof).details["points"] == prof.points == profile().points


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
        assert report.details["tail_monotone"]


# ---------------------------------------------------------------------------
# limit norm


def test_limit_norm_monomial():
    report = check_limit_norm(Monomial(powers=(1,)), 1.0)
    assert report.passed
    assert report.details["sup_norm"] == pytest.approx(math.exp(-0.5), rel=1e-9)
    ladder = report.details["ladder"]
    assert all(b < a for a, b in zip(ladder, ladder[1:]))
    assert report.details["extrapolation_gap"] <= 1e-3


def test_limit_norm_coherent_flat_ladder():
    report = check_limit_norm(Coherent(center=(1.0, 0.0), alpha=1.0), 1.0)
    assert report.passed
    assert np.max(np.abs(np.asarray(report.details["ladder"]) - 1.0)) <= 1e-6


def test_limit_norm_flat_ladder_tolerates_roundoff():
    # this ladder reads 1.0, 0.9999999999999998, 0.9999999999999999, 1.0, ...
    f = Coherent(center=(0.18902713714856834, 0.05509667889786518), alpha=1.0)
    report = check_limit_norm(f, 1.0)
    assert report.passed, report.margin


def test_limit_norm_rejects_unordered_ladder():
    with pytest.raises(InvalidInputError):
        check_limit_norm(Monomial(powers=(1,)), 1.0, p_ladder=(4.0, 2.0))


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
@pytest.mark.parametrize("psi", [None, PowerPsi(r=2.5)], ids=["constraint", "weighted"])
@pytest.mark.parametrize(
    "phi", [PowerPhi(gamma=0.4), LogPowerPhi(power=0.5), LogPowerPhi(power=1.5)], ids=repr
)
@pytest.mark.parametrize("log_scale", [-0.7, 0.8])
def test_lemma_closed_form_against_quad(phi, psi, t_lo, log_scale):
    beta, T = 0.6, 1.3
    b = 1.0 + beta
    r = psi.r if psi is not None else 1.0
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
        for weight in (psi, None):
            for lo in (0.0, t_lo):
                exact = _lemma_closed_form(profile.beta, phi, weight, ls, t_max, lo)
                panels = _lemma_integral(profile, phi, weight, ls, t_max, lo)
                case = (profile, phi, weight, lo)
                assert panels == pytest.approx(exact, rel=1e-9, abs=1e-300), case


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


def test_tabulated_profile_validation():
    with pytest.raises(InvalidInputError):
        TabulatedProfile(t_points=(0.5, 0.4), g_values=(1.0, 1.0))
    with pytest.raises(InvalidInputError):
        TabulatedProfile(t_points=(0.4, 0.5), g_values=(1.0, -1.0))


def test_random_rearrangement_cases_all_pass():
    rng = np.random.default_rng(100)
    for _ in range(100):
        profile, phi, psi, t_max = random_rearrangement_case(rng)
        report = check_rearrangement_lemma(profile, phi, psi, t_max)
        assert report.margin >= -1e-8, (profile, phi, psi, t_max, report.margin)


# ---------------------------------------------------------------------------
# isoperimetric constants


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_isoperimetric_sharp_ball_equality(m):
    report = check_isoperimetric_variant(m)
    assert report.details["sharp_ball_relative_gap"] <= 1e-12


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
