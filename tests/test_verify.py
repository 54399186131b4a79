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
from focklab.verify import _lemma_integral  # white-box quadrature cross-check

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
