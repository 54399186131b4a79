"""The public names: every exported name resolves, and so does every name the benchmark uses.

The README's Library example runs and shows what its comments claim, and every
public constructor and function keeps one input contract.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab
import focklab.cli
from focklab import (
    Coherent,
    Constant,
    ExpQuadratic,
    FockParams,
    FocklabError,
    GaussHermite,
    InvalidInputError,
    IsoperimetricVariant,
    LevelGrid,
    MonteCarlo,
    Monomial,
    PiecewiseLinear,
    Polynomial,
    Power,
    Radial,
    SumOfCoherent,
    UnsupportedFunctionalError,
)
from focklab.verify import LogPowerPhi, PowerDecayProfile, PowerPhi, PowerPsi, TabulatedProfile

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("name", ["functions", "integrate", "levelset", "verify", "cli"])
def test_every_all_entry_resolves(name):
    # the package itself imports its names one by one, so a missing one fails at import
    module = importlib.import_module(f"focklab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name} exports names it does not define: {missing}"


def test_benchmark_spans_wrap_and_restore_every_traced_name():
    # instrument() looks up each traced name in its home module, so a deleted or
    # renamed one fails here, not in the benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {
        (layer, fname): getattr(importlib.import_module(f"focklab.{layer}"), fname)
        for layer, names in spans.LAYERS.items()
        for fname in names
    }
    restore = spans.instrument(spans.Recorder())
    try:
        for (layer, fname), original in originals.items():
            wrapped = getattr(importlib.import_module(f"focklab.{layer}"), fname)
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        restore()
    for (layer, fname), original in originals.items():
        assert getattr(importlib.import_module(f"focklab.{layer}"), fname) is original


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_reads_only_names_that_exist(script):
    # `focklab.x`, `cli.x`, `integrate.x`, `levelset.x` and `verify.x` in the benchmark's source
    modules = {"focklab": focklab, **{n: importlib.import_module(f"focklab.{n}")
                                     for n in ("cli", "integrate", "levelset", "verify")}}
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    missing = sorted(
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)
    )
    assert not missing, f"perfbench/{script} reads names focklab does not define: {missing}"


def test_readme_library_example():
    # the first python block of README.md, run statement by statement, keeping each bare expression's value
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    value, report, violations = shown
    est, p = namespace["est"], namespace["params"].p  # p = 4
    assert abs(value - (2.0 / p) ** 0.5 * math.gamma(1.0 + p / 2.0) ** (1.0 / p)) <= est.value_error
    assert report.passed and report.details["equality_detected"] is True
    assert violations == ()


# ---------------------------------------------------------------------------
# one input contract: a documented result or a typed error, for every drawn input

# 10**5000 is past the 4300 digits that str takes of an int, so no error message may format it with str
_BAD_REALS = (math.nan, math.inf, -math.inf, -1, 0, 2.5, True, 10**400, 10**5000, 1e308)
# 1e308 is drawn by no property: test_counts_past_their_largest_raise_before_allocating takes it site by site
_BAD_COUNTS = (math.nan, math.inf, -math.inf, -1, 0, 2.5, True, 10**400, 10**5000)


def _reals(*valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(_BAD_REALS))


def _counts(*valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(_BAD_COUNTS))


_F = Coherent(center=(1.0, 0.0), alpha=1.0)
_SEARCHED = SumOfCoherent(atoms=((0.7, (0.5, 0.0)), (0.3, (-1.0, 0.0))), alpha=1.0)
_P = FockParams(2, 2.0, 1.0)
_GH = GaussHermite(8)


def _zero(X):
    return np.zeros(len(X))


def _lemma(beta, phi, psi, t_max):
    return focklab.check_rearrangement_lemma(PowerDecayProfile(beta), phi, psi, t_max)


# name: (call, the documented result type, a strategy per argument)
_ENTRIES = {
    "FockParams": (FockParams, FockParams, [_counts(2), _reals(2.0, 0.5), _reals(1.0, 0.5)]),
    "Constant": (lambda v, m, s: Constant(value=v, dim=m, log_scale=s), Constant,
                 [_reals(1.0, 0.0), _counts(2), _reals(0.0, -3.0)]),
    "Coherent": (lambda x, y, a: Coherent(center=(x, y), alpha=a), Coherent, [_reals(1.0), _reals(0.0), _reals(1.0)]),
    "Monomial": (lambda j, k: Monomial(powers=(j, k)), Monomial, [_counts(1, 0), _counts(2)]),
    "Polynomial": (lambda k, c, d: Polynomial(terms={(k,): c, (0,): d}), Polynomial,
                   [_counts(2), _reals(0.5), _reals(1.0)]),
    "ExpQuadratic": (lambda c, m: ExpQuadratic(c=c, dim=m), ExpQuadratic, [_reals(0.1, 0.0), _counts(2)]),
    "SumOfCoherent": (lambda w, x, a: SumOfCoherent(atoms=((w, (x, 0.0)), (0.3, (-1.0, 0.0))), alpha=a),
                      SumOfCoherent, [_reals(0.7), _reals(0.5), _reals(1.0)]),
    "log_shifted": (_F.log_shifted, Coherent, [_reals(-700.0, 1.0)]),
    "LevelGrid": (LevelGrid, LevelGrid, [_counts(60, 2), _reals(0.9)]),
    "Power": (Power, Power, [_reals(2.0, 1.0)]),
    "PiecewiseLinear": (lambda k, s0, s1: PiecewiseLinear(knots=(k,), slopes=(s0, s1)), PiecewiseLinear,
                        [_reals(0.5), _reals(0.0), _reals(2.0)]),
    "TabulatedProfile": (lambda t, g: TabulatedProfile(t_points=(0.5, t), g_values=(1.0, g)), TabulatedProfile,
                         [_reals(1.0), _reals(0.8)]),
    "default_family_members": (focklab.default_family_members, tuple, [_counts(2, 3)]),
    "norm_constant": (lambda p, a: focklab.norm_constant(FockParams(2, p, a)), float, [_reals(2.0), _reals(1.0)]),
    "envelope_radius": (lambda log_t: focklab.envelope_radius(_F, _P, log_t), float, [_reals(-1.0, 0.0)]),
    "fock_norm GH": (lambda p, a, n: focklab.fock_norm(_F, FockParams(2, p, a), GaussHermite(n)),
                     focklab.NormEstimate, [_reals(2.0), _reals(1.0), _counts(8, 16)]),
    "fock_norm radial": (lambda nr, na: focklab.fock_norm(_F, _P, Radial(nr, na)), focklab.NormEstimate,
                         [_counts(8), _counts(8)]),
    "fock_norm MC": (lambda n, seed: focklab.fock_norm(_F, _P, MonteCarlo(n, seed)), focklab.NormEstimate,
                     [_counts(1000), _counts(0, 7)]),
    "gauss_hermite_integrate": (lambda n: focklab.gauss_hermite_integrate(_zero, _P, n), focklab.IntegralEstimate,
                                [_counts(8)]),
    "radial_integrate": (lambda nr, na: focklab.radial_integrate(_zero, _P, nr, na), focklab.IntegralEstimate,
                         [_counts(4), _counts(4)]),
    "mc_integrate": (lambda n, seed: focklab.mc_integrate(_zero, _P, n, seed), focklab.IntegralEstimate,
                     [_counts(1000), _counts(0)]),
    "convex_functional Power": (lambda r: focklab.convex_functional(_F, _P, Power(r), _GH),
                                focklab.FunctionalEstimate, [_reals(2.0, 1.0)]),
    "convex_functional PiecewiseLinear": (
        lambda k, s: focklab.convex_functional(_F, _P, PiecewiseLinear(knots=(k,), slopes=(0.0, s)), _GH),
        focklab.FunctionalEstimate, [_reals(0.5), _reals(2.0)]),
    "find_max": (lambda restarts, seed: focklab.find_max(_SEARCHED, _P, restarts, seed), focklab.MaxResult,
                 [_counts(2, 0), _counts(0, 3)]),
    "g_diagnostic": (lambda count, ratio, samples, seed: focklab.g_diagnostic(
        _F, _P, grid=LevelGrid(count, ratio), samples=samples, seed=seed), focklab.LevelProfile,
        [_counts(4), _reals(0.5), _counts(1000), _counts(0)]),
    "g_from_mu": (lambda mu, t: focklab.g_from_mu(mu, t, _P, IsoperimetricVariant.SHARP_BALL), float,
                  [_reals(1.0, 0.0), _reals(0.5)]),
    "layer_cake": (lambda r, ratio, samples, seed: focklab.layer_cake(
        _F, _P, Power(r), LevelGrid(8, ratio), _GH, samples, seed), focklab.LayerCakeResult,
        [_reals(2.0), _reals(0.5), _counts(1000), _counts(0)]),
    "superlevel_measure": (lambda t, samples, seed: focklab.superlevel_measure(_F, _P, t, samples, seed),
                           focklab.MeasureEstimate, [_reals(0.1), _counts(1000), _counts(0)]),
    "superlevel_measure_exact": (lambda t: focklab.superlevel_measure_exact(_F, _P, t), float, [_reals(0.1)]),
    "check_contraction": (lambda p, q, a: focklab.check_contraction(_F, p, q, a, _GH), focklab.VerificationReport,
                          [_reals(1.0), _reals(2.0), _reals(1.0)]),
    "check_pointwise_bound": (lambda n, seed: focklab.check_pointwise_bound(_F, _P, n, seed, _GH),
                              focklab.VerificationReport, [_counts(100), _counts(0)]),
    "check_decay": (lambda directions, seed, radii: focklab.check_decay(_F, _P, directions, seed, radii),
                    focklab.VerificationReport, [_counts(2, 0), _counts(0), _counts(8)]),
    "check_limit_norm": (lambda a, p, q, seed: focklab.check_limit_norm(_F, a, (p, q, 8.0), GaussHermite(16), seed),
                         focklab.VerificationReport, [_reals(1.0), _reals(2.0), _reals(4.0), _counts(0)]),
    "check_extremal_convex": (lambda r: focklab.check_extremal_convex(_F, _P, Power(r), _GH),
                              focklab.VerificationReport, [_reals(2.0)]),
    "check_isoperimetric_variant": (focklab.check_isoperimetric_variant, focklab.VerificationReport, [_counts(3)]),
    "check_rearrangement_lemma PowerPhi": (
        lambda beta, gamma, r, t_max: _lemma(beta, PowerPhi(gamma), PowerPsi(r), t_max),
        focklab.VerificationReport, [_reals(0.3), _reals(0.5), _reals(2.0), _reals(1.0)]),
    "check_rearrangement_lemma LogPowerPhi": (
        lambda power, t_max: _lemma(0.3, LogPowerPhi(power), PowerPsi(2.0), t_max),
        focklab.VerificationReport, [_reals(1.0, 0.5), _reals(1.0)]),
    "richardson_limit": (lambda a, b, c: focklab.richardson_limit([a, b, c]), float,
                         [_reals(1.0), _reals(0.5), _reals(0.25)]),
}


@pytest.mark.parametrize("name", list(_ENTRIES))
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_every_entry_returns_its_type_or_raises_a_typed_error(name, data):
    # a real is drawn from valid values and from nan, +-inf, -1, 0, 2.5, True, 10^400, 10^5000 and 1e308, a
    # count from all of these but 1e308; a bare Python exception, such as an OverflowError, fails the property
    call, result_type, slots = _ENTRIES[name]
    args = [data.draw(slot) for slot in slots]
    try:
        result = call(*args)
    except FocklabError:
        return
    assert isinstance(result, result_type), (name, args, result)


_HUGE = 10**400  # an int past the largest double


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: FockParams(2, _HUGE, 1.0), InvalidInputError, id="FockParams p"),
        pytest.param(lambda: focklab.fock_norm(_F, FockParams(2, 2.0, 1e308)), InvalidInputError,
                     id="fock_norm alpha*p"),
        pytest.param(lambda: Coherent(center=(_HUGE, 0.0), alpha=1.0), InvalidInputError, id="Coherent centre"),
        pytest.param(lambda: focklab.fock_norm(Coherent(center=(1.0, 0.0), alpha=_HUGE), _P), InvalidInputError,
                     id="Coherent alpha"),
        pytest.param(lambda: focklab.fock_norm(ExpQuadratic(c=_HUGE, dim=2), _P), InvalidInputError,
                     id="ExpQuadratic c"),
        pytest.param(lambda: Constant(value=1.0, dim=2, log_scale=_HUGE), InvalidInputError, id="log_scale"),
        pytest.param(lambda: Polynomial(terms={(1,): _HUGE}), InvalidInputError, id="Polynomial coefficient"),
        pytest.param(lambda: SumOfCoherent(atoms=((_HUGE, (0.0, 0.0)),), alpha=1.0), InvalidInputError,
                     id="SumOfCoherent weight"),
        pytest.param(lambda: Power(_HUGE), UnsupportedFunctionalError, id="Power"),
        pytest.param(lambda: Power(10**5000), UnsupportedFunctionalError, id="Power past str's digits"),
        pytest.param(lambda: focklab.log_density_batch(_F, _P, [[_HUGE, 0.0]]), InvalidInputError,
                     id="log_density_batch point"),
        pytest.param(lambda: _lemma(0.3, PowerPhi(_HUGE), PowerPsi(2.0), 1.0, 0.0), InvalidInputError,
                     id="PowerPhi"),
        pytest.param(lambda: _lemma(0.3, PowerPhi(0.5), PowerPsi(_HUGE), 1.0, 0.0), InvalidInputError,
                     id="PowerPsi"),
        pytest.param(lambda: focklab.check_contraction(_F, 1.0, _HUGE, 1.0), InvalidInputError,
                     id="check_contraction q"),
        pytest.param(lambda: focklab.check_limit_norm(_F, 1.0, p_ladder=(2.0, _HUGE)), InvalidInputError,
                     id="check_limit_norm ladder"),
        pytest.param(lambda: focklab.envelope_radius(_F, _P, _HUGE), InvalidInputError, id="envelope_radius"),
    ],
)
def test_reals_past_the_largest_double_raise_typed_errors(call, error):
    # each conversion to a double overflowed, or alpha * p did, into a bare OverflowError or ValueError
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: focklab.richardson_limit([]), InvalidInputError, id="richardson_limit empty"),
        pytest.param(lambda: focklab.richardson_limit(5.0), InvalidInputError, id="richardson_limit scalar"),
        pytest.param(lambda: focklab.check_limit_norm(_F, 1.0, p_ladder=2.0), InvalidInputError,
                     id="check_limit_norm scalar ladder"),
        pytest.param(lambda: focklab.g_from_mu([1, 2], [0.5, 0.2, 0.1], _P, IsoperimetricVariant.SHARP_BALL),
                     InvalidInputError, id="g_from_mu shapes"),
        pytest.param(lambda: PiecewiseLinear(knots=1.0, slopes=(0.0, 1.0)), UnsupportedFunctionalError,
                     id="PiecewiseLinear scalar knots"),
        pytest.param(lambda: PiecewiseLinear(knots=[[1.0]], slopes=(0.0, 1.0)), UnsupportedFunctionalError,
                     id="PiecewiseLinear nested knots"),
        pytest.param(lambda: Polynomial(terms=5), InvalidInputError, id="Polynomial scalar terms"),
        pytest.param(lambda: Polynomial(terms=(((1,),),)), InvalidInputError, id="Polynomial one-element term"),
        pytest.param(lambda: Polynomial(terms={((1,), (2, 3)): 1.0}), InvalidInputError,
                     id="Polynomial ragged multi-index"),
        pytest.param(lambda: Monomial(powers=[[1], [2, 3]]), InvalidInputError, id="Monomial ragged powers"),
        pytest.param(lambda: SumOfCoherent(atoms=5, alpha=1.0), InvalidInputError, id="SumOfCoherent scalar atoms"),
        pytest.param(lambda: SumOfCoherent(atoms=((1.0,),), alpha=1.0), InvalidInputError,
                     id="SumOfCoherent one-element atom"),
    ],
)
def test_malformed_containers_raise_typed_errors(call, error):
    # a scalar where a sequence belongs, a nested or empty one, or a short pair raised a bare IndexError,
    # TypeError or ValueError from the iteration, the unpacking or numpy's broadcast
    with pytest.raises(error):
        call()


_PAST = 1e308  # an integer as a float, past every count's largest value


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: focklab.fock_norm(_F, _P, MonteCarlo(_PAST, 0)), id="MonteCarlo samples"),
        pytest.param(lambda: focklab.mc_integrate(_zero, _P, 2**30 + 1), id="mc_integrate samples 2^30 + 1"),
        pytest.param(lambda: focklab.fock_norm(_F, _P, Radial(48, _PAST)), id="Radial angular nodes"),
        pytest.param(lambda: focklab.radial_integrate(_zero, _P, 257, 64), id="radial_integrate nodes 257"),
        pytest.param(lambda: focklab.check_decay(_F, _P, n_directions=_PAST), id="check_decay directions"),
        pytest.param(lambda: focklab.check_decay(_F, _P, n_radii=4097), id="check_decay radii 4097"),
        pytest.param(lambda: focklab.check_pointwise_bound(_F, _P, _PAST, method=_GH), id="pointwise points"),
        pytest.param(lambda: LevelGrid(_PAST), id="LevelGrid count"),
        pytest.param(lambda: focklab.find_max(_SEARCHED, _P, _PAST), id="find_max restarts"),
        pytest.param(lambda: focklab.g_diagnostic(_F, _P, samples=_PAST), id="g_diagnostic samples"),
        pytest.param(lambda: focklab.superlevel_measure(_F, _P, 0.1, _PAST), id="superlevel_measure samples"),
        pytest.param(lambda: focklab.layer_cake(_F, _P, Power(2.0), samples=_PAST), id="layer_cake samples"),
        pytest.param(lambda: FockParams(_PAST, 2.0, 1.0), id="FockParams m"),
        pytest.param(lambda: Constant(value=1.0, dim=65), id="Constant dim 65"),
        pytest.param(lambda: ExpQuadratic(c=0.1, dim=_PAST), id="ExpQuadratic dim"),
        pytest.param(lambda: focklab.default_family_members(_PAST), id="default_family_members m"),
    ],
)
def test_counts_past_their_largest_raise_before_allocating(monkeypatch, call):
    # every count is checked against its documented largest value where it enters; the samplers' block lists
    # are never sized here, so a count that slipped past its check fails on the spy instead of allocating
    def refuse(n):
        raise AssertionError(f"blocks sized for {n} points")

    monkeypatch.setattr(focklab.integrate, "_block_sizes", refuse)
    monkeypatch.setattr(focklab.levelset, "_block_sizes", refuse)
    with pytest.raises(InvalidInputError):
        call()
