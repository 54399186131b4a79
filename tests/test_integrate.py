"""Quadrature and Monte Carlo tests for weighted norms and convex functionals."""

import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, logsumexp, roots_genlaguerre, roots_hermite, roots_legendre

from focklab import (
    Coherent,
    Constant,
    ConvexFunction,
    ExpQuadratic,
    FockParams,
    GaussHermite,
    MethodUnavailableError,
    Monomial,
    MonteCarlo,
    NoEnvelopeError,
    PiecewiseLinear,
    Polynomial,
    Power,
    Radial,
    SumOfCoherent,
    UnsupportedFunctionalError,
    convex_functional,
    default_family_members,
    envelope_radius,
    fock_norm,
    gauss_hermite_integrate,
    layer_cake,
    log_density_batch,
    mc_integrate,
    norm_constant,
    radial_integrate,
)
from focklab import integrate

P2 = FockParams(2, 2.0, 1.0)


def _lanes(method):
    """A method case marked `lanes`: Monte Carlo runs its blocks in integrate._in_lanes."""
    return pytest.param(method, marks=pytest.mark.lanes)


def monomial_norm_oracle(k: int, p: float, alpha: float) -> float:
    """Closed-form |z|^k norm from the radial integral, via log-gamma."""
    return (2.0 / (alpha * p)) ** (k / 2.0) * math.exp(gammaln(1.0 + k * p / 2.0) / p)


# ---------------------------------------------------------------------------
# normalization and closed forms


def test_norm_constant_value():
    assert norm_constant(P2) == pytest.approx(1.0 / math.pi, rel=1e-14, abs=0.0)
    assert norm_constant(FockParams(1, 2.0, 1.0)) == pytest.approx(
        math.sqrt(1.0 / math.pi), rel=1e-14, abs=0.0
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
    assert est.value == pytest.approx(est.raw_integral ** (1.0 / 4.0), rel=1e-14, abs=0.0)


@pytest.mark.lanes
def test_coherent_norm_all_backends():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    gh = fock_norm(f, P2, method=GaussHermite(32))
    rad = fock_norm(f, P2, method=Radial())
    mc = fock_norm(f, P2, method=MonteCarlo(samples=100_000, seed=1))
    assert gh.value == pytest.approx(1.0, abs=1e-10)
    assert rad.value == pytest.approx(1.0, abs=1e-9)
    assert abs(mc.value - 1.0) <= 4.0 * mc.value_error + 1e-12


@pytest.mark.lanes
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
# the integration contract: exp(log_h) against the weight exp(-(alpha p/2)|x|^2)


def _gaussian_closed_form(params, b):
    """Integral of exp(<b, x>) against exp(-(alpha p/2)|x|^2) over R^m."""
    rate = params.rate
    return (2.0 * math.pi / rate) ** (params.m / 2.0) * math.exp(float(b @ b) / (2.0 * rate))


def _contract_cases(m):
    params = FockParams(m, 1.5, 0.8)
    b = np.linspace(0.4, -0.6, m)
    yield params, lambda X: np.zeros(len(X)), np.zeros(m)
    yield params, lambda X: X @ b, b


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_gauss_hermite_integrates_against_the_weight(m):
    for params, log_h, b in _contract_cases(m):
        est = gauss_hermite_integrate(log_h, params, nodes_per_axis=16 if m < 5 else 8)
        assert est.value == pytest.approx(_gaussian_closed_form(params, b), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_radial_integrates_against_the_weight(m):
    for params, log_h, b in _contract_cases(m):
        est = radial_integrate(log_h, params)
        assert est.value == pytest.approx(_gaussian_closed_form(params, b), rel=1e-13, abs=0.0)


@pytest.mark.lanes
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mc_integrates_against_the_weight(m):
    (params, flat, zero), (_, linear, b) = _contract_cases(m)
    est = mc_integrate(flat, params, samples=100_000, seed=6)
    assert est.value == pytest.approx(_gaussian_closed_form(params, zero), rel=1e-15, abs=0.0)
    assert 0 < est.error_bound <= 1e-14 * est.value  # no variance: roundoff alone
    est = mc_integrate(linear, params, samples=100_000, seed=6)
    assert abs(est.value - _gaussian_closed_form(params, b)) <= 4.0 * est.error_bound


@pytest.mark.lanes
def test_norm_never_forms_the_weight(monkeypatch):
    # the backends carry exp(-(alpha p/2)|x|^2); fock_norm hands them p log|f| alone
    methods = (GaussHermite(16), Radial(24, 32), MonteCarlo(samples=20_000, seed=5))
    members = default_family_members(2)
    expected = [fock_norm(f, P2, method=method) for f in members for method in methods]

    def forbidden(*args, **kwargs):
        raise AssertionError("fock_norm evaluated |x|^2 or the weighted density")

    monkeypatch.setattr(integrate, "_log_density_and_weight", forbidden)  # integrate's one path to |x|^2
    got = [fock_norm(f, P2, method=method) for f in members for method in methods]
    assert got == expected


# ---------------------------------------------------------------------------
# rules and the log-sum-exp reducer


def _reducer_cases():
    rng = np.random.default_rng(7)
    for spread in (1e-3, 1.0, 30.0, 1e3):
        for n in (2, 17, 1000):
            yield rng.normal(rng.uniform(-500, 500), spread, n)
    tied = rng.normal(0.0, 5.0, 200)
    tied[[3, 50, 199]] = tied.max() + 1.0
    yield tied
    yield np.full(8, -2.5)
    yield np.array([4.25])
    yield np.array([-np.inf, -1.0, 3.0, -np.inf])


def test_log_sum_exp_matches_scipy():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in _reducer_cases():
            ref, got = float(logsumexp(a)), integrate._log_sum_exp(a)
            assert abs(got - ref) <= 2.0 * math.ulp(ref)
        assert integrate._log_sum_exp(np.full(5, -np.inf)) == -math.inf
        assert integrate._log_sum_exp(np.array([0.0, np.inf, -1.0])) == math.inf
        assert math.isnan(integrate._log_sum_exp(np.array([0.0, np.nan, 1.0])))


def test_chunked_gh_matches_one_block(monkeypatch):
    # m = 4, n = 8 over 64-point chunks: two outer dimensions rewritten per chunk
    f = Coherent(center=(0.7, -0.4, 0.3, 0.9), alpha=1.0)
    params = FockParams(4, 2.0, 1.0)
    whole = fock_norm(f, params, method=GaussHermite(8))
    calls = []

    def log_u(X):
        calls.append(len(X))
        return params.p * f.log_abs(X)

    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 64)
    est = gauss_hermite_integrate(log_u, params, nodes_per_axis=8)
    assert calls[:64] == [64] * 64  # the n = 8 grid: 8^2 outer indices of 8^2 inner points
    c = norm_constant(params)
    assert c * est.value == pytest.approx(whole.raw_integral, rel=1e-14, abs=0.0)
    assert c * est.error_bound == pytest.approx(whole.error_bound, abs=1e-14)


def test_chunked_gh_runs_one_point_chunks_at_m1(monkeypatch):
    # n above the chunk size at m = 1: every chunk is one outer node and no inner grid
    f = Coherent(center=(0.3,), alpha=1.0)
    params = FockParams(1, 2.0, 1.0)

    def log_u(X):
        return log_density_batch(f, params, X)

    whole = gauss_hermite_integrate(log_u, params, nodes_per_axis=16)
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 8)
    sizes = []
    est = gauss_hermite_integrate(lambda X: sizes.append(len(X)) or log_u(X), params, nodes_per_axis=16)
    assert sizes == [1] * (16 + 32)
    assert est.value == pytest.approx(whole.value, rel=1e-14, abs=0.0)
    assert est.error_bound == pytest.approx(whole.error_bound, abs=1e-14)


def _gh_index_reference(params, n):
    """The (X, logw_table, offset) chunks of _gh_rule built from np.indices, in the same arithmetic."""
    m = params.m
    y, lw = integrate._gh_axis(n)
    scale = math.sqrt(2.0 / params.rate)
    log_jac = 0.5 * m * math.log(2.0 / params.rate)
    k = next(k for k in range(m + 1) if n ** (m - k) <= integrate._CHUNK_POINTS)
    inner = np.indices((n,) * (m - k)).reshape(m - k, n ** (m - k))
    for outer in itertools.product(range(n), repeat=k):
        X = np.empty((inner.shape[1], m))
        X[:, :k] = y[list(outer)] * scale
        X[:, k:] = (y[inner] * scale).T
        yield X, lw[inner].sum(axis=0), sum(lw[i] for i in outer) + log_jac


def _assert_gh_grid_matches_reference(params, n):
    chunks = 0
    for (X, table, offset), (X_ref, table_ref, offset_ref) in itertools.zip_longest(
        integrate._gh_rule(params, n), _gh_index_reference(params, n)
    ):
        assert X.flags.f_contiguous and not X.flags.writeable and not table.flags.writeable
        assert np.array_equal(X, X_ref) and np.array_equal(table, table_ref) and offset == offset_ref
        chunks += 1
    return chunks


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_gh_grid_matches_index_reference(m, n):
    chunks = _assert_gh_grid_matches_reference(FockParams(m, 1.5, 0.8), n)
    k = next(k for k in range(m + 1) if n ** (m - k) <= integrate._CHUNK_POINTS)
    assert chunks == n**k


def test_chunked_gh_grid_matches_index_reference(monkeypatch):
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 64)
    assert _assert_gh_grid_matches_reference(FockParams(4, 2.0, 1.0), 8) == 64  # two outer dimensions
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 8)
    assert _assert_gh_grid_matches_reference(FockParams(1, 2.0, 1.0), 16) == 16  # one-point chunks


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gh_norm_memory_budget():
    # m = 4, n = 32: 32^4 in 32 chunks of 32^3 nodes, the pruned 64^4 in chunks of at most 64^3;
    # measured 12.1 MB (the 64^3-node X buffer, 8.4 MB, its table, log_h and their sum), budget +10%
    peak = _traced_peak(
        lambda: fock_norm(Constant(value=1.0, dim=4), FockParams(4, 2.0, 1.0), method=GaussHermite(32))
    )
    assert peak <= 13.3e6


@pytest.mark.lanes
def test_mc_norm_memory_budget(monkeypatch):
    # 10^6 samples at m = 4 in blocks of 2^16 rows on 4 lanes, the most. The most the lanes can hold at
    # once: their buffers, 4 x 2^16 x 4 doubles = 8.39 MB, plus in each lane the array log_h returns and
    # the block's log-ratios w, 2 x 2^16 doubles = 1.05 MB, so 12.58 MB, and 0.1 MB for the streams and
    # results. Measured 8.93-10.51 MB over 90 runs, as the lanes' temporaries overlap (numpy reuses
    # log_h's array for w here: one lane alone peaks at its buffer plus 0.53 MB).
    monkeypatch.setattr(integrate, "_lane_count", lambda: 4)
    peak = _traced_peak(
        lambda: fock_norm(
            Constant(value=1.0, dim=4), FockParams(4, 2.0, 1.0), method=MonteCarlo(samples=1_000_000, seed=0)
        )
    )
    assert peak <= 12.7e6


def test_gh_functional_memory_budget():
    # the 16^4 coarse grid in one chunk, the 32^4 fine grid in 32 chunks; measured 4.2 MB, budget +12%
    f = Coherent(center=(0.3, -0.2, 0.1, 0.4), alpha=1.0)
    peak = _traced_peak(
        lambda: convex_functional(f, FockParams(4, 2.0, 1.0), Power(2.0), method=GaussHermite(16))
    )
    assert peak <= 4.7e6


def test_radial_norm_memory_budget():
    # m = 3: the fine 96 x 8192 rule in 3 chunks of 32 radii; measured 13.0 MB, budget +10%
    peak = _traced_peak(lambda: fock_norm(Constant(value=1.0, dim=3), FockParams(3, 2.0, 1.0), method=Radial()))
    assert peak <= 14.3e6


def _read_only(log_h):
    def wrapped(X):
        out = log_h(X)
        out.flags.writeable = False
        return out

    return wrapped


def _cached(value):
    """log_h of a constant: one read-only array per chunk length, the same on every call."""
    cache = {}

    def log_h(X):
        if len(X) not in cache:
            cache[len(X)] = np.full(len(X), value)
            cache[len(X)].flags.writeable = False
        return cache[len(X)]

    return log_h, cache


def _backends(monkeypatch, params):
    """(name, run) for GH unpruned and pruned, radial and MC; run(log_h, f) integrates log_h = p log|f|."""

    def pruned(log_h, f):
        sizes = []
        with monkeypatch.context() as patch:
            patch.setattr(integrate, "_CHUNK_POINTS", 64)  # the 32^2 fine grid spans 16 chunks
            est = gauss_hermite_integrate(
                lambda X: sizes.append(len(X)) or log_h(X), params, 16, partial(envelope_radius, f, params)
            )
        assert sum(sizes) < 16**2 + 32**2  # the fine rule skipped nodes
        return est

    yield "gh", lambda log_h, f: gauss_hermite_integrate(log_h, params, 16)
    yield "gh pruned", pruned
    yield "radial", lambda log_h, f: radial_integrate(log_h, params, 24, 32)
    yield "mc", lambda log_h, f: mc_integrate(log_h, params, samples=20_000, seed=3)


@pytest.mark.lanes
def test_reducers_never_write_into_log_h_output(monkeypatch):
    # a read-only or a cached log_h gives bit for bit the estimate of a fresh array, and stays unchanged
    params = FockParams(2, 2.5, 1.0)
    f, const = Coherent(center=(0.4, -0.3), alpha=1.0), Constant(value=1.5, dim=2)
    log_c = params.p * math.log(1.5)
    for name, run in _backends(monkeypatch, params):
        fresh = run(_log_p_abs(f, params), f)
        assert run(_read_only(_log_p_abs(f, params)), f) == fresh, name
        log_h, cache = _cached(log_c)
        assert run(log_h, const) == run(lambda X: np.full(len(X), log_c), const), name
        assert cache and all(np.all(a == log_c) for a in cache.values()), name


def _mutating(X):
    X[:, 0] = 0.0
    return np.zeros(len(X))


def test_gh_points_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        gauss_hermite_integrate(_mutating, P2, nodes_per_axis=8)


def test_radial_points_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        radial_integrate(_mutating, FockParams(3, 2.0, 1.0))


@pytest.mark.lanes
def test_mc_points_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        mc_integrate(_mutating, P2, samples=1000)


# ---------------------------------------------------------------------------
# the fine rule without its nodes outside the envelope ball


def _pruned_index_reference(params, n, radius):
    """The (X, logw_table, offset) chunks of _gh_rule(params, n, radius) from the index reference,
    filtered node by node."""
    m = params.m
    y, _ = integrate._gh_axis(n)
    radius_y = radius / math.sqrt(2.0 / params.rate)
    k = next(k for k in range(m + 1) if n ** (m - k) <= integrate._CHUNK_POINTS)
    inner = y[np.indices((n,) * (m - k)).reshape(m - k, n ** (m - k))]
    chunks = []
    for outer, (X, table, offset) in zip(itertools.product(range(n), repeat=k), _gh_index_reference(params, n)):
        rho2 = radius_y * radius_y - sum(y[i] * y[i] for i in outer)
        keep = np.all(np.abs(inner) <= math.sqrt(max(rho2, 0.0)), axis=0) & (rho2 >= 0.0)
        if keep.any():
            chunks.append((X[keep], table[keep], offset))
    return chunks


@pytest.mark.parametrize(
    "m, n, chunk_points", [(4, 8, 64), (3, 8, 8), (2, 8, integrate._CHUNK_POINTS)], ids=["k2", "k2-1d", "k0"]
)
@pytest.mark.parametrize("radius_y", [0.5, 0.9, 2.0, 3.2, 10.0])
def test_pruned_gh_grid_matches_filtered_index_reference(monkeypatch, m, n, chunk_points, radius_y):
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", chunk_points)
    params = FockParams(m, 2.0, 1.0)
    radius = radius_y * math.sqrt(2.0 / params.rate)
    chunks, kept = 0, 0
    for (X, table, offset), (X_ref, table_ref, offset_ref) in itertools.zip_longest(
        integrate._gh_rule(params, n, radius), _pruned_index_reference(params, n, radius)
    ):
        assert X.flags.f_contiguous and not X.flags.writeable and not table.flags.writeable
        assert np.array_equal(X, X_ref) and np.array_equal(table, table_ref) and offset == offset_ref
        chunks, kept = chunks + 1, kept + len(table)
    if radius_y == 0.5 and m > 2:  # below the least |y|, and no outer node leaves room for an inner one
        assert chunks == 0
    if radius_y == 10.0:  # past the largest |y| times sqrt(m): the full grid
        assert kept == n**m


def _log_p_abs(f, params):
    return lambda X: params.p * f.log_abs(X)


def _full_pair(f, params, n_coarse, n_fine):
    """The refinement pair over the whole fine rule, as the unpruned backend computes it."""
    return integrate._refine(
        _log_p_abs(f, params), integrate._gh_rule(params, n_coarse), integrate._gh_rule(params, n_fine)
    )


def _spy_envelope(monkeypatch):
    calls = []

    def spy(f, params, log_t):
        assert math.isfinite(log_t)
        calls.append(log_t)
        return envelope_radius(f, params, log_t)

    def nonempty_log_sum_exp(a):
        assert np.size(a) > 0
        return log_sum_exp(a)

    log_sum_exp = integrate._log_sum_exp
    monkeypatch.setattr(integrate, "envelope_radius", spy)
    monkeypatch.setattr(integrate, "_log_sum_exp", nonempty_log_sum_exp)
    return calls


_PRUNED_CASES = {  # (f, p, GH nodes per axis)
    "coherent a=(3,0,0,0) p=4": (Coherent(center=(3.0, 0.0, 0.0, 0.0), alpha=1.0), 4.0, 32),
    "expquad c=0.45": (ExpQuadratic(c=0.45, dim=4), 2.0, 32),
    "far two-atom sumcoherent": (
        SumOfCoherent(atoms=((0.6, (3.0, 0.0, 0.0, 0.0)), (0.4, (-2.0, 1.0, 0.0, 0.0))), alpha=1.0),
        2.0,
        32,
    ),
    "polynomial in two variables": (
        Polynomial(terms={(1, 2): 1 + 2j, (3, 0): -0.5, (0, 0): 2j, (2, 1): 0.25 - 1j}),
        2.0,
        32,
    ),
    "monomial (3,1)": (Monomial(powers=(3, 1)), 2.0, 32),
    "coherent shifted by e^30": (
        Coherent(center=(0.3, -0.2, 0.1, 0.4), alpha=1.0).log_shifted(30.0),
        2.0,
        32,
    ),
    "coherent shifted by e^-30": (
        Coherent(center=(0.3, -0.2, 0.1, 0.4), alpha=1.0).log_shifted(-30.0),
        2.0,
        32,
    ),
    "coherent GH(16) p=2.5": (Coherent(center=(0.4, -0.3, -0.3, -0.3), alpha=1.0), 2.5, 16),
}


@pytest.mark.parametrize("case", list(_PRUNED_CASES))
def test_pruned_gh_covers_the_nodes_it_skips(case):
    # m = 4, GH(n): the (2n)^4 fine rule runs in 2n chunks of (2n)^3 nodes, so the envelope prunes it
    f, p, n = _PRUNED_CASES[case]
    params = FockParams(4, p, 1.0)
    log_h = _log_p_abs(f, params)
    assert integrate._gh_outer_dims(4, 2 * n) == 1

    def envelope(log_t):
        return envelope_radius(f, params, log_t)

    log_coarse, _ = integrate._integral(log_h, integrate._gh_rule(params, n))
    log_full, _ = integrate._integral(log_h, integrate._gh_rule(params, 2 * n))
    rule = integrate._gh_pruned(params, 2 * n, envelope, log_coarse)
    # the ball of expquad c=0.45 keeps every fine node: no pruned rule, so the full one runs bit for bit,
    # without the per-chunk cuts and without the 2^-53 cap
    assert (rule is None) == (case == "expquad c=0.45")
    if rule is None:
        est = gauss_hermite_integrate(log_h, params, n, envelope)
        gap = abs(math.expm1(log_coarse - log_full))
        assert est.log_value == log_full
        assert est.relative_error == max(gap, integrate._roundoff(log_full, (2 * n) ** 4))
        return
    sizes = []
    log_pruned, _ = integrate._integral(lambda X: sizes.append(len(X)) or log_h(X), rule)
    kept = sum(sizes)
    assert 0 < kept <= (2 * n) ** 4
    est = gauss_hermite_integrate(log_h, params, n, envelope)
    assert est.log_value == log_pruned
    cap = math.exp(log_coarse - 53.0 * math.log(2.0) - est.log_value)  # 2^-53 coarse over the fine value
    gap = abs(math.expm1(log_coarse - est.log_value))
    assert est.relative_error == max(gap, integrate._roundoff(est.log_value, kept)) + cap
    full_gap = abs(math.expm1(log_full - est.log_value))
    assert full_gap <= cap + integrate._roundoff(log_full, (2 * n) ** 4) * math.exp(log_full - est.log_value)
    # the new value lies within its own bound of the value of the whole fine rule
    assert full_gap <= est.relative_error


@pytest.mark.parametrize("delta", [-30.0, 0.0, 30.0])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("f", default_family_members(4), ids=lambda f: type(f).__name__.lower())
def test_pruned_gh12_lies_within_the_cap_of_the_full_rule(f, p, delta):
    # GH(12) at m = 4: the 24^4 fine rule spans 24 chunks of 24^3 nodes, so the envelope prunes it,
    # and the nodes it skips add at most the cap 2^-53 coarse to the value of the full rule
    params = FockParams(4, p, 1.0)
    g = f.log_shifted(delta)
    log_h = _log_p_abs(g, params)
    assert integrate._gh_outer_dims(4, 24) == 1
    est = gauss_hermite_integrate(log_h, params, 12, partial(envelope_radius, g, params))
    log_coarse, _ = integrate._integral(log_h, integrate._gh_rule(params, 12))
    log_full, n_full = integrate._integral(log_h, integrate._gh_rule(params, 24))
    cap = math.exp(log_coarse - 53.0 * math.log(2.0) - log_full)
    assert abs(math.expm1(est.log_value - log_full)) <= cap + integrate._roundoff(log_full, n_full)


def test_fock_norm_prunes_a_fine_rule_of_many_chunks(monkeypatch):
    f, params = Constant(value=1.0, dim=4), FockParams(4, 2.0, 1.0)
    est = gauss_hermite_integrate(_log_p_abs(f, params), params, 32, partial(envelope_radius, f, params))
    calls = _spy_envelope(monkeypatch)
    norm = fock_norm(f, params, method=GaussHermite(32))
    c = norm_constant(params)
    assert len(calls) == 1
    assert norm.log_value == math.log(c) + est.log_value and norm.relative_error == est.relative_error
    assert abs(norm.raw_integral - 1.0) <= norm.error_bound


@pytest.mark.parametrize(
    "f, p",
    [
        (Coherent(center=(0.3, -0.2, 0.1, 0.4), alpha=1.0), 2.0),
        (Monomial(powers=(1, 1)), 2.0),
        (Polynomial(terms={(1, 2): 1 + 2j, (3, 0): -0.5, (0, 0): 2j, (2, 1): 0.25 - 1j}), 2.0),
        (Constant(value=1e10, dim=4), 64.0),
    ],
    ids=["coherent", "monomial", "polynomial", "constant-1e10-p64"],
)
def test_pruned_gh_keeps_the_same_nodes_at_every_scale(f, p):
    # f -> e^delta f scales the coarse value, t and u alike, so the ball keeps the same nodes,
    # also where t = 2^-53 coarse / S is no double (the 1e10 constant at p = 64: t ~ e^1440)
    params = FockParams(4, p, 1.0)

    def kept(delta):
        g = f.log_shifted(delta)
        log_coarse, _ = integrate._integral(_log_p_abs(g, params), integrate._gh_rule(params, 32))
        rule = integrate._gh_pruned(params, 64, partial(envelope_radius, g, params), log_coarse)
        return sum(len(table) for _, table, _ in rule)

    counts = {delta: kept(delta) for delta in (-30.0, -7.5, 0.0, 12.0, 30.0)}
    assert len(set(counts.values())) == 1, counts
    assert counts[0.0] < 64**4


@pytest.mark.parametrize(
    "m, n, n_fine",
    [(2, 32, 64), (2, 48, 96), (3, 32, 64), (4, 8, 16)],
    ids=["m2-gh32", "m2-gh48", "m3-gh32", "m4-gh8"],
)
def test_fine_rule_of_one_chunk_is_never_pruned(monkeypatch, m, n, n_fine):
    assert n_fine**m <= integrate._CHUNK_POINTS  # 64^3 is exactly one chunk
    f = Coherent(center=(0.4,) + (-0.3,) * (m - 1), alpha=1.0)
    params = FockParams(m, 2.5, 1.0)
    ref = _full_pair(f, params, n, n_fine)
    calls = _spy_envelope(monkeypatch)
    est = fock_norm(f, params, method=GaussHermite(n))
    c = norm_constant(params)
    assert calls == []
    assert est.log_value == math.log(c) + ref.log_value and est.relative_error == ref.relative_error


def test_convex_functional_is_never_pruned(monkeypatch):
    # 64-point chunks: the 64^2 fine grid spans 64 of them, which fock_norm would prune
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 64)
    f = Coherent(center=(0.4, -0.3), alpha=1.0)
    params = FockParams(2, 2.0, 1.0)
    G = Power(2.0)

    def log_G(X):
        g = G.value(np.exp(log_density_batch(f, params, X)))
        with np.errstate(divide="ignore"):
            return np.log(g) + 0.5 * params.rate * np.sum(X * X, axis=1)

    ref = integrate._refine(log_G, integrate._gh_rule(params, 32), integrate._gh_rule(params, 64))
    calls = _spy_envelope(monkeypatch)
    est = convex_functional(f, params, G, method=GaussHermite(32))
    assert calls == []
    assert est.log_value == ref.log_value and est.relative_error == ref.relative_error
    fock_norm(f, params, method=GaussHermite(32))
    assert len(calls) == 1


def test_pruning_skips_a_zero_integrand(monkeypatch):
    calls = _spy_envelope(monkeypatch)
    est = fock_norm(Constant(value=0.0, dim=4), FockParams(4, 2.0, 1.0), method=GaussHermite(32))
    assert calls == []
    assert est.log_value == -math.inf and est.raw_integral == 0.0 and est.error_bound == 0.0


@pytest.mark.parametrize("delta", [-10.9, -10.5, -11.0, -30.0, 12.0, 30.0])
def test_pruning_falls_back_when_t_is_not_a_normal_double(monkeypatch, delta):
    # at p = 64, t = 2^-53 I / S underflows (-10.9: to 0, -10.5: to a subnormal, and below)
    # or overflows (12, 30); taken in logs it falls back no more: the one envelope call gets
    # the threshold of delta = 0 plus 64 delta, and the pruned value stays within its bound
    f, params = Constant(value=1.0, dim=4), FockParams(4, 64.0, 1.0)
    calls = _spy_envelope(monkeypatch)
    fock_norm(f, params, method=GaussHermite(32))
    ref = _full_pair(f.log_shifted(delta), params, 32, 64)
    est = fock_norm(f.log_shifted(delta), params, method=GaussHermite(32))
    assert len(calls) == 2 and calls[1] == pytest.approx(calls[0] + 64.0 * delta, rel=0.0, abs=1e-12)
    assert abs(math.expm1(est.log_value - math.log(norm_constant(params)) - ref.log_value)) <= est.relative_error
    assert abs(math.expm1(est.log_value - 64.0 * delta)) <= est.relative_error


@pytest.mark.parametrize("radius", [0.0, 1e-3, 0.1])
def test_pruning_falls_back_when_the_ball_holds_no_node(monkeypatch, radius):
    f = Coherent(center=(0.4, -0.3, 0.2, 0.1), alpha=1.0)
    params = FockParams(4, 2.0, 1.0)
    ref = _full_pair(f, params, 32, 64)
    calls = _spy_envelope(monkeypatch)
    monkeypatch.setattr(integrate, "envelope_radius", lambda f, params, t: calls.append(t) or radius)
    est = fock_norm(f, params, method=GaussHermite(32))
    c = norm_constant(params)
    assert len(calls) == 1  # at rate 2 the least |x| of the 64^4 rule is 2 x 0.139, above 0.1
    assert est.log_value == math.log(c) + ref.log_value and est.relative_error == ref.relative_error


# the rules against scipy's, which focklab no longer imports: the two agree to
# a few ulps in the nodes and to about 1e-12 (Hermite, Laguerre) or 4e-11
# (Legendre) in log w, the spread of two independent double-precision rules


def test_hermite_rule_matches_scipy():
    for n in range(1, 129):
        y, log_w = integrate._gh_axis(n)
        y_ref, w_ref = roots_hermite(n)
        assert np.all(np.abs(y - y_ref) <= 1e-14 * (1.0 + np.abs(y_ref)))
        assert np.max(np.abs(log_w - np.log(w_ref))) <= 1e-11


def test_legendre_rule_matches_scipy():
    for n in range(1, 129):
        u, w = leggauss(n)
        u_ref, w_ref = roots_legendre(n)
        assert np.max(np.abs(u - u_ref)) <= 1e-15
        assert np.max(np.abs(np.log(w) - np.log(w_ref))) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])  # a = m/2 - 1 = -1/2, 0, 1/2
def test_laguerre_rule_matches_scipy(m):
    for n in range(1, 129):
        s, log_w = integrate._radial_axis(n, m)
        s_ref, w_ref = roots_genlaguerre(n, m / 2.0 - 1.0)
        assert np.all(np.abs(s - s_ref) <= 1e-14 * s_ref)
        assert np.max(np.abs(log_w - np.log(w_ref))) <= 5e-12


def test_laguerre_rule_keeps_weights_below_the_least_normal_double():
    # 256 nodes: the weights fall to about e^-1000, which scipy's rule flushes to 0
    s, log_w = integrate._radial_axis(256, 2)
    assert np.all(np.isfinite(log_w)) and log_w.min() < -900.0
    assert np.all(np.diff(s) > 0) and s[0] > 0
    # the rule is exact for s^k, k < 2n: mean and variance of e^-s are 1
    w = np.exp(log_w)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert np.sum(w * s) == pytest.approx(1.0, rel=1e-13, abs=0.0)
    assert np.sum(w * s * s) == pytest.approx(2.0, rel=1e-13, abs=0.0)


def test_gauss_hermite_node_cap():
    with pytest.raises(MethodUnavailableError, match="256 nodes"):
        gauss_hermite_integrate(lambda X: np.zeros(len(X)), FockParams(1, 2.0, 1.0), 257)
    # at the cap the refinement pair halves instead of doubling past it
    est = gauss_hermite_integrate(lambda X: np.zeros(len(X)), FockParams(1, 2.0, 1.0), 256)
    assert est.value == pytest.approx(math.sqrt(math.pi), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n_ang", [8, 64])
def test_sphere_rule_m3_matches_double_loop(n_ang):
    u, wu = leggauss(max(4, n_ang // 2))  # the rule's source; test_legendre_rule_matches_scipy checks it
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    nodes, weights = [], []
    for ui, wui in zip(u, wu):
        sui = math.sqrt(1.0 - ui * ui)
        for th in theta:
            nodes.append([sui * math.cos(th), sui * math.sin(th), ui])
            weights.append(wui * 2.0 * math.pi / n_ang)
    omega, aw = integrate._sphere_rule(3, n_ang)
    assert np.array_equal(omega, np.array(nodes))
    assert np.array_equal(aw, np.array(weights))
    assert np.sum(aw * omega[:, 2] ** 2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14, abs=0.0)


def test_chunked_radial_rule_matches_one_chunk_reference():
    # m = 3: the fine 96-radius rule runs 8192 sphere nodes per radius, 32 radii per chunk
    params = FockParams(3, 1.5, 0.8)
    nr, na = 96, 128
    s, lws = integrate._radial_axis(nr, 3)
    omega, aw = integrate._sphere_rule(3, na)
    r = np.sqrt(2.0 * s / params.rate)
    X_ref = (r[:, None, None] * omega[None, :, :]).reshape(-1, 3)
    table_ref = (lws[:, None] + np.log(aw)[None, :]).reshape(-1)
    log_jac = math.log(0.5) + 1.5 * math.log(2.0 / params.rate)
    chunks = [(X.copy(), table.copy(), offset) for X, table, offset in integrate._radial_rule(params, nr, na)]
    assert [len(table) for _, table, _ in chunks] == [32 * len(aw)] * 3
    assert all(offset == log_jac for _, _, offset in chunks)
    assert np.array_equal(np.concatenate([X for X, _, _ in chunks]), X_ref)
    assert np.array_equal(np.concatenate([table for _, table, _ in chunks]), table_ref)
    (X, table, _), = integrate._radial_rule(FockParams(2, 1.5, 0.8), nr, na)  # m <= 2: one chunk
    assert len(table) == nr * na and not X.flags.writeable and not table.flags.writeable


# ---------------------------------------------------------------------------
# Monte Carlo semantics


@pytest.mark.lanes
def test_mc_deterministic_under_seed():
    f = Monomial(powers=(1,))
    a = fock_norm(f, P2, method=MonteCarlo(samples=50_000, seed=9))
    b = fock_norm(f, P2, method=MonteCarlo(samples=50_000, seed=9))
    c = fock_norm(f, P2, method=MonteCarlo(samples=50_000, seed=10))
    assert a.value == b.value and a.error_bound == b.error_bound
    assert a.value != c.value


@pytest.mark.lanes
def test_mc_constant_has_zero_variance():
    est = fock_norm(Constant(value=1.0, dim=2), P2, method=MonteCarlo(samples=2_000, seed=0))
    assert est.value == 1.0
    assert 0 < est.error_bound <= 1e-14 * est.value


def _mc_reference_blocks(params, samples, seed, rows):
    """Block i of mc_integrate, drawn on its own: child i of SeedSequence(seed).spawn(2)[1], rows by m normals,
    over sqrt(alpha p); the last block is ragged."""
    starts = range(0, samples, rows)
    children = np.random.SeedSequence(seed).spawn(2)[1].spawn(len(starts))
    return [
        np.random.default_rng(child).standard_normal((min(rows, samples - lo), params.m)) / math.sqrt(params.rate)
        for child, lo in zip(children, starts)
    ]


@pytest.mark.lanes
def test_mc_points_are_one_draw(monkeypatch):
    # blocks of 1000 rows, the last one ragged: each is its spawned child's draw, bit for bit
    params = FockParams(3, 1.5, 0.8)
    blocks = []
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 4000)
    mc_integrate(lambda X: blocks.append(X.copy()) or np.zeros(len(X)), params, samples=2500, seed=11)
    ref = _mc_reference_blocks(params, 2500, 11, 1000)
    assert [len(X) for X in ref] == [1000, 1000, 500]
    assert sorted([i for i, R in enumerate(ref) if np.array_equal(X, R)] for X in blocks) == [[0], [1], [2]]


def _mc_one_shot(log_h, params, samples, seed, rows):
    """(value, standard error) from the blocks' concatenation in one array, with np.mean and np.std."""
    X = np.concatenate(_mc_reference_blocks(params, samples, seed, rows))
    w = log_h(X) - math.log(norm_constant(params))
    peak = float(np.max(w))
    e = np.exp(w - peak)
    return math.exp(peak) * float(np.mean(e)), math.exp(peak) * float(np.std(e, ddof=1)) / math.sqrt(samples)


def _block_vanishes(log_h, block):
    """log_h that is -inf on the rows of `block`, found by their first coordinate in whatever call holds them."""

    def wrapped(X):
        out = log_h(X)
        out[np.isin(X[:, 0], block[:, 0])] = -np.inf
        return out

    return wrapped


@pytest.mark.lanes
@pytest.mark.parametrize("case", ["ragged", "vanishing block", "constant"])
def test_mc_blocks_merge_to_the_one_shot_estimate(monkeypatch, case):
    # 2500 samples in blocks of 1000, 1000 and 500
    params, samples, seed = FockParams(2, 2.0, 1.0), 2500, 4
    f = Coherent(center=(0.6, -0.2), alpha=1.0)

    def log_h():
        if case == "constant":
            return lambda X: np.full(len(X), 0.75)
        log_p_abs = _log_p_abs(f, params)
        first = _mc_reference_blocks(params, samples, seed, 1000)[0]
        return _block_vanishes(log_p_abs, first) if case == "vanishing block" else log_p_abs

    value, stderr = _mc_one_shot(log_h(), params, samples, seed, 1000)
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 4000)
    est = mc_integrate(log_h(), params, samples=samples, seed=seed)
    roundoff = integrate._roundoff(math.log(value), samples) * value
    assert abs(est.value - value) <= roundoff
    if case == "constant":
        assert stderr == 0.0 and est.value == value
        assert est.relative_error == integrate._roundoff(est.log_value, samples)
    else:
        assert stderr > roundoff
        assert est.error_bound == pytest.approx(stderr, rel=1e-12, abs=0.0)


@pytest.mark.lanes
@pytest.mark.parametrize("chunk, samples", [(4000, 5500), (1 << 18, 200_000)], ids=["6 small blocks", "4 blocks"])
def test_mc_estimate_does_not_depend_on_the_lane_count(monkeypatch, chunk, samples):
    # lane k takes blocks k, k + lanes, ...; the blocks merge in block order whichever lane ran them
    # 4 lanes on fewer cores, switching threads every 10 us, to shake out a lost or misplaced block
    params, f = FockParams(2, 2.5, 1.0), Coherent(center=(0.4, -0.3), alpha=1.0)
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", chunk)
    estimates, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for lanes in (1, 2, 4):
            monkeypatch.setattr(integrate, "_lane_count", lambda lanes=lanes: lanes)
            threads = threading.active_count()
            estimates.append(mc_integrate(_log_p_abs(f, params), params, samples=samples, seed=5))
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert estimates[0].relative_error > 0 and estimates[1:] == estimates[:1] * 2


class _LaneFailure(Exception):
    pass


def _on_worker():
    return threading.current_thread() is not threading.main_thread()


@pytest.mark.lanes
@pytest.mark.parametrize("case", ["+inf on a worker", "raises on a worker", "raises on every lane"])
def test_mc_lane_failure_is_raised_on_the_caller(monkeypatch, case):
    # two lanes: block 0 on the calling thread, block 1 on a worker; every worker is joined either way
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 4000)
    monkeypatch.setattr(integrate, "_lane_count", lambda: 2)
    callers = []  # per log_h call: did a worker make it?

    def log_h(X):
        out = np.zeros(len(X))
        callers.append(_on_worker())
        if case == "+inf on a worker" and _on_worker():
            out[0] = np.inf
        elif case == "raises on every lane" or _on_worker():
            raise _LaneFailure(threading.current_thread().name)
        return out

    threads = threading.active_count()
    if case == "+inf on a worker":
        with pytest.raises(MethodUnavailableError, match="inf"):
            mc_integrate(log_h, P2, samples=2000, seed=0)
    else:
        with pytest.raises(_LaneFailure) as info:
            mc_integrate(log_h, P2, samples=2000, seed=0)
        # the first block in block order, block 0, failed on the calling thread
        assert (str(info.value) == threading.main_thread().name) == (case == "raises on every lane")
    assert sorted(callers) == [False, True] and threading.active_count() == threads


@pytest.mark.lanes
@pytest.mark.parametrize("seed", [0, 7])
def test_mc_stream_shares_no_draw_with_other_streams(monkeypatch, seed):
    # alpha p = 1, so the points are the raw normals; three blocks of 1000 rows
    params = FockParams(2, 2.0, 0.5)
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 4000)

    def draws(seed):
        blocks = []
        mc_integrate(lambda X: blocks.append(X.copy()) or np.zeros(len(X)), params, samples=3000, seed=seed)
        return np.concatenate(blocks).ravel()

    mc, n = draws(seed), 6000
    # the level cloud's first three block streams, children of SeedSequence(seed, spawn_key=(0,))
    # (test_levelset.py::test_nested_cloud_points_are_its_block_streams pins that the cloud draws from them)
    cloud = np.random.SeedSequence(seed, spawn_key=(0,)).spawn(3)
    for other in (
        *(np.random.default_rng(child).standard_normal(n) for child in cloud),
        np.random.default_rng(seed).standard_normal(n),
        draws(seed + 1),
    ):
        assert np.intersect1d(mc, other).size == 0


@pytest.mark.lanes
def test_mc_blocks_of_a_vanishing_integrand_give_zero(monkeypatch):
    monkeypatch.setattr(integrate, "_CHUNK_POINTS", 1000)
    est = mc_integrate(lambda X: np.full(len(X), -np.inf), P2, samples=2500, seed=0)
    assert est.value == 0.0 and est.error_bound == 0.0


@pytest.mark.lanes
def test_mc_stderr_shrinks_like_sqrt_n():
    params = P2
    small = mc_integrate(lambda X: _mono_log_u(X, params), params, samples=20_000, seed=4)
    big = mc_integrate(lambda X: _mono_log_u(X, params), params, samples=320_000, seed=4)
    ratio = small.error_bound / big.error_bound
    assert 2.5 < ratio < 6.5  # ideal factor 4 for 16x the samples


def _mono_log_u(X, params):
    with np.errstate(divide="ignore"):
        return params.p * np.log(np.linalg.norm(X, axis=1))


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


@pytest.mark.parametrize("method", [GaussHermite(16), Radial(), _lanes(MonteCarlo(samples=10_000, seed=3))], ids=repr)
@given(
    f=st.sampled_from(default_family_members(2)),
    delta=st.floats(min_value=-300.0, max_value=300.0),
    p=st.sampled_from([0.5, 2.0, 64.0]),
)
@settings(derandomize=True, deadline=None, max_examples=25)
def test_norm_integral_is_homogeneous_at_every_scale(method, f, delta, p):
    # ||e^delta f||_p^p = e^(p delta) ||f||_p^p, far past the double range at p = 64
    params = FockParams(2, p, 1.0)
    base, scaled = fock_norm(f, params, method), fock_norm(f.log_shifted(delta), params, method)
    gap = math.expm1(scaled.log_value - p * delta - base.log_value)
    assert abs(gap) <= scaled.relative_error + base.relative_error, (f, delta, p)


@pytest.mark.parametrize("method", [GaussHermite(), Radial(), _lanes(MonteCarlo(samples=10_000))], ids=repr)
def test_overflowing_integral_raises(method):
    # a norm or a functional past the largest double raises; a p-th power integral there does not
    f = Constant(value=1.0, dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MethodUnavailableError, match="overflows a double"):
            fock_norm(f.log_shifted(710.0), P2, method=method)
        # int u = e^800 pi, u = e^800 e^{-|x|^2}
        with pytest.raises(MethodUnavailableError, match="overflows a double"):
            convex_functional(f.log_shifted(400.0), P2, Power(1.0), method=method)
        # the p-th power integral of e^400 at p = 2 is e^800, and at p = 8 of e^(709.9/8) it is
        # e^709.9, whose unnormalized e^709.9 pi/4 fits: both past the largest double
        est = fock_norm(f.log_shifted(400.0), P2, method=method)
        est8 = fock_norm(f.log_shifted(709.9 / 8.0), FockParams(2, 8.0, 1.0), method=method)
        # ||1e10||_64 = 1e10 from the integral 1e640
        est64 = fock_norm(Constant(value=1e10, dim=2), FockParams(2, 64.0, 1.0), method=method)
    assert abs(math.expm1(est.log_value - 800.0)) <= est.relative_error
    assert est.raw_integral == math.inf and est.error_bound == math.inf
    assert abs(est.value - math.exp(400.0)) <= est.value_error
    assert abs(math.expm1(est8.log_value - 709.9)) <= est8.relative_error
    assert abs(est8.value - math.exp(709.9 / 8.0)) <= est8.value_error
    assert abs(math.expm1(est64.log_value - 64.0 * math.log(1e10))) <= est64.relative_error
    assert abs(est64.value - 1e10) <= est64.value_error


@pytest.mark.parametrize(
    "method", [GaussHermite(), Radial(), _lanes(MonteCarlo(samples=100_000, seed=1))], ids=repr
)
def test_nan_integrand_raises(method):
    # z^301 overflows complex arithmetic at the outer nodes, where log|f| turns nan
    f = Polynomial(terms={(300,): 1.0, (301,): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not isinstance(method, MonteCarlo):  # the samples stay where log|f| is finite
            with pytest.raises(MethodUnavailableError, match="nan"):
                fock_norm(f, P2, method=method)
        with pytest.raises(MethodUnavailableError):
            convex_functional(f, P2, Power(2.0), method=method)
        with pytest.raises(MethodUnavailableError, match="nan"):
            integrate._dispatch_raw(lambda X: np.full(len(X), np.nan), P2, method)


@pytest.mark.lanes
def test_mc_integral_fits_where_its_peak_weight_does_not():
    # one sample carries the whole integral e^712 / samples = e^705.1; e^712 alone overflows
    samples, top = 1000, 712.0

    def log_u(X):
        out = np.full(len(X), -np.inf)
        out[0] = top + math.log(norm_constant(P2))
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_integrate(log_u, P2, samples=samples)
    assert est.value == pytest.approx(math.exp(top - math.log(samples)), rel=1e-12, abs=0.0)
    assert math.isfinite(est.error_bound)


@pytest.mark.parametrize("method", [GaussHermite(48), Radial(), _lanes(MonteCarlo(samples=10_000))], ids=repr)
def test_underflowing_integral_raises(method):
    # named for the raise that integrals below the least normal double once met; held in logs,
    # they now raise nothing and keep their digits, which is what this checks
    # the p-th power integral of e^-12 at p = 64 is e^-768 (times pi/32 unnormalized), below every
    # double; at alpha p = 0.2 the unnormalized e^-709 10 pi is normal, the normalized e^-709 is not
    f = Constant(value=1.0, dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = fock_norm(f.log_shifted(-12.0), FockParams(2, 64.0, 1.0), method=method)
        low = fock_norm(f.log_shifted(-709.0 / 2.0), FockParams(2, 2.0, 0.1), method=method)
        # ||1e-10||_64 = 1e-10 from the integral 1e-640
        est64 = fock_norm(Constant(value=1e-10, dim=2), FockParams(2, 64.0, 1.0), method=method)
        # an identically zero integrand is a true 0
        zero = fock_norm(Constant(value=0.0, dim=2), P2, method=method)
    assert abs(math.expm1(est.log_value + 768.0)) <= est.relative_error and est.raw_integral == 0.0
    assert abs(est.value - math.exp(-12.0)) <= est.value_error
    assert abs(math.expm1(low.log_value + 709.0)) <= low.relative_error
    assert abs(low.value - math.exp(-709.0 / 2.0)) <= low.value_error
    assert abs(math.expm1(est64.log_value - 64.0 * math.log(1e-10))) <= est64.relative_error
    assert abs(est64.value - 1e-10) <= est64.value_error
    assert zero.log_value == -math.inf and zero.raw_integral == 0.0 and zero.error_bound == 0.0
    assert zero.value == 0.0 and zero.value_error == 0.0


def test_value_error_keeps_its_digits_where_error_bound_is_subnormal():
    # the raw integral e^-704 is normal, its error bound 1.1e-318 is subnormal
    params = FockParams(2, 64.0, 1.0)
    est = fock_norm(Constant(value=1.0, dim=2).log_shifted(-11.0), params, method=GaussHermite(16))
    assert est.raw_integral >= np.finfo(float).tiny > est.error_bound > 0.0
    expected = est.relative_error * math.exp(-11.0) / params.p
    assert est.value_error == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("coarse, fine", [(0.0, -np.inf), (-np.inf, 0.0), (-np.inf, -np.inf)])
def test_refinement_pair_with_a_zero_side(coarse, fine):
    # a zero on one side of the pair leaves a relative gap of 1, and the estimate is the
    # other side: a zero fine value hands back the coarse one with its own size as error
    sides = iter([coarse, fine])  # each rule is one chunk: one call apiece

    def log_h(X):
        return np.full(len(X), next(sides))

    est = integrate._refine(log_h, integrate._gh_rule(P2, 8), integrate._gh_rule(P2, 16))
    total = math.log(math.pi)  # int e^0 against e^{-|x|^2} over R^2
    if coarse == fine:
        assert est.log_value == -math.inf and est.relative_error == 0.0 and est.error_bound == 0.0
    else:
        assert est.log_value == pytest.approx(total, rel=1e-14, abs=0.0) and est.relative_error == 1.0
        assert est.error_bound == est.value


def test_refinement_pair_states_its_roundoff():
    # the (32, 64) pair agrees to the last bit, while its value is 2.2e-16 off the exact 1
    est = fock_norm(Monomial(powers=(1, 1)), FockParams(4, 2.0, 1.0), method=GaussHermite(32))
    assert est.error_bound >= abs(est.raw_integral - 1.0)
    assert est.error_bound <= 1e-14


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


@pytest.mark.lanes
def test_functional_backend_agreement():
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    gh = convex_functional(f, P2, Power(2.0), method=GaussHermite(32))
    rad = convex_functional(f, P2, Power(2.0), method=Radial())
    mc = convex_functional(f, P2, Power(2.0), method=MonteCarlo(samples=200_000, seed=3))
    assert rad.value == pytest.approx(gh.value, abs=1e-8)
    assert abs(mc.value - gh.value) <= 4.0 * (mc.error_bound + gh.error_bound)


class _Square(ConvexFunction):
    """G(t) = t^2 through the generic ConvexFunction.log_value: exp, value, log."""

    def value(self, t):
        return np.asarray(t, dtype=float) ** 2


@pytest.mark.parametrize(
    "method", [GaussHermite(32), Radial(), _lanes(MonteCarlo(samples=200_000, seed=3))], ids=repr
)
def test_power_log_value_matches_the_generic_path(method):
    # Power takes log G(u) = r log u; the subclass goes through exp, G and log
    f = Coherent(center=(1.0, 0.0), alpha=1.0)
    power = convex_functional(f, P2, Power(2.0), method=method)
    generic = convex_functional(f, P2, _Square(), method=method)
    assert abs(power.value - generic.value) <= power.error_bound + generic.error_bound


def test_power_log_value_is_log_of_value():
    log_t = np.linspace(-90.0, 90.0, 7201)  # r log t stays inside the normal double range
    for r in (1.0, 2.0, 3.5, 7.25):
        G = Power(r)
        got = G.log_value(log_t)
        ref = np.log(G.value(np.exp(log_t)))
        # the generic path rounds exp, the power and the log: (r + 2) 2^-53 plus 2 ulps of the result
        assert np.all(np.abs(got - ref) <= (r + 2.0) * 2.0**-53 + 2.0 * np.spacing(np.abs(ref)))
        with np.errstate(divide="ignore"):
            assert G.log_value(np.array([-np.inf]))[0] == np.log(G.value(np.exp([-np.inf])))[0] == -np.inf


def test_power_validation():
    # a G is checked where it is built
    for exponent in (0.5, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(UnsupportedFunctionalError, match="exponent"):
            Power(exponent)


def test_piecewise_linear_validation_and_value():
    G = PiecewiseLinear(knots=(0.5,), slopes=(0.0, 2.0))
    assert G.value(np.array([0.25]))[0] == pytest.approx(0.0)
    assert G.value(np.array([1.5]))[0] == pytest.approx(2.0)
    with pytest.raises(UnsupportedFunctionalError, match="convexity"):
        PiecewiseLinear(knots=(0.5,), slopes=(2.0, 1.0))  # concave
    with pytest.raises(UnsupportedFunctionalError, match="increasing"):
        PiecewiseLinear(knots=(0.5, 0.4), slopes=(0.0, 1.0, 2.0))
    with pytest.raises(UnsupportedFunctionalError, match="len"):
        PiecewiseLinear(knots=(0.5,), slopes=(1.0,))
    with pytest.raises(UnsupportedFunctionalError, match="nonnegative"):
        PiecewiseLinear(knots=(0.5,), slopes=(-1.0, 1.0))


@pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: Power(x),
        lambda x: PiecewiseLinear(knots=(x,), slopes=(0.0, 1.0)),
        lambda x: PiecewiseLinear(knots=(0.5, x), slopes=(0.0, 1.0, 2.0)),
        lambda x: PiecewiseLinear(knots=(0.5,), slopes=(0.0, x)),
        lambda x: PiecewiseLinear(knots=(0.5,), slopes=(x, x)),
    ],
    ids=["power", "knot", "last knot", "last slope", "slopes"],
)
def test_g_rejects_non_finite_parameters(build, x):
    # nan passes every ordering test, and inf makes the nodes nan: both are refused where G is built
    with pytest.raises(UnsupportedFunctionalError):
        build(x)


# G(u) = 2 max(0, u - 1/2) of u = e^(-r^2): 2 pi times the integral of e^(-s) - 1/2 over s in [0, ln 2]
_KINKED_G = PiecewiseLinear(knots=(0.5,), slopes=(0.0, 2.0))
_KINKED_EXACT = math.pi * (1.0 - math.log(2.0))


def test_piecewise_linear_closed_form():
    f = Coherent(center=(0.0, 0.0), alpha=1.0)
    for method in (GaussHermite(64), Radial()):
        est = convex_functional(f, P2, _KINKED_G, method=method)
        assert abs(est.value - _KINKED_EXACT) <= est.error_bound, method
    res = layer_cake(f, P2, _KINKED_G)
    assert res.mu_mode == "exact-radial"
    assert abs(res.value - _KINKED_EXACT) <= res.error_bound


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP item 11): the GH(32)/GH(16) gap does not resolve the kink of G "
    "at u = 1/2, so GH(32) returns 0.968786, 4.8e-3 off, 1.58x its stated bound 3.03e-3",
)
def test_piecewise_linear_closed_form_at_gh32():
    est = convex_functional(Coherent(center=(0.0, 0.0), alpha=1.0), P2, _KINKED_G, method=GaussHermite(32))
    assert abs(est.value - _KINKED_EXACT) <= est.error_bound


class _DipsBelowZero(ConvexFunction):
    """t^2 - 1e-18 for t > 0: negative for tiny u in the tails."""

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, t * t - 1e-18, 0.0)


@pytest.mark.parametrize("method", [GaussHermite(), Radial()], ids=repr)
def test_negative_G_is_rejected(method):
    with pytest.raises(UnsupportedFunctionalError, match="nonnegative"):
        convex_functional(Coherent(center=(0.0, 0.0), alpha=1.0), P2, _DipsBelowZero(), method=method)


@pytest.mark.lanes
def test_error_bound_is_nonnegative():
    for method in (GaussHermite(16), Radial(radial_nodes=24, angular_nodes=32),
                   MonteCarlo(samples=20_000, seed=5)):
        est = fock_norm(Monomial(powers=(1,)), P2, method=method)
        assert est.error_bound >= 0.0
