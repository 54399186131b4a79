"""Weighted-norm integration backends and convex functionals.

All backends integrate exp(log_h) over R^m against the Gaussian weight
exp(-(alpha p/2)|x|^2), the measure of the Gauss-Hermite and generalized
Gauss-Laguerre rules and of the importance-sampling proposal, so fock_norm hands
them log_h = p log|f| and never forms the weight.

One chunk budget, _CHUNK_POINTS = 2^18 nodes, bounds the live working set of
every backend: log_h gets its points as read-only (N, m) views, N at most
_CHUNK_POINTS, of one buffer that the next chunk overwrites, so it must not
keep them.  The two rules yield chunks (X, logw_table, offset), whose
log-weights are the table plus one scalar: Gauss-Hermite fixes the leading
coordinates of its tensor grid per chunk, the radial rule takes whole radii.
One reducer adds log_h(X) to the table in a fresh array, which it owns, runs
log-sum-exp on it in place and adds the offset to the chunk's log-sum; the
rules take a coarse/fine gap as error.  Monte Carlo draws block i of
_CHUNK_POINTS // 4 rows from child i of SeedSequence(seed, spawn_key=(1,))
and merges the blocks' means and variances in block order.

One lane runner, _in_lanes, runs numbered blocks in up to 4 lanes (one on the
calling thread, the others on threads it joins), each lane reusing one buffer
of at most _CHUNK_POINTS // 4 rows, and returns their results in block order.
Monte Carlo and the level cloud of levelset._nested_measures both run on it.
So log_h, and the cloud's density, may be called from up to 4 threads at
once: they must be pure and must call no function that perfbench wraps
(log_density_batch, envelope_radius, ...), whose span stack is not
thread-safe; the private functions._log_density_and_weight is not wrapped.
No backend writes into the array log_h returns.  Every backend returns log I
with a relative error of at least its roundoff; a nan or +inf log I raises.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import (
    InvalidInputError,
    MethodUnavailableError,
    NoEnvelopeError,
    UnsupportedFunctionalError,
)
from .functions import FockParams, TestFunction, _check_dims, _integer, _log_density_and_weight, _seed, envelope_radius

__all__ = [
    "GaussHermite",
    "Radial",
    "MonteCarlo",
    "IntegralEstimate",
    "NormEstimate",
    "FunctionalEstimate",
    "ConvexFunction",
    "Power",
    "PiecewiseLinear",
    "norm_constant",
    "gauss_hermite_integrate",
    "radial_integrate",
    "mc_integrate",
    "fock_norm",
    "convex_functional",
]

# hard cap on tensor-grid size; beyond this the backend refuses
_MAX_TENSOR_POINTS = 1 << 27
# the most points one chunk hands log_h, on every backend; grids up to _DOUBLING_BUDGET
# are error-estimated by doubling
_CHUNK_POINTS = 1 << 18
_DOUBLING_BUDGET = 1 << 24
# _in_lanes runs at most this many lanes at once, in blocks of _CHUNK_POINTS // _MAX_LANES rows
_MAX_LANES = 4
# numpy's hermgauss keeps every weight a normal double up to about 370 nodes
_MAX_GH_NODES = 256
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # exp of a larger log overflows a double


def _exp(log_value: float) -> float:
    """math.exp, with inf in place of OverflowError past the largest double."""
    return math.inf if log_value > _LOG_FLOAT_MAX else math.exp(log_value)


@dataclass(frozen=True)
class GaussHermite:
    """Tensor Gauss-Hermite rule with a fixed node count per axis."""

    nodes_per_axis: int = 32


@dataclass(frozen=True)
class Radial:
    """Generalized Gauss-Laguerre in radius times a product rule on the sphere."""

    radial_nodes: int = 48
    angular_nodes: int = 64


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded importance sampling against the Gaussian weight."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _seed(self.seed))


@dataclass(frozen=True)
class IntegralEstimate:
    """An integral I >= 0 as log I (-inf for I = 0) and a bound on its relative error.

    value and error_bound are derived; they read inf past the largest double.
    """

    log_value: float
    relative_error: float
    value = property(lambda self: _exp(self.log_value))
    error_bound = property(lambda self: self.relative_error * self.value)


@dataclass(frozen=True)
class NormEstimate:
    """Norm of f from the normalized p-th power integral I, held as log I and its relative error.

    raw_integral = I includes the normalizing constant, value = I^(1/p), and
    error_bound is on the raw_integral scale; all three read inf past the
    largest double, and value_error is error_bound propagated through the p-th root.
    """

    log_value: float
    relative_error: float
    method: object
    p: float
    value = property(lambda self: _exp(self.log_value / self.p))
    raw_integral = property(lambda self: _exp(self.log_value))
    error_bound = property(lambda self: self.relative_error * self.raw_integral)
    value_error = property(lambda self: self.relative_error * self.value / self.p)


@dataclass(frozen=True)
class FunctionalEstimate(IntegralEstimate):
    method: object


def norm_constant(params: FockParams) -> float:
    """Normalizer (alpha p / 2 pi)^(m/2) making the weight a probability measure."""
    return (params.rate / (2.0 * math.pi)) ** (params.m / 2.0)


# ---------------------------------------------------------------------------
# deterministic rules: (X, logw_table, offset) chunk generators, one reducer, one refinement pair


def _log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) over a 1-D float array that the caller owns; a is overwritten.

    With top = a[argmax(a)]: log1p(s) + top, s the sum of exp(a - top) over
    every other entry, in four passes over a (argmax, subtract, exp, sum) and
    no temporary.  A non-finite top (all -inf, a +inf or a nan) takes
    log(sum(exp(a))) directly.
    """
    i = int(np.argmax(a))
    top = float(a[i])
    if not math.isfinite(top):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(np.log(np.sum(np.exp(a, out=a))))
    np.subtract(a, top, out=a)
    np.exp(a, out=a)
    a[i] = 0.0
    return float(np.log1p(a.sum())) + top


def _check_fits(log_value: float) -> None:
    if math.isnan(log_value) or log_value == math.inf:
        raise MethodUnavailableError(f"log of the integral is {log_value}; the integrand overflowed")


def _roundoff(log_value: float, n: int) -> float:
    """Relative roundoff 2^-53 (8 |log I| + log2 n + 16), 0 for I = 0.

    Up to eight roundings of numbers the size of log I on the way to it, and
    the pairwise sum of n terms (Higham 4.2).
    """
    return 2.0**-53 * (8.0 * abs(log_value) + math.log2(n) + 16.0) if log_value > -math.inf else 0.0


def _integral(log_h: Callable, rule) -> tuple[float, int]:
    """(log of the integral of exp(log_h) on the rule, nodes evaluated); raises on nan or +inf.

    The rule yields (X, logw_table, offset).  Each chunk's one fresh array is
    log_h(X) + logw_table, reduced in place; the offset is added to its log-sum.
    """
    sums, n = [], 0
    for X, table, offset in rule:
        sums.append(_log_sum_exp(np.add(log_h(X), table)) + offset)
        n += len(table)
    log_value = _log_sum_exp(np.array(sums))
    _check_fits(log_value)
    return log_value, n


def _refine(log_h: Callable, coarse, fine, pruned=None) -> IntegralEstimate:
    """Integral of exp(log_h) on the fine rule; relative error max(|coarse/fine - 1|, roundoff).

    Rules yield (X, logw_table, offset).  `pruned`, if given, maps log coarse to
    None or to a rule that skips fine nodes adding at most 2^-53 coarse in all;
    it runs in place of `fine`, and that cap over the fine value is added to the error.
    Raises MethodUnavailableError when either log-integral is nan or +inf.
    """
    log_coarse, _ = _integral(log_h, coarse)
    log_cap = -math.inf
    if pruned is not None and (rule := pruned(log_coarse)) is not None:
        fine, log_cap = rule, log_coarse - 53.0 * math.log(2.0)
    log_value, n = _integral(log_h, fine)
    if log_value == -math.inf:  # a zero fine value: the coarse one, its own size as error
        return IntegralEstimate(log_coarse, 1.0 if log_coarse > -math.inf else 0.0)
    log_ratio = log_coarse - log_value
    gap = abs(math.expm1(log_ratio)) if log_ratio <= _LOG_FLOAT_MAX else math.inf
    return IntegralEstimate(log_value, max(gap, _roundoff(log_value, n)) + _exp(log_cap - log_value))


@lru_cache(maxsize=32)
def _gh_axis(n: int):
    # physicists' rule for the weight exp(-y^2)
    y, w = hermgauss(n)
    return y, np.log(w)


def _gh_frame(params: FockParams) -> tuple[float, float]:
    """(s, log s^m): the rule's nodes are x = s y, s = sqrt(2/(alpha p)), with Jacobian s^m."""
    return math.sqrt(2.0 / params.rate), 0.5 * params.m * math.log(2.0 / params.rate)


def _gh_cuts(n: int, k: int, radius_y: float):
    """Yield (outer, lo, hi) for each chunk of the n^m rule that keeps a node.

    The chunk fixes its leading k coordinates at y[outer]; each inner axis
    keeps y[lo:hi], the nodes with |y| <= sqrt(radius_y^2 - |y[outer]|^2), so
    every node it drops lies outside the ball |y| <= radius_y.
    """
    y, _ = _gh_axis(n)
    for outer in itertools.product(range(n), repeat=k):
        rho2 = radius_y * radius_y - sum(y[i] * y[i] for i in outer)  # inf keeps every node
        if rho2 >= 0.0:
            rho = math.sqrt(rho2)
            lo, hi = int(np.searchsorted(y, -rho, "left")), int(np.searchsorted(y, rho, "right"))
            if lo < hi:
                yield outer, lo, hi


def _gh_outer_dims(m: int, n: int) -> int:
    """Outer dimensions k of the n^m rule's chunks: the least with n^(m-k) <= _CHUNK_POINTS."""
    k = 0
    while n ** (m - k) > _CHUNK_POINTS:
        k += 1
    return k


def _gh_rule(params: FockParams, n: int, radius: float = math.inf):
    """Yield (X, logw_table, offset) chunks of the n^m tensor rule, at most _CHUNK_POINTS nodes each.

    The weights integrate against exp(-(alpha p/2)|x|^2), Jacobian included:
    node i of a chunk has log-weight logw_table[i] + offset.  A chunk fixes
    the leading k (outer) coordinates and runs the other m - k over a tensor
    grid, the last coordinate fastest: the full grid at radius inf, else the
    sub-grid of _gh_cuts, which skips only nodes with |x| > radius, and no
    chunk that keeps none.  X is a read-only, column-major (N, m) view of one
    buffer and logw_table a read-only view of another: each inner column and
    the table (the inner axes' log-weights added in axis order) are filled by
    broadcasts whenever the sub-grid changes, the outer columns are rewritten
    per chunk, so the next chunk overwrites the X yielded before it.  The
    offset is the outer log-weights' sum plus the log-Jacobian.
    """
    m = params.m
    y, lw = _gh_axis(n)
    scale, log_jac = _gh_frame(params)
    x = y * scale
    k = _gh_outer_dims(m, n)
    buf, table_buf = np.empty(n ** (m - k) * m), np.empty(n ** (m - k))
    cut = None
    for outer, lo, hi in _gh_cuts(n, k, radius / scale):
        if (lo, hi) != cut:
            cut, grid = (lo, hi), (hi - lo,) * (m - k)
            X = buf[: (hi - lo) ** (m - k) * m].reshape((-1, m), order="F")
            table = table_buf[: (hi - lo) ** (m - k)]
            for j in range(m - k):
                axis = tuple(hi - lo if i == j else 1 for i in range(m - k))
                np.copyto(X[:, k + j].reshape(grid), x[lo:hi].reshape(axis))
            _outer_sum(lw[lo:hi], m - k, table)
            view, table_view = X.view(), table.view()
            view.flags.writeable = table_view.flags.writeable = False
        X[:, :k] = x[list(outer)]
        yield view, table_view, sum(lw[i] for i in outer) + log_jac


def _outer_sum(v: np.ndarray, d: int, out: np.ndarray) -> None:
    """Fill out (length len(v)^d) with v[i_1] + ... + v[i_d], added left to right, i_d fastest.

    The partial sums over the first d - 1 axes are a temporary 1/len(v) the
    size of out; out is written once.  At d = 0 it holds the empty sum, 0.
    """
    part = np.zeros(1)
    for _ in range(d - 1):
        part = np.add.outer(part, v).reshape(-1)
    if d:
        np.add.outer(part, v, out=out.reshape(-1, len(v)))
    else:
        out[0] = 0.0


def _gh_pruned(params: FockParams, n: int, envelope: Callable, log_coarse: float):
    """The n^m rule without its nodes outside the envelope ball, or None for the full rule.

    A node x = s y of weight w (Jacobian included) adds w e^{|y|^2} u(x) to the
    integral of exp(log_h), u = exp(log_h - (alpha p/2)|x|^2).  So the ball at
    log t = log coarse - 53 log 2 - log S, S the sum of w e^{|y|^2} over all
    nodes, leaves out nodes that add at most t S = 2^-53 coarse; t need not be
    a double.  None when coarse is zero, when the ball holds no node, and when
    the cuts of `_gh_cuts` keep every node, so the full rule runs as it is and
    adds no cap.
    """
    if log_coarse == -math.inf:
        return None
    y, lw = _gh_axis(n)
    scale, log_jac = _gh_frame(params)
    log_t = log_coarse - 53.0 * math.log(2.0) - params.m * _log_sum_exp(lw + y * y) - log_jac
    radius = envelope(log_t) * (1.0 + 1e-12)  # covers the rounding of the radius and of |y|^2
    if not params.m * float(np.min(y * y)) <= (radius / scale) ** 2:
        return None
    k = _gh_outer_dims(params.m, n)
    if sum(hi - lo == n for _, lo, hi in _gh_cuts(n, k, radius / scale)) == n**k:
        return None
    return _gh_rule(params, n, radius)


def gauss_hermite_integrate(
    log_h: Callable, params: FockParams, nodes_per_axis: int = 32, envelope: Callable | None = None
) -> IntegralEstimate:
    """Integral of exp(log_h) against the weight over R^m; error from a node-count refinement pair.

    log_h gets read-only, column-major (N, m) chunks of at most
    _CHUNK_POINTS = 2^18 nodes that share one buffer; it must not keep them.
    A chunk fixes the leading coordinates, so 32^4 runs as 32 chunks of 32^3
    nodes.  envelope, if given, maps log t to a radius R with
    log u(x) = log_h(x) - (alpha p/2)|x|^2 < log t wherever |x| > R.  Then a
    fine grid of more than _CHUNK_POINTS nodes skips the nodes outside that
    ball at t = 2^-53 coarse / sum(w e^{|y|^2}), taken in logs at every scale,
    so the skipped nodes add at most 2^-53 coarse, and relative_error gains
    that cap over the fine value.
    """
    m = params.m
    if m > 6:
        raise MethodUnavailableError(f"tensor Gauss-Hermite supports m <= 6, got m={m}")
    n = _integer(nodes_per_axis, 8, "need an integer count of at least 8 nodes per axis")
    if n > _MAX_GH_NODES:
        raise MethodUnavailableError(
            f"Gauss-Hermite rules go up to {_MAX_GH_NODES} nodes per axis, got {n}"
        )
    if n**m > _MAX_TENSOR_POINTS:
        raise MethodUnavailableError(
            f"tensor grid {n}^{m} exceeds the supported budget of {_MAX_TENSOR_POINTS} points"
        )
    # refine by doubling while the finer rule fits both budgets, else halve for the coarse one
    double = 2 * n <= _MAX_GH_NODES and (2 * n) ** m <= _DOUBLING_BUDGET
    n_coarse, n_fine = (n, 2 * n) if double else (max(8, n // 2), n)
    pruned = None
    if envelope is not None and n_fine**m > _CHUNK_POINTS:  # below one chunk the envelope costs more
        pruned = partial(_gh_pruned, params, n_fine, envelope)
    return _refine(log_h, _gh_rule(params, n_coarse), _gh_rule(params, n_fine), pruned)


def _laguerre_pair(s: np.ndarray, n: int, a: float):
    """(L_(n-1), L_n, log_scale): generalized Laguerre L^(a) at s, both scaled by exp(-log_scale).

    Runs the three-term recurrence in difference form, d_k = L_k - L_(k-1),
    (k + 1) d_(k+1) = (k + a) d_k - s L_k, which never subtracts s from a large
    constant and so keeps small nodes to full relative accuracy; the values are
    rescaled at every step, since L_n grows like exp(s/2).
    """
    prev, cur, d = np.zeros_like(s), np.ones_like(s), np.ones_like(s)
    log_scale = np.zeros_like(s)
    for k in range(n):
        d = ((k + a) * d - s * cur) / (k + 1.0)
        prev, cur = cur, cur + d
        scale = np.abs(prev) + np.abs(cur)
        prev, cur, d = prev / scale, cur / scale, d / scale
        log_scale += np.log(scale)
    return prev, cur, log_scale


@lru_cache(maxsize=32)
def _radial_axis(n: int, m: int):
    """Nodes s and log-weights of the n-point rule for the weight s^a e^-s, a = m/2 - 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix, polished
    by one Newton step.  The weights, proportional to s / L_(n-1)(s)^2, are
    formed in log form from the recurrence, so they keep full relative accuracy
    where they fall far below the least normal double, and are scaled to sum to
    Gamma(a + 1), so the rule integrates constants to roundoff.
    """
    a = m / 2.0 - 1.0
    k = np.arange(n)
    off = np.sqrt(k[1:] * (k[1:] + a))
    s = np.linalg.eigvalsh(np.diag(2.0 * k + a + 1.0) + np.diag(off, 1) + np.diag(off, -1))
    prev, cur, _ = _laguerre_pair(s, n, a)
    s = s - s * cur / (n * cur - (n + a) * prev)  # s L_n' = n L_n - (n+a) L_(n-1)
    prev, _, log_scale = _laguerre_pair(s, n, a)
    log_w = np.log(s) - 2.0 * (np.log(np.abs(prev)) + log_scale)
    return s, log_w + (math.lgamma(a + 1.0) - _log_sum_exp(log_w.copy()))


@lru_cache(maxsize=32)
def _sphere_rule(m: int, n_ang: int):
    """Nodes and weights integrating the surface measure of S^(m-1) exactly-ish."""
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    if m == 1:
        omega = np.array([[1.0], [-1.0]])
        aw = np.array([1.0, 1.0])
    elif m == 2:
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        aw = np.full(n_ang, 2.0 * math.pi / n_ang)
    elif m == 3:
        n_pol = max(4, n_ang // 2)
        u, wu = leggauss(n_pol)
        su = np.sqrt(1.0 - u * u)
        xy = [np.outer(su, np.cos(theta)).ravel(), np.outer(su, np.sin(theta)).ravel()]
        omega = np.stack(xy + [np.repeat(u, n_ang)], axis=1)
        aw = np.repeat(wu * 2.0 * math.pi / n_ang, n_ang)
    else:
        raise MethodUnavailableError(f"radial backend supports m <= 3, got m={m}")
    return omega, aw


def _radial_rule(params: FockParams, nr: int, na: int):
    """Yield the radial-spherical rule (m <= 3) as (X, logw_table, offset) chunks of whole radii.

    A chunk runs every node of the sphere rule at each of its radii, as many
    radii as fit in _CHUNK_POINTS nodes (at least one), the angle fastest; a
    rule of at most _CHUNK_POINTS nodes, as every default rule at m <= 2, is
    one chunk.  X (row-major) and logw_table are
    read-only views of two buffers that the next chunk overwrites; the offset
    is the log-Jacobian, the same for every chunk.
    """
    m = params.m
    s, lws = _radial_axis(nr, m)
    omega, aw = _sphere_rule(m, na)
    r = np.sqrt(2.0 * s / params.rate)
    log_jac = math.log(0.5) + 0.5 * m * math.log(2.0 / params.rate)
    log_aw = np.log(aw)
    per = max(1, _CHUNK_POINTS // len(aw))  # radii per chunk
    buf, table_buf = np.empty((min(per, nr), len(aw), m)), np.empty((min(per, nr), len(aw)))
    for lo in range(0, nr, per):
        hi = min(lo + per, nr)
        np.multiply(r[lo:hi, None, None], omega[None, :, :], out=buf[: hi - lo])
        np.add(lws[lo:hi, None], log_aw[None, :], out=table_buf[: hi - lo])
        X, table = buf[: hi - lo].reshape(-1, m), table_buf[: hi - lo].reshape(-1)
        X.flags.writeable = table.flags.writeable = False
        yield X, table, log_jac


def radial_integrate(
    log_h: Callable, params: FockParams, radial_nodes: int = 48, angular_nodes: int = 64
) -> IntegralEstimate:
    """Integral of exp(log_h) against the weight, m <= 3; error from doubling both node counts."""
    message = "radial and angular node counts must be integers of at least 4"
    nr, na = _integer(radial_nodes, 4, message), _integer(angular_nodes, 4, message)
    return _refine(log_h, _radial_rule(params, nr, na), _radial_rule(params, 2 * nr, 2 * na))


# ---------------------------------------------------------------------------
# Monte Carlo


def _merge_moments(a, b):
    """Pairwise update of (n, mean, M2) summaries, M2 the sum of squared deviations.

    Chan, Golub & LeVeque (1979): the summary of the union of the two samples.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def _lane_count() -> int:
    """Lanes _in_lanes may run at once: the cores this process may use, at most _MAX_LANES."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cores, _MAX_LANES)


def _block_sizes(n: int) -> list[int]:
    """Rows of each block of n points: _CHUNK_POINTS // _MAX_LANES = 2^16 each, the last one ragged."""
    rows = _CHUNK_POINTS // _MAX_LANES
    return [min(rows, n - lo) for lo in range(0, n, rows)]


def _lane(block: Callable, jobs, buf: np.ndarray, results: list) -> None:
    """results[i] = block(buf[:rows], arg) for each (i, rows, arg) of jobs, in order.

    The first exception is stored in place of its block's result and stops
    the lane, so the caller can raise it again.
    """
    try:
        for i, rows, arg in jobs:
            results[i] = block(buf[:rows], arg)
    except BaseException as exc:  # raised again on the calling thread
        results[i] = exc


def _in_lanes(block: Callable, sizes: list[int], args: list, width: int) -> list:
    """[block(buf[:sizes[i]], args[i]) for each block i], in block order, run in lanes.

    There are min(_lane_count(), blocks, ceil(total rows / 2^16)) lanes: one
    on the calling thread, the others on threads joined before the call
    returns.  Lane k runs blocks k, k + lanes, ... and hands each the leading
    rows of its own (max(sizes), width) buffer, which the lane's next block
    overwrites.  So block may run on up to _MAX_LANES threads at once: it must
    write only to its buffer and its result, and must call no function that
    perfbench wraps (log_density_batch, envelope_radius, ...), whose span
    stack is not thread-safe.  An exception in a lane is raised again on the
    caller, that of the first failing block in block order.
    """
    if not sizes:
        return []
    jobs = list(zip(range(len(sizes)), sizes, args))
    lanes = min(_lane_count(), len(jobs), -(-sum(sizes) // (_CHUNK_POINTS // _MAX_LANES)))
    bufs = np.empty((lanes, max(sizes), width))
    results = [None] * len(jobs)
    workers = [
        threading.Thread(target=_lane, args=(block, jobs[k::lanes], bufs[k], results), daemon=True)
        for k in range(1, lanes)
    ]
    started = []
    try:
        for worker in workers:
            worker.start()
            started.append(worker)
        _lane(block, jobs[::lanes], bufs[0], results)
    finally:
        for worker in started:
            worker.join()
    for result in results:  # a lane's unfilled blocks follow the exception that stopped it
        if isinstance(result, BaseException):
            raise result
    return results


def mc_integrate(
    log_h: Callable, params: FockParams, samples: int = 100_000, seed: int = 0
) -> IntegralEstimate:
    """Integral of exp(log_h) against the weight, by sampling the normalized weight.

    The points come in blocks of _CHUNK_POINTS // 4 = 2^16 rows, the last one
    ragged.  Block i is default_rng(child i of SeedSequence(seed, spawn_key=(1,)))
    .standard_normal((rows, m)) / sqrt(alpha p), so its stream depends on seed
    and i alone, not on samples or the machine.  It shares no draw with the
    level cloud's block streams (children of spawn key (0,)) or with
    default_rng(seed), the find_max stream.

    The blocks run in the lanes of _in_lanes, one per core this process may
    use and at most 4, each drawing into its own reused buffer, so the lanes
    together hold at most _CHUNK_POINTS rows.  log_h may thus be called from
    up to 4 threads at once, on read-only views of those buffers, under
    numpy's default error state: it must be pure, must not keep X, and must
    call no function that perfbench wraps (log_density_batch,
    envelope_radius, ...), since perfbench/spans.py keeps one span stack that
    is not thread-safe.  fock_norm's and convex_functional's integrands meet this.

    Each block keeps its peak log-ratio w, the mean of e^(w - peak) and the
    sum of squared deviations about that mean (two passes); the caller
    rescales the blocks to the global peak and merges them in block order by
    the pairwise update of Chan, Golub & LeVeque.  log I is peak + log(mean),
    its relative error the standard error over the mean or the roundoff,
    whichever is larger.  Bit-identical for identical (seed, samples, params),
    whatever the lane count and the thread schedule.  Raises
    MethodUnavailableError on a nan or +inf log-ratio; an exception in a lane
    is raised again on the caller, that of the first failing block in block order.
    """
    samples = _integer(samples, 1000, "need an integer count of at least 1000 samples")
    root_rate, log_c = math.sqrt(params.rate), math.log(norm_constant(params))

    def block(X, stream):
        """(peak, (n, mean of e^(w - peak), M2 about that mean)) of one block drawn into X."""
        np.random.default_rng(stream).standard_normal(out=X)
        X /= root_rate
        points = X.view()
        points.flags.writeable = False
        w = log_h(points) - log_c  # log-ratios in an array of our own
        peak = float(np.max(w))
        _check_fits(peak)  # raises before inf - inf turns the weights into nan
        if peak == -math.inf:
            return peak, (len(w), 0.0, 0.0)
        np.exp(np.subtract(w, peak, out=w), out=w)
        mean = float(np.mean(w))
        np.square(np.subtract(w, mean, out=w), out=w)
        return peak, (len(w), mean, float(np.sum(w)))

    sizes = _block_sizes(samples)
    streams = np.random.SeedSequence(seed, spawn_key=(1,)).spawn(len(sizes))
    results = _in_lanes(block, sizes, streams, params.m)
    peak = max(block_peak for block_peak, _ in results)
    if peak == -math.inf:
        return IntegralEstimate(-math.inf, 0.0)
    rescaled = []
    for block_peak, (n, mean, m2) in results:
        shrink = math.exp(block_peak - peak)
        rescaled.append((n, mean * shrink, m2 * shrink * shrink))
    _, mean_w, m2 = reduce(_merge_moments, rescaled)
    log_value = peak + math.log(mean_w)  # mean_w >= 1/samples: the peak weight is 1
    stderr = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples) / mean_w
    return IntegralEstimate(log_value, max(stderr, _roundoff(log_value, samples)))


# ---------------------------------------------------------------------------
# norm and convex functionals


def _dispatch_raw(log_h: Callable, params: FockParams, method, envelope=None) -> IntegralEstimate:
    if isinstance(method, GaussHermite):
        return gauss_hermite_integrate(log_h, params, method.nodes_per_axis, envelope)
    if isinstance(method, Radial):
        return radial_integrate(log_h, params, method.radial_nodes, method.angular_nodes)
    if isinstance(method, MonteCarlo):
        return mc_integrate(log_h, params, method.samples, method.seed)
    raise InvalidInputError(f"unknown integration method {method!r}")


def fock_norm(f: TestFunction, params: FockParams, method=GaussHermite()) -> NormEstimate:
    """Weighted p-norm of f: (normalized integral of |f|^p against the weight)^(1/p), in logs.

    Raises MethodUnavailableError when the norm passes the largest double or the integral is nan.
    """
    if not f.has_envelope(params):
        raise NoEnvelopeError(
            "the weighted p-th power integral diverges for this function at these params"
        )
    _check_dims(f, params)
    est = _dispatch_raw(
        lambda X: params.p * f.log_abs(X), params, method, partial(envelope_radius, f, params)
    )
    norm = NormEstimate(math.log(norm_constant(params)) + est.log_value, est.relative_error, method, params.p)
    if norm.value == math.inf:
        raise MethodUnavailableError(f"the norm, exp({norm.log_value / params.p:.6g}), overflows a double")
    return norm


class ConvexFunction:
    """Convex nondecreasing G on [0, inf) with G(0) = 0; value and derivative take arrays of t.

    Power and PiecewiseLinear check themselves when they are built and raise
    UnsupportedFunctionalError there.  They cover the class: every such G is a
    monotone limit of PiecewiseLinear ones.  Other subclasses are not checked,
    except that the generic log_value raises where G < 0.
    """

    def value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_value(self, log_t: np.ndarray) -> np.ndarray:
        """log G(exp(log_t)) in a fresh array; raises UnsupportedFunctionalError where G < 0."""
        with np.errstate(over="ignore"):  # an overflowing t reaches the typed check as inf
            g = self.value(np.exp(log_t))
        if np.any(g < 0):
            raise UnsupportedFunctionalError("G must be nonnegative")
        with np.errstate(divide="ignore"):
            return np.log(g)


@dataclass(frozen=True)
class Power(ConvexFunction):
    """G(t) = t^r with r >= 1."""

    exponent: float

    def __post_init__(self):
        if not (self.exponent >= 1.0) or not math.isfinite(self.exponent):
            raise UnsupportedFunctionalError(
                f"power exponent must be >= 1, got {self.exponent}"
            )

    def value(self, t):
        return np.asarray(t, dtype=float) ** self.exponent

    def log_value(self, log_t):
        return self.exponent * np.asarray(log_t, dtype=float)

    def derivative(self, t):
        r = self.exponent
        return r * np.asarray(t, dtype=float) ** (r - 1.0)


@dataclass(frozen=True)
class PiecewiseLinear(ConvexFunction):
    """Continuous piecewise-linear G with G(0) = 0.

    slopes[i] applies on [knots[i-1], knots[i]] (knots[-1] extends to infinity);
    convexity requires the slopes to be nondecreasing, and we additionally ask
    for nonnegative slopes so that G is nondecreasing.
    """

    knots: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))
        object.__setattr__(self, "slopes", tuple(float(s) for s in self.slopes))
        if len(self.slopes) != len(self.knots) + 1:
            raise UnsupportedFunctionalError("need len(slopes) == len(knots) + 1")
        if not all(map(math.isfinite, self.knots + self.slopes)):
            raise UnsupportedFunctionalError("knots and slopes must be finite")
        if any(k <= 0 for k in self.knots) or any(
            b <= a for a, b in zip(self.knots, self.knots[1:])
        ):
            raise UnsupportedFunctionalError("knots must be positive and strictly increasing")
        if any(b < a for a, b in zip(self.slopes, self.slopes[1:])):
            raise UnsupportedFunctionalError("slopes must be nondecreasing (convexity)")
        if self.slopes[0] < 0:
            raise UnsupportedFunctionalError("slopes must be nonnegative (G nondecreasing)")

    def _nodes(self):
        xs = np.concatenate([[0.0], np.asarray(self.knots)])
        ys = np.concatenate([[0.0], np.cumsum(np.diff(xs) * np.asarray(self.slopes[:-1]))])
        return xs, ys

    def value(self, t):
        t = np.asarray(t, dtype=float)
        xs, ys = self._nodes()
        out = np.interp(t, xs, ys)
        beyond = t > xs[-1]
        if np.any(beyond):
            out = np.where(beyond, ys[-1] + self.slopes[-1] * (t - xs[-1]), out)
        return out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.knots), t, side="right")
        return np.asarray(self.slopes)[idx]


def convex_functional(
    f: TestFunction, params: FockParams, G: ConvexFunction, method=GaussHermite()
) -> FunctionalEstimate:
    """Integral of G(u) over R^m for convex nondecreasing G with G(0) = 0.

    Runs through the norm backends with log_h = log G(u) + (alpha p/2)|x|^2,
    log G(u) from G.log_value(log u).
    """
    if not f.has_envelope(params):
        raise NoEnvelopeError("density is unbounded; the functional diverges")

    def log_G(X):
        log_u, log_h = _log_density_and_weight(f, params, X)  # log_h = (alpha p/2)|x|^2
        log_h += G.log_value(log_u)
        return log_h

    est = _dispatch_raw(log_G, params, method)
    if est.value == math.inf:
        raise MethodUnavailableError(f"the functional, exp({est.log_value:.6g}), overflows a double")
    return FunctionalEstimate(est.log_value, est.relative_error, method)
