"""Weighted-norm integration backends and convex functionals.

All backends integrate exp(log_h) over R^m against the Gaussian weight
exp(-(alpha p/2)|x|^2), the measure of the Gauss-Hermite and generalized
Gauss-Laguerre rules and of the importance-sampling proposal, so fock_norm hands
them log_h = p log|f| and never forms the weight.

Every backend, and the level cloud of levelset._nested_measures, runs its
chunks through one runner, _run_chunks, which states the contract log_h
meets: a chunk fills its points and a table into its lane's buffer (up to 4
lanes, one on the calling thread), and the caller's reducer gets log_h(X) +
table, in chunk order at any lane count.  Gauss-Hermite fixes the leading
coordinates of its tensor grid per chunk and the radial rule takes whole
radii, their tables the log-weights and their reducer a log-sum-exp; Monte
Carlo's chunks are seeded blocks, its table -log c and its reducer a block's
moments; the cloud's are seeded blocks on a shell, its table -0.0 and its
reducer the counts below each threshold.  One chunk budget, _CHUNK_POINTS =
2^18 nodes, bounds the working set: no chunk is larger, and the lanes hold
at most that many rows together (2^16 for a rule's chunks), or one chunk
where that is larger.  No backend writes into the array log_h returns.
Both rules climb one rung ladder, _ladder, which states what a rung hands
it; Gauss-Hermite's rung, _gh_rung, states its pruning to the envelope ball.
Every backend returns log I with a relative error of at least its roundoff;
a nan or +inf log I raises.
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
from .functions import (
    FockParams, TestFunction, _check_dims, _integer, _log_density_and_weight, _real, _seed, _stream, envelope_radius
)

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
# _run_chunks runs at most this many lanes at once; the samplers' blocks have _CHUNK_POINTS // _MAX_LANES rows
_MAX_LANES = 4
# the most samples any sampler takes: 2^14 blocks of 2^16 rows
_MAX_SAMPLES = 1 << 30
# numpy's hermgauss keeps every weight a normal double up to about 370 nodes
_MAX_GH_NODES = 256
# the Gauss-Hermite ladder's rungs below a cap: 8 and 12 nodes per axis times powers of 2
_GH_RUNGS = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192)
# the most radial or angular nodes a radial rule takes; its fine rule doubles both
_MAX_RADIAL_NODES = 256
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # exp of a larger log overflows a double


def _exp(log_value: float) -> float:
    """math.exp, with inf in place of OverflowError past the largest double."""
    return math.inf if log_value > _LOG_FLOAT_MAX else math.exp(log_value)


@dataclass(frozen=True)
class GaussHermite:
    """Tensor Gauss-Hermite rules up to nodes_per_axis, a cap from 8 to 256.

    Its rungs and their pruning are those of gauss_hermite_integrate; they
    run in lanes, so the integrand must be pure.
    """

    nodes_per_axis: int = 32


@dataclass(frozen=True)
class Radial:
    """Generalized Gauss-Laguerre in radius times a product rule on the sphere, m <= 3.

    The two counts, each from 4 to 256, are a cap; its rungs are those of
    radial_integrate, run in lanes, so the integrand must be pure.
    """

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
# the chunk body of every backend; the deterministic rules: chunk specs, one reducer, one rung ladder


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


def _run_chunks(log_h: Callable, chunks: tuple, summary: Callable, width: int, rows: int | None = None) -> list:
    """[summary(log_h(X) + table, offset) for each chunk], in chunk order, run in lanes: the one chunk runner.

    chunks is (sizes, specs, fill, m): chunk i, of sizes[i] points, runs on
    the leading sizes[i] rows of its lane's (largest, width) buffer, whose
    first sizes[i] * m entries are its points and the rest its table.
    fill(points, table, specs[i], held), held the spec whose chunk the buffer
    holds or None, writes them and returns (X, table, offset): X the (N, m)
    view of points, table the one written or a scalar.  summary may overwrite
    log_h(X) + table, the chunk's one fresh array.

    There are min(_lane_count(), chunks, ceil(total points / 2^16), rows //
    largest chunk) lanes, at least one, so they hold at most rows rows
    (_CHUNK_POINTS unless given) or one chunk; one runs on the calling thread,
    the others on threads joined before the call returns.  Lane k runs chunks
    k, k + lanes, ..., each overwriting the last in its buffer.  log_h gets X
    read-only, may be called from up to 4 threads at once and must be pure,
    must not keep X and must call no function that perfbench wraps
    (log_density_batch, envelope_radius, ...; not
    functions._log_density_and_weight), whose span stack is not thread-safe.
    A lane's exception is raised again on the caller, the first in chunk order.
    """
    sizes, specs, fill, m = chunks
    if not sizes:
        return []
    lane = threading.local()  # the spec each lane's buffer holds, in this call only

    def chunk(buf, spec):
        points, table = np.split(buf.reshape(-1), [len(buf) * m])
        X, table, offset = fill(points, table, spec, getattr(lane, "held", None))
        lane.held = spec
        X.flags.writeable = False
        return summary(np.add(log_h(X), table), offset)

    jobs = list(zip(range(len(sizes)), sizes, specs))
    largest, rows = max(sizes), _CHUNK_POINTS if rows is None else rows
    lanes = max(1, min(_lane_count(), len(jobs), -(-sum(sizes) // (_CHUNK_POINTS // _MAX_LANES)), rows // largest))
    bufs = np.empty((lanes, largest, width))
    results = [None] * len(jobs)
    started = []
    try:
        for k in range(1, lanes):
            worker = threading.Thread(target=_lane, args=(chunk, jobs[k::lanes], bufs[k], results), daemon=True)
            worker.start()
            started.append(worker)
        _lane(chunk, jobs[::lanes], bufs[0], results)
    finally:
        for worker in started:
            worker.join()
    for result in results:  # a lane's unfilled chunks follow the exception that stopped it
        if isinstance(result, BaseException):
            raise result
    return results


def _lane_count() -> int:
    """Lanes _run_chunks may run at once: the cores this process may use, at most _MAX_LANES."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cores, _MAX_LANES)


def _lane(chunk: Callable, jobs, buf: np.ndarray, results: list) -> None:
    """results[i] = chunk(buf[:rows], spec) for each (i, rows, spec) of jobs, in order.

    The first exception is stored in place of its chunk's result and stops
    the lane, so the caller can raise it again.
    """
    try:
        for i, rows, spec in jobs:
            results[i] = chunk(buf[:rows], spec)
    except BaseException as exc:  # raised again on the calling thread
        results[i] = exc


def _integral(log_h: Callable, rule: tuple) -> tuple[float, int]:
    """(log of the integral of exp(log_h) on the rule, nodes evaluated); raises on nan or +inf.

    rule is the chunks of _run_chunks, its tables the log-weights less the
    chunk's offset, its sums merged in chunk order: the same bits at any lane count.
    """
    sizes, _, _, m = rule
    # the lanes hold 2^16 nodes together, as one lane does for a 16^4 grid, or else one chunk alone
    sums = _run_chunks(log_h, rule, lambda a, offset: _log_sum_exp(a) + offset, m + 1, _CHUNK_POINTS // _MAX_LANES)
    log_value = _log_sum_exp(np.array(sums))
    _check_fits(log_value)
    return log_value, sum(sizes)


def _ladder(log_h: Callable, rungs: list, rule: Callable) -> IntegralEstimate:
    """Integral of exp(log_h) on the first pair of rungs that agrees to roundoff, else on the last pair.

    rule(rung, log_prev) is (chunks, log_cap): the rung's chunks, as _integral
    takes them, and the log of a cap on what the nodes it skips add, -inf
    where it skips none; log_prev is the log-integral of the rung below, -inf
    for the first rung.  Each rung's integral is the fine value of one pair
    and the coarse value of the next.  A pair states relative error
    max(|coarse/fine - 1|, roundoff) plus the fine rung's cap over its value;
    it ends the ladder when its gap lies within its roundoff and its fine
    value is nonzero, and the last pair ends it in any case, a zero fine value
    there handing back the coarse one with its own size as error.  Raises
    MethodUnavailableError when a log-integral is nan or +inf.
    """
    log_coarse, _ = _integral(log_h, rule(rungs[0], -math.inf)[0])
    for i, rung in enumerate(rungs[1:], 2):
        last = i == len(rungs)
        fine, log_cap = rule(rung, log_coarse)
        log_value, n = _integral(log_h, fine)
        if log_value > -math.inf:
            log_ratio = log_coarse - log_value
            gap = abs(math.expm1(log_ratio)) if log_ratio <= _LOG_FLOAT_MAX else math.inf
            roundoff = _roundoff(log_value, n)
            if gap <= roundoff or last:
                return IntegralEstimate(log_value, max(gap, roundoff) + _exp(log_cap - log_value))
        elif last:  # a zero fine value: the coarse one, its own size as error
            return IntegralEstimate(log_coarse, 1.0 if log_coarse > -math.inf else 0.0)
        log_coarse = log_value


@lru_cache(maxsize=32)
def _gh_axis(n: int):
    # physicists' rule for the weight exp(-y^2)
    y, w = hermgauss(n)
    return y, np.log(w)


def _gh_frame(params: FockParams) -> tuple[float, float]:
    """(s, log s^m): the rule's nodes are x = s y, s = sqrt(2/(alpha p)), with Jacobian s^m."""
    return math.sqrt(2.0 / params.rate), 0.5 * params.m * math.log(2.0 / params.rate)


def _gh_outer_dims(m: int, n: int) -> int:
    """Outer dimensions k of the n^m rule's chunks: the least with n^(m-k) <= _CHUNK_POINTS."""
    k = 0
    while n ** (m - k) > _CHUNK_POINTS:
        k += 1
    return k


def _gh_rule(params: FockParams, n: int, radius: float = math.inf) -> tuple:
    """The n^m tensor rule for the weight as chunks (outer, lo, hi) of at most _CHUNK_POINTS nodes.

    A chunk fixes the leading k coordinates at x[outer] and runs the other
    m - k over the grid of x[lo:hi], the last fastest; each inner axis keeps
    |y| <= sqrt(radius_y^2 - |y[outer]|^2), so only nodes with |x| > radius
    are skipped, and no chunk keeps none.  Its fill writes X, column-major,
    and the table (the inner log-weights added in axis order) by broadcasts,
    or only the outer columns where the buffer holds the same sub-grid; the
    offset is the outer log-weights' sum plus the log-Jacobian.
    """
    m = params.m
    y, lw = _gh_axis(n)
    scale, log_jac = _gh_frame(params)
    x, radius_y = y * scale, radius / scale
    k = _gh_outer_dims(m, n)
    specs = []
    for outer in itertools.product(range(n), repeat=k):
        rho2 = radius_y * radius_y - sum(y[i] * y[i] for i in outer)  # inf keeps every node
        if rho2 >= 0.0:
            rho = math.sqrt(rho2)
            lo, hi = int(np.searchsorted(y, -rho, "left")), int(np.searchsorted(y, rho, "right"))
            if lo < hi:
                specs.append((outer, lo, hi))

    def fill(points, table, spec, held):
        outer, lo, hi = spec
        X = points.reshape((-1, m), order="F")
        if held is None or held[1:] != (lo, hi):
            grid = (hi - lo,) * (m - k)
            for j in range(m - k):
                axis = tuple(hi - lo if i == j else 1 for i in range(m - k))
                np.copyto(X[:, k + j].reshape(grid), x[lo:hi].reshape(axis))
            _outer_sum(lw[lo:hi], m - k, table)
        X[:, :k] = x[list(outer)]
        return X, table, sum(lw[i] for i in outer) + log_jac

    return [(hi - lo) ** (m - k) for _, lo, hi in specs], specs, fill, m


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


def _gh_rung(params: FockParams, envelope: Callable | None, n: int, log_prev: float) -> tuple:
    """The n^m rule as a rung of _ladder: (chunks, log_cap), without its nodes outside the envelope ball.

    A node x = s y of weight w (Jacobian included) adds w e^{|y|^2} u(x) to the
    integral of exp(log_h), u = exp(log_h - (alpha p/2)|x|^2).  So the ball at
    log t = log_cap - log S, log_cap = log prev - 53 log 2 and S the sum of
    w e^{|y|^2} over all nodes, leaves out nodes that add at most t S =
    2^-53 prev; t need not be a double.  The full rule runs, with cap -inf,
    where there is no envelope, where the rule fits in one _CHUNK_POINTS
    chunk and the envelope costs more than it saves, where prev is zero,
    where the ball holds no node and where it keeps every node, its rule
    then the full one as built.
    """
    m = params.m
    if envelope is None or n**m <= _CHUNK_POINTS or log_prev == -math.inf:
        return _gh_rule(params, n), -math.inf
    y, lw = _gh_axis(n)
    scale, log_jac = _gh_frame(params)
    log_cap = log_prev - 53.0 * math.log(2.0)
    log_t = log_cap - m * _log_sum_exp(lw + y * y) - log_jac
    radius = envelope(log_t) * (1.0 + 1e-12)  # covers the rounding of the radius and of |y|^2
    if not m * float(np.min(y * y)) <= (radius / scale) ** 2:
        return _gh_rule(params, n), -math.inf
    rule = _gh_rule(params, n, radius)  # the cuts, walked once
    return rule, -math.inf if sum(rule[0]) == n**m else log_cap


def gauss_hermite_integrate(
    log_h: Callable, params: FockParams, nodes_per_axis: int = 32, envelope: Callable | None = None
) -> IntegralEstimate:
    """Integral of exp(log_h) against the weight over R^m, on a ladder of rules capped by nodes_per_axis.

    The cap's pair is (n, 2n) nodes per axis, or (max(8, n/2), n) where the
    2n grid would pass 2^24 points.  Where its fine grid spans more than one
    chunk of _CHUNK_POINTS = 2^18 nodes, the rules of 8, 12, 16, 24, 32, 48,
    ... nodes below the cap's coarse one run first; `_ladder` says which pair
    ends the climb.  log_h gets column-major chunks of at most _CHUNK_POINTS
    nodes, as _run_chunks says (32^4 runs as 32 chunks of 32^3 on 2 lanes).
    envelope, if given, runs on the calling thread and maps log t to a radius
    R with log u(x) = log_h(x) - (alpha p/2)|x|^2 < log t wherever |x| > R;
    each rung skips its nodes outside that ball as `_gh_rung` says.
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
    rungs = [n, 2 * n] if double else [max(8, n // 2), n]
    if rungs[1] ** m > _CHUNK_POINTS:  # below one chunk a rung costs more than it can save
        rungs[:0] = [r for r in _GH_RUNGS if r < rungs[0]]
    return _ladder(log_h, rungs, partial(_gh_rung, params, envelope))


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


def _radial_rule(params: FockParams, nr: int, na: int) -> tuple:
    """The radial-spherical rule (m <= 3) as chunks of whole radii, one per radius range (lo, hi).

    A chunk runs every node of the sphere rule at each of its radii, as many
    radii as fit in _CHUNK_POINTS nodes (at least one), the angle fastest, so
    every default rule at m <= 2 is one chunk.  Its fill writes X, row-major,
    and the table; the offset is the log-Jacobian.
    """
    m = params.m
    s, lws = _radial_axis(nr, m)
    omega, aw = _sphere_rule(m, na)
    r = np.sqrt(2.0 * s / params.rate)
    log_jac = math.log(0.5) + 0.5 * m * math.log(2.0 / params.rate)
    log_aw = np.log(aw)
    per = max(1, _CHUNK_POINTS // len(aw))  # radii per chunk
    specs = [(lo, min(lo + per, nr)) for lo in range(0, nr, per)]

    def fill(points, table, spec, held):
        lo, hi = spec
        np.multiply(r[lo:hi, None, None], omega[None, :, :], out=points.reshape(hi - lo, len(aw), m))
        np.add(lws[lo:hi, None], log_aw[None, :], out=table.reshape(hi - lo, len(aw)))
        return points.reshape(-1, m), table, log_jac

    return [(hi - lo) * len(aw) for lo, hi in specs], specs, fill, m


def radial_integrate(
    log_h: Callable, params: FockParams, radial_nodes: int = 48, angular_nodes: int = 64
) -> IntegralEstimate:
    """Integral of exp(log_h) against the weight, m <= 3, on a ladder of rules capped by the two counts.

    The cap's pair doubles both counts.  Where its fine rule spans more than
    one chunk of _CHUNK_POINTS nodes (the default rule at m = 3, never at
    m <= 2), the rules with both counts halved, down to the last with both at
    least 4, run first; `_ladder` says which pair ends the climb, and no rung
    skips a node.  log_h gets row-major chunks, as _run_chunks says; a chunk
    of more than 2^15 nodes, as at m = 3, runs on one lane.
    """
    message = f"radial and angular node counts must be integers from 4 to {_MAX_RADIAL_NODES}"
    nr = _integer(radial_nodes, 4, message, _MAX_RADIAL_NODES)
    na = _integer(angular_nodes, 4, message, _MAX_RADIAL_NODES)
    rungs = [(nr, na), (2 * nr, 2 * na)]
    if 2 * nr * len(_sphere_rule(params.m, 2 * na)[1]) > _CHUNK_POINTS:
        while min(rungs[0]) >= 8:  # halve both counts down to the last pair of at least 4
            rungs.insert(0, (rungs[0][0] // 2, rungs[0][1] // 2))
    return _ladder(log_h, rungs, lambda rung, log_prev: (_radial_rule(params, *rung), -math.inf))


# ---------------------------------------------------------------------------
# Monte Carlo


def _block_moments(w: np.ndarray, offset: None):
    """(peak, (n, mean of e^(w - peak), M2 about that mean)) of a block's log-ratios w, overwritten; no offset."""
    peak = float(np.max(w))
    _check_fits(peak)  # raises before inf - inf turns the weights into nan
    if peak == -math.inf:
        return peak, (len(w), 0.0, 0.0)
    np.exp(np.subtract(w, peak, out=w), out=w)
    mean = float(np.mean(w))
    np.square(np.subtract(w, mean, out=w), out=w)
    return peak, (len(w), mean, float(np.sum(w)))


def _merge_moments(a, b):
    """Pairwise update of (n, mean, M2) summaries, M2 the sum of squared deviations.

    Chan, Golub & LeVeque (1979): the summary of the union of the two samples.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def _samples(samples) -> int:
    """samples as an int from 1000 to _MAX_SAMPLES = 2^30, before any block is sized; else InvalidInputError."""
    return _integer(samples, 1000, f"need an integer count of 1000 to {_MAX_SAMPLES} samples", _MAX_SAMPLES)


def _block_sizes(n: int) -> list[int]:
    """Rows of each block of n points: _CHUNK_POINTS // _MAX_LANES = 2^16 each, the last one ragged."""
    rows = _CHUNK_POINTS // _MAX_LANES
    return [min(rows, n - lo) for lo in range(0, n, rows)]


def mc_integrate(
    log_h: Callable, params: FockParams, samples: int = 100_000, seed: int = 0
) -> IntegralEstimate:
    """Integral of exp(log_h) against the weight, by sampling the normalized weight.

    samples runs from 1000 to 2^30.  The points come in blocks of
    _CHUNK_POINTS // 4 = 2^16 rows, the last one ragged.  Block i is
    default_rng(child i of the "mc" stream SeedSequence(seed, spawn_key=(1,)))
    .standard_normal((rows, m)) / sqrt(alpha p), so its stream depends on seed
    and i alone, not on samples or the machine.  It shares no draw with the
    other streams of functions._STREAMS.

    The blocks are the chunks of _run_chunks, whose contract log_h meets
    under numpy's default error state, their table -log c, c the normalizer.
    Each block keeps its peak log-ratio w = log_h - log c, the mean of
    e^(w - peak) and the sum of squared deviations about that mean (two
    passes); the caller rescales the blocks to the global peak and merges
    them in block order by the pairwise update of Chan, Golub & LeVeque.
    log I is peak + log(mean), its relative error the standard error over the
    mean or the roundoff, whichever is larger.  Bit-identical for identical
    (seed, samples, params), whatever the lane count and the thread schedule.
    Raises MethodUnavailableError on a nan or +inf log-ratio.
    """
    samples, seed = _samples(samples), _seed(seed)
    m, root_rate, log_c = params.m, math.sqrt(params.rate), math.log(norm_constant(params))

    def fill(points, table, stream, held):
        X = points.reshape(-1, m)
        np.random.default_rng(stream).standard_normal(out=X)
        X /= root_rate
        return X, -log_c, None

    sizes = _block_sizes(samples)
    streams = _stream(seed, "mc").spawn(len(sizes))
    results = _run_chunks(log_h, (sizes, streams, fill, m), _block_moments, m)
    peak = max(block_peak for block_peak, _ in results)
    if peak == -math.inf:
        return IntegralEstimate(-math.inf, 0.0)
    shrinks = [math.exp(block_peak - peak) for block_peak, _ in results]
    rescaled = [(n, mean * s, m2 * s * s) for s, (_, (n, mean, m2)) in zip(shrinks, results)]
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
        rule = "power exponent must be >= 1"
        exponent = _real(self.exponent, rule, lambda r: r >= 1, error=UnsupportedFunctionalError)
        object.__setattr__(self, "exponent", exponent)

    def value(self, t):
        return np.asarray(t, dtype=float) ** self.exponent

    def log_value(self, log_t):
        with np.errstate(over="ignore"):  # a large exponent gives +-inf, which the caller reports as an overflow
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
        for name in ("knots", "slopes"):
            values = _real(getattr(self, name), "knots and slopes must be finite", array=True,
                           error=UnsupportedFunctionalError)
            if values.ndim != 1:
                raise UnsupportedFunctionalError(f"{name} must be a flat sequence, got shape {values.shape}")
            object.__setattr__(self, name, tuple(float(v) for v in values))
        if len(self.slopes) != len(self.knots) + 1:
            raise UnsupportedFunctionalError("need len(slopes) == len(knots) + 1")
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
