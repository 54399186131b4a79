"""The three benchmark workloads and the checks made on their outputs.

Each workload is built once per run from the benchmark seed; `run_pass` then
executes one closed-loop pass (one caller, each call starts when the previous
one returns) and returns a `Tally` of what was attempted, what failed, the
oracle comparisons and a digest of the deterministic outputs.

Every call goes through a module attribute looked up at call time
(`cli.main`, `integrate.fock_norm`, ...), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

import focklab
from focklab import cli, integrate, levelset, verify

# criterion 05 of the acceptance suite: coherent-state max|g - 1|
FLATNESS_TOL = 1e-2
# a stated bound is floored at this share of the oracle: no rule states its roundoff
ROUNDOFF = 1e-10
# an oracle comparison fails when its error exceeds 3 x its stated bound
Z_FAIL = 3.0
# Monte Carlo cases are random: 3 sigma is crossed by chance, 5 sigma is not
Z_GATE_MC = 5.0


def family_wise_z(levels: int) -> float:
    """z threshold with the two-sided 3-sigma error rate shared by `levels` comparisons."""
    return statistics.NormalDist().inv_cdf(1.0 - 0.0027 / (2.0 * levels))


@dataclass
class Row:
    label: str
    estimate: float
    oracle: float
    bound: float
    rel_err: float
    z: float
    known_defect: str = ""


@dataclass
class Tally:
    """Outcome of one pass: operations attempted and failed, oracle rows, digest."""

    attempted: int = 0
    failed: int = 0  # unexpected: raised, wrong exit code or flag, oracle gate broken
    findings: int = 0  # failed by the 3 x bound rule, known defects included
    rows: list = field(default_factory=list)
    artifact_bytes: int = 0
    notes: list = field(default_factory=list)
    known: list = field(default_factory=list)  # failures of documented defects
    hasher: object = field(default_factory=hashlib.sha256)

    def digest(self) -> str:
        return self.hasher.hexdigest()

    def record(self, *values):
        """Feed deterministic outputs into the digest; floats by their exact bits."""
        for v in values:
            arr = np.asarray(v, dtype=float).ravel()
            self.hasher.update(arr.tobytes())

    def op(self, label: str, fn):
        """Run one operation; an exception counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a pass must go on after a failing operation
            self.failed += 1
            self.findings += 1
            self.notes.append(f"{label}: raised\n{traceback.format_exc()}")
            return None

    def check(self, label: str, ok: bool, detail: str = "", known_defect: str = ""):
        """One check; a failure of a documented defect counts only in `findings`."""
        self.attempted += 1
        if not ok:
            self.findings += 1
            if known_defect:
                self.known.append(f"{label}: {known_defect} {detail}")
            else:
                self.failed += 1
                self.notes.append(f"{label}: check failed {detail}")

    def compare(self, label, estimate, oracle, bound, gate_z=Z_FAIL, fail_z=Z_FAIL, known_defect="", root=1.0):
        """One oracle comparison, elementwise over arrays; the worst element is kept.

        It fails (`findings`) when some error exceeds `fail_z` x its stated
        bound.  Unless `known_defect` names the documented defect it stands
        for, it also counts as a failure of the benchmark when an error exceeds
        `gate_z` x its bound.  With `root=p` the estimate is a p-th power
        integral and the relative error is reported for its p-th root, the norm.
        """
        est, orc, bnd = (np.atleast_1d(a) for a in np.broadcast_arrays(
            np.asarray(estimate, dtype=float), np.asarray(oracle, dtype=float), np.asarray(bound, dtype=float)))
        err = np.abs(est - orc)
        z = err / (bnd + ROUNDOFF * np.abs(orc))
        worst = int(np.argmax(z))
        rel = float(np.max(np.abs((est / orc) ** (1.0 / root) - 1.0)))
        row = Row(label, float(est[worst]), float(orc[worst]), float(bnd[worst]), rel, float(z[worst]), known_defect)
        self.rows.append(row)
        self.attempted += 1
        if not np.all(np.isfinite(z)) or row.z > fail_z:
            self.findings += 1
        if not known_defect and (not np.all(np.isfinite(z)) or row.z > gate_z):
            self.failed += 1
            self.notes.append(f"{label}: z = {row.z:.3g} exceeds {gate_z} (estimate {row.estimate!r}, oracle {row.oracle!r})")
        self.record(est, bnd)


def _artifact(tally: Tally, path: str) -> dict:
    """Read a JSON artifact, count its bytes and digest it without its own path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tally.artifact_bytes += len(raw)
    doc = json.loads(raw)
    doc["config"].pop("output", None)
    tally.hasher.update(json.dumps(doc, sort_keys=True).encode())
    return doc


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# closed-form oracles


def norm_oracle(f, params) -> float:
    """Exact weighted p-norm for the families that have one."""
    m, p, alpha = params.m, params.p, params.alpha
    if isinstance(f, focklab.Constant):
        return f.value * math.exp(f.log_scale)
    if isinstance(f, focklab.Coherent) and f.alpha == alpha:
        return math.exp(f.log_scale)
    if isinstance(f, focklab.ExpQuadratic):
        return (alpha / (alpha - 2.0 * f.c)) ** (m / (2.0 * p)) * math.exp(f.log_scale)
    if isinstance(f, focklab.Monomial):
        # per complex variable: Gamma(kp/2 + 1) / (alpha p / 2)^(kp/2)
        log_np = sum(math.lgamma(k * p / 2 + 1) - (k * p / 2) * math.log(alpha * p / 2) for k in f.powers)
        return math.exp(log_np / p + f.log_scale)
    raise ValueError(f"no closed-form norm for {f!r}")


def square_oracle(f, params) -> float:
    """Exact integral of u^2, the Power(2) functional, u the weighted density."""
    m, p, alpha = params.m, params.p, params.alpha
    if isinstance(f, focklab.Coherent) and f.alpha == alpha:
        return (math.pi / (p * alpha)) ** (m / 2)
    if isinstance(f, focklab.ExpQuadratic):
        return (math.pi / (2 * p * (alpha / 2 - f.c))) ** (m / 2)
    if isinstance(f, focklab.Monomial):
        return math.prod(math.pi * math.gamma(k * p + 1) / (alpha * p) ** (k * p + 1) for k in f.powers)
    raise ValueError(f"no closed-form functional for {f!r}")


# ---------------------------------------------------------------------------
# workloads


class VerifyCli:
    """`focklab verify --suite all` on three specs, defaults otherwise."""

    name = "verify-cli"
    SPECS = (
        "coherent:a=1,0;alpha=1",
        "monomial:k=1",
        "sumcoherent:w=0.7;a=0.5,0;w=0.3;a=-1,0",
    )

    def __init__(self, seed: int, workdir: str):
        self.cli_seed = _seed(np.random.default_rng(seed))
        self.workdir = workdir

    def run_pass(self) -> Tally:
        tally = Tally()
        for i, spec in enumerate(self.SPECS):
            out = os.path.join(self.workdir, f"verify-{i}.json")
            argv = ["verify", "--suite", "all", "--fn", spec, "--seed", str(self.cli_seed),
                    "--format", "json", "--output", out]
            rc = tally.op(f"verify {spec}", lambda: cli.main(argv))
            if rc is None:
                continue
            tally.check(f"verify {spec} exit code", rc == 0, f"(got {rc})")
            tally.op(f"verify {spec} artifact", lambda: self._check_artifact(tally, spec, out))
        return tally

    @staticmethod
    def _check_artifact(tally: Tally, spec: str, path: str):
        res = _artifact(tally, path)["result"]
        tally.check(f"verify {spec} all_pass", res["all_pass"] is True)
        for rep in res["reports"]:
            tally.check(f"verify {spec} {rep['check_name']}", rep["pass"] is True, f"margin {rep['margin']!r}")


class ProfileLevels:
    """`focklab profile` at m = 3, then g(t) and layer cakes in the library."""

    name = "profile-levels"
    LEVELS = 60

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seeds = [_seed(rng) for _ in range(4)]
        self.workdir = workdir
        self.coherent3 = focklab.Coherent(center=(0.0, 0.0, 0.0), alpha=1.0)
        members = focklab.default_family_members(2)
        self.poly = next(f for f in members if isinstance(f, focklab.Polynomial))
        self.mixture = next(f for f in members if isinstance(f, focklab.SumOfCoherent))
        self.monomial = focklab.Monomial(powers=(1,))
        self.params2 = focklab.FockParams(2, 2.0, 1.0)

    def run_pass(self) -> Tally:
        tally = Tally()
        out = os.path.join(self.workdir, "profile.json")
        argv = ["profile", "--fn", "coherent:a=0,0,0", "--dim", "3", "--levels", str(self.LEVELS),
                "--samples", "1000000", "--variant", "sharp-ball", "--seed", str(self.seeds[0]),
                "--format", "json", "--output", out]
        rc = tally.op("profile coherent m=3", lambda: cli.main(argv))
        if rc is not None:
            tally.check("profile exit code", rc == 0, f"(got {rc})")
            tally.op("profile artifact", lambda: self._check_profile(tally, _artifact(tally, out)["result"]))

        prof = tally.op("g_diagnostic poly m=2", lambda: levelset.g_diagnostic(
            self.poly, self.params2, samples=200_000, seed=self.seeds[1]))
        rep = prof and tally.op("check_monotone_g poly", lambda: verify.check_monotone_g(prof))
        if rep is not None:
            tally.check("poly monotone_g passed", rep.passed, f"{prof.violations[:3]}")
            tally.record(prof.t_grid, prof.mu, prof.g)

        lc = tally.op("layer_cake monomial", lambda: levelset.layer_cake(
            self.monomial, self.params2, integrate.Power(2.0), seed=self.seeds[2]))
        if lc is not None:
            tally.check("monomial layer cake mode", lc.mu_mode == "exact-radial", lc.mu_mode)
            tally.compare("layer cake vs direct, monomial", lc.value, lc.direct_value,
                          lc.error_bound + lc.direct_error)

        lc = tally.op("layer_cake mixture", lambda: levelset.layer_cake(
            self.mixture, self.params2, integrate.Power(2.0), seed=self.seeds[3]))
        if lc is not None:
            tally.check("mixture layer cake mode", lc.mu_mode == "mc", lc.mu_mode)
            tally.check("mixture layer cake finite", math.isfinite(lc.value) and lc.value > 0, repr(lc.value))
            tally.record(lc.value, lc.error_bound, lc.direct_value)
        return tally

    def _check_profile(self, tally: Tally, res: dict):
        tally.check("profile sharp-ball violations", not res["violations"], f"{res['violations'][:3]}")
        flat = max(abs(g - 1.0) for g in res["g"])
        tally.check("profile max|g-1|", flat <= FLATNESS_TOL, f"{flat!r} > {FLATNESS_TOL}")
        params = focklab.FockParams(3, 2.0, 1.0)
        exact = [levelset.superlevel_measure_exact(self.coherent3, params, t) for t in res["t"]]
        z_fw = family_wise_z(len(res["t"]))
        tally.compare("mc mu(t_k) vs exact, coherent m=3", res["mu"], exact, res["mu_stderr"],
                      gate_z=z_fw, fail_z=z_fw)


@dataclass
class Case:
    label: str
    kind: str  # "norm" or "square"
    f: object
    params: object
    method: object
    known_defect: str = ""


class Quadrature:
    """`fock_norm` and `convex_functional` against closed forms on all three backends."""

    name = "quadrature"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        FP, GH, Rad, MC = focklab.FockParams, integrate.GaussHermite, integrate.Radial, integrate.MonteCarlo
        Const, Coh, Mono, EQ = focklab.Constant, focklab.Coherent, focklab.Monomial, focklab.ExpQuadratic

        def centre(m, r):
            return tuple(float(v) for v in rng.uniform(-r, r, m))

        def p(lo=1.0, hi=4.0):
            return float(rng.uniform(lo, hi))

        def c():
            return float(rng.uniform(0.05, 0.15))

        def mc():
            return MC(samples=1_000_000, seed=_seed(rng))

        cases = []

        def add(label, kind, f, params, method, known_defect=""):
            cases.append(Case(label, kind, f, params, method, known_defect))

        gh32 = GH(32)
        add("gh m=2 const", "norm", Const(value=1.0, dim=2), FP(2, p(), 1.0), gh32)
        add("gh m=2 coherent", "norm", Coh(center=centre(2, 1.0), alpha=1.0), FP(2, p(), 1.0), gh32)
        add("gh m=2 monomial k=1", "norm", Mono(powers=(1,)), FP(2, p(), 1.0), gh32)
        add("gh m=2 monomial k=2", "norm", Mono(powers=(2,)), FP(2, p(), 1.0), gh32)
        add("gh m=2 expquad", "norm", EQ(c=c(), dim=2), FP(2, p(), 1.0), gh32)
        add("gh m=2 coherent a=(5,0) p=8", "norm", Coh(center=(5.0, 0.0), alpha=1.0), FP(2, 8.0, 1.0), gh32,
            known_defect="off-centre GH rule: 0.989 where the exact norm is 1")
        for n in (16, 32):
            add(f"gh m=4 n={n} coherent", "norm", Coh(center=centre(4, 0.5), alpha=1.0), FP(4, p(1.0, 3.0), 1.0), GH(n))
            add(f"gh m=4 n={n} monomial k=(1,1)", "norm", Mono(powers=(1, 1)), FP(4, p(1.0, 3.0), 1.0), GH(n))
        add("gh m=4 n=32 expquad", "norm", EQ(c=c(), dim=4), FP(4, p(1.0, 3.0), 1.0), GH(32))
        add("gh m=4 n=16 const", "norm", Const(value=1.0, dim=4), FP(4, p(), 1.0), GH(16))
        add("gh m=4 n=16 expquad", "norm", EQ(c=c(), dim=4), FP(4, p(1.0, 3.0), 1.0), GH(16))
        rad = Rad()
        add("radial m=2 const", "norm", Const(value=1.0, dim=2), FP(2, p(), 1.0), rad)
        add("radial m=2 coherent", "norm", Coh(center=centre(2, 1.0), alpha=1.0), FP(2, p(), 1.0), rad)
        add("radial m=2 monomial k=1", "norm", Mono(powers=(1,)), FP(2, p(), 1.0), rad)
        add("radial m=2 expquad", "norm", EQ(c=c(), dim=2), FP(2, p(), 1.0), rad)
        add("radial m=3 const", "norm", Const(value=1.0, dim=3), FP(3, p(), 1.0), rad)
        add("radial m=3 coherent", "norm", Coh(center=centre(3, 1.0), alpha=1.0), FP(3, p(), 1.0), rad)
        add("radial m=3 expquad", "norm", EQ(c=c(), dim=3), FP(3, p(), 1.0), rad)
        add("mc m=2 const", "norm", Const(value=1.0, dim=2), FP(2, p(), 1.0), mc())
        add("mc m=2 coherent", "norm", Coh(center=centre(2, 0.5), alpha=1.0), FP(2, p(1.0, 3.0), 1.0), mc())
        add("mc m=2 monomial k=1", "norm", Mono(powers=(1,)), FP(2, p(1.0, 3.0), 1.0), mc())
        add("mc m=2 expquad", "norm", EQ(c=c(), dim=2), FP(2, p(1.0, 3.0), 1.0), mc())
        add("mc m=2 coherent a=(3,0) p=8", "norm", Coh(center=(3.0, 0.0), alpha=1.0), FP(2, 8.0, 1.0),
            MC(samples=1_000_000, seed=0),
            known_defect="proposal centred at 0 while u peaks at a: 0.34 where the exact norm is 1")
        add("mc m=4 const", "norm", Const(value=1.0, dim=4), FP(4, p(), 1.0), mc())
        add("mc m=4 coherent", "norm", Coh(center=centre(4, 0.5), alpha=1.0), FP(4, p(1.0, 3.0), 1.0), mc())
        add("mc m=4 monomial k=(1,1)", "norm", Mono(powers=(1, 1)), FP(4, p(1.0, 3.0), 1.0), mc())
        for backend, method in (("gh", gh32), ("radial", rad), ("mc", mc())):
            add(f"{backend} m=2 Power(2) coherent", "square", Coh(center=centre(2, 0.5), alpha=1.0),
                FP(2, p(1.0, 3.0), 1.0), method)
            add(f"{backend} m=2 Power(2) monomial k=1", "square", Mono(powers=(1,)), FP(2, p(1.0, 3.0), 1.0),
                method)
        add("gh m=2 Power(2) expquad", "square", EQ(c=c(), dim=2), FP(2, p(1.0, 3.0), 1.0), gh32)
        add("radial m=3 Power(2) expquad", "square", EQ(c=c(), dim=3), FP(3, p(1.0, 3.0), 1.0), rad)
        add("gh m=4 n=16 Power(2) coherent", "square", Coh(center=centre(4, 0.5), alpha=1.0),
            FP(4, p(1.0, 3.0), 1.0), GH(16))
        self.cases = cases
        self.limit_fn = Coh(center=centre(2, 0.5), alpha=1.0)
        self.limit_seed = _seed(rng)

    def run_pass(self) -> Tally:
        tally = Tally()
        for case in self.cases:
            is_mc = isinstance(case.method, integrate.MonteCarlo)
            gate = Z_GATE_MC if is_mc else Z_FAIL
            if case.kind == "norm":
                est = tally.op(case.label, lambda: integrate.fock_norm(case.f, case.params, method=case.method))
                if est is not None:
                    exact = norm_oracle(case.f, case.params) ** case.params.p
                    tally.compare(case.label, est.raw_integral, exact, est.error_bound, gate_z=gate,
                                  known_defect=case.known_defect, root=case.params.p)
            else:
                est = tally.op(case.label, lambda: integrate.convex_functional(
                    case.f, case.params, integrate.Power(2.0), method=case.method))
                if est is not None:
                    tally.compare(case.label, est.value, square_oracle(case.f, case.params), est.error_bound,
                                  gate_z=gate, known_defect=case.known_defect)

        rep = tally.op("check_limit_norm coherent", lambda: verify.check_limit_norm(
            self.limit_fn, 1.0, seed=self.limit_seed))
        if rep is not None:
            tally.check("limit ladder passed", rep.passed, f"margin {rep.margin!r}",
                        known_defect="check_limit_norm has no roundoff allowance in its monotonicity "
                        "margin, so the flat coherent ladder can fail by ~1e-17")
            tally.compare("limit ladder vs 1", rep.details["ladder"], 1.0, rep.details["ladder_errors"])
        return tally


WORKLOADS = {w.name: w for w in (VerifyCli, ProfileLevels, Quadrature)}


def warm_up(workdir: str):
    """Fill the rule caches and finish lazy imports so timed passes see steady work."""
    FP = focklab.FockParams

    def flat(X):
        return np.zeros(len(X))

    for n in (8, 16, 24, 32, 48, 64):
        integrate.gauss_hermite_integrate(flat, FP(1, 2.0, 1.0), n)
    for m in (2, 3):
        integrate.radial_integrate(flat, FP(m, 2.0, 1.0), 48, 64)
    mono = focklab.Monomial(powers=(1,))
    levelset.find_max(mono, FP(2, 2.0, 1.0), restarts=2)
    levelset.superlevel_measure_exact(mono, FP(2, 2.0, 1.0), 0.1)
    members = focklab.default_family_members(2)
    poly = next(f for f in members if isinstance(f, focklab.Polynomial))
    levelset.g_diagnostic(poly, FP(2, 2.0, 1.0), grid=levelset.LevelGrid(count=2), samples=1000, restarts=2)
    rng = np.random.default_rng(0)
    verify.check_rearrangement_lemma(*verify.random_rearrangement_case(rng))
    out = os.path.join(workdir, "warm.json")
    rc = cli.main(["norm", "--fn", "const:1", "--format", "json", "--output", out])
    if rc != 0:
        print(f"warm-up: focklab norm exited with {rc}", file=sys.stderr)
