"""Command-line front end for reproducible norm, profile, and verification runs.

Artifacts are plain CSV or JSON with the full run configuration embedded in the
header, so any output file can be reproduced from its own first lines. All
randomness flows from a single seed (flag, config file, or FOCKLAB_SEED).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .errors import FocklabError, FunctionSpecError
from .functions import (
    Coherent,
    Constant,
    ExpQuadratic,
    FockParams,
    Monomial,
    Polynomial,
    SumOfCoherent,
    TestFunction,
)
from .integrate import GaussHermite, MonteCarlo, Power, Radial, fock_norm
from .levelset import IsoperimetricVariant, LevelGrid, g_diagnostic
from .verify import (
    check_contraction,
    check_decay,
    check_extremal_convex,
    check_isoperimetric_variant,
    check_limit_norm,
    check_monotone_g,
    check_pointwise_bound,
    check_rearrangement_lemma,
    random_rearrangement_case,
)

__all__ = ["RunConfig", "parse_function_spec", "run", "main"]

_SUITES = (
    "all",
    "contraction",
    "monotone",
    "pointwise",
    "decay",
    "limit",
    "extremal",
    "rearrangement",
    "isoperimetric",
)


# ---------------------------------------------------------------------------
# function-spec grammar


def _spec_error(message: str, pos: int):
    raise FunctionSpecError(f"{message} (at position {pos})")


def _split_groups(payload: str, base: int):
    """Split `key=value;key=value` into (key, value, position-of-key) triples."""
    groups = []
    cursor = base
    for chunk in payload.split(";"):
        if chunk.strip():
            key, eq, value = chunk.partition("=")
            if not eq:
                _spec_error(f"expected key=value, got {chunk.strip()!r}", cursor)
            groups.append((key.strip(), value.strip(), cursor))
        cursor += len(chunk) + 1
    return groups


def _parse_float(text: str, pos: int) -> float:
    try:
        return float(text)
    except ValueError:
        _spec_error(f"expected a number, got {text!r}", pos)


def _parse_vector(text: str, pos: int) -> tuple[float, ...]:
    parts = [s.strip() for s in text.split(",")]
    if not parts or any(not s for s in parts):
        _spec_error(f"expected comma-separated numbers, got {text!r}", pos)
    return tuple(_parse_float(s, pos) for s in parts)


_FACTOR_RE = re.compile(r"^z(\d+)(?:\^(\d+))?$")


def _parse_poly_term(term: str, pos: int):
    coeff = complex(1.0)
    powers: dict[int, int] = {}
    cursor = pos
    for factor in term.split("*"):
        f = factor.strip()
        if not f:
            _spec_error("empty factor in polynomial term", cursor)
        mobj = _FACTOR_RE.match(f)
        if mobj:
            idx = int(mobj.group(1))
            k = int(mobj.group(2)) if mobj.group(2) else 1
            powers[idx] = powers.get(idx, 0) + k
        else:
            try:
                coeff *= complex(f.replace("i", "j"))
            except ValueError:
                _spec_error(f"expected coefficient or z<index>[^k], got {f!r}", cursor)
        cursor += len(factor) + 1
    return coeff, powers


def parse_function_spec(
    text: str, dim: int | None = None, default_alpha: float = 1.0
) -> TestFunction:
    """Parse `family:payload` into a TestFunction.

    Families: const, coherent, monomial, poly, expquad, sumcoherent. Payloads
    are `;`-separated key=value groups; vectors are comma-separated; complex
    polynomial coefficients use `i` for the imaginary unit. When `dim` is given
    it must match the parsed function (holomorphic families need it even).
    """
    if not text or not text.strip():
        _spec_error("empty function spec", 0)
    head, colon, payload = text.partition(":")
    family = head.strip().lower()
    base = len(head) + 1

    def want_even(m_needed: int):
        if dim is not None and dim != m_needed:
            if dim % 2 == 1:
                _spec_error(
                    f"holomorphic family needs even dimension, got m={dim}", 0
                )
            _spec_error(f"spec implies m={m_needed} but m={dim} was requested", 0)

    if family == "const":
        if not colon or not payload.strip():
            _spec_error("const needs a value, e.g. const:1", base)
        return Constant(value=_parse_float(payload.strip(), base), dim=dim or 2)

    if family == "coherent":
        a = None
        alpha = default_alpha
        for key, value, pos in _split_groups(payload, base):
            if key == "a":
                a = _parse_vector(value, pos)
            elif key == "alpha":
                alpha = _parse_float(value, pos)
            else:
                _spec_error(f"unknown coherent key {key!r}", pos)
        if a is None:
            _spec_error("coherent needs a center, e.g. coherent:a=1,0", base)
        if dim is not None and len(a) != dim:
            _spec_error(f"center has {len(a)} components but m={dim}", base)
        return Coherent(center=a, alpha=alpha)

    if family == "monomial":
        powers = None
        for key, value, pos in _split_groups(payload, base):
            if key == "k":
                vec = _parse_vector(value, pos)
                if any(v < 0 or v != int(v) for v in vec):
                    _spec_error("monomial powers must be nonnegative integers", pos)
                powers = tuple(int(v) for v in vec)
            else:
                _spec_error(f"unknown monomial key {key!r}", pos)
        if powers is None:
            _spec_error("monomial needs powers, e.g. monomial:k=1", base)
        want_even(2 * len(powers))
        return Monomial(powers=powers)

    if family == "poly":
        if not payload.strip():
            _spec_error("poly needs at least one term", base)
        raw_terms = []
        cursor = base
        n_vars = 0
        for chunk in payload.split(";"):
            if chunk.strip():
                coeff, powers = _parse_poly_term(chunk.strip(), cursor)
                raw_terms.append((coeff, powers))
                if powers:
                    n_vars = max(n_vars, 1 + max(powers))
            cursor += len(chunk) + 1
        n_vars = max(n_vars, 1)
        want_even(2 * n_vars)
        terms = tuple(
            (tuple(powers.get(i, 0) for i in range(n_vars)), coeff)
            for coeff, powers in raw_terms
        )
        return Polynomial(terms=terms)

    if family == "expquad":
        c = None
        for key, value, pos in _split_groups(payload, base):
            if key == "c":
                c = _parse_float(value, pos)
            else:
                _spec_error(f"unknown expquad key {key!r}", pos)
        if c is None:
            _spec_error("expquad needs a curvature, e.g. expquad:c=0.1", base)
        return ExpQuadratic(c=c, dim=dim or 2)

    if family == "sumcoherent":
        weights: list[float] = []
        centers: list[tuple[float, ...]] = []
        alpha = default_alpha
        for key, value, pos in _split_groups(payload, base):
            if key == "w":
                weights.append(_parse_float(value, pos))
            elif key == "a":
                if len(centers) != len(weights) - 1:
                    _spec_error("each a= must follow its w=", pos)
                centers.append(_parse_vector(value, pos))
            elif key == "alpha":
                alpha = _parse_float(value, pos)
            else:
                _spec_error(f"unknown sumcoherent key {key!r}", pos)
        if not weights or len(centers) != len(weights):
            _spec_error("sumcoherent needs matching w=/a= pairs", base)
        if dim is not None and any(len(a) != dim for a in centers):
            _spec_error("sumcoherent center dimension mismatch", base)
        return SumOfCoherent(
            atoms=tuple(zip(weights, centers)), alpha=alpha
        )

    _spec_error(f"unknown family {family!r}", 0)


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Flat record of one CLI run; serializing and re-parsing is the identity."""

    command: str = "norm"
    fn: str = "const:1"
    dim: int = 2
    p: float = 2.0
    alpha: float = 1.0
    method: str = "gh"
    nodes: int = 32
    radial_nodes: int = 48
    angular_nodes: int = 64
    samples: int = 200_000
    seed: int = 0
    levels: int = 60
    ratio: float = 0.9
    variant: str = "sharp-ball"
    p_grid: str = "0.5,1,2,4"
    suite: str = "all"
    count: int = 50
    format: str = "csv"
    output: str = ""

    def to_mapping(self) -> dict:
        return asdict(self)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        kwargs = {}
        known = {f.name: f.type for f in fields(cls)}
        for key, value in mapping.items():
            if key not in known:
                raise FocklabError(f"unknown config key {key!r}")
            target = known[key]
            if target in ("int", int):
                kwargs[key] = int(value)
            elif target in ("float", float):
                kwargs[key] = float(value)
            else:
                kwargs[key] = str(value)
        return cls(**kwargs)

    def backend(self):
        if self.method == "gh":
            return GaussHermite(nodes_per_axis=self.nodes)
        if self.method == "radial":
            return Radial(radial_nodes=self.radial_nodes, angular_nodes=self.angular_nodes)
        if self.method == "mc":
            return MonteCarlo(samples=self.samples, seed=self.seed)
        raise FocklabError(f"unknown method {self.method!r} (use gh, radial, or mc)")

    def p_values(self) -> list[float]:
        try:
            vals = sorted({float(s) for s in self.p_grid.split(",") if s.strip()})
        except ValueError as exc:
            raise FocklabError(f"bad p grid {self.p_grid!r}: {exc}") from exc
        if not vals or any(v <= 0 for v in vals):
            raise FocklabError(f"p grid must be positive, got {self.p_grid!r}")
        return vals


def _read_config_file(path: str) -> dict:
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise FocklabError(f"{path}:{lineno}: expected key=value, got {line!r}")
            mapping[key.strip()] = value.strip()
    return mapping


# ---------------------------------------------------------------------------
# artifact writing


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _header_lines(config: RunConfig) -> list[str]:
    lines = [f"# version={__version__}"]
    for key, value in sorted(config.to_mapping().items()):
        lines.append(f"# {key}={value}")
    return lines


def _csv_document(config: RunConfig, columns: list[str], rows, extra=None) -> str:
    lines = _header_lines(config)
    for key, value in (extra or []):
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_document(config: RunConfig, result: dict) -> str:
    doc = {"version": __version__, "config": config.to_mapping(), "result": result}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_artifact(path: str, content: str):
    if not path:
        sys.stdout.write(content)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".focklab-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_norm(config: RunConfig, f: TestFunction) -> int:
    params = FockParams(f.m, config.p, config.alpha)
    est = fock_norm(f, params, method=config.backend())
    if config.format == "json":
        content = _json_document(config, {
            "value": est.value,
            "raw_integral": est.raw_integral,
            "error_bound": est.error_bound,
            "value_error": est.value_error,
            "method": repr(est.method),
        })
    else:
        content = _csv_document(
            config,
            ["value", "raw_integral", "error_bound", "value_error"],
            [(est.value, est.raw_integral, est.error_bound, est.value_error)],
        )
    _write_artifact(config.output, content)
    return 0


def _cmd_profile(config: RunConfig, f: TestFunction) -> int:
    params = FockParams(f.m, config.p, config.alpha)
    profile = g_diagnostic(
        f,
        params,
        grid=LevelGrid(count=config.levels, ratio=config.ratio),
        variant=IsoperimetricVariant(config.variant),
        samples=config.samples,
        seed=config.seed,
    )
    flags = profile.violation_flags()
    if config.format == "json":
        content = _json_document(config, {
            "t_max": profile.t_max,
            "t": list(profile.t_grid),
            "mu": list(profile.mu),
            "mu_stderr": list(profile.mu_stderr),
            "g": list(profile.g),
            "g_err": list(profile.g_err),
            "violation": [int(v) for v in flags],
            "violations": [list(v) for v in profile.violations],
        })
    else:
        rows = [
            (t, mu, se, g, "%d" % int(v))
            for t, mu, se, g, v in zip(
                profile.t_grid, profile.mu, profile.mu_stderr, profile.g, flags
            )
        ]
        content = _csv_document(
            config,
            ["t", "mu", "mu_stderr", "g", "violation"],
            rows,
            extra=[("t_max", _fmt(profile.t_max)),
                   ("n_violations", str(len(profile.violations)))],
        )
    _write_artifact(config.output, content)
    if profile.violations:
        worst = max(v[2] for v in profile.violations)
        print(
            f"monotonicity violated at {len(profile.violations)} level pair(s); "
            f"largest excess {worst:.3e} (variant {config.variant})",
            file=sys.stderr,
        )
        return 1
    return 0


def _suite_reports(config: RunConfig, f: TestFunction) -> list:
    params = FockParams(f.m, config.p, config.alpha)
    method = config.backend()
    reports = []
    suite = config.suite
    if suite not in _SUITES:
        raise FocklabError(f"unknown suite {config.suite!r} (choose from {', '.join(_SUITES)})")

    if suite in ("contraction", "all"):
        for p, q in itertools.combinations(config.p_values(), 2):
            reports.append(check_contraction(f, p, q, config.alpha, method=method))
    if suite in ("pointwise", "all"):
        reports.append(check_pointwise_bound(f, params, seed=config.seed, method=method))
    if suite in ("decay", "all"):
        reports.append(check_decay(f, params, seed=config.seed))
    if suite in ("limit", "all"):
        reports.append(check_limit_norm(f, config.alpha, seed=config.seed))
    if suite in ("extremal", "all"):
        reports.append(check_extremal_convex(f, params, Power(2.0), method=method))
    if suite in ("monotone", "all"):
        profile = g_diagnostic(
            f,
            params,
            grid=LevelGrid(count=config.levels, ratio=config.ratio),
            variant=IsoperimetricVariant(config.variant),
            samples=config.samples,
            seed=config.seed,
        )
        reports.append(check_monotone_g(profile))
    if suite in ("rearrangement", "all"):
        rng = np.random.default_rng(config.seed)
        for _ in range(config.count):
            profile_spec, phi, psi, t_max = random_rearrangement_case(rng)
            reports.append(check_rearrangement_lemma(profile_spec, phi, psi, t_max))
    if suite in ("isoperimetric", "all"):
        reports.append(check_isoperimetric_variant(f.m))
    return reports


def _cmd_verify(config: RunConfig, f: TestFunction) -> int:
    reports = _suite_reports(config, f)
    all_pass = all(r.passed for r in reports)
    if config.format == "json":
        content = _json_document(config, {
            "all_pass": all_pass,
            "reports": [r.to_dict() for r in reports],
        })
    else:
        rows = [
            (r.check_name, "%d" % int(r.passed), r.margin, r.tolerance)
            for r in reports
        ]
        content = _csv_document(
            config,
            ["check_name", "pass", "margin", "tolerance"],
            rows,
            extra=[("all_pass", str(int(all_pass)))],
        )
    _write_artifact(config.output, content)
    if not all_pass:
        failed = [r.check_name for r in reports if not r.passed]
        print(f"failed checks: {', '.join(sorted(set(failed)))}", file=sys.stderr)
    return 0 if all_pass else 1


def _cmd_sweep(config: RunConfig, f: TestFunction) -> int:
    method = config.backend()
    rows = []
    all_pass = True
    for p, q in itertools.combinations(config.p_values(), 2):
        report = check_contraction(f, p, q, config.alpha, method=method)
        all_pass = all_pass and report.passed
        rows.append((
            config.alpha, p, q,
            report.details["norm_p"], report.details["norm_q"],
            report.margin, report.tolerance, "%d" % int(report.passed),
        ))
    if config.format == "json":
        content = _json_document(config, {
            "all_pass": all_pass,
            "rows": [
                {
                    "alpha": r[0], "p": r[1], "q": r[2],
                    "norm_p": r[3], "norm_q": r[4],
                    "margin": r[5], "tolerance": r[6], "pass": bool(int(r[7])),
                }
                for r in rows
            ],
        })
    else:
        content = _csv_document(
            config,
            ["alpha", "p", "q", "norm_p", "norm_q", "margin", "tolerance", "pass"],
            rows,
            extra=[("all_pass", str(int(all_pass)))],
        )
    _write_artifact(config.output, content)
    return 0 if all_pass else 1


def _cmd_limit(config: RunConfig, f: TestFunction) -> int:
    report = check_limit_norm(f, config.alpha, method=config.backend(), seed=config.seed)
    ladder = report.details["ladder"]
    p_ladder = report.inputs["p_ladder"]
    if config.format == "json":
        content = _json_document(config, report.to_dict())
    else:
        rows = list(zip(p_ladder, ladder, report.details["ladder_errors"]))
        content = _csv_document(
            config,
            ["p", "norm", "error"],
            rows,
            extra=[
                ("sup_norm", _fmt(report.details["sup_norm"])),
                ("extrapolated", _fmt(report.details["extrapolated"])),
                ("extrapolation_gap", _fmt(report.details["extrapolation_gap"])),
                ("pass", str(int(report.passed))),
            ],
        )
    _write_artifact(config.output, content)
    return 0 if report.passed else 1


_COMMANDS = {
    "norm": _cmd_norm,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "limit": _cmd_limit,
}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise FocklabError(f"unknown command {config.command!r}")
    if config.format not in ("csv", "json"):
        raise FocklabError(f"unknown format {config.format!r} (use csv or json)")
    f = parse_function_spec(config.fn, dim=config.dim, default_alpha=config.alpha)
    return _COMMANDS[config.command](config, f)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Gaussian-weighted norms, level-set profiles, and inequality checks.",
    )
    parser.add_argument("--version", action="version", version=f"focklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="key=value config file; flags override it")
        sp.add_argument("--fn", help="function spec, e.g. coherent:a=1,0;alpha=1")
        sp.add_argument("--dim", type=int, help="ambient dimension m")
        sp.add_argument("--p", type=float, help="norm exponent p")
        sp.add_argument("--alpha", type=float, help="Gaussian weight parameter")
        sp.add_argument("--method", choices=("gh", "radial", "mc"), help="integration backend")
        sp.add_argument("--nodes", type=int, help="Gauss-Hermite nodes per axis")
        sp.add_argument("--radial-nodes", type=int, dest="radial_nodes")
        sp.add_argument("--angular-nodes", type=int, dest="angular_nodes")
        sp.add_argument("--samples", type=int, help="Monte Carlo sample count")
        sp.add_argument("--seed", type=int, help="RNG seed (default FOCKLAB_SEED or 0)")
        sp.add_argument("--format", choices=("csv", "json"), help="artifact format")
        sp.add_argument("--output", help="artifact path (default: stdout)")

    add_common(sub.add_parser("norm", help="compute one weighted p-norm"))

    sp = sub.add_parser("profile", help="superlevel measures and the monotone diagnostic")
    add_common(sp)
    sp.add_argument("--levels", type=int, help="number of grid levels")
    sp.add_argument("--ratio", type=float, help="geometric level ratio in (0,1)")
    sp.add_argument("--variant", choices=("sharp-ball", "paper-literal"),
                    help="isoperimetric constant variant")

    sp = sub.add_parser("verify", help="run a named check suite")
    add_common(sp)
    sp.add_argument("--suite", choices=_SUITES, help="which checks to run")
    sp.add_argument("--p-grid", dest="p_grid", help="comma-separated p values")
    sp.add_argument("--count", type=int, help="randomized rearrangement draws")
    sp.add_argument("--levels", type=int)
    sp.add_argument("--ratio", type=float)
    sp.add_argument("--variant", choices=("sharp-ball", "paper-literal"))

    sp = sub.add_parser("sweep", help="contraction table over the p grid")
    add_common(sp)
    sp.add_argument("--p-grid", dest="p_grid", help="comma-separated p values")

    add_common(sub.add_parser("limit", help="p-ladder and extrapolated limit vs sup norm"))

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    mapping = RunConfig().to_mapping()
    mapping["command"] = args.command
    file_mapping = {}
    config_path = getattr(args, "config", None)
    if config_path:
        file_mapping = _read_config_file(config_path)
        file_mapping.pop("command", None)
        mapping.update(file_mapping)
    seed_env = os.environ.get("FOCKLAB_SEED")
    if seed_env is not None and "seed" not in file_mapping:
        mapping["seed"] = seed_env
    for key in mapping:
        flag_value = getattr(args, key, None)
        if key != "command" and flag_value is not None:
            mapping[key] = flag_value
    config = RunConfig.from_mapping(mapping)
    if getattr(args, "dim", None) is None and "dim" not in file_mapping:
        # no dimension requested: take it from the spec, so the header records the m used
        config.dim = parse_function_spec(config.fn, default_alpha=config.alpha).m
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        return run(config)
    except FocklabError as exc:
        print(f"focklab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"focklab: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
