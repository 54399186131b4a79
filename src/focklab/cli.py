"""Command-line front end for reproducible norm, profile, and verification runs.

Artifacts are plain CSV or JSON with the full run configuration embedded in the
header, so any output file can be reproduced from its own first lines. All
randomness flows from a single seed (flag, config file, or FOCKLAB_SEED).
Each command returns (JSON result, CSV columns, CSV rows, extra header lines,
exit status or a failure message for stderr); `run` writes the artifact once.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace

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
    polynomial coefficients use `i` for the imaginary unit. Polynomial variables
    `z<i>` are indexed from 0, so `poly:1;0.5i*z0^2` lives on R^2. When `dim` is
    given it must match the parsed function (holomorphic families need it even).
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
        return Constant(value=_parse_float(payload.strip(), base), dim=2 if dim is None else dim)

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
        return ExpQuadratic(c=c, dim=2 if dim is None else dim)

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
# artifact writing


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _header_lines(config: RunConfig) -> list[str]:
    lines = [f"# version={__version__}"]
    for key, value in sorted(config.to_mapping().items()):
        lines.append(f"# {key}={value}")
    return lines


def _csv_document(config: RunConfig, columns: list[str], rows, extra) -> str:
    lines = _header_lines(config)
    for key, value in extra:
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


def _cmd_norm(config: RunConfig, f: TestFunction):
    """Compute one weighted p-norm."""
    est = fock_norm(f, FockParams(f.m, config.p, config.alpha), method=config.backend())
    columns = ["value", "raw_integral", "error_bound", "value_error"]
    result = {key: getattr(est, key) for key in columns}
    return {**result, "method": repr(est.method)}, columns, [[result[c] for c in columns]], [], 0


def _level_profile(config: RunConfig, f: TestFunction):
    return g_diagnostic(
        f,
        FockParams(f.m, config.p, config.alpha),
        grid=LevelGrid(count=config.levels, ratio=config.ratio),
        variant=IsoperimetricVariant(config.variant),
        samples=config.samples,
        seed=config.seed,
    )


def _cmd_profile(config: RunConfig, f: TestFunction):
    """Superlevel measures and the monotone diagnostic."""
    profile = _level_profile(config, f)
    flags = profile.violation_flags()
    result = {
        "t_max": profile.t_max,
        "log_t_max": profile.log_t_max,
        "rule": profile.rule,
        "ray_grid": None if profile.ray_grid is None else list(profile.ray_grid),
        "points": profile.points,
        "t": list(profile.t_grid),
        "mu": list(profile.mu),
        "mu_stderr": list(profile.mu_stderr),
        "g": list(profile.g),
        "g_err": list(profile.g_err),
        "violation": [int(v) for v in flags],
        "violations": [list(v) for v in profile.violations],
    }
    rows = zip(profile.t_grid, profile.mu, profile.mu_stderr, profile.g, flags)
    extra = [("t_max", _fmt(profile.t_max)), ("log_t_max", _fmt(profile.log_t_max)), ("rule", profile.rule)]
    extra.append(("ray_grid", "none" if profile.ray_grid is None else "x".join(map(str, profile.ray_grid))))
    extra.append(("points", str(profile.points)))
    extra.append(("n_violations", str(len(profile.violations))))
    status = 0
    if profile.violations:
        worst = max(v[2] for v in profile.violations)
        status = (
            f"monotonicity violated at {len(profile.violations)} level pair(s); "
            f"largest excess {worst:.3e} (variant {config.variant})"
        )
    return result, ["t", "mu", "mu_stderr", "g", "violation"], rows, extra, status


def _suite_reports(config: RunConfig, f: TestFunction) -> list:
    suite = config.suite
    # contraction alone ignores p, so a sweep never validates it
    params = FockParams(f.m, config.p, config.alpha) if suite != "contraction" else None
    method = config.backend()
    reports = []
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
        reports.append(check_monotone_g(_level_profile(config, f)))
    if suite in ("rearrangement", "all"):
        rng = np.random.default_rng(config.seed)
        for _ in range(config.count):
            profile_spec, phi, psi, t_max = random_rearrangement_case(rng)
            reports.append(check_rearrangement_lemma(profile_spec, phi, psi, t_max))
    if suite in ("isoperimetric", "all"):
        reports.append(check_isoperimetric_variant(f.m))
    return reports


def _cmd_verify(config: RunConfig, f: TestFunction):
    """Run a named check suite."""
    reports = _suite_reports(config, f)
    all_pass = all(r.passed for r in reports)
    result = {"all_pass": all_pass, "reports": [r.to_dict() for r in reports]}
    rows = [(r.check_name, r.passed, r.margin, r.tolerance) for r in reports]
    failed = sorted({r.check_name for r in reports if not r.passed})
    status = f"failed checks: {', '.join(failed)}" if failed else 0
    columns = ["check_name", "pass", "margin", "tolerance"]
    return result, columns, rows, [("all_pass", str(int(all_pass)))], status


def _cmd_sweep(config: RunConfig, f: TestFunction):
    """Contraction table over the p grid."""
    reports = _suite_reports(replace(config, suite="contraction"), f)
    all_pass = all(r.passed for r in reports)
    columns = ["alpha", "p", "q", "norm_p", "norm_q", "margin", "tolerance", "pass"]
    rows = [
        (config.alpha, r.inputs["p"], r.inputs["q"], r.details["norm_p"], r.details["norm_q"],
         r.margin, r.tolerance, r.passed)
        for r in reports
    ]
    result = {"all_pass": all_pass, "rows": [dict(zip(columns, row)) for row in rows]}
    return result, columns, rows, [("all_pass", str(int(all_pass)))], 0 if all_pass else 1


def _cmd_limit(config: RunConfig, f: TestFunction):
    """The p-ladder and its extrapolated limit vs the sup norm."""
    report = check_limit_norm(f, config.alpha, method=config.backend(), seed=config.seed)
    details = report.details
    rows = zip(report.inputs["p_ladder"], details["ladder"], details["ladder_errors"])
    extra = [(key, _fmt(details[key])) for key in ("sup_norm", "extrapolated", "extrapolation_gap")]
    extra.append(("pass", str(int(report.passed))))
    return report.to_dict(), ["p", "norm", "error"], rows, extra, 0 if report.passed else 1


_COMMANDS = {
    "norm": _cmd_norm,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "limit": _cmd_limit,
}


# ---------------------------------------------------------------------------
# run configuration


_TYPES = {"int": int, "float": float, "str": str}  # a RunConfig field's annotation -> its type

_BACKENDS = {  # --method: the integration backend a run's settings build
    "gh": lambda c: GaussHermite(nodes_per_axis=c.nodes),
    "radial": lambda c: Radial(radial_nodes=c.radial_nodes, angular_nodes=c.angular_nodes),
    "mc": lambda c: MonteCarlo(samples=c.samples, seed=c.seed),
}


def _setting(default, help: str, commands=(), choices=None, minimum=None):
    """A RunConfig field and its `--flag`: the help text, the subcommands that
    take the flag (all when none are named), the allowed values, a lower bound."""
    metadata = {"help": help, "commands": commands, "choices": choices, "minimum": minimum}
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Flat record of one CLI run; serializing and re-parsing is the identity.

    Every value is checked when the record is built, whichever source it came
    from (flag, `--config` file, FOCKLAB_SEED). Ranges that the library owns,
    such as those of p, alpha, nodes, samples, levels and ratio, are left to it.
    """

    command: str = _setting("norm", "the subcommand", choices=_COMMANDS)
    fn: str = _setting("const:1", "function spec, e.g. coherent:a=1,0;alpha=1")
    dim: int = _setting(2, "ambient dimension m", minimum=1)
    p: float = _setting(2.0, "norm exponent p")
    alpha: float = _setting(1.0, "Gaussian weight parameter")
    method: str = _setting("gh", "integration backend", choices=tuple(_BACKENDS))
    nodes: int = _setting(32, "Gauss-Hermite nodes per axis")
    radial_nodes: int = _setting(48, "Gauss-Laguerre nodes in the radius (--method radial)")
    angular_nodes: int = _setting(64, "nodes of the rule on the sphere (--method radial)")
    samples: int = _setting(
        200_000,
        "cap on the ray grid's nodes for m <= 3, which stops earlier at the roundoff floor; else MC points per"
        " level ball; per integral with --method mc",
    )
    seed: int = _setting(0, "RNG seed (default FOCKLAB_SEED or 0)", minimum=0)
    levels: int = _setting(60, "number of grid levels", ("profile", "verify"))
    ratio: float = _setting(0.9, "geometric level ratio in (0,1)", ("profile", "verify"))
    variant: str = _setting("sharp-ball", "isoperimetric constant variant", ("profile", "verify"),
                            choices=tuple(v.value for v in IsoperimetricVariant))
    p_grid: str = _setting("0.5,1,2,4", "comma-separated p values", ("verify", "sweep"))
    suite: str = _setting("all", "which checks to run", ("verify",), choices=_SUITES)
    count: int = _setting(50, "randomized rearrangement draws", ("verify",), minimum=1)
    format: str = _setting("csv", "artifact format", choices=("csv", "json"))
    output: str = _setting("", "artifact path (default: stdout)")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            choices = f.metadata["choices"]
            if choices is not None and value not in choices:
                *head, last = choices
                raise FocklabError(f"unknown {f.name} {value!r} (use {', '.join(head)} or {last})")
            low = f.metadata["minimum"]
            if low is not None and value < low:
                rule = "nonnegative" if low == 0 else f"at least {low}"
                raise FocklabError(f"{f.name} must be {rule}, got {value}")
        self.p_values()

    def to_mapping(self) -> dict:
        return asdict(self)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        kwargs = {}
        known = {f.name: f.type for f in fields(cls)}
        for key, value in mapping.items():
            if key not in known:
                raise FocklabError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _TYPES[known[key]](value)
            except ValueError as exc:
                raise FocklabError(f"bad {key} value {value!r}: {exc}") from exc
        return cls(**kwargs)

    def backend(self):
        return _BACKENDS[self.method](self)

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


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    f = parse_function_spec(config.fn, dim=config.dim, default_alpha=config.alpha)
    result, columns, rows, extra, status = _COMMANDS[config.command](config, f)
    if config.format == "json":
        content = _json_document(config, result)
    else:
        content = _csv_document(config, columns, rows, extra)
    _write_artifact(config.output, content)
    if isinstance(status, str):  # a failure message, printed after the artifact
        print(status, file=sys.stderr)
        return 1
    return status


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Gaussian-weighted norms, level-set profiles, and inequality checks.",
    )
    parser.add_argument("--version", action="version", version=f"focklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, body in _COMMANDS.items():
        sp = sub.add_parser(command, help=body.__doc__)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for f in fields(RunConfig)[1:]:  # every setting but the subcommand itself
            if f.metadata["commands"] and command not in f.metadata["commands"]:
                continue
            sp.add_argument(
                "--" + f.name.replace("_", "-"), dest=f.name, type=_TYPES[f.type],
                choices=f.metadata["choices"], help=f.metadata["help"],
            )
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    mapping = RunConfig().to_mapping()
    mapping["command"] = args.command
    file_mapping = _read_config_file(args.config) if args.config else {}
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
    if args.dim is None and "dim" not in file_mapping:
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
