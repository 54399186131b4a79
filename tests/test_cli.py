"""CLI tests: spec grammar, config plumbing, artifacts, reproducibility."""

import argparse
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import focklab
from focklab import levelset, verify
from focklab import Coherent, Constant, ExpQuadratic, Monomial, Polynomial, SumOfCoherent
from focklab.cli import RunConfig, _build_parser, _fmt, main, parse_function_spec
from focklab.errors import FunctionSpecError, InvalidInputError


# ---------------------------------------------------------------------------
# function-spec grammar


def test_parse_const():
    f = parse_function_spec("const:1", dim=2)
    assert isinstance(f, Constant) and f.value == 1.0 and f.m == 2


def test_parse_coherent():
    f = parse_function_spec("coherent:a=1,0;alpha=1", dim=2)
    assert isinstance(f, Coherent)
    assert f.center == (1.0, 0.0) and f.alpha == 1.0


def test_parse_coherent_defaults_alpha():
    f = parse_function_spec("coherent:a=1,0", dim=2, default_alpha=2.5)
    assert f.alpha == 2.5


def test_parse_monomial_odd_dimension_rejected():
    with pytest.raises(FunctionSpecError, match="even dimension"):
        parse_function_spec("monomial:k=2", dim=3)


def test_parse_monomial():
    f = parse_function_spec("monomial:k=1,2", dim=4)
    assert isinstance(f, Monomial) and f.powers == (1, 2)


def test_parse_poly():
    f = parse_function_spec("poly:1+0i*z0^2", dim=2)
    assert isinstance(f, Polynomial)
    assert f.terms == (((2,), (1 + 0j)),)


def test_parse_poly_multiple_terms():
    f = parse_function_spec("poly:2i*z0;1;0.5*z1^2", dim=4)
    assert isinstance(f, Polynomial) and f.m == 4
    assert len(f.terms) == 3


def test_parse_expquad_and_sumcoherent():
    f = parse_function_spec("expquad:c=0.1", dim=3)
    assert isinstance(f, ExpQuadratic) and f.c == 0.1 and f.m == 3
    g = parse_function_spec("sumcoherent:w=1;a=1,0;w=0.5;a=-1,0;alpha=2", dim=2)
    assert isinstance(g, SumOfCoherent)
    assert g.atoms == ((1.0, (1.0, 0.0)), (0.5, (-1.0, 0.0))) and g.alpha == 2.0


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "nosuch:1",
        "const:",
        "coherent:a=1,0;beta=2",
        "coherent:alpha=1",
        "monomial:k=-1",
        "monomial:k=1.5",
        "poly:",
        "poly:z0*bogus",
        "sumcoherent:w=1;w=2;a=0,0",
        "coherent:a=1,0,0",  # three components but dim=2
        "coherent:a",  # expected key=value
        "expquad:c=x",  # expected a number
        "coherent:a=1,,0",  # expected comma-separated numbers
        "poly:2*",  # empty factor in polynomial term
        "monomial:k=1,1",  # spec implies m=4 but m=2 was requested
        "monomial:",  # monomial needs powers
        "monomial:k=inf",  # no integer power
        "monomial:j=1",  # unknown monomial key
        "expquad:",  # expquad needs a curvature
        "expquad:c=1;d=2",  # unknown expquad key
        "sumcoherent:w=1",  # needs matching w=/a= pairs
        "sumcoherent:w=1;a=0,0;b=1",  # unknown sumcoherent key
        "sumcoherent:w=1;a=1,0,0",  # center dimension mismatch
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(FunctionSpecError, match=r"at position \d+"):
        parse_function_spec(bad, dim=2)


@pytest.mark.parametrize("spec", ["const:1", "expquad:c=0.1"])
def test_parse_zero_dimension_rejected(spec):
    # dim=0 is a requested dimension, not "unset": the family rejects it
    with pytest.raises(InvalidInputError, match="dimension must be a positive integer"):
        parse_function_spec(spec, dim=0)


def test_parse_errors_carry_position():
    with pytest.raises(FunctionSpecError, match=r"at position \d+"):
        parse_function_spec("coherent:a=1,0;bogus=3", dim=2)


# ---------------------------------------------------------------------------
# config


def test_config_round_trip():
    config = RunConfig(command="profile", fn="monomial:k=1", p=4.0, seed=9, levels=12)
    again = RunConfig.from_mapping(config.to_mapping())
    assert again == config


def test_config_round_trip_through_strings():
    # the key=value file format carries everything as strings
    config = RunConfig(command="sweep", alpha=0.5, p_grid="1,2,8", format="json")
    text_mapping = {k: str(v) for k, v in config.to_mapping().items()}
    assert RunConfig.from_mapping(text_mapping) == config


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=4\nseed=5\nfn=monomial:k=1\n")
    out = tmp_path / "norm.json"
    code = main([
        "norm", "--config", str(cfg), "--p", "2", "--format", "json",
        "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["p"] == 2.0      # flag wins
    assert doc["config"]["seed"] == 5     # file value survives
    assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FOCKLAB_SEED", "77")
    out = tmp_path / "norm.json"
    assert main(["norm", "--fn", "const:1", "--format", "json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 77


def test_two_calls_in_one_process_write_their_own_configs(tmp_path, monkeypatch):
    # main builds its parser once per process and parses each argv fresh: no flag of one call reaches the next
    monkeypatch.delenv("FOCKLAB_SEED", raising=False)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["norm", "--fn", "const:2", "--p", "4", "--seed", "3", "--format", "json", "--output", str(first)]) == 0
    assert main(["norm", "--fn", "monomial:k=1", "--format", "json", "--output", str(second)]) == 0
    configs = [json.loads(path.read_text())["config"] for path in (first, second)]
    assert [(c["fn"], c["p"], c["seed"]) for c in configs] == [("const:2", 4.0, 3), ("monomial:k=1", 2.0, 0)]
    assert _build_parser() is _build_parser()


_COMMON_FLAGS = {
    "--config", "--fn", "--dim", "--p", "--alpha", "--method", "--nodes", "--radial-nodes",
    "--angular-nodes", "--samples", "--seed", "--format", "--output",
}
_LEVEL_FLAGS = {"--levels", "--ratio", "--variant"}


def test_each_subcommand_takes_its_flags():
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        name: {s for action in sp._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sp in subparsers.choices.items()
    }
    assert flags == {
        "norm": _COMMON_FLAGS,
        "profile": _COMMON_FLAGS | _LEVEL_FLAGS,
        "verify": _COMMON_FLAGS | _LEVEL_FLAGS | {"--suite", "--p-grid", "--count"},
        "sweep": _COMMON_FLAGS | {"--p-grid"},
        "limit": _COMMON_FLAGS,
    }


# ---------------------------------------------------------------------------
# artifacts


def test_norm_csv_artifact(tmp_path):
    out = tmp_path / "norm.csv"
    code = main([
        "norm", "--dim", "2", "--p", "2", "--alpha", "1",
        "--fn", "monomial:k=1", "--method", "gh", "--nodes", "32",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# version=0.1.0"
    assert any(line == "# fn=monomial:k=1" for line in lines)
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == "value,raw_integral,error_bound,value_error"
    value = float(lines[header_idx + 1].split(",")[0])
    assert value == pytest.approx(1.0, abs=1e-9)


def test_profile_csv_columns_and_exit(tmp_path):
    out = tmp_path / "prof.csv"
    code = main([
        "profile", "--dim", "2", "--p", "2", "--alpha", "1",
        "--fn", "coherent:a=1,0;alpha=1", "--levels", "10",
        "--samples", "20000", "--seed", "4", "--output", str(out),
    ])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,mu,mu_stderr,g,violation"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert len(first) == 5 and first[4] in ("0", "1")


def test_profile_artifact_reports_the_ray_grid(tmp_path):
    # the grid that produced mu and every density evaluation, in the JSON result and in the CSV header
    args = ["profile", "--fn", "coherent:a=1,0;alpha=1", "--levels", "10", "--seed", "4"]
    f, params = Coherent(center=(1.0, 0.0), alpha=1.0), focklab.FockParams(2, 2.0, 1.0)
    prof = levelset.g_diagnostic(f, params, levelset.LevelGrid(10), seed=4)
    assert main(args + ["--format", "json", "--output", str(tmp_path / "prof.json")]) == 0
    result = json.loads((tmp_path / "prof.json").read_text())["result"]
    assert (result["rule"], result["ray_grid"], result["points"]) == ("rays", list(prof.ray_grid), prof.points)
    assert main(args + ["--output", str(tmp_path / "prof.csv")]) == 0
    lines = (tmp_path / "prof.csv").read_text().splitlines()
    assert f"# ray_grid={prof.ray_grid[0]}x{prof.ray_grid[1]}" in lines and f"# points={prof.points}" in lines


def test_profile_literal_variant_fails(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code = main([
        "profile", "--dim", "3", "--p", "2", "--alpha", "1",
        "--fn", "coherent:a=0,0,0;alpha=1", "--variant", "paper-literal",
        "--levels", "12", "--samples", "20000", "--output", str(out),
    ])
    assert code == 1
    assert "monotonicity violated" in capsys.readouterr().err


def test_failing_profile_below_the_least_double_reports_the_monotone_margin(tmp_path, capsys):
    # u = 1e-400 e^-|x|^2 has t_max past the least double: the excess, on g/t_max, still reads the drop
    args = ["--fn", "const:1e-200", "--dim", "3", "--variant", "paper-literal",
            "--levels", "15", "--ratio", "0.85", "--samples", "20000"]
    assert main(["profile", *args, "--output", str(tmp_path / "prof.csv")]) == 1
    err = capsys.readouterr().err
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "monotone", *args, "--format", "json", "--output", str(out)]) == 1
    (report,) = json.loads(out.read_text())["result"]["reports"]
    assert report["pass"] is False and report["margin"] < 0.0
    assert f"largest excess {-report['margin']:.3e} of g/t_max" in err


def test_verify_suite_artifact(tmp_path):
    out = tmp_path / "verify.json"
    code = main([
        "verify", "--suite", "contraction", "--dim", "2", "--alpha", "1",
        "--fn", "coherent:a=1,0;alpha=1", "--format", "json", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["all_pass"] is True
    reports = doc["result"]["reports"]
    assert len(reports) == 6  # pairs from the default p grid 0.5,1,2,4
    assert all(r["pass"] for r in reports)
    assert any(r["details"]["equality_detected"] for r in reports)


def test_verify_computes_each_exponent_norm_once(monkeypatch, tmp_path):
    # the default p grid 0.5,1,2,4 has 6 pairs of 4 exponents: one fock_norm per exponent, and each pair's
    # report is the one check_contraction gives on its own, which computes both of its norms afresh
    f, calls, norm = Coherent(center=(1.0, 0.0), alpha=1.0), [], verify.fock_norm
    pairs = [verify.check_contraction(f, p, q, 1.0).to_dict() for p, q in itertools.combinations((0.5, 1, 2, 4), 2)]
    monkeypatch.setattr(verify, "fock_norm", lambda f, params, method: calls.append(params.p) or norm(f, params, method))
    out = tmp_path / "verify.json"
    argv = ["verify", "--suite", "contraction", "--fn", "coherent:a=1,0", "--format", "json", "--output", str(out)]
    assert main(argv) == 0
    assert sorted(calls) == [0.5, 1.0, 2.0, 4.0]
    assert json.loads(out.read_text())["result"]["reports"] == json.loads(json.dumps(pairs))


@pytest.mark.parametrize(
    "spec, searches",
    [("coherent:a=1,0;alpha=1", 0), ("monomial:k=1", 0), ("sumcoherent:w=0.7;a=0.5,0;w=0.3;a=-1,0", 3)],
    ids=["coherent", "monomial", "sumcoherent"],
)
def test_verify_searches_only_for_a_peak_without_closed_form(monkeypatch, tmp_path, spec, searches):
    # find_max takes a radial profile's peak and otherwise runs one search; the suite
    # needs t_max in the monotone, decay and limit checks
    calls = []
    search = levelset._search_max

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(levelset, "_search_max", counted)
    assert main(["verify", "--suite", "all", "--fn", spec, "--output", str(tmp_path / "v.csv")]) == 0
    assert len(calls) == searches


def test_verify_contraction_of_a_large_constant(tmp_path):
    # every p-norm of 10000 is 10000: the margins are roundoff at that scale, and equality
    out = tmp_path / "verify.json"
    code = main([
        "verify", "--suite", "contraction", "--dim", "2", "--fn", "const:10000",
        "--format", "json", "--output", str(out),
    ])
    assert code == 0
    reports = json.loads(out.read_text())["result"]["reports"]
    assert all(r["pass"] and r["details"]["equality_detected"] for r in reports)


def test_verify_isoperimetric_csv(tmp_path):
    out = tmp_path / "iso.csv"
    code = main([
        "verify", "--suite", "isoperimetric", "--dim", "3", "--fn", "const:1",
        "--output", str(out),
    ])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "check_name,pass,margin,tolerance"
    assert lines[1].startswith("isoperimetric_variant,1,")


def test_sweep_artifact(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--dim", "2", "--alpha", "1", "--fn", "monomial:k=1",
        "--p-grid", "1,2,4", "--output", str(out),
    ])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "alpha,p,q,norm_p,norm_q,margin,tolerance,pass"
    assert len(rows) == 4  # 3 choose 2 pairs


def test_limit_artifact(tmp_path):
    out = tmp_path / "limit.csv"
    code = main([
        "limit", "--dim", "2", "--alpha", "1", "--fn", "monomial:k=1",
        "--output", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "# sup_norm=0.60653065971263342" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "p,norm,error"
    assert len(rows) == 7


_JSON_ROWS = {  # the JSON result's cells in CSV column order; a sweep row's extra keys trail
    "profile": lambda r, cols: zip(r["t"], r["mu"], r["mu_stderr"], r["g"], r["violation"]),
    "sweep": lambda r, cols: [[row.pop(c) for c in cols] + list(row) for row in r["rows"]],
    "limit": lambda r, cols: zip(r["inputs"]["p_ladder"], r["details"]["ladder"],
                                 r["details"]["ladder_errors"]),
    "verify": lambda r, cols: [(x["check_name"], x["pass"], x["margin"], x["tolerance"])
                               for x in r["reports"]],
}


@pytest.mark.parametrize("args", [
    ["profile", "--fn", "coherent:a=1,0", "--levels", "8", "--samples", "20000"],
    ["sweep", "--fn", "monomial:k=1", "--p-grid", "1,2,4"],
    ["limit", "--fn", "monomial:k=1"],
    ["verify", "--suite", "contraction", "--fn", "coherent:a=1,0"],
], ids=lambda args: args[0])
def test_csv_cells_match_json_values(tmp_path, args):
    csv_out, json_out = tmp_path / "a.csv", tmp_path / "a.json"
    assert main(args + ["--output", str(csv_out)]) == main(
        args + ["--format", "json", "--output", str(json_out)]
    )
    lines = [l for l in csv_out.read_text().splitlines() if not l.startswith("#")]
    columns, csv_rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
    result = json.loads(json_out.read_text())["result"]
    json_rows = [list(row) for row in _JSON_ROWS[args[0]](result, columns)]
    assert len(json_rows) == len(csv_rows) > 0
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert csv_row == [v if isinstance(v, str) else _fmt(v) for v in json_row]


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "prof.csv"
    args = [
        "profile", "--dim", "2", "--p", "2", "--alpha", "1",
        "--fn", "monomial:k=1", "--levels", "8", "--samples", "20000",
        "--seed", "13", "--output", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_seeded_draws_do_not_share_a_stream(tmp_path, monkeypatch):
    # at one seed, the first draws of the peak search, check_decay, check_pointwise_bound, the lemma cases,
    # Monte Carlo's first block and the level cloud's first block all differ
    seed, streams, default_rng = 7, [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s=None: streams.append(s) or default_rng(s))
    params, coherent = focklab.FockParams(2, 2.0, 1.0), Coherent(center=(0.5, 0.0), alpha=1.0)
    mixture = next(f for f in focklab.default_family_members(2) if isinstance(f, SumOfCoherent))
    lemma = ["verify", "--suite", "rearrangement", "--count", "1", "--seed", str(seed), "--output", str(tmp_path / "r")]
    draws = {  # coherent's peak has a closed form, so only the draw named makes a stream
        "find_max": lambda: levelset.find_max(mixture, params, seed=seed),
        "decay": lambda: verify.check_decay(coherent, params, seed=seed),
        "pointwise": lambda: verify.check_pointwise_bound(coherent, params, n_points=16, seed=seed),
        "lemma": lambda: main(lemma),
        "mc": lambda: focklab.mc_integrate(lambda X: np.zeros(len(X)), params, 1000, seed),
        "cloud": lambda: levelset.superlevel_measure(coherent, params, 0.1, 1000, seed),
    }
    first = {}
    for name, draw in draws.items():
        streams.clear()
        draw()
        first[name] = default_rng(streams[0]).random(4)
    for (a, x), (b, y) in itertools.combinations(first.items(), 2):
        assert not np.array_equal(x, y), (a, b)


def test_mc_norm_byte_identical(tmp_path):
    out = tmp_path / "norm.json"
    args = [
        "norm", "--dim", "2", "--p", "2", "--alpha", "1", "--fn", "monomial:k=1",
        "--method", "mc", "--samples", "50000", "--seed", "3",
        "--format", "json", "--output", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [
    ["norm", "--fn", "monomial:k=1", "--method", "mc", "--samples", "20000", "--seed", "3"],
    ["profile", "--fn", "coherent:a=1,0", "--levels", "6", "--samples", "20000", "--ratio", "0.8"],
    ["verify", "--suite", "rearrangement", "--count", "3", "--seed", "11"],
    ["sweep", "--fn", "monomial:k=1", "--p-grid", "1,3", "--alpha", "0.5"],
    ["limit", "--fn", "coherent:a=1,0", "--dim", "2"],
], ids=lambda args: args[0])
def test_artifact_header_reproduces_the_artifact(tmp_path, args, fmt):
    # an artifact's configuration, fed back as --config, reruns it byte for byte
    out = tmp_path / f"run.{fmt}"
    code = main(args + ["--format", fmt, "--output", str(out)])
    first = out.read_bytes()
    text = first.decode()
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    if fmt == "json":
        mapping = json.loads(text)["config"]
    else:
        header = [line[2:].partition("=") for line in text.splitlines() if line.startswith("# ")]
        mapping = {key: value for key, _, value in header}
    assert keys <= set(mapping)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key}={mapping[key]}\n" for key in sorted(keys)))
    out.unlink()
    assert main([args[0], "--config", str(cfg)]) == code
    assert out.read_bytes() == first


@pytest.mark.parametrize("spec,m", [("monomial:k=1,1", 4), ("coherent:a=1,0,0", 3)])
def test_norm_infers_dimension_from_spec(tmp_path, spec, m):
    out = tmp_path / "norm.csv"
    assert main(["norm", "--fn", spec, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert f"# dim={m}" in lines
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    # both have unit norm at p = 2, alpha = 1
    assert float(lines[header_idx + 1].split(",")[0]) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# failure modes


def _run_fresh(code: str) -> str:
    # a fresh interpreter: this test process has scipy loaded already
    src = os.path.dirname(os.path.dirname(os.path.abspath(focklab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, focklab, focklab.cli; print('scipy.optimize' in sys.modules)"
    assert _run_fresh(code) == "False"


def test_import_and_norm_and_profile_load_no_scipy(tmp_path):
    # with scipy importable, import, norm and profile still load none of it
    runs = [
        ["norm", "--fn", "coherent:a=1,0;alpha=1", "--method", "gh"],
        ["norm", "--fn", "monomial:k=1", "--method", "radial"],
        ["norm", "--fn", "coherent:a=1,0;alpha=1", "--method", "mc", "--samples", "20000"],
        ["profile", "--fn", "monomial:k=1", "--samples", "20000", "--levels", "8"],
    ]
    runs = [argv + ["--output", str(tmp_path / f"run{i}.json")] for i, argv in enumerate(runs)]
    code = (
        "import json, sys, focklab, focklab.cli\n"
        "def scipy_modules(): return [m for m in sys.modules if m.startswith('scipy')]\n"
        "after_import = scipy_modules()\n"
        f"codes = [focklab.cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([after_import, codes, scipy_modules()]))"
    )
    after_import, codes, after_runs = json.loads(_run_fresh(code).splitlines()[-1])
    assert after_import == [] and after_runs == []
    assert codes == [0, 0, 0, 0]


def test_runs_without_scipy(tmp_path):
    # a fresh interpreter (this test process has scipy loaded already) in which
    # any scipy import raises: the three backends' rules, the Lambert W level
    # sets of monomial:k=1 and the lemma engine all run on numpy and the stdlib
    runs = [
        ["norm", "--fn", "coherent:a=1,0;alpha=1", "--method", "gh"],
        ["norm", "--fn", "monomial:k=1", "--method", "radial"],
        ["norm", "--fn", "coherent:a=1,0;alpha=1", "--method", "mc", "--samples", "20000"],
        ["profile", "--fn", "monomial:k=1", "--samples", "20000", "--levels", "8"],
        ["verify", "--suite", "all", "--fn", "monomial:k=1"],
    ]
    runs = [argv + ["--output", str(tmp_path / f"run{i}.json")] for i, argv in enumerate(runs)]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import json, focklab, focklab.cli\n"
        "def scipy_modules(): return [m for m in sys.modules if m.split('.')[0] == 'scipy' and m != 'scipy']\n"
        "after_import = scipy_modules()\n"
        f"codes = [focklab.cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([after_import, codes, scipy_modules(), sys.modules['scipy'] is None]))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(focklab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    after_import, codes, after_runs, blocked = json.loads(out.stdout.splitlines()[-1])
    assert after_import == [] and after_runs == [] and blocked
    assert codes == [0] * len(runs)


def test_bad_function_spec_exits_2(capsys):
    assert main(["norm", "--fn", "nosuch:1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["const:nan", "sumcoherent:w=nan;a=0,0", "coherent:a=inf,0"])
def test_non_finite_parameter_exits_2(capsys, spec):
    # nan passes a sign test and would read as a zero of f, a norm of 0: the family refuses it
    assert main(["norm", "--fn", spec]) == 2
    assert "focklab: error: " in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--suite", "contraction", "--p-grid", "2"], ["sweep", "--p-grid", "2,2"]])
def test_contraction_on_one_exponent_exits_2(tmp_path, capsys, command):
    # one distinct exponent makes no pair to check: a typed error, not an empty table that reads all_pass=1
    out = tmp_path / "run.csv"
    assert main([*command, "--fn", "coherent:a=1,0", "--output", str(out)]) == 2
    assert "two distinct exponents" in capsys.readouterr().err and not out.exists()


def test_weight_rate_past_the_largest_double_exits_2(capsys):
    # alpha = 1e308 is a double, alpha * p = 2e308 is not: FockParams refuses it before the quadrature takes a log
    assert main(["norm", "--fn", "coherent:a=1,0", "--alpha", "1e308"]) == 2
    assert "focklab: error: " in capsys.readouterr().err


def test_odd_dimension_holomorphic_exits_2(capsys):
    assert main(["norm", "--dim", "3", "--fn", "monomial:k=2"]) == 2
    assert "even dimension" in capsys.readouterr().err


def test_diverging_weight_exits_2(capsys):
    # expquad with c >= alpha/2 has no finite norm
    assert main(["norm", "--dim", "2", "--alpha", "1", "--fn", "expquad:c=0.6"]) == 2
    err = capsys.readouterr().err
    assert "focklab: error" in err


def test_profile_past_the_largest_double_exits_2(capsys):
    # u = 1e400 e^{-|x|^2}: its closed-form peak e^921 is no double, so the artifact states
    # log t_max beside t_max = inf, and the measures are those of const:1 (the name is historical)
    def profile(spec):
        argv = ["profile", "--fn", spec, "--levels", "4", "--samples", "1000", "--format", "json"]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["result"]

    big, unit = profile("const:1e200"), profile("const:1")
    assert big["t_max"] == math.inf and big["log_t_max"] == pytest.approx(400.0 * math.log(10.0), rel=1e-15)
    assert unit["log_t_max"] == 0.0
    np.testing.assert_allclose(big["mu"], unit["mu"], rtol=1e-9, atol=0.0)
    assert big["violation"] == unit["violation"] == [0, 0, 0, 0]


def test_norm_whose_integral_passes_the_largest_double(capsys):
    # ||1e10||_64 = 1e10 from the integral 1e640; the raw integral and its bound read inf
    assert main(["norm", "--fn", "const:1e10", "--p", "64", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert abs(result["value"] - 1e10) <= result["value_error"] <= 1e-3
    assert result["raw_integral"] == math.inf and result["error_bound"] == math.inf


def test_bad_variant_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant=bogus\n")
    argv = ["profile", "--config", str(cfg), "--fn", "const:1", "--levels", "3", "--samples", "100"]
    assert main(argv) == 2
    assert "focklab: error: unknown variant 'bogus'" in capsys.readouterr().err


def test_bad_seed_in_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("FOCKLAB_SEED", "abc")
    assert main(["norm", "--fn", "const:1"]) == 2
    assert "focklab: error: bad seed value 'abc'" in capsys.readouterr().err


def test_negative_seed_flag_exits_2(capsys):
    assert main(["norm", "--fn", "const:1", "--method", "mc", "--samples", "1000", "--seed", "-1"]) == 2
    assert "focklab: error: seed must be nonnegative" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    assert main(["norm", "--config", "/nonexistent/run.cfg", "--fn", "const:1"]) == 2


@pytest.mark.parametrize("argv,message", [
    (["norm", "--fn", "const:1", "--dim", "0"], "dim must be at least 1, got 0"),
    (["verify", "--suite", "rearrangement", "--count", "-1"], "count must be at least 1, got -1"),
    (["verify", "--suite", "rearrangement", "--count", "0"], "count must be at least 1, got 0"),
], ids=["dim=0", "count=-1", "count=0"])
def test_value_below_its_bound_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert f"focklab: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["method=bogus", "suite=nope", "count=-3", "dim=0", "p_grid=1,x"])
def test_unused_bad_value_in_config_file_exits_2(tmp_path, capsys, line):
    # each value is checked where it enters, whether or not profile uses it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "prof.csv"
    argv = ["profile", "--config", str(cfg), "--fn", "const:1", "--levels", "3",
            "--samples", "2000", "--output", str(out)]
    assert main(argv) == 2
    assert "focklab: error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("p_grid=1,x", "bad p grid '1,x'"),
    ("format=xml", "unknown format 'xml'"),
])
def test_bad_value_in_config_file_exits_2_for_norm(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["norm", "--config", str(cfg), "--fn", "const:1"]) == 2
    assert f"focklab: error: {message}" in capsys.readouterr().err
