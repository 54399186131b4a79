"""CLI tests: spec grammar, config plumbing, artifacts, reproducibility."""

import json
import math

import numpy as np
import pytest

from focklab import Coherent, Constant, ExpQuadratic, Monomial, Polynomial, SumOfCoherent
from focklab.cli import RunConfig, main, parse_function_spec
from focklab.errors import FunctionSpecError


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
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(FunctionSpecError):
        parse_function_spec(bad, dim=2)


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


def test_profile_literal_variant_fails(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code = main([
        "profile", "--dim", "3", "--p", "2", "--alpha", "1",
        "--fn", "coherent:a=0,0,0;alpha=1", "--variant", "paper-literal",
        "--levels", "12", "--samples", "20000", "--output", str(out),
    ])
    assert code == 1
    assert "monotonicity violated" in capsys.readouterr().err


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


def test_bad_function_spec_exits_2(capsys):
    assert main(["norm", "--fn", "nosuch:1"]) == 2
    assert "error" in capsys.readouterr().err


def test_odd_dimension_holomorphic_exits_2(capsys):
    assert main(["norm", "--dim", "3", "--fn", "monomial:k=2"]) == 2
    assert "even dimension" in capsys.readouterr().err


def test_diverging_weight_exits_2(capsys):
    # expquad with c >= alpha/2 has no finite norm
    assert main(["norm", "--dim", "2", "--alpha", "1", "--fn", "expquad:c=0.6"]) == 2
    err = capsys.readouterr().err
    assert "focklab: error" in err


def test_missing_config_file_exits_2(capsys):
    assert main(["norm", "--config", "/nonexistent/run.cfg", "--fn", "const:1"]) == 2
