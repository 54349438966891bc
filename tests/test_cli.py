import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fourcurv as fc
from fourcurv import cli


def run_cli(*argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    return info.value.code


def run_json(capsys, *argv):
    code = run_cli(*argv, "--output-format", "json")
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_delta_star_text(capsys):
    assert run_cli("delta-star") == 0
    out = capsys.readouterr().out
    assert "0.049038105" in out


def test_delta_star_json(capsys):
    code, payload = run_json(capsys, "delta-star")
    assert code == 0
    assert payload["bisection"] == pytest.approx(fc.CRITICAL_DELTA,
                                                 abs=1e-10)
    assert payload["closed_form"] == pytest.approx(fc.CRITICAL_DELTA,
                                                   abs=1e-12)
    assert abs(payload["difference"]) < 1e-10


def test_invariants_s4(capsys):
    code, payload = run_json(capsys, "invariants", "--model", "S4")
    assert code == 0
    assert payload["chi"] == pytest.approx(2.0, abs=1e-9)
    assert payload["tau"] == pytest.approx(0.0, abs=1e-9)


def test_scan_model(capsys):
    code, payload = run_json(capsys, "scan", "--model", "CP2", "--c", "4")
    assert code == 0
    assert payload["k_min"] == pytest.approx(1.0, abs=1e-6)
    assert payload["k_max"] == pytest.approx(4.0, abs=1e-6)
    assert payload["delta"] == pytest.approx(0.25, abs=1e-6)


def test_verdict_exit_codes(capsys):
    assert run_cli("verdict", "thm1", "--model", "S4") == 0
    capsys.readouterr()
    assert run_cli("verdict", "thm1", "--model", "S2xS2") == 2
    capsys.readouterr()
    assert run_cli("verdict", "thm2", "--model", "S4",
                   "--lambda1", "4") == 0
    capsys.readouterr()
    assert run_cli("verdict", "thm2", "--model", "S2xS2",
                   "--lambda1", "2") == 2
    capsys.readouterr()


def test_verdict_payload(capsys):
    code, payload = run_json(capsys, "verdict", "thm2", "--model", "S4",
                             "--lambda1", "4")
    assert code == 0
    assert payload["hypotheses_hold"] is True
    assert payload["computed_threshold"] == pytest.approx(0.25, abs=1e-12)
    assert payload["margin"] == pytest.approx(0.75, abs=1e-6)
    assert payload["claim_text"]


def test_decompose_json_roundtrip(tmp_path, capsys):
    code, first = run_json(capsys, "decompose", "--model", "CP2")
    assert code == 0
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(first))
    code, second = run_json(capsys, "decompose", "--input", str(path))
    assert code == 0
    assert first == second          # byte-identical payload


def test_model_export_feeds_decompose(tmp_path, capsys):
    code = run_cli("model", "export", "--model", "S2xS2", "--a", "1",
                   "--b", "2", "--output-format", "json")
    assert code == 0
    exported = capsys.readouterr().out
    path = tmp_path / "s2s2.json"
    path.write_text(exported)
    code, payload = run_json(capsys, "decompose", "--input", str(path))
    assert code == 0
    assert payload["s"] == pytest.approx(2 * (1 + 1 / 4), abs=1e-12)


def test_model_list(capsys):
    assert run_cli("model", "list") == 0
    out = capsys.readouterr().out
    for name in fc.model_names():
        assert name in out


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"components": [1, 2,\n  broken]}')
    assert run_cli("decompose", "--input", str(path)) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_usage_errors(tmp_path, capsys):
    assert run_cli("scan") == 1                       # no source
    capsys.readouterr()
    path = tmp_path / "any.json"
    path.write_text("{}")
    assert run_cli("scan", "--input", str(path),
                   "--model", "S4") == 1              # both sources
    capsys.readouterr()
    assert run_cli("scan", "--model", "Nope") == 1    # unknown model
    capsys.readouterr()
    capsys.readouterr()
    assert run_cli("frobnicate") == 1                 # unknown command
    capsys.readouterr()
    assert run_cli("check", "badsuite") == 1
    capsys.readouterr()
    assert run_cli("scan", "--model", "S4", "--r", "-1") == 1
    capsys.readouterr()


def test_thm2_without_lambda1(tmp_path, capsys):
    # a model supplies its own lambda1; a raw tensor file cannot
    run_cli("model", "export", "--model", "S4", "--output-format", "json")
    exported = capsys.readouterr().out
    path = tmp_path / "s4.json"
    path.write_text(exported)
    assert run_cli("verdict", "thm2", "--input", str(path)) == 1
    err = capsys.readouterr().err
    assert "lambda1" in err

    assert run_cli("verdict", "thm2", "--model", "S4") == 0
    capsys.readouterr()


def test_missing_input_file(capsys):
    assert run_cli("decompose", "--input", "/nonexistent/x.json") == 1
    capsys.readouterr()


def test_check_suites_pass(capsys):
    assert run_cli("check", "lemma1", "--model", "S4",
                   "--samples", "50") == 0
    capsys.readouterr()
    assert run_cli("check", "seaman", "--samples", "5") == 0
    capsys.readouterr()
    assert run_cli("check", "k3bound", "--samples", "5") == 0
    capsys.readouterr()


def test_check_ville_on_pinched_samples(capsys):
    code, payload = run_json(capsys, "check", "ville", "--samples", "2")
    assert code == 0
    for report in payload["reports"]:
        assert report["passed"] is True
        assert report["n_violations"] == 0


def test_check_deg_on_model(capsys):
    code, payload = run_json(capsys, "check", "deg", "--model", "S4")
    assert code == 0
    assert all(r["passed"] for r in payload["reports"])


def test_check_deterministic(capsys):
    run_cli("check", "seaman", "--samples", "5", "--seed", "3")
    first = capsys.readouterr().out
    run_cli("check", "seaman", "--samples", "5", "--seed", "3")
    second = capsys.readouterr().out
    assert first == second


def test_weitzenbock_command(capsys):
    code, payload = run_json(capsys, "weitzenbock", "--model", "S4")
    assert code == 0
    matrix = np.array(payload["matrix"])
    assert np.allclose(matrix, 4 * np.eye(6), atol=1e-12)
    assert payload["lemma1"]["passed"] is True


def lemma1_per_form(R, n_forms, seed, tol):
    """One lemma1_check per seeded unit form: (n_violations, min_slack)."""
    rng = np.random.default_rng(seed)
    slacks = []
    for _ in range(n_forms):
        coeffs = rng.normal(size=6)
        lhs, rhs = fc.lemma1_check(R, fc.Form2(coeffs / np.linalg.norm(coeffs)))
        slacks.append(lhs - rhs)
    return sum(s < -tol for s in slacks), min(slacks)


@pytest.mark.parametrize("seed", [0, 5])
def test_lemma1_on_one_tensor_matches_per_form_checks(tmp_path, capsys, seed):
    R = fc.random_algebraic_tensor(seed, scale=3.0)
    path = str(tmp_path / "tensor.json")
    fc.save_tensor(R, path)
    n_viol, min_slack = lemma1_per_form(R, 40, seed, 1e-9)
    flags = ("--input", path, "--samples", "40", "--seed", str(seed))
    _, payload = run_json(capsys, "weitzenbock", *flags)
    _, checked = run_json(capsys, "check", "lemma1", *flags)
    for report in (payload["lemma1"], checked["reports"][0]):
        assert report["n_samples"] == 40
        assert report["n_violations"] == n_viol
        assert report["min_slack"] == pytest.approx(min_slack, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("check", "ville", "--samples", "0"),
    ("check", "deg", "--samples", "0"),
    ("check", "lemma1", "--samples", "-1"),
    ("check", "seaman", "--samples", "0"),
])
def test_non_positive_samples_rejected(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert captured.out == ""


def test_console_script(module_env):
    # python -m fourcurv always; the installed executable when there is one
    commands = [[sys.executable, "-m", "fourcurv", "delta-star"]]
    if shutil.which("fourcurv"):
        commands.append(["fourcurv", "delta-star"])
    for argv in commands:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=module_env)
        assert proc.returncode == 0, proc.stderr
        assert "0.049038105" in proc.stdout


def test_non_finite_component_in_input_rejected(tmp_path, module_env):
    # a subprocess, so that a RuntimeWarning would reach stderr as text
    c = fc.model("S4").tensor.components.copy()
    c[0, 0, 0, 0] = np.inf
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"components": c.tolist()}))
    assert "Infinity" in path.read_text()
    proc = subprocess.run(
        [sys.executable, "-m", "fourcurv", "decompose", "--input", str(path)],
        capture_output=True, text=True, env=module_env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "finite" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9", "abc"])
def test_tol_must_be_finite_and_non_negative(capsys, value):
    assert run_cli("check", "seaman", "--samples", "2", "--tol", value) == 1
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda1_rejected(capsys, value):
    assert run_cli("verdict", "thm2", "--model", "S4",
                   "--lambda1", value) == 1
    captured = capsys.readouterr()
    assert "lambda1" in captured.err
    assert captured.out == ""


def test_non_finite_model_parameter_rejected(capsys):
    assert run_cli("invariants", "--model", "S4", "--r", "inf",
                   "--output-format", "json") == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""
