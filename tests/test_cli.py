import ast
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fourcurv as fc
from fourcurv import cli
import proof_routes as routes


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
    assert first["max_abs"] == np.abs(fc.model("CP2").tensor.components).max()
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


@pytest.mark.parametrize("suite", ["ville", "deg"])
def test_sweeps_of_two_seeds_share_no_sample(monkeypatch, capsys, suite):
    drawn = {}

    def recorded(seed):
        R = fc.pinched_sample(seed)
        drawn[tuple(seed)] = R.components.tobytes()
        return R

    monkeypatch.setattr(cli, "pinched_sample", recorded)
    for seed in ("0", "1"):
        assert run_cli("check", suite, "--seed", seed, "--samples", "3") == 0
    capsys.readouterr()
    assert sorted(drawn) == [(s, i) for s in (0, 1) for i in range(3)]
    assert len(set(drawn.values())) == 6


@pytest.mark.parametrize("suite", ["ville", "deg"])
def test_check_refuses_a_tensor_below_the_pinching_margin(tmp_path, capsys, suite):
    # k_min = -2.6e-7 at scale 1e-7, so the tensor is not pinched at its own
    # delta = 0; warnings are errors here, so a leaked negative A_i
    # RuntimeWarning would fail the call
    fc.save_tensor(fc.random_algebraic_tensor(3, scale=1e-7), str(tmp_path / "small.json"))
    assert run_cli("check", suite, "--input", str(tmp_path / "small.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fourcurv: hypothesis not met: k_min >= ")
    assert captured.err.count("\n") == 1


def test_sweep_merges_per_tensor_count(capsys):
    # ville makes two reports per tensor; the merged report counts tensors
    code, payload = run_json(capsys, "check", "ville", "--samples", "3")
    assert code == 0
    [report] = payload["reports"]
    assert report["metrics"] == {"tensors": 3}


@pytest.mark.parametrize("suite", ["seaman", "k3bound"])
def test_sweep_of_one_tensor_keeps_its_report(capsys, suite):
    # the same tensor and report as the library gives, metrics included
    R = fc.random_algebraic_tensor(np.random.default_rng(4))
    want = (fc.seaman_check(R, n_frames=100, seed=4, tol=1e-9)
            if suite == "seaman" else fc.k3_bound_check(fc.decompose(R), tol=1e-9))
    code, payload = run_json(capsys, "check", suite, "--samples", "1",
                             "--seed", "4")
    assert code == 0
    assert payload["reports"] == [want.as_dict()]


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


def lemma1_per_form(R, n_forms, seed):
    """The least slack of one lemma1_check per seeded unit form."""
    rng = np.random.default_rng(seed)
    slacks = []
    for _ in range(n_forms):
        coeffs = rng.normal(size=6)
        lhs, rhs = routes.lemma1_check(R, fc.Form2(coeffs / np.linalg.norm(coeffs)))
        slacks.append(lhs - rhs)
    return min(slacks)


@pytest.mark.parametrize("seed", [0, 5])
def test_lemma1_on_one_tensor_is_the_exact_minimum(tmp_path, capsys, seed):
    # the library's closed form over all unit forms, whatever --samples and
    # --seed say, and no seeded form goes below it
    R = fc.random_algebraic_tensor(seed, scale=3.0)
    path = str(tmp_path / "tensor.json")
    fc.save_tensor(R, path)
    want = fc.lemma1_bound_check(fc.decompose(R), 1e-9).as_dict()
    assert want["n_samples"] == 3
    assert want["min_slack"] <= lemma1_per_form(R, 40, seed)
    for samples, flag_seed in (("1", seed), ("40", seed + 1)):
        flags = ("--input", path, "--samples", samples, "--seed", str(flag_seed))
        _, payload = run_json(capsys, "weitzenbock", *flags)
        _, checked = run_json(capsys, "check", "lemma1", *flags)
        assert payload["lemma1"] == checked["reports"][0] == want


def test_lemma1_tolerance_is_relative_to_the_tensor(tmp_path, capsys):
    # rotated equality cases at max|R| 3.9e9 and 9.6e8, whose exact minima
    # are rounding noise of +5.7e-6 and -3.6e-7: they hold against
    # tol * max|R|, not against tol
    for name, params, frame_seed, negative in (("S4", {"r": 1.6e-5}, 7, False),
                                               ("CP2", {"c": 1e9}, 6, True)):
        frame = routes.random_frame(np.random.default_rng(frame_seed)).columns
        R = fc.rotate_tensor(fc.model(name, **params).tensor, frame)
        path = str(tmp_path / f"{name}.json")
        fc.save_tensor(R, path)
        code, payload = run_json(capsys, "weitzenbock", "--input", path)
        assert code == 0
        code, checked = run_json(capsys, "check", "lemma1", "--input", path)
        assert code == 0
        for report in (payload["lemma1"], checked["reports"][0]):
            assert report["n_violations"] == 0 and report["passed"]
            assert abs(report["min_slack"]) < 1e-14 * fc.decompose(R).max_abs
            assert (report["min_slack"] < -1e-9) == negative   # the noise, allowed


@pytest.mark.parametrize("argv", [
    ("ville", "--model", "S4", "--r", "2"),
    ("ville", "--model", "CP2", "--c", "0.5"),
    ("ville", "--model", "S4", "--r", "1.0000001"),
    ("deg", "--model", "S4", "--r", "1.0000001")],
    ids=["ville-S4-r2", "ville-CP2-c0.5", "ville-S4-r1.0000001", "deg-S4-r1.0000001"])
def test_check_runs_a_given_tensor_at_its_certified_pinching_level(capsys, argv):
    # delta is k_min_lower, the level the checks assert K >= delta at, not
    # the ratio k_min/k_max; warnings are errors here, so a leaked negative
    # A_i RuntimeWarning would fail the call
    code, payload = run_json(capsys, "check", *argv)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert all(r["passed"] and r["notes"] == [] for r in payload["reports"])


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


@pytest.mark.parametrize("suite", ["ville", "seaman"])
def test_negative_seed_rejected(capsys, suite):
    assert run_cli("check", suite, "--seed", "-1", "--samples", "2") == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err and "-1" in captured.err
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


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


_SUBCOMMANDS = [("decompose",), ("scan",), ("weitzenbock",),
                *(("check", suite) for suite in
                  ("seaman", "lemma1", "k3bound", "ville", "deg")),
                ("invariants",), ("delta-star",), ("verdict", "thm1"),
                ("verdict", "thm2"), ("model", "list"), ("model", "export")]


# scales of the random --input tensors; 1e200 squares past the float range
_RANDOM_SCALES = {"random": 2.0, "random-1e200": 1e200, "random-1e-200": 1e-200}


@pytest.mark.parametrize("source", ["S4", "CP2", "FlatT4", *_RANDOM_SCALES])
@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_json_payload_is_strict(tmp_path, capsys, command, source):
    if source in _RANDOM_SCALES:
        R = fc.random_algebraic_tensor(3, scale=_RANDOM_SCALES[source])
        fc.save_tensor(R, str(tmp_path / "random.json"))
        flags = ("--input", str(tmp_path / "random.json"))
    else:
        R = fc.model(source).tensor
        flags = ("--model", source)
    code = run_cli(*command, *flags, "--samples", "5", "--lambda1", "2",
                   "--output-format", "json")
    captured = capsys.readouterr()
    if not captured.out:
        # a usage error or a hypothesis not met: a message and no payload
        assert code in (1, 2) and captured.err
        return
    json.loads(captured.out, parse_constant=_reject_constant)
    if command == ("decompose",):
        path = tmp_path / "payload.json"
        path.write_text(captured.out)
        assert np.array_equal(fc.load_tensor(str(path)).components, R.components)


def test_decompose_text_at_extreme_scale(tmp_path, capsys):
    R = fc.random_algebraic_tensor(3, scale=1e200)
    fc.save_tensor(R, str(tmp_path / "big.json"))
    assert run_cli("decompose", "--input", str(tmp_path / "big.json")) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    line = next(x for x in captured.out.splitlines() if x.startswith("|z block|"))
    z_norm = float(line.split("=")[1])
    exact = np.linalg.norm(fc.decompose(R).z_block / 1e200) * 1e200
    assert z_norm == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("argv", [
    ("scan", "--model", "S4", "--r", "1e200"),
    ("scan", "--model", "S4", "--r", "1e-200"),
    ("invariants", "--model", "CP2", "--c", "1e200"),
    ("scan", "--model", "S2xS2", "--a", "1e-200"),
    ("invariants", "--model", "FlatT4", "--L", "1e100"),
    ("invariants", "--model", "S4", "--r", "1e-78"),
])
def test_finite_input_out_of_float_range_is_an_error(module_env, argv):
    # a subprocess, so that a traceback or a warning would reach stderr
    proc = subprocess.run([sys.executable, "-m", "fourcurv", *argv],
                          capture_output=True, text=True, env=module_env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("fourcurv: error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, key, value", [
    ("S4", "r", 1e-100), ("CP2", "c", 1e200), ("CP2", "c", 1e-160),
    ("FlatT4", "L", 1e100), ("FlatT4", "L", 1e-100),
])
def test_volume_out_of_float_range_is_refused_only_where_used(capsys, name,
                                                              key, value):
    # the tensor is fine, only the volume overflows or underflows to 0
    source = ("--model", name, f"--{key}", repr(value))
    assert run_cli("scan", *source) == 0
    capsys.readouterr()
    for argv in (("invariants",), ("model", "export")):
        assert run_cli(*argv, *source) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key} = {value:g}: its volume" in captured.err
    with pytest.raises(fc.NonPositiveParam, match="its volume"):
        fc.homogeneous_invariants(fc.model(name, **{key: value}))


def test_cli_imports_no_private_library_names():
    # the front end calls the library's public checks, not its helpers
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("fourcurv"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_imports_no_test_or_optional_packages(module_env):
    # numpy is the only runtime dependency
    probe = ("import sys, fourcurv.cli; print(' '.join(sorted({name.split('.')[0] "
             "for name in sys.modules} & {'scipy', 'pytest', 'hypothesis'})))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=module_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
