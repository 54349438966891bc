"""Tests of the benchmark itself, kept out of the Tier-1 suite.

    PYTHONPATH=src python -m pytest -q bench/tests

Injected wrong results must be counted as failed ops, a short run of every
workload must complete with only the known defects failing, and the
emitted metric names must be the ones BENCHMARK.json declares.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import fourcurv as fc  # noqa: E402
import fourcurv.cli  # noqa: E402,F401
import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def tally(wl, ops, run=None):
    t = worker.Tally()
    for op in ops:
        t.add(wl, op, worker.run_guarded(run or wl.run, op))
    return t


def oracles_failed(t):
    return {name for name, _ in t.by_oracle}


@pytest.fixture(scope="module")
def analyze(tmp_path_factory):
    return workloads.Analyze(fc, 7, str(tmp_path_factory.mktemp("analyze")))


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return workloads.Cli(fc, 7, str(tmp_path_factory.mktemp("cli")))


def first(wl, pred):
    return next(op for op in wl.cycle(0) if pred(op))


def test_known_defects_are_the_only_failures_of_a_cycle(analyze):
    t = tally(analyze, analyze.cycle(0))
    assert t.unexpected == 0
    assert set(t.by_oracle) == oracles.KNOWN_DEFECTS
    assert t.failed == 2


def test_k_min_off_by_1e_3_fails_the_op(analyze, monkeypatch):
    op = first(analyze, lambda op: op.case.startswith("S2xS2"))
    real = fc.scan_extremes

    def shifted(R, budget=None):
        report = real(R, budget)
        report.k_min += 1e-3
        return report

    monkeypatch.setattr(fc, "scan_extremes", shifted)
    t = tally(analyze, [op])
    assert (t.attempted, t.failed, t.unexpected) == (1, 1, 1)
    assert {"scan.argplanes", "model.extremes"} <= oracles_failed(t)


def test_mismatched_weitzenbock_route_fails_the_op(analyze, monkeypatch):
    op = first(analyze, lambda op: op.kind == "random")
    real = fc.weitzenbock_operator

    def skewed(R):
        m = real(R).matrix.copy()
        m[0, 0] += 1e-6 * np.linalg.norm(m)
        return fc.WeitzenbockOperator(m)

    monkeypatch.setattr(fc, "weitzenbock_operator", skewed)
    t = tally(analyze, [op])
    assert t.failed == 1 and oracles_failed(t) == {"weitzenbock.two_routes"}


def test_escaped_exception_fails_the_op(analyze, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(fc, "integrand_values", broken)
    t = tally(analyze, [analyze.cycle(0)[0]])
    assert t.failed == 1 and oracles_failed(t) == {"op.raised"}


def flipped(run):
    def flip(op):
        code, out, err = run(op)
        return (2 if code == 0 else 0), out, err
    return flip


def test_flipped_exit_code_fails_the_op(cli):
    op = first(cli, lambda op: op.data["argv"][:2] == ["check", "k3bound"])
    assert tally(cli, [op], cli.run_in_process).failed == 0
    t = tally(cli, [op], flipped(cli.run_in_process))
    assert t.failed == 1 and "cli.exit_code" in oracles_failed(t)


def test_exit_code_must_match_the_reported_verdict(cli):
    op = first(cli, lambda op: op.case == "S4 r=0.5")
    t = tally(cli, [op], cli.run_in_process)
    assert set(t.by_oracle) == {("verdict.thm1", "S4 r=0.5")}
    assert t.unexpected == 0
    t = tally(cli, [op], flipped(cli.run_in_process))
    assert "cli.exit_code" in oracles_failed(t) and t.unexpected == 1


def test_tracer_wraps_every_binding_and_restores_it():
    import fourcurv.scan
    import fourcurv.tensor
    originals = (fc.decompose, fourcurv.scan.decompose,
                 fourcurv.tensor.validate_symmetries)
    tracer = worker.tracing.Tracer()
    tracer.install()
    try:
        assert fc.decompose is fourcurv.scan.decompose  # one wrapper, both names
        assert fc.decompose is not originals[0]
        fc.seaman_check(fc.random_algebraic_tensor(1), n_frames=4)
    finally:
        tracer.uninstall()
    assert (fc.decompose, fourcurv.scan.decompose,
            fourcurv.tensor.validate_symmetries) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("scan.seaman_check") == 1
    assert names.count("tensor.decompose") == 1
    # decompose validates itself and again through operator_from_tensor
    assert names.count("tensor.validate_symmetries") == 2
    own = worker.tracing.self_times(tracer.spans)
    assert all(x >= 0 for x in own)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


@pytest.mark.parametrize("workload,trace", [("analyze", 0), ("sweep", 0),
                                            ("cli", 0), ("sweep", 1)])
def test_short_run_completes_with_declared_metrics(workload, trace, declared):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = run_bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
