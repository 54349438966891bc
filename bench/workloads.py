"""The three workloads: seeded inputs, one op each, and its checks.

Each workload builds its inputs from the seed at set-up, hands out ops in
whole cycles of a fixed mix (so every run measures the same mix whatever
its length), runs one op against the library, and checks the op's output
with the oracles.  Ops raise nothing: an error the library raises on
purpose is part of the output and is checked like any other result.
"""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import oracles as orc

LAMBDA1 = 4.0          # first eigenvalue given to theorem 2 for non-model inputs
SWEEP_FORMS = 100      # lemma1_suite forms per sweep op (one tensor)
SWEEP_FRAMES = 100     # seaman_check frames per sweep op
CLI_TIMEOUT_S = 120
CLI_CODE = "from fourcurv.cli import main; main()"


@dataclass
class Op:
    kind: str
    case: str                      # label used when the op fails
    data: dict = field(default_factory=dict)


def oriented_frame(rng) -> np.ndarray:
    """Random SO(4) frame, columns are the vectors."""
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def model_label(name: str, params: dict) -> str:
    return " ".join([name] + [f"{k}={v:g}" for k, v in params.items()])


def model_draws(rng) -> list[tuple[str, dict]]:
    """One draw of every model kind, both known-defect scales included.

    S4 at r = 0.5 and CP2 at c = 4 are where the first verdict is known
    to depend on scale; they stay in every cycle.
    """
    a, b = rng.choice([0.5, 0.8, 1.0, 1.5, 2.0], size=2, replace=False)
    return [("S4", {"r": 0.5}),
            ("S4", {"r": float(rng.choice([1.0, 2.0, 3.0]))}),
            ("CP2", {"c": 4.0}),
            ("CP2", {"c": float(rng.choice([0.25, 0.5, 1.0]))}),
            ("S2xS2", {"a": float(a), "b": float(b)}),
            ("FlatT4", {"L": float(rng.uniform(0.5, 3.0))})]


def _error_name(fc, call, *args):
    """The call's result, or the class name of a library error it raised."""
    try:
        return call(*args)
    except fc.CurvatureError as e:
        return type(e).__name__


class Workload:
    name = ""
    # The tail percentile is fixed per workload, so that two commits
    # report the same one; a run lasts until 10 ops lie beyond it.
    TAIL_PERCENTILE = 90.0

    def __init__(self, fc, seed: int, workdir: str):
        self.fc = fc
        self.workdir = workdir

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list:
        raise NotImplementedError


class Analyze(Workload):
    """A stream of single tensors through every per-tensor question."""

    name = "analyze"
    CYCLES = 16          # distinct seeded cycles before the stream repeats

    def __init__(self, fc, seed, workdir):
        super().__init__(fc, seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.cycles = []
        for _ in range(self.CYCLES):
            ops = [Op("random", f"random scale={scale:.3g}", {
                       "tensor": fc.random_algebraic_tensor(rng, scale=scale)})
                   for scale in 10.0 ** rng.uniform(-3.0, 3.0, size=3)]
            for name, params in model_draws(rng):
                ms = fc.model(name, **params)
                ops.append(Op("model", model_label(name, params), {
                    "tensor": fc.rotate_tensor(ms.tensor, oriented_frame(rng)),
                    "model": ms}))
            for weyl_only in (False, True):
                s = int(rng.integers(2 ** 31))
                ops.append(Op("pinched", f"pinched seed={s}"
                              + (" weyl_only" if weyl_only else ""),
                              {"seed": s, "weyl_only": weyl_only}))
            for op in ops:
                op.data["check_seed"] = int(rng.integers(2 ** 31))
            rng.shuffle(ops)
            self.cycles.append(ops)

    def cycle(self, i):
        return self.cycles[i % self.CYCLES]

    def run(self, op):
        fc = self.fc
        d = op.data
        R = (fc.pinched_sample(d["seed"], weyl_only=d["weyl_only"])
             if op.kind == "pinched" else d["tensor"])
        dec = fc.decompose(R)
        scan = fc.scan_extremes(R)
        out = {"R": R, "dec": dec, "scan": scan,
               "N": fc.weitzenbock_operator(R),
               "iv": fc.integrand_values(dec),
               "k_at_planes": (fc.sectional(R, scan.argmin_plane),
                               fc.sectional(R, scan.argmax_plane))}
        ms = d.get("model")
        lam = ms.lambda1 if ms is not None and ms.lambda1 else LAMBDA1
        out["lambda1"] = lam
        out["thm1"] = _error_name(fc, fc.theorem1_verdict, dec, scan)
        out["thm2"] = _error_name(fc, fc.theorem2_verdict, dec, scan, lam)
        if op.kind == "pinched":
            delta = max(0.0, scan.delta or 0.0)
            out["reports"] = (fc.operator_bound_check(R, delta, scan=scan),
                              fc.znorm_bound_check(dec, delta, scan=scan))
            out["fg_bound"] = fc.deg_lower_bound(dec, delta, scan=scan)
        return out

    def check(self, op, out):
        fc = self.fc
        ref = orc.Reference(out["R"].components)
        dec, scan = out["dec"], out["scan"]
        rng = np.random.default_rng(op.data["check_seed"])
        bad = (orc.check_decomposition(fc, ref, dec)
               + orc.check_scan(fc, ref, out["R"], dec, scan,
                                out["k_at_planes"], rng)
               + orc.check_weitzenbock(fc, ref, dec, out["N"])
               + orc.check_integrands(ref, out["iv"]))
        ms = op.data.get("model")
        if ms is not None:
            bad += orc.check_model(ref, ms.name, ms.params, ms.volume,
                                   ms.expected_chi, ms.expected_tau,
                                   scan, out["iv"])
            thm1, thm2 = orc.model_verdicts(ms.name)
        else:
            thm1 = orc.thm1_expected(ref, scan.k_min, scan.k_max)
            thm2 = orc.thm2_expected(ref, out["lambda1"])
        bad += orc.check_verdict("verdict.thm1", thm1, out["thm1"])
        bad += orc.check_verdict("verdict.thm2", thm2, out["thm2"])
        if op.kind == "pinched":
            bad += orc.check_pinched(ref, out["reports"], out["fg_bound"])
        return bad


class Sweep(Workload):
    """One random tensor per op through the suites that never scan."""

    name = "sweep"
    POOL = 64
    # p99 of a 3 ms op measures the host's millisecond stalls: over ten
    # seeds it spread 0.21 (interquartile range over median), p95 0.03.
    TAIL_PERCENTILE = 95.0

    def __init__(self, fc, seed, workdir):
        super().__init__(fc, seed, workdir)
        rng = np.random.default_rng([seed, 2])
        self.pool = []
        for scale in 10.0 ** rng.uniform(-1.0, 1.0, size=self.POOL):
            self.pool.append(Op("sweep", f"sweep scale={scale:.3g}", {
                "tensor": fc.random_algebraic_tensor(rng, scale=scale),
                "frame": oriented_frame(rng),
                "seed": int(rng.integers(2 ** 31))}))

    def cycle(self, i):
        return self.pool

    def run(self, op):
        fc = self.fc
        d = op.data
        R = d["tensor"]
        dec = fc.decompose(R)
        return {
            "lemma1": fc.lemma1_suite(n_tensors=1, n_forms=SWEEP_FORMS,
                                      seed=d["seed"]),
            "lemma1_samples": SWEEP_FORMS,
            "seaman": fc.seaman_check(R, n_frames=SWEEP_FRAMES, seed=d["seed"]),
            "dec": dec,
            "k3bound": fc.k3_bound_check(dec),
            "rotated_dec": fc.decompose(fc.rotate_tensor(R, d["frame"])),
        }

    def check(self, op, out):
        ref = orc.Reference(op.data["tensor"].components)
        return (orc.check_decomposition(self.fc, ref, out["dec"])
                + orc.check_sweep(ref, out))


# --- cli ---------------------------------------------------------------------
_CHI_TAU = {"S4": (2, 0), "CP2": (3, 1), "S2xS2": (4, 0), "FlatT4": (0, 0)}

# Each call is (argv, case label, check name, expectation).  The check gets
# (exit code, stdout, stderr, expectation) and returns failures.

def _text_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line.split("=", 1)[1].split()[0])
    raise ValueError(f"no line starting {prefix!r}")


def _exit(code, want):
    return [] if code == want else [("cli.exit_code", f"exit {code}, want {want}")]


def _cli_decompose_input(code, out, err, ref):
    if code != 0:
        return _exit(code, 0)
    p = json.loads(out)
    tol = ref.tol(orc.ALGEBRA_REL)
    z_sq = 4.0 * float((np.asarray(p["z_block"]) ** 2).sum())
    if (orc.far(p["s"], ref.s, tol) or orc.max_diff(p["wp_eigs"], ref.wp) > tol
            or orc.max_diff(p["wm_eigs"], ref.wm) > tol
            or orc.far(z_sq, ref.ric0_sq, orc.ALGEBRA_REL * ref.norm ** 2)):
        return [("decompose.roundtrip", "cli payload")]
    return []


def _cli_decompose_model(code, out, err, s):
    if code != 0:
        return _exit(code, 0)
    if orc.far(_text_value(out, "scalar curvature s"), s, 1e-9 * abs(s)):
        return [("decompose.roundtrip", "cli scalar curvature")]
    return []


def _cli_scan_json(code, out, err, expect):
    if code != 0:
        return _exit(code, 0)
    p = json.loads(out)
    ref, (k_min, k_max) = expect
    tol = ref.tol(orc.SCAN_REL)
    bad = []
    if orc.far(p["k_min"], k_min, tol) or orc.far(p["k_max"], k_max, tol):
        bad.append(("model.extremes", f"k_min={p['k_min']!r} k_max={p['k_max']!r}"))
    if orc.far(p["k1perp"], ref.k1perp, tol) or orc.far(p["k3perp"], ref.k3perp, tol):
        bad.append(("scan.closed_form", "k1perp/k3perp"))
    return bad


def _cli_scan_text(code, out, err, extremes):
    if code != 0:
        return _exit(code, 0)
    k_min, k_max = extremes
    tol = 1e-8 * max(abs(k_max), 1.0)   # text prints 9 significant digits
    if (orc.far(_text_value(out, "k_min"), k_min, tol)
            or orc.far(_text_value(out, "k_max"), k_max, tol)):
        return [("model.extremes", "cli text")]
    return []


def _cli_weitzenbock(code, out, err, ref):
    p = json.loads(out)
    bad = _exit(code, 0 if p["lemma1"]["passed"] else 2)
    if not p["lemma1"]["passed"]:
        bad.append(("lemma1.holds", "cli weitzenbock"))
    if orc.max_diff(p["matrix"], ref.weitzenbock()) > ref.tol(orc.ALGEBRA_REL):
        bad.append(("weitzenbock.two_routes", "cli matrix"))
    return bad


def _cli_invariants(code, out, err, chi_tau):
    if code != 0:
        return _exit(code, 0)
    p = json.loads(out)
    if orc.far(p["chi"], chi_tau[0], 1e-9) or orc.far(p["tau"], chi_tau[1], 1e-9):
        return [("invariants.chi_tau", f"chi={p['chi']!r} tau={p['tau']!r}")]
    return []


def _cli_delta_star(code, out, err, _):
    if code != 0:
        return _exit(code, 0)
    values = [float(line.rsplit(":", 1)[1]) for line in out.splitlines()[:2]]
    if any(orc.far(v, orc.CRITICAL_DELTA, 1e-10) for v in values):
        return [("verdict.delta_star", f"{values}")]
    return []


def _reported_hold(out):
    if out.lstrip().startswith("{"):
        return bool(json.loads(out)["hypotheses_hold"])
    return "hypotheses HOLD" in out.splitlines()[0]


def _cli_verdict(code, out, err, expect):
    oracle, hold = expect
    if hold is None:                   # within tolerance of the threshold
        return []
    if isinstance(hold, str):          # a library error is expected
        if code != 1 or "not positive" not in err:
            return [(oracle, f"expected {hold}, exit {code}")]
        return []
    got = _reported_hold(out)
    # the CLI contract: exit 0 when the hypotheses hold, 2 when they fail
    return _exit(code, 0 if got else 2) + orc.check_verdict(oracle, hold, got)


def _cli_check_text(code, out, err, suite):
    if code != 0 or not out.startswith(f"{suite}: PASS"):
        return [(f"{suite}.holds", f"exit {code}: {out[:60]!r}")] + _exit(code, 0)
    return []


def _cli_check_json(code, out, err, expect):
    suite, n_reports, n_samples = expect
    p = json.loads(out)
    bad = _exit(code, 0)
    reports = p["reports"]
    if (len(reports) != n_reports or not all(r["passed"] for r in reports)
            or (n_samples and reports[0]["n_samples"] != n_samples)):
        bad.append((f"{suite}.holds", f"{[(r['name'], r['passed']) for r in reports]}"))
    return bad


def _cli_model_list(code, out, err, _):
    if code != 0:
        return _exit(code, 0)
    got = {}
    for line in out.splitlines():
        words = line.split()
        fields = dict(w.split("=", 1) for w in words if w.startswith(("chi=", "tau=")))
        got[words[0]] = (int(fields["chi"]), int(fields["tau"]))
    return [] if got == _CHI_TAU else [("invariants.chi_tau", f"model list {got}")]


def _cli_model_export(code, out, err, expect):
    if code != 0:
        return _exit(code, 0)
    s, chi_tau = expect
    p = json.loads(out)
    ref = orc.Reference(p["components"])
    if (orc.far(ref.s, s, 1e-12 * max(1.0, abs(s)))
            or (p["expected_chi"], p["expected_tau"]) != chi_tau):
        return [("model.export", f"s={ref.s!r}")]
    return []


CHECKS = {f.__name__[5:]: f for f in (
    _cli_decompose_input, _cli_decompose_model, _cli_scan_json,
    _cli_scan_text, _cli_weitzenbock, _cli_invariants, _cli_delta_star,
    _cli_verdict, _cli_check_text, _cli_check_json, _cli_model_list,
    _cli_model_export)}

# one entry per subcommand in the mix, for the per-subcommand trace metrics
CLI_SUBCOMMANDS = ("decompose", "scan", "weitzenbock", "invariants",
                   "delta-star", "verdict-thm1", "verdict-thm2",
                   "check-seaman", "check-lemma1", "check-k3bound",
                   "check-ville", "check-deg", "model-list", "model-export")

def _model_flags(name, params):
    return ["--model", name] + [x for k, v in params.items()
                                for x in (f"--{k}", repr(v))]


def _model_s(name, params):
    return {"S4": lambda p: 12.0 / p["r"] ** 2, "CP2": lambda p: 6.0 * p["c"],
            "S2xS2": lambda p: 2.0 / p["a"] ** 2 + 2.0 / p["b"] ** 2,
            "FlatT4": lambda p: 0.0}[name](params)


class Cli(Workload):
    """Each op is one `fourcurv` call in a fresh interpreter."""

    name = "cli"
    CYCLES = 8
    TAIL_PERCENTILE = 75.0

    def __init__(self, fc, seed, workdir):
        super().__init__(fc, seed, workdir)
        rng = np.random.default_rng([seed, 3])
        self.cycles = [self._build_cycle(rng, i) for i in range(self.CYCLES)]

    def _write(self, tensor, name):
        path = os.path.join(self.workdir, name)
        self.fc.save_tensor(tensor, path)
        return path

    def _build_cycle(self, rng, i):
        fc = self.fc
        draws = model_draws(rng)
        s4_hold, cp2_hold, s2s2, flat = draws[1], draws[3], draws[4], draws[5]
        rand = fc.random_algebraic_tensor(rng, scale=float(10 ** rng.uniform(-1, 1)))
        rand_path = self._write(rand, f"random-{i}.json")
        rand_ref = orc.Reference(rand.components)
        rot_name, rot_params = draws[int(rng.integers(2, 6))]
        rot = fc.rotate_tensor(fc.model(rot_name, **rot_params).tensor,
                               oriented_frame(rng))
        rot_path = self._write(rot, f"rotated-{i}.json")
        verdict_model = [s4_hold, cp2_hold][int(rng.integers(2))]
        inv_model = [s4_hold, cp2_hold, s2s2][int(rng.integers(3))]
        export_model = [s4_hold, s2s2, flat][int(rng.integers(3))]
        seed = [str(int(x)) for x in rng.integers(2 ** 31, size=5)]
        J = ["--output-format", "json"]
        thm2_rand = orc.thm2_expected(rand_ref, LAMBDA1)
        calls = [
            (["decompose", "--input", rand_path] + J, "decompose random",
             "decompose_input", rand_ref),
            (["decompose"] + _model_flags(*s4_hold), model_label(*s4_hold),
             "decompose_model", _model_s(*s4_hold)),
            (["scan", "--input", rot_path] + J,
             "scan rotated " + model_label(rot_name, rot_params), "scan_json",
             (orc.Reference(rot.components),
              orc.model_extremes(rot_name, rot_params))),
            (["scan"] + _model_flags(*s2s2), model_label(*s2s2), "scan_text",
             orc.model_extremes(*s2s2)),
            (["weitzenbock", "--input", rand_path, "--samples", "20"] + J,
             "weitzenbock random", "weitzenbock", rand_ref),
            (["invariants"] + _model_flags(*inv_model) + J,
             model_label(*inv_model), "invariants", _CHI_TAU[inv_model[0]]),
            (["delta-star"], "delta-star", "delta_star", None),
            (["verdict", "thm1"] + _model_flags("S4", {"r": 0.5}) + J,
             "S4 r=0.5", "verdict", ("verdict.thm1", True)),
            (["verdict", "thm1"] + _model_flags("CP2", {"c": 4.0}),
             "CP2 c=4", "verdict", ("verdict.thm1", True)),
            (["verdict", "thm1"] + _model_flags(*verdict_model) + J,
             model_label(*verdict_model), "verdict", ("verdict.thm1", True)),
            (["verdict", "thm1"] + _model_flags(*s2s2), model_label(*s2s2),
             "verdict", ("verdict.thm1", False)),
            (["verdict", "thm2"] + _model_flags(*verdict_model) + J,
             model_label(*verdict_model), "verdict", ("verdict.thm2", True)),
            (["verdict", "thm2"] + _model_flags(*flat) + ["--lambda1", "1"],
             model_label(*flat), "verdict",
             ("verdict.thm2", "NonPositiveScalarCurvature")),
            (["verdict", "thm2", "--input", rand_path, "--lambda1",
              repr(LAMBDA1)] + J, "verdict thm2 random", "verdict",
             ("verdict.thm2", thm2_rand)),
            (["check", "seaman", "--samples", "3", "--seed", seed[0]],
             "check seaman", "check_text", "seaman"),
            (["check", "lemma1", "--samples", "3", "--seed", seed[1]] + J,
             "check lemma1", "check_json", ("lemma1", 1, 300)),
            (["check", "k3bound", "--samples", "10", "--seed", seed[2]],
             "check k3bound", "check_text", "k3bound"),
            (["check", "ville", "--samples", "1", "--seed", seed[3]] + J,
             "check ville", "check_json", ("ville", 2, 0)),
            (["check", "deg", "--samples", "1", "--seed", seed[4]],
             "check deg", "check_text", "deg"),
            (["model", "list"], "model list", "model_list", None),
            (["model", "export"] + _model_flags(*export_model) + J,
             "export " + model_label(*export_model), "model_export",
             (_model_s(*export_model), _CHI_TAU[export_model[0]])),
        ]
        ops = [Op("cli", case, {"argv": argv, "check": check, "expect": expect})
               for argv, case, check, expect in calls]
        rng.shuffle(ops)
        return ops

    def cycle(self, i):
        return self.cycles[i % self.CYCLES]

    def run(self, op):
        proc = subprocess.run([sys.executable, "-c", CLI_CODE, *op.data["argv"]],
                              capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, op):
        """The same call through `fourcurv.cli.run`, without start-up."""
        cli = sys.modules["fourcurv.cli"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(cli.config_from_args(op.data["argv"]))
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out):
        code, stdout, stderr = out
        return CHECKS[op.data["check"]](code, stdout, stderr, op.data["expect"])


WORKLOADS = {w.name: w for w in (Analyze, Sweep, Cli)}
