"""Command-line front end.

Subcommands mirror the library layers: decompose, scan, weitzenbock,
check (seaman / lemma1 / k3bound / ville / deg), invariants, delta-star,
verdict (thm1 / thm2), model (list / export).

Tensor input comes from --input (JSON with a "components" key) or from
--model with its scale flags; check commands accept neither, in which
case they sweep random tensors or pinched samples.  Exit codes: 0 on
success, 2 when a verdict's hypotheses fail or a check suite records a
violation or refuses for lack of verified pinching, 1 on errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CurvatureError, PinchingNotVerified
from .invariants import homogeneous_invariants, integrand_values
from .models import model, model_names, pinched_sample
from .reporting import CheckReport
from .scan import SCAN_ACCURACY, scan_extremes, seaman_check
from .tensor import (RiemannTensor, decompose, load_tensor,
                     random_algebraic_tensor, tensor_to_dict)
from .verdict import CRITICAL_DELTA, critical_delta, theorem1_verdict, \
    theorem2_verdict
from .ville import deg_lower_bound, operator_bound_check, znorm_bound_check
from .weitzenbock import (k3_bound_check, lemma1_sides, lemma1_suite,
                          weitzenbock_operator)

_CHECK_TOL = 1e-9
_VERDICT_TOL = 1e-6


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    model_name: str | None = None
    model_params: dict = field(default_factory=dict)
    samples: int = 100
    tol: float | None = None     # None picks the command's own default
    seed: int = 0
    lambda1: float | None = None
    output_format: str = "text"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for hypothesis
    # failures here, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and at least 0, got {value}")
    return value


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--input", metavar="PATH",
                        help="JSON file with a 'components' entry")
    common.add_argument("--model", metavar="NAME",
                        help="model space: S4, CP2, S2xS2, FlatT4")
    common.add_argument("--r", type=float, help="S4 radius")
    common.add_argument("--c", type=float,
                        help="CP2 holomorphic sectional curvature")
    common.add_argument("--a", type=float, help="S2xS2 first factor radius")
    common.add_argument("--b", type=float, help="S2xS2 second factor radius")
    common.add_argument("--L", type=float, help="FlatT4 side length")
    common.add_argument("--samples", type=_positive_int, default=100)
    common.add_argument("--tol", type=_tolerance, default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--lambda1", type=float, default=None,
                        help="first Laplace eigenvalue (verdict thm2)")
    common.add_argument("--output-format", choices=("text", "json"),
                        default="text")

    parser = _Parser(prog="fourcurv",
                     description="curvature algebra on oriented 4-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("decompose", parents=[common])
    sub.add_parser("scan", parents=[common])
    sub.add_parser("weitzenbock", parents=[common])
    p = sub.add_parser("check", parents=[common])
    p.add_argument("suite",
                   choices=("seaman", "lemma1", "k3bound", "ville", "deg"))
    sub.add_parser("invariants", parents=[common])
    sub.add_parser("delta-star", parents=[common])
    p = sub.add_parser("verdict", parents=[common])
    p.add_argument("theorem", choices=("thm1", "thm2"))
    p = sub.add_parser("model", parents=[common])
    p.add_argument("action", choices=("list", "export"))
    return parser


def config_from_args(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    command = ns.command
    if command == "check":
        command = f"check {ns.suite}"
    elif command == "verdict":
        command = f"verdict {ns.theorem}"
    elif command == "model":
        command = f"model {ns.action}"
    params = {name: value
              for name, value in (("r", ns.r), ("c", ns.c), ("a", ns.a),
                                  ("b", ns.b), ("L", ns.L))
              if value is not None}
    return RunConfig(command=command, input_path=ns.input,
                     model_name=ns.model, model_params=params,
                     samples=ns.samples, tol=ns.tol, seed=ns.seed,
                     lambda1=ns.lambda1, output_format=ns.output_format)


def _source(config: RunConfig, required: bool = True):
    """Resolve the tensor source; returns (tensor or None, model or None)."""
    if config.input_path and config.model_name:
        raise _UsageError("give either --input or --model, not both")
    if config.input_path:
        return load_tensor(config.input_path), None
    if config.model_name:
        ms = model(config.model_name, **config.model_params)
        return ms.tensor, ms
    if required:
        raise _UsageError(f"{config.command} needs --input or --model")
    return None, None


def _echo(config: RunConfig, tol: float) -> dict:
    return {
        "command": config.command,
        "seed": config.seed,
        "tol": tol,
        "scan_accuracy": SCAN_ACCURACY,
    }


def _report_dicts(reports) -> list[dict]:
    return [r.as_dict() for r in reports]


def _merge(name: str, reports) -> CheckReport:
    """Aggregate per-tensor reports from a sweep into one suite report."""
    return CheckReport(
        name=name,
        n_samples=sum(r.n_samples for r in reports),
        n_violations=sum(r.n_violations for r in reports),
        min_slack=min(r.min_slack for r in reports),
        metrics={"tensors": len(reports)},
    )


def _lemma1_on(R: RiemannTensor, n_forms: int, seed: int,
               tol: float) -> CheckReport:
    """Lemma 1 on one tensor over n_forms seeded random unit forms."""
    omegas = np.random.default_rng(seed).normal(size=(n_forms, 6))
    lhs, rhs = lemma1_sides(R, omegas / np.linalg.norm(omegas, axis=1, keepdims=True))
    return CheckReport.from_slack("lemma1", lhs - rhs, tol)


def _scan_payload(report) -> dict:
    def plane(p):
        return {"form": p.form.coeffs.tolist(),
                "sd_unit": p.sd_unit.coeffs.tolist(),
                "asd_unit": p.asd_unit.coeffs.tolist()}
    return {
        "k_min": report.k_min, "k_max": report.k_max,
        "k_min_lower": report.k_min_lower, "k_max_upper": report.k_max_upper,
        "k1perp": report.k1perp, "k3perp": report.k3perp,
        "delta": report.delta,
        "argmin_plane": plane(report.argmin_plane),
        "argmax_plane": plane(report.argmax_plane),
        "k1perp_plane": plane(report.k1perp_plane),
        "k3perp_plane": plane(report.k3perp_plane),
    }


def _dispatch(config: RunConfig) -> tuple[dict, list[str], int]:
    """Returns (json payload, text lines, exit code)."""
    cmd = config.command
    tol = config.tol if config.tol is not None else (
        _VERDICT_TOL if cmd.startswith("verdict") else _CHECK_TOL)
    payload = _echo(config, tol)
    lines: list[str] = []

    if cmd == "decompose":
        R, _ = _source(config)
        dec = decompose(R)
        payload.update({
            "components": R.components.tolist(),
            "s": dec.s, "u": dec.u,
            "ric": dec.ric.tolist(), "ric0": dec.ric0.tolist(),
            "wplus": dec.wplus.tolist(), "wminus": dec.wminus.tolist(),
            "z_block": dec.z_block.tolist(),
            "wp_eigs": dec.wp_eigs.tolist(),
            "wm_eigs": dec.wm_eigs.tolist(),
        })
        lines += [f"scalar curvature s = {dec.s:.12g}",
                  f"u = s/12 = {dec.u:.12g}",
                  f"W+ eigenvalues: {_vec(dec.wp_eigs)}",
                  f"W- eigenvalues: {_vec(dec.wm_eigs)}",
                  f"|z block| = {np.linalg.norm(dec.z_block):.12g}",
                  "W+ block:", _mat(dec.wplus),
                  "W- block:", _mat(dec.wminus),
                  "Z block:", _mat(dec.z_block)]
        return payload, lines, 0

    if cmd == "scan":
        R, _ = _source(config)
        report = scan_extremes(R)
        payload.update(_scan_payload(report))
        delta = "undefined" if report.delta is None else f"{report.delta:.9g}"
        lines += [f"k_min   = {report.k_min:.9g}",
                  f"k_max   = {report.k_max:.9g}",
                  f"k1perp  = {report.k1perp:.9g}",
                  f"k3perp  = {report.k3perp:.9g}",
                  f"delta   = {delta}"]
        return payload, lines, 0

    if cmd == "weitzenbock":
        R, _ = _source(config)
        N = weitzenbock_operator(R)
        eigs = np.linalg.eigvalsh(N.matrix)
        suite = _lemma1_on(R, config.samples, config.seed, tol)
        payload.update({"matrix": N.matrix.tolist(),
                        "eigenvalues": eigs.tolist(),
                        "lemma1": suite.as_dict()})
        lines += ["Weitzenbock operator on two-forms:", _mat(N.matrix),
                  f"eigenvalues: {_vec(eigs)}",
                  _report_line(suite)]
        return payload, lines, 0 if suite.passed else 2

    if cmd.startswith("check "):
        reports = _run_check(cmd.split()[1], config, tol)
        payload["reports"] = _report_dicts(reports)
        lines += [_report_line(r) for r in reports]
        return payload, lines, 0 if all(r.passed for r in reports) else 2

    if cmd == "invariants":
        if not config.model_name:
            raise _UsageError("invariants needs --model (volume required)")
        _, ms = _source(config)
        chi, tau, cm2t = homogeneous_invariants(ms)
        vals = integrand_values(decompose(ms.tensor))
        payload.update({"model": ms.name, "params": ms.params,
                        "chi": chi, "tau": tau, "chi_minus_2tau": cm2t,
                        "volume": ms.volume,
                        "gbc_integrand": vals.gbc,
                        "signature_integrand": vals.sig,
                        "fg": vals.fg})
        lines += [f"model {ms.name} {ms.params}",
                  f"chi          = {chi:.9g}",
                  f"tau          = {tau:.9g}",
                  f"chi - 2 tau  = {cm2t:.9g}"]
        return payload, lines, 0

    if cmd == "delta-star":
        numeric = critical_delta()
        payload.update({"bisection": numeric,
                        "closed_form": CRITICAL_DELTA,
                        "difference": numeric - CRITICAL_DELTA})
        lines += [f"bisection on corner minimum: {numeric:.16f}",
                  f"closed form (3 sqrt(3) - 5)/4: {CRITICAL_DELTA:.16f}",
                  f"difference: {numeric - CRITICAL_DELTA:.3e}"]
        return payload, lines, 0

    if cmd == "verdict thm1":
        R, _ = _source(config)
        dec = decompose(R)
        scan = scan_extremes(R)
        v = theorem1_verdict(dec, scan, tol=tol)
        payload.update(asdict(v))
        payload["scan"] = _scan_payload(scan)
        lines += _verdict_lines(v)
        return payload, lines, 0 if v.hypotheses_hold else 2

    if cmd == "verdict thm2":
        R, ms = _source(config)
        lam = config.lambda1
        if lam is None and ms is not None:
            lam = ms.lambda1
        if lam is None:
            raise _UsageError("verdict thm2 needs --lambda1 "
                              "(or a model that provides it)")
        dec = decompose(R)
        scan = scan_extremes(R)
        v = theorem2_verdict(dec, scan, lam, tol=tol)
        payload.update(asdict(v))
        payload["lambda1"] = lam
        payload["k1perp"] = scan.k1perp
        lines += _verdict_lines(v)
        return payload, lines, 0 if v.hypotheses_hold else 2

    if cmd == "model list":
        rows = []
        for name in model_names():
            ms = model(name)
            dec = decompose(ms.tensor)
            rows.append({"name": ms.name, "params": ms.params,
                         "s": dec.s, "volume": ms.volume,
                         "lambda1": ms.lambda1,
                         "chi": ms.expected_chi, "tau": ms.expected_tau})
        payload["models"] = rows
        for row in rows:
            lam = "-" if row["lambda1"] is None else f"{row['lambda1']:g}"
            lines.append(f"{row['name']:7s} params={row['params']} "
                         f"s={row['s']:g} vol={row['volume']:.6g} "
                         f"lambda1={lam} chi={row['chi']} tau={row['tau']}")
        return payload, lines, 0

    if cmd == "model export":
        if not config.model_name:
            raise _UsageError("model export needs --model")
        _, ms = _source(config)
        data = tensor_to_dict(ms.tensor)
        data.update({"model": ms.name, "params": ms.params,
                     "volume": ms.volume, "lambda1": ms.lambda1,
                     "expected_chi": ms.expected_chi,
                     "expected_tau": ms.expected_tau})
        # export is itself the payload: valid tensor JSON on stdout
        return data, [json.dumps(data)], 0

    raise _UsageError(f"unknown command {cmd!r}")


def _run_check(suite: str, config: RunConfig, tol: float) -> list[CheckReport]:
    R, _ = _source(config, required=False)
    rng = np.random.default_rng(config.seed)

    if suite == "seaman":
        if R is not None:
            return [seaman_check(R, n_frames=config.samples,
                                 seed=config.seed, tol=tol)]
        reports = [seaman_check(random_algebraic_tensor(rng), n_frames=100,
                                seed=config.seed + i, tol=tol)
                   for i in range(config.samples)]
        return [_merge("seaman", reports)]

    if suite == "lemma1":
        if R is not None:
            return [_lemma1_on(R, config.samples, config.seed, tol)]
        return [lemma1_suite(n_tensors=config.samples, n_forms=100,
                             seed=config.seed, tol=tol)]

    if suite == "k3bound":
        if R is not None:
            return [k3_bound_check(decompose(R), tol=tol)]
        reports = [k3_bound_check(decompose(random_algebraic_tensor(rng)),
                                  tol=tol)
                   for _ in range(config.samples)]
        return [_merge("k3bound", reports)]

    if suite not in ("ville", "deg"):
        raise _UsageError(f"unknown check suite {suite!r}")
    # ville and deg need verified pinching; a supplied tensor is checked
    # at its own observed delta = k_min/k_max, otherwise random pinched
    # samples are drawn
    tensors = ([R] if R is not None else
               [pinched_sample(config.seed + i) for i in range(config.samples)])
    reports = []
    for tensor in tensors:
        scan = scan_extremes(tensor)
        delta = max(0.0, scan.delta or 0.0)
        dec = decompose(tensor)
        if suite == "ville":
            reports += [operator_bound_check(tensor, delta, n_planes=1000,
                                             seed=config.seed, tol=tol, scan=scan),
                        znorm_bound_check(dec, delta, tol=tol, scan=scan)]
        else:
            fg, bound = deg_lower_bound(dec, delta, scan=scan)
            reports.append(CheckReport.from_slack(
                "deg", fg - bound, tol,
                metrics={"fg": fg, "bound": bound, "delta": delta}))
    return [_merge(suite, reports)] if len(tensors) > 1 else reports


def _vec(v) -> str:
    return "[" + ", ".join(f"{x:.9g}" for x in np.asarray(v).ravel()) + "]"


def _mat(m) -> str:
    return "\n".join("  " + " ".join(f"{x:12.6g}" for x in row)
                     for row in np.asarray(m))


def _report_line(r: CheckReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    extra = ""
    if r.metrics:
        shown = ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in r.metrics.items())
        extra = f"  [{shown}]"
    return (f"{r.name}: {status}  samples={r.n_samples} "
            f"violations={r.n_violations} min_slack={r.min_slack:.6g}{extra}")


def _verdict_lines(v) -> list[str]:
    lines = [f"theorem {v.theorem}: hypotheses "
             f"{'HOLD' if v.hypotheses_hold else 'FAIL'}",
             f"threshold = {v.computed_threshold:.9g}",
             f"margin    = {v.margin:.9g}"]
    if v.claim_text:
        lines.append(f"claim: {v.claim_text}")
    lines += [f"note: {n}" for n in v.notes]
    return lines


def run(config: RunConfig) -> int:
    try:
        payload, lines, code = _dispatch(config)
    except _UsageError as e:
        print(f"fourcurv: error: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"fourcurv: malformed JSON at line {e.lineno} column "
              f"{e.colno}: {e.msg}", file=sys.stderr)
        return 1
    except PinchingNotVerified as e:
        print(f"fourcurv: hypothesis not met: {e}", file=sys.stderr)
        return 2
    except (CurvatureError, OSError, ValueError) as e:
        print(f"fourcurv: error: {e}", file=sys.stderr)
        return 1
    if config.output_format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main(argv=None) -> None:
    raise SystemExit(run(config_from_args(argv)))
