"""Command-line front end.

Subcommands mirror the library layers: decompose, scan, weitzenbock,
check (seaman / lemma1 / k3bound / ville / deg), invariants, delta-star,
verdict (thm1 / thm2), model (list / export).  The parsed arguments are
the config: `config_from_args` returns the argparse namespace, with
`command` joined ("check seaman") and `model_params` holding the model
flags given.  JSON payloads are the result records themselves, through
`_plain`.

Tensor input comes from --input (JSON with a "components" key) or from
--model with its scale flags; check commands accept neither, in which
case they sweep random tensors or pinched samples.  A suite that checks
more than one tensor merges its reports into one, whose `tensors` metric
counts them.  Exit codes: 0 on success, 2 when a verdict's hypotheses
fail or a check suite records a violation or refuses for lack of
verified pinching, 1 on errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import CurvatureError, PinchingNotVerified
from .forms import Form2
from .invariants import homogeneous_invariants, integrand_values
from .models import model, model_names, pinched_sample
from .reporting import CheckReport
from .scan import SCAN_ACCURACY, scan_extremes, seaman_check
from .tensor import (decompose, load_tensor, random_algebraic_tensor,
                     tensor_to_dict)
from .verdict import CRITICAL_DELTA, critical_delta, theorem1_verdict, \
    theorem2_verdict
from .ville import deg_lower_bound, operator_bound_check, znorm_bound_check
from .weitzenbock import (k3_bound_check, lemma1_bound_check, lemma1_suite,
                          weitzenbock_operator)

_CHECK_TOL = 1e-9
_VERDICT_TOL = 1e-6

# the model scale flags, --NAME, with their help text
_MODEL_FLAGS = {"r": "S4 radius", "c": "CP2 holomorphic sectional curvature",
                "a": "S2xS2 first factor radius",
                "b": "S2xS2 second factor radius", "L": "FlatT4 side length"}

# each subcommand with its positional argument, if it takes one; the
# positional keeps its own name, which argparse shows in its errors
_SUBCOMMANDS = {"decompose": None, "scan": None, "weitzenbock": None,
                "check": ("suite", ("seaman", "lemma1", "k3bound", "ville", "deg")),
                "invariants": None, "delta-star": None,
                "verdict": ("theorem", ("thm1", "thm2")),
                "model": ("action", ("list", "export"))}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for hypothesis
    # failures here, so route usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _bounded(kind, holds, requirement: str):
    """An argparse type: parse with kind, then require holds(value)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}")
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {value}")
        return value
    return parse


_positive_int = _bounded(int, lambda v: v >= 1, "must be at least 1")
_seed = _bounded(int, lambda v: v >= 0, "must be at least 0")
_tolerance = _bounded(float, lambda v: 0.0 <= v < np.inf,
                      "must be finite and at least 0")


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--input", metavar="PATH",
                        help="JSON file with a 'components' entry")
    common.add_argument("--model", metavar="NAME",
                        help="model space: S4, CP2, S2xS2, FlatT4")
    for name, text in _MODEL_FLAGS.items():
        common.add_argument(f"--{name}", type=float, help=text)
    common.add_argument("--samples", type=_positive_int, default=100)
    common.add_argument("--tol", type=_tolerance, default=None)
    common.add_argument("--seed", type=_seed, default=0)
    common.add_argument("--lambda1", type=float, default=None,
                        help="first Laplace eigenvalue (verdict thm2)")
    common.add_argument("--output-format", choices=("text", "json"),
                        default="text")

    parser = _Parser(prog="fourcurv",
                     description="curvature algebra on oriented 4-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, positional in _SUBCOMMANDS.items():
        p = sub.add_parser(command, parents=[common])
        if positional:
            dest, choices = positional
            p.add_argument(dest, choices=choices)
    return parser


def config_from_args(argv) -> argparse.Namespace:
    """The parsed arguments, with `command` joined and `model_params` set."""
    config = build_parser().parse_args(argv)
    positional = _SUBCOMMANDS[config.command]
    if positional:
        config.command += " " + getattr(config, positional[0])
    config.model_params = {name: getattr(config, name) for name in _MODEL_FLAGS
                           if getattr(config, name) is not None}
    return config


def _source(config: argparse.Namespace, required: bool = True):
    """Resolve the tensor source; returns (tensor or None, model or None)."""
    if config.input and config.model:
        raise _UsageError("give either --input or --model, not both")
    if config.input:
        return load_tensor(config.input), None
    if config.model:
        ms = model(config.model, **config.model_params)
        return ms.tensor, ms
    if required:
        raise _UsageError(f"{config.command} needs --input or --model")
    return None, None


def _plain(value):
    """A dataclass as a dict of its fields, an array as a list, a Form2 as
    its coefficients: the JSON form of a result record."""
    if isinstance(value, Form2):
        return value.coeffs.tolist()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _merge(name: str, reports, n_tensors: int) -> CheckReport:
    """Aggregate the reports of a sweep over n_tensors into one suite report."""
    return CheckReport(
        name=name,
        n_samples=sum(r.n_samples for r in reports),
        n_violations=sum(r.n_violations for r in reports),
        min_slack=min(r.min_slack for r in reports),
        metrics={"tensors": n_tensors},
    )


def _dispatch(config: argparse.Namespace) -> tuple[dict, list[str], int]:
    """Returns (json payload, text lines, exit code)."""
    cmd = config.command
    tol = config.tol if config.tol is not None else (
        _VERDICT_TOL if cmd.startswith("verdict") else _CHECK_TOL)
    payload = {"command": cmd, "seed": config.seed, "tol": tol,
               "scan_accuracy": SCAN_ACCURACY}
    lines: list[str] = []

    if cmd == "decompose":
        R, _ = _source(config)
        dec = decompose(R)
        payload.update(_plain(R), **_plain(dec))
        lines += [f"scalar curvature s = {dec.s:.12g}",
                  f"u = s/12 = {dec.u:.12g}",
                  f"W+ eigenvalues: {_vec(dec.wp_eigs)}",
                  f"W- eigenvalues: {_vec(dec.wm_eigs)}",
                  f"|z block| = {np.hypot.reduce(dec.z_block, axis=None):.12g}",
                  "W+ block:", _mat(dec.wplus),
                  "W- block:", _mat(dec.wminus),
                  "Z block:", _mat(dec.z_block)]
        return payload, lines, 0

    if cmd == "scan":
        R, _ = _source(config)
        report = scan_extremes(R)
        payload.update(_plain(report))
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
        suite = lemma1_bound_check(decompose(R), tol)
        payload.update({"matrix": N.matrix.tolist(),
                        "eigenvalues": eigs.tolist(),
                        "lemma1": suite.as_dict()})
        lines += ["Weitzenbock operator on two-forms:", _mat(N.matrix),
                  f"eigenvalues: {_vec(eigs)}",
                  _report_line(suite)]
        return payload, lines, 0 if suite.passed else 2

    if cmd.startswith("check "):
        reports = _run_check(config, tol)
        payload["reports"] = [r.as_dict() for r in reports]
        lines += [_report_line(r) for r in reports]
        return payload, lines, 0 if all(r.passed for r in reports) else 2

    if cmd == "invariants":
        if not config.model:
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

    if cmd.startswith("verdict "):
        R, ms = _source(config)
        lam = ms.lambda1 if config.lambda1 is None and ms else config.lambda1
        if lam is None and config.theorem == "thm2":
            raise _UsageError("verdict thm2 needs --lambda1 "
                              "(or a model that provides it)")
        dec = decompose(R)
        scan = scan_extremes(R)
        if config.theorem == "thm1":
            v = theorem1_verdict(dec, scan, tol=tol)
            payload.update(_plain(v), scan=_plain(scan))
        else:
            v = theorem2_verdict(dec, scan, lam, tol=tol)
            payload.update(_plain(v), lambda1=lam, k1perp=scan.k1perp)
        lines += _verdict_lines(v)
        return payload, lines, 0 if v.hypotheses_hold else 2

    if cmd == "model list":
        payload["models"] = []
        for name in model_names():
            ms = model(name)
            row = {"name": ms.name, "params": ms.params,
                   "s": decompose(ms.tensor).s, "volume": ms.volume,
                   "lambda1": ms.lambda1,
                   "chi": ms.expected_chi, "tau": ms.expected_tau}
            payload["models"].append(row)
            lam = "-" if ms.lambda1 is None else f"{ms.lambda1:g}"
            lines.append(f"{ms.name:7s} params={ms.params} "
                         f"s={row['s']:g} vol={ms.volume:.6g} "
                         f"lambda1={lam} chi={ms.expected_chi} tau={ms.expected_tau}")
        return payload, lines, 0

    # model export
    if not config.model:
        raise _UsageError("model export needs --model")
    _, ms = _source(config)
    data = tensor_to_dict(ms.tensor)
    data.update({"model": ms.name, "params": ms.params,
                 "volume": ms.checked_volume(), "lambda1": ms.lambda1,
                 "expected_chi": ms.expected_chi,
                 "expected_tau": ms.expected_tau})
    # export is itself the payload: valid tensor JSON on stdout
    return data, [json.dumps(data)], 0


def _run_check(config: argparse.Namespace, tol: float) -> list[CheckReport]:
    suite = config.suite
    R, _ = _source(config, required=False)
    if suite == "lemma1":
        # one tensor at its exact minimum; the sweep draws from one RNG stream
        return [lemma1_bound_check(decompose(R), tol) if R is not None
                else lemma1_suite(n_tensors=config.samples, n_forms=100,
                                  seed=config.seed, tol=tol)]

    # a given tensor is checked alone; otherwise ville and deg, which need
    # verified pinching, sweep pinched samples (sample i from the seed
    # sequence [seed, i], so two seeds share none), the others random tensors
    if R is not None:
        tensors = [R]
    elif suite in ("ville", "deg"):
        tensors = [pinched_sample([config.seed, i]) for i in range(config.samples)]
    else:
        rng = np.random.default_rng(config.seed)
        tensors = [random_algebraic_tensor(rng) for _ in range(config.samples)]
    reports = []
    for i, tensor in enumerate(tensors):
        if suite == "seaman":
            reports.append(seaman_check(
                tensor, n_frames=config.samples if R is not None else 100,
                seed=config.seed + i, tol=tol))
        elif suite == "k3bound":
            reports.append(k3_bound_check(decompose(tensor), tol=tol))
        else:
            # checked at the tensor's own certified pinching level: K lies
            # in [k_min_lower, 1] once k_max_upper <= 1 is verified
            scan = scan_extremes(tensor)
            delta = max(0.0, scan.k_min_lower)
            dec = decompose(tensor)
            if suite == "ville":
                reports += [operator_bound_check(tensor, delta, tol=tol, scan=scan),
                            znorm_bound_check(dec, delta, tol=tol, scan=scan)]
            else:
                fg, bound = deg_lower_bound(dec, delta, scan=scan)
                reports.append(CheckReport.from_slack(
                    "deg", fg - bound, tol,
                    metrics={"fg": fg, "bound": bound, "delta": delta}))
    return [_merge(suite, reports, len(tensors))] if len(tensors) > 1 else reports


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


def run(config: argparse.Namespace) -> int:
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
