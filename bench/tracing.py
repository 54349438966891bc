"""Span tracer for the traced run, and the per-layer metrics taken from it.

Tracer.install() wraps each function in TRACED at every place a fourcurv
module binds it: its own module attribute, the package re-export and every
name another fourcurv module imported.  Library code that calls a sibling
through a module global therefore records a span too.  Each call records
(name, start, end, parent, op) in memory; uninstall() restores the
originals.  `fourcurv.cli.run` is wrapped as well, with the span named
after the subcommand it runs.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from typing import NamedTuple

# module -> public functions traced in that module
TRACED = {
    "tensor": ("validate_symmetries", "operator_from_tensor", "decompose",
               "rotate_tensor"),
    "scan": ("scan_extremes", "seaman_check", "sectional"),
    "models": ("pinched_sample",),
    "weitzenbock": ("weitzenbock_operator", "lemma1_suite", "k3_bound_check"),
    "ville": ("ville_data", "operator_bound_check", "znorm_bound_check",
              "deg_lower_bound"),
    "invariants": ("integrand_values", "homogeneous_invariants"),
    "verdict": ("theorem1_verdict", "theorem2_verdict", "critical_delta"),
    "forms": ("plane_from_sd_asd", "sd_asd_split"),
}

CLI_RUN_PREFIX = "cli.run."
SCAN = "scan.scan_extremes"
PINCHED = "models.pinched_sample"
LEMMA1 = "weitzenbock.lemma1_suite"
VALIDATE = "tensor.validate_symmetries"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int      # index of the enclosing span, -1 at op level
    op: str          # "<workload>:<op index>"


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = ""
        self._stack: list[int] = []
        self._sites = None   # (module, attribute, original, wrapper)

    def _wrap(self, fn, name_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserved so that children can name it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name_of(args), start, end, parent, self.op)
        return traced

    def _find_sites(self) -> list:
        import fourcurv.cli  # noqa: F401  (its imported names get wrapped too)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fourcurv"
                                         or n.startswith("fourcurv."))]
        wrappers = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                orig = getattr(sys.modules[f"fourcurv.{mod}"], fn)
                wrappers[id(orig)] = self._wrap(
                    orig, lambda args, n=f"{mod}.{fn}": n)
        run = sys.modules["fourcurv.cli"].run
        wrappers[id(run)] = self._wrap(
            run, lambda a: CLI_RUN_PREFIX + a[0].command.replace(" ", "-"))
        return [(m, attr, value, wrappers[id(value)])
                for m in modules for attr, value in vars(m).items()
                if id(value) in wrappers]

    def install(self) -> None:
        if self._sites is None:
            self._sites = self._find_sites()
        for m, attr, _, wrapper in self._sites:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig, _ in self._sites or ():
            setattr(m, attr, orig)

    def write(self, path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent, op."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def self_times(spans) -> list[int]:
    """Span duration minus the time its direct children cover (ns).

    Calls are single-threaded and nested, so children never overlap.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end_ns - s.start_ns
    return [s.end_ns - s.start_ns - c for s, c in zip(spans, covered)]


def layer_metrics(spans, ops: dict, sweep_lemma1_samples: int,
                  cli_subcommands) -> dict:
    """Per-layer metrics over every traced pass, as name -> (value, unit).

    `ops` maps each workload to (op count, summed op latency in s) of its
    traced pass; `sweep_lemma1_samples` is the sample count of one
    lemma1_suite call in a sweep op.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for s, own_ns in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0) + s.end_ns - s.start_ns
        self_ns[s.name] = self_ns.get(s.name, 0) + own_ns

    out = {}
    for mod, fns in TRACED.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            n = calls.get(name, 0)
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6, "ms")
            out[f"{name}.us_per_call"] = (total.get(name, 0) / 1e3 / n if n
                                          else 0.0, "us")

    def of(workload, name):
        return [s for s in spans
                if s.name == name and s.op.startswith(workload + ":")]

    sweep_ops, _ = ops["sweep"]
    out[f"{VALIDATE}.calls_per_op"] = (
        len(of("sweep", VALIDATE)) / sweep_ops, "count")

    _, analyze_s = ops["analyze"]
    scan_ns = sum(s.end_ns - s.start_ns for s in of("analyze", SCAN))
    out["scan.share_of_op"] = (scan_ns / 1e9 / analyze_s, "ratio")

    pinched = {i for i, s in enumerate(spans) if s.name == PINCHED}
    inner = sum(1 for s in spans if s.name == SCAN and s.parent in pinched)
    out[f"{PINCHED}.scans_per_call"] = (inner / len(pinched), "count")
    pinched_ops = {spans[i].op for i in pinched}
    rescans = sum(1 for s in spans
                  if s.name == SCAN and s.op in pinched_ops
                  and (s.parent < 0 or spans[s.parent].name != PINCHED))
    out["models.scans_per_pinched_input"] = (rescans / len(pinched), "count")

    lemma1 = of("sweep", LEMMA1)
    lemma1_ns = sum(s.end_ns - s.start_ns for s in lemma1)
    out[f"{LEMMA1}.s_per_1e5_samples"] = (
        lemma1_ns / 1e9 / (len(lemma1) * sweep_lemma1_samples) * 1e5, "s")

    runs: dict[str, list[int]] = {}
    for s, own_ns in zip(spans, own):
        if s.name.startswith(CLI_RUN_PREFIX):
            runs.setdefault(s.name, []).append(own_ns)
    for sub in cli_subcommands:
        own_ns = runs.get(CLI_RUN_PREFIX + sub, [])
        out[f"{CLI_RUN_PREFIX}{sub}.self_ms"] = (
            sum(own_ns) / len(own_ns) / 1e6 if own_ns else 0.0, "ms")
    return out
