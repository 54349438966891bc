"""One benchmark process: set up a workload, run it, check every op.

Started by run.py, which sets the thread-pinning environment and
PYTHONPATH=src first.  Prints one JSON object on stdout.

With --trace 0 it runs the named workload as a closed loop with one
caller, in whole cycles of its mix, until --seconds of op time have
passed.  With --trace 1 it makes the traced run instead: for every
workload a fixed pass in which each op runs untraced, then traced.
Every time it reports is scaled to a reference machine speed (see Clock).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAIL_BEYOND = 10
# cycles in the traced run's pass, per workload
TRACE_PASS = {"analyze": 1, "sweep": 8, "cli": 1}
STARTUP_REPEATS = 5
KERNEL_REFERENCE_S = 0.3e-3   # calibration kernel time at reference speed


class Raised:
    """An exception that escaped an op; the op counts as failed."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def run_guarded(run, op):
    try:
        return run(op)
    except Exception as e:  # any escape is a failed op, recorded by name
        return Raised(e)


def percentile(values, p):
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_ops(p: float) -> int:
    """Ops a run needs for TAIL_BEYOND of them to lie beyond percentile p."""
    return math.ceil(TAIL_BEYOND / (1.0 - p / 100.0) - 1e-9)


class Tally:
    """Ops attempted and failed, and failures by (oracle, case)."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.by_oracle: dict[tuple[str, str], dict] = {}

    def add(self, wl, op, out) -> None:
        self.attempted += 1
        if isinstance(out, Raised):
            bad = [("op.raised", out.text)]
        else:
            try:
                bad = wl.check(op, out)
            except Exception as e:  # an unreadable output fails its op
                bad = [("op.output", f"{type(e).__name__}: {e}")]
        if not bad:
            return
        self.failed += 1
        known = [(name, op.case) in oracles.KNOWN_DEFECTS for name, _ in bad]
        self.unexpected += not all(known)
        for (name, detail), is_known in zip(bad, known):
            entry = self.by_oracle.setdefault((name, op.case), {
                "oracle": name, "case": op.case, "ops": 0, "detail": detail,
                "known_defect": is_known})
            entry["ops"] += 1

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "unexpected": self.unexpected,
                "failures": [self.by_oracle[k] for k in sorted(self.by_oracle)]}


def _kernel(a):
    """Fixed work like the program's: interpreter-bound floats, small numpy calls."""
    x = 0.1
    for i in range(600):
        x = math.sqrt(x * x + 0.5 * i) - 0.25 * x
    for _ in range(6):
        a = 0.5 * (a + a.transpose(2, 3, 0, 1))
        np.linalg.eigvalsh(a.reshape(16, 16))
    return x


_KERNEL_INPUT = np.arange(256.0).reshape(4, 4, 4, 4) / 256.0


def machine_time(repeats: int = 3) -> float:
    """Median of timings of the calibration kernel, in seconds."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _kernel(_KERNEL_INPUT)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Clock:
    """Op latencies scaled to the reference machine speed.

    The shared machine this runs on changes speed by up to 1.5x from one
    minute to the next, and in bursts of a few ms.  The calibration
    kernel is timed before the first op and after every op, with the
    clock stopped, and each op is scaled by KERNEL_REFERENCE_S over the
    mean of the two kernel times around it.
    """

    def __init__(self):
        self.raw: list[float] = []      # op latencies, s
        self.scaled: list[float] = []   # the same, at reference speed
        self.kernel_s = [machine_time()]

    def add(self, seconds: float) -> None:
        self.kernel_s.append(machine_time())
        self.raw.append(seconds)
        self.scaled.append(seconds * KERNEL_REFERENCE_S
                           / statistics.mean(self.kernel_s[-2:]))


def timed_loop(wl, tally, seconds, min_ops):
    """Whole cycles of the mix until `seconds` of op time and `min_ops` ops.

    Each op is checked as soon as it returns, with the clock stopped, so
    outputs are not held and the check costs no measured time.  Returns
    the clock and the op count at the end of each cycle.
    """
    clock = Clock()
    cycle_ends = []
    while not cycle_ends or sum(clock.raw) < seconds or len(clock.raw) < min_ops:
        for op in wl.cycle(len(cycle_ends)):
            t = time.perf_counter()
            out = run_guarded(wl.run, op)
            clock.add(time.perf_counter() - t)
            tally.add(wl, op, out)
        cycle_ends.append(len(clock.raw))
    return clock, cycle_ends


def ops_per_s(latencies, cycle_ends) -> float:
    """Median over cycles of the cycle's ops per second of op time."""
    starts = [0] + cycle_ends[:-1]
    return statistics.median((b - a) / sum(latencies[a:b])
                             for a, b in zip(starts, cycle_ends))


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def untraced_run(wl, seconds, setup_s):
    p = wl.TAIL_PERCENTILE
    tally = Tally()
    clock, cycle_ends = timed_loop(wl, tally, seconds, tail_ops(p))
    latencies = clock.scaled
    n = len(latencies)
    return dict(tally.as_dict(), **{
        "tail": {"percentile": p, "ops": n,
                 "ops_beyond": int(n * (1.0 - p / 100.0))},
        "calibration": {
            "kernel_ms_median": 1e3 * statistics.median(clock.kernel_s),
            "kernel_samples": len(clock.kernel_s), "cycles": len(cycle_ends),
            "unscaled_ops_per_s": ops_per_s(clock.raw, cycle_ends),
            "unscaled_latency_p50_ms": 1e3 * statistics.median(clock.raw)},
        "latency_ms_at": {f"p{q:g}": 1e3 * percentile(latencies, q)
                          for q in (50, 75, 90, 95, 99)},
        "metrics": {
            "setup_s": [setup_s, "s"],
            "ops_per_s": [ops_per_s(latencies, cycle_ends), "1/s"],
            "latency_p50_ms": [1e3 * statistics.median(latencies), "ms"],
            "latency_tail_ms": [1e3 * percentile(latencies, p), "ms"],
            "peak_rss_mb": [peak_rss_mb(wl.name == "cli"), "MB"],
        },
    })


def _median_ms(argv, n):
    times = []
    for _ in range(n):
        t = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def traced_run(wls, spans_path):
    """Each op of a fixed pass runs untraced, then traced, in turn.

    Times are scaled to reference speed by the median calibration kernel
    time, taken between ops, like the untraced run's (see Clock).
    """
    tracer = tracing.Tracer()
    tally = Tally()
    passes, metrics = {}, {}
    kernel_s = []
    for name, wl in wls.items():
        ops = [op for i in range(TRACE_PASS[name]) for op in wl.cycle(i)]
        run = wl.run_in_process if name == "cli" else wl.run
        done = []
        seconds = {False: 0.0, True: 0.0}
        for i, op in enumerate(ops):
            tracer.op = f"{name}:{i}"
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    t = time.perf_counter()
                    done.append((op, run_guarded(run, op)))
                    seconds[traced] += time.perf_counter() - t
                finally:
                    tracer.uninstall()
            kernel_s.append(machine_time())
        for op, out in done:   # checked after the pass, with the tracer off
            tally.add(wl, op, out)
        passes[name] = (len(ops), seconds[True])
        metrics[f"trace.{name}.overhead_ratio"] = [
            seconds[True] / seconds[False], "ratio"]
    for key, (value, unit) in tracing.layer_metrics(
            tracer.spans, passes, workloads.SWEEP_FORMS,
            workloads.CLI_SUBCOMMANDS).items():
        metrics[key] = [value, unit]
    interpreter = _median_ms([sys.executable, "-c", "pass"], STARTUP_REPEATS)
    imported = _median_ms([sys.executable, "-c", "import fourcurv"],
                          STARTUP_REPEATS)
    metrics["cli.interpreter_ms"] = [interpreter, "ms"]
    metrics["cli.import_ms"] = [imported - interpreter, "ms"]
    scale = KERNEL_REFERENCE_S / statistics.median(kernel_s)
    for value_unit in metrics.values():
        if value_unit[1] in ("s", "ms", "us"):
            value_unit[0] *= scale
    tracer.write(spans_path)
    return dict(tally.as_dict(), metrics=metrics)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    import fourcurv as fc
    import fourcurv.cli  # noqa: F401  (the cli workload and the tracer use it)

    workdir = os.path.join(ROOT, "bench", ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        names = sorted(workloads.WORKLOADS) if args.trace else [args.workload]
        wls = {n: workloads.WORKLOADS[n](fc, args.seed, workdir) for n in names}
        # scaled to reference speed like every other time (see Clock)
        unscaled_setup_s = time.monotonic() - args.t0
        setup_s = unscaled_setup_s * KERNEL_REFERENCE_S / machine_time(5)
        if args.setup_only:
            result = {}
        elif args.trace:
            result = traced_run(wls, args.spans)
        else:
            result = untraced_run(wls[args.workload], args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup_s=setup_s, unscaled_setup_s=unscaled_setup_s,
                  numpy=np.__version__)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
