"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a fourcurv checkout.  The workload runs in a fresh
worker process with BLAS/OpenMP threads pinned to 1 and PYTHONPATH=src;
with --trace 0 a few more set-up-only workers give the median set-up
time.  Prints every metric with its unit, the failures by oracle, and as
the last line one JSON object with the keys correct, attempted, failed
and metrics.  The full record, with provenance, goes to
bench/results/<workload>-seed<seed>-trace<trace>.json.  See
bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("analyze", "sweep", "cli")
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CLI_INVOCATION = ("PYTHONPATH=src python -c "
                  "'from fourcurv.cli import main; main()' <args>")
SETUP_REPEATS = 7        # set-ups per untraced run; setup_s is their median
RUN_DEADLINE_S = 170     # the whole run, set-ups included


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over src/fourcurv/*.py, so runs of a non-git checkout are tied to code."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fourcurv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args, numpy_version) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "thread_env": THREAD_ENV,
        "cli_invocation": CLI_INVOCATION,
    }


def spawn_worker(args, env, deadline, extra=()) -> dict:
    """Run bench/worker.py in its own process group and return its JSON."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("bench: worker passed the run deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def print_report(args, res, setups):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in res["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setups)} set-ups)"
        elif name == "latency_tail_ms":
            t = res["tail"]
            note = (f"  (p{t['percentile']:g}, {t['ops_beyond']} of "
                    f"{t['ops']} ops beyond)")
        print(f"  {name:48s} {value:14.6g} {unit}{note}")
    known = res["failed"] - res["unexpected"]
    print(f"  {'failed_frac':48s} {res['failed'] / res['attempted']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} ops; {known} known "
          f"defect, {res['unexpected']} unexpected)")
    for f in res["failures"]:
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed {f['oracle']} [{f['case']}]: {f['ops']} ops, {tag}"
              f" -- {f['detail']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fourcurv", "__init__.py")):
        print(f"bench: no fourcurv sources under {ROOT}/src; run from the "
              "root of a fourcurv checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    setups = []
    if args.trace:
        res = spawn_worker(args, env, deadline, ["--spans", stem + ".spans.jsonl"])
    else:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn_worker(args, env, deadline, ["--setup-only"]))
        res = spawn_worker(args, env, deadline)
        setups.append(res)
        res["metrics"]["setup_s"][0] = statistics.median(
            r["setup_s"] for r in setups)
        setups = [(r["setup_s"], r["unscaled_setup_s"]) for r in setups]

    record = dict(res, workload=args.workload, trace=args.trace,
                  setup_samples_s=setups,   # (scaled, unscaled) pairs
                  failed_frac=res["failed"] / res["attempted"],
                  provenance=provenance(args, res["numpy"]))
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print_report(args, res, setups)
    print(f"  record: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({
        "correct": res["unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
