"""Benchmark of the entangle pipeline: one command, every workload.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
``src/`` (it need not be installed).  Each workload runs in a fresh
worker process with a pinned environment (``ENTANGLE_THREADS`` cleared,
one BLAS/OpenMP thread).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The full report, with the environment it ran in, is
written to ``.bench_out/``.

``--workload all`` runs the workloads ``BENCHMARK.json`` declares;
``temp_kappa_b_cli`` runs only when named.  Set-up time is measured once
per invocation and reported with every workload.

Exit status: 0 when every output passed the correctness gate, 1 when a
check failed, a point failed or a worker crashed, 2 when the checkout
has no ``src/entangle`` to measure.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"

WORKLOADS = ("point_api", "theta_cli", "temp_kappa_b_cli")

#: fresh-interpreter set-up probes per invocation, after one discarded
#: first probe that may compile the package's bytecode
SETUP_PROBES = 31

#: a worker that has not finished by then is killed and counted failed
WORKER_TIMEOUT_S = 150.0


def child_env():
    """Environment of every child: no worker threads, one BLAS thread."""
    env = dict(os.environ)
    env.pop("ENTANGLE_THREADS", None)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(env):
    """Median set-up time: process start to the probe's first result.

    Each probe's time is scaled by machine-speed probes run right
    before it starts and by the child right after its first result (see
    ``calibrate.py``).  Returns the median of the scaled and of the raw
    times.
    """
    from calibrate import probe, scale

    scaled, raw = [], []
    for _ in range(SETUP_PROBES + 1):
        before = probe(5)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), "probe"],
                              stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            speed = proc.stdout.read().strip()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        raw.append(elapsed)
        after = [float(t) for t in speed.split()]
        scaled.append(elapsed * scale(before + after))
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def run_worker(workload, seed, seconds, trace, env):
    """Run one workload in a worker; return its report or a failure report."""
    cmd = [sys.executable, str(WORKER), "run", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return crashed(workload, f"worker exceeded {WORKER_TIMEOUT_S:g} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return crashed(workload, f"worker exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def crashed(workload, message):
    """A worker that died: the whole workload counts as one failed attempt."""
    return {"workload": workload, "attempted": 1, "failed": 1,
            "problems": [message], "errors": [], "metrics": {}, "extra": {}}


def declared(trace):
    """Workloads and metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["per_layer" if trace else "end_to_end"]])


def print_report(report):
    name = report["workload"]
    print(f"== {name}")
    for key, metric in report["metrics"].items():
        print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in report.get("extra", {}).items():
        print(f"  {key:48s} {value}")
    attempted, failed = report["attempted"], report["failed"]
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':48s} {frac:>16.6g} ratio "
          f"({failed} of {attempted} points)")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for error in report["errors"]:
        print(f"  point error: {error}")
    if "environment" in report:
        print(f"  environment: {json.dumps(report['environment'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entangle" / "__init__.py").is_file():
        print(f"error: no src/entangle package under {ROOT}", file=sys.stderr)
        return 2
    gated, metric_names = declared(args.trace)
    names = gated if args.workload == "all" else [args.workload]
    env = child_env()
    OUT.mkdir(exist_ok=True)

    reports = [run_worker(name, args.seed, args.seconds, args.trace, env)
               for name in names]
    if not args.trace:
        try:
            setup, raw_setup = measure_setup(env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            reports[-1]["problems"].append(str(exc))
        else:
            for report in reports:
                report["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
                report["extra"]["raw_setup_s"] = raw_setup

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, report in zip(names, reports):
        missing = [m for m in metric_names if m not in report["metrics"]]
        if missing:
            report["problems"].append(f"metrics not measured: {missing}")
        print_report(report)
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        correct = correct and not report["problems"]
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key in metric_names:
            if key in report["metrics"]:
                metrics[prefix + key] = report["metrics"][key]

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
