"""Measuring process of the benchmark: runs one workload, prints a JSON report.

    python3 bench/worker.py run <workload> --seed N --seconds S --trace 0|1 --out DIR
    python3 bench/worker.py probe

``run.py`` starts this file in a fresh interpreter with a pinned
environment, so its peak RSS belongs to that one workload alone.  The
``probe`` command is the set-up probe: import the package, evaluate one
point, print ``ready``, then print the times of a few speed probes
(``calibrate.py``).

Untraced (``--trace 0``): warm up, then run units back to back for
``--seconds``, with speed probes between them, and report end-to-end
timings.  Traced (``--trace 1``):
alternate untraced and traced units for ``--seconds``; the traced ones
give per-layer counts and self times, and the ratio of the two unit
medians is the tracing overhead.  Correctness checks run after timing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def trace_targets():
    """``(owner, attribute)`` of every wrapped layer function.

    Each is the attribute its caller looks up at call time, e.g.
    ``run_pipeline`` finds ``hybridize`` in ``dynamics``'s namespace and
    ``stability`` in ``gaussian``'s (which also catches the second call
    ``solve_lyapunov`` makes).
    """
    from entangle import cli, dynamics, experiments, gaussian

    return [
        (dynamics, "hybridize"),
        (dynamics, "drive_for_target_g_minus"),
        (dynamics, "steady_state_amplitudes"),
        (dynamics, "build_drift"),
        (dynamics, "build_diffusion"),
        (gaussian, "stability"),
        (gaussian, "solve_lyapunov"),
        (gaussian, "reduce_two_mode"),
        (gaussian, "log_negativity"),
        (experiments, "run_pipeline"),
        (experiments, "solve_g_omega_c_from_theta"),
        (experiments.Baseline, "params"),
        (experiments.Baseline, "evaluate"),
        (experiments, "run_sweep"),
        (cli, "parse_config"),
        (cli, "echo_config"),
        (cli, "main"),
        (cli, "write_outputs"),
        (cli, "emit_records"),
        (cli, "emit_metadata"),
        (cli, "emit_plot_data"),
    ]


#: package modules, one layer each
LAYERS = ("config", "experiments", "model", "dynamics", "gaussian", "cli")


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment(seed):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


#: share of an untraced run spent in the speed probes between units
PROBE_SHARE = 0.15


def run_untraced(workload, seconds):
    """Run units back to back, probing machine speed between them.

    Each unit's time and call latency percentiles are multiplied by
    ``calibrate.scale`` of the probes right before and right after it,
    so a unit that ran in a slow phase of the machine is taken to
    nominal speed by the probes that saw the same phase.  The reported
    times are medians over units of these scaled values; the probes
    take about :data:`PROBE_SHARE` of the run.  Raw medians are
    reported beside the scaled ones, unbounded.
    """
    from calibrate import probe, scale

    gaps = [probe(5)]
    raw, unit_p50, unit_p90, unit_latencies = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        n, bad = workload.run_unit()
        raw.append(time.perf_counter() - start)
        attempted += n
        failed += bad
        # a sweep is timed as a whole, so its per-point latency is the
        # unit time per point, and p50 and p90 coincide; the tail of
        # whole-unit times measures other tenants, not the package
        latencies = workload.latencies or [raw[-1] / workload.points]
        unit_latencies.append(latencies)
        unit_p50.append(quantile(latencies, 0.5))
        unit_p90.append(quantile(latencies, 0.9))
        share = round(PROBE_SHARE * raw[-1] / gaps[-1][-1])
        gaps.append(probe(max(2, share)))
        if time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = [scale(before + after) for before, after in zip(gaps, gaps[1:])]
    raw_series = {"run_s": raw, "point_latency_p50_us": unit_p50,
                  "point_latency_p90_us": unit_p90}
    metrics, extra = {}, {}
    for key, values in raw_series.items():
        unit, mult = ("us", 1e6) if key.endswith("_us") else ("s", 1.0)
        metrics[key] = (statistics.median(
            v * f * mult for v, f in zip(values, factors)), unit)
        extra[f"raw_{key}"] = statistics.median(values) * mult
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    all_latencies = [t * f for lat, f in zip(unit_latencies, factors)
                     for t in lat]
    extra.update({
        "run_units": len(raw),
        "latency_samples": len(all_latencies),
        "point_latency_p99_us": quantile(all_latencies, 0.99) * 1e6,
        "speed_factor": statistics.median(factors),
        "speed_probes": sum(map(len, gaps)),
    })
    return attempted, failed, metrics, extra


def run_traced(workload, seconds, spans_path):
    from tracer import Tracer

    targets = trace_targets()
    plain, traced, units = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        start = time.perf_counter()
        n, bad = workload.run_unit()
        plain.append(time.perf_counter() - start)
        with Tracer() as tracer:
            tracer.install(targets)
            start = time.perf_counter()
            n2, bad2 = workload.run_unit()
            traced.append(time.perf_counter() - start)
        attempted += n + n2
        failed += bad + bad2
        units.append(tracer.summary())
        if len(units) == 1:
            write_spans(tracer, spans_path)
    problems = []
    calls = {name: entry["calls"] for name, entry in units[0].items()}
    for unit in units[1:]:
        if {name: entry["calls"] for name, entry in unit.items()} != calls:
            problems.append("per-layer call counts differ between traced units")
            break
    return attempted, failed, layer_metrics(units, workload, plain, traced), problems


def layer_metrics(units, workload, plain, traced):
    """Per-layer metrics of one traced run, all per run unit."""
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in units[0]:
        self_s = statistics.median(u[name]["self_s"] for u in units)
        calls = units[0][name]["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.us_per_call"] = (
            self_s / calls * 1e6 if calls else 0.0, "us")
        layer_self[name.partition(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    points = workload.points
    calls = {name: units[0][name]["calls"] for name in units[0]}
    metrics["run.points"] = (points, "count")
    metrics["gaussian.stability.calls_per_point"] = (
        calls["gaussian.stability"] / points, "ratio")
    metrics["gaussian.lyapunov_frac"] = (
        calls["gaussian.solve_lyapunov"] / points, "ratio")
    metrics["cli.bytes_written"] = (workload.bytes_written(), "bytes")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return metrics


def write_spans(tracer, path):
    """Write the spans of one traced unit as JSON lines."""
    with open(path, "w") as fh:
        for name, start, end, parent in tracer.spans():
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("probe")
    run_p = sub.add_parser("run")
    run_p.add_argument("workload")
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--seconds", type=float, required=True)
    run_p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run_p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.command == "probe":
        from entangle import cli  # noqa: F401  (imports every layer)
        from entangle.experiments import default_baseline

        default_baseline().evaluate()
        print("ready", flush=True)
        from calibrate import probe

        print(" ".join(map(repr, probe(10))), flush=True)
        return 0

    from workloads import WORKLOADS

    out = Path(args.out)
    work = out / f"work-{args.workload}"
    try:
        report = measure(WORKLOADS[args.workload](args.seed, work), args, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(workload, args, out):
    workload.run_unit()  # warm-up, not counted
    workload.errors.clear()

    if args.trace:
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        attempted, failed, metrics, problems = run_traced(
            workload, args.seconds, spans_path)
        extra = {"spans_file": str(spans_path)}
    else:
        attempted, failed, metrics, extra = run_untraced(workload, args.seconds)
        problems = []
    if failed:
        # every point of the three workloads succeeds on a healthy run
        problems.append(f"{failed} of {attempted} points failed")
    problems += workload.check()
    return {
        "workload": args.workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": workload.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "environment": environment(args.seed),
    }


if __name__ == "__main__":
    sys.exit(main())
