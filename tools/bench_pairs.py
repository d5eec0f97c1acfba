"""Alternating benchmark pairs of two commits, summarized into one JSON file.

    python3 tools/bench_pairs.py --out FILE [--base REV] [--head REV]
                                 [--pairs N] [--seed S ...] [--workload NAME]

``--base`` (default ``HEAD~1``) and ``--head`` (default ``HEAD``) each
name a tree, as in ``tools/digest.py``: a directory holding the
repository's files (``.`` is the checkout as it stands, so a working
tree pairs against ``HEAD`` before it is committed), or a git revision,
whose committed files are extracted into a fresh temporary directory
with ``git archive``, so nothing in the checkout, its index or its
``.git`` changes, and removed afterwards.  For each seed it runs
``--pairs`` pairs (default 10) of the unchanged ``python3 bench/run.py
--seed S``, each in its own tree, alternating which side runs first; a
run leaves its reports in the tree's ``.bench_out``.
``--workload NAME`` pairs that one workload (``bench/run.py --workload
NAME``), which may be one ``BENCHMARK.json`` does not declare; by
default the run covers the declared workloads.

``FILE`` holds, for each seed, workload and end-to-end metric of the
head's ``BENCHMARK.json``: both sides' per-run values, medians and
quartiles, the head's wins (ties count for neither side), the relative
change of the medians, whether that gap exceeds the base's
interquartile range, and whether the head's median stays within the
metric's bound.  It also records both trees (the revision and its
subject, or the directory), each run's correctness and failure counts,
the command, and the environment block the benchmark reports.

Exit status: 0 when every run passed the benchmark's correctness gate,
1 otherwise (the file is written either way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def git(*args):
    """Standard output of one git command run in the checkout."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def extract(rev, directory):
    """The committed files of ``rev`` under ``directory``; returns the
    full revision and its subject line."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    directory.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return {"rev": sha, "subject": git("log", "-1", "--format=%s", sha)}


def checkout(spec, directory):
    """The tree ``spec`` names and its record: a directory as it stands,
    or the committed files of a revision, extracted under ``directory``."""
    if Path(spec).is_dir():
        tree = Path(spec).resolve()
        return tree, {"directory": str(tree)}
    return directory, extract(spec, directory)


def bench_command(seed, workload=None):
    """The ``bench/run.py`` arguments of one run: the declared workloads,
    or the one named."""
    return ["bench/run.py", "--seed", str(seed),
            *(("--workload", workload) if workload else ())]


def run_bench(checkout, seed, workload=None):
    """One ``bench/run.py`` invocation in ``checkout``: its final JSON line
    and the environment block of its report."""
    proc = subprocess.run([sys.executable, *bench_command(seed, workload)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [""]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise RuntimeError(f"bench/run.py ended without a result line (exit "
                           f"{proc.returncode}; last line {lines[-1]!r}):\n"
                           f"{proc.stderr[-2000:]}")
    reports = sorted((checkout / ".bench_out").glob(
        f"result-{workload or '*'}-seed{seed}-trace0.json"))
    result["environment"] = json.loads(reports[0].read_text())["environment"]
    return result


def summarize(base, head, better, bound):
    """Both sides of one metric over paired runs (``base[i]`` with
    ``head[i]``), against the metric's direction and regression bound."""
    sign = 1.0 if better == "lower" else -1.0
    sides = {}
    for name, values in zip(SIDES, (base, head)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        sides[name] = {"runs": values, "median": median, "q1": q1, "q3": q3}
    gap = sides["head"]["median"] - sides["base"]["median"]
    base_iqr = sides["base"]["q3"] - sides["base"]["q1"]
    return {
        **sides,
        "better": better,
        "bound": bound,
        "head_wins": sum(sign * (h - b) < 0.0 for b, h in zip(base, head)),
        "ties": sum(h == b for b, h in zip(base, head)),
        "median_change": gap / sides["base"]["median"],
        "base_iqr": base_iqr,
        "gap_exceeds_base_iqr": abs(gap) > base_iqr,
        "within_bound": sign * gap <= bound * abs(sides["base"]["median"]),
    }


def summarize_workloads(runs, workloads, metrics):
    """Each of ``workloads`` and ``metrics`` over ``runs``, the base's and
    the head's result lines in pair order.  The metric keys of a run of
    one workload carry no ``workload.`` prefix, as ``bench/run.py``
    prints them."""
    def key(workload, metric):
        return metric if len(workloads) == 1 else f"{workload}.{metric}"

    return {workload: {
        m["name"]: summarize(
            *([r["metrics"][key(workload, m["name"])]["value"] for r in runs[side]]
              for side in SIDES),
            m["better"], m["bound"])
        for m in metrics} for workload in workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="the JSON file to write (relative to the checkout root)")
    parser.add_argument("--base", default="HEAD~1",
                        help="directory or git revision (default: HEAD~1)")
    parser.add_argument("--head", default="HEAD",
                        help="directory or git revision (default: HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed, repeatable (default 1)")
    parser.add_argument("--workload", metavar="NAME",
                        help="pair this one workload (default: the declared ones)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    if args.workload == "all":
        parser.error("omit --workload to pair the declared workloads")
    seeds = args.seed or [1]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts, revisions = {}, {}
        for side in SIDES:
            checkouts[side], revisions[side] = checkout(getattr(args, side),
                                                        Path(tmp) / side)
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        metrics = spec["end_to_end"]
        workloads = ([args.workload] if args.workload
                     else [w["name"] for w in spec["workloads"]])
        environment, by_seed, all_correct = None, {}, True
        for seed in seeds:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_bench(checkouts[side], seed, args.workload)
                    environment = environment or result["environment"]
                    runs[side].append(result)
                    print(f"seed {seed} pair {pair + 1}/{args.pairs} {side}: "
                          f"correct={result['correct']} failed={result['failed']}",
                          file=sys.stderr, flush=True)
            all_correct &= all(r["correct"] for side in SIDES for r in runs[side])
            by_seed[str(seed)] = {
                "workloads": summarize_workloads(runs, workloads, metrics),
                **{side: {"correct": [r["correct"] for r in runs[side]],
                          "attempted": [r["attempted"] for r in runs[side]],
                          "failed": [r["failed"] for r in runs[side]]}
                   for side in SIDES},
            }

    environment.pop("seed", None)
    report = {
        "command": " ".join(["python3", *bench_command("S", args.workload)]),
        "pairs": args.pairs,
        "order": "alternating: base first in odd-numbered pairs, head first in even",
        **revisions,
        "environment": environment,
        "seeds": by_seed,
    }
    out = args.out if args.out.is_absolute() else ROOT / args.out
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
