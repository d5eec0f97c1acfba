"""Content digests of the program's outputs, and their comparison between two trees.

    python3 tools/digest.py [TREE]
    python3 tools/digest.py --base TREE --head TREE

A ``TREE`` is a directory holding the repository's files (``.`` is the
checkout as it stands), or a git revision, whose committed files are
extracted into a temporary directory with ``git archive``.  The first
form defaults to the checkout.

For each tree the tool collects these outputs, each run in a fresh
directory with the tree's ``src`` as the only ``PYTHONPATH`` entry:

- ``entangle run`` of every default sweep kind that ``entangle
  list-sweeps`` names (all but ``point`` and ``generic``, which has no
  default axis), from a config holding only ``kind``, and ``entangle
  point``.  Every run writes into the same relative ``--out out``,
  because the out path is echoed into ``resolved_config.cfg`` and
  ``metadata.txt``.  Each run gives ``KIND/records.csv``,
  ``KIND/plot_KIND.dat``, ``KIND/resolved_config.cfg`` and
  ``KIND/metadata.txt``; the last without its ``elapsed seconds:`` and
  ``timestamp:`` lines, which change from run to run.
- ``entangle run`` of five configs off the defaults, each of
  :data:`NON_DEFAULT_RUNS` under its own name in place of ``KIND``:
  the default ``theta`` grid at ``output.precision = 3``,
  ``kappa_grid`` at 5, ``temp_kappa_b`` at 0 and ``g_minus`` at 12,
  which take the ``.dat`` path that formats with ``:.{p}g``, and a
  ``generic`` sweep of ``kappa_b`` on a log axis, the one kind with no
  default run.
- ``point_api.csv``: the ``Baseline.evaluate`` result of every draw of
  the benchmark's ``point_api`` workload for seeds 1 and 7, the
  ``calls`` of ``bench/workloads.PointApi(seed, dir)`` evaluated by its
  own ``base``.  Its one fixed format: a header line, then one line per
  draw in the workload's order, the cells joined by commas:
  ``seed`` (decimal), the draw's ``call_theta`` and
  ``call_target_g_minus`` (``repr``),
  ``stable`` (``true`` or ``false``), then ``repr`` of ``max_re_eig``,
  ``e_n_pp``, ``e_n_mb``, ``e_n_pb`` (empty where None),
  ``drive_strength``, each field of ``basis`` and of ``couplings`` in
  their order, and ``cov``: the 36 covariance entries in row-major
  order, ``repr`` each and joined by spaces (empty where the point is
  unstable).

The first form prints ``sha256  name`` for every output, as
``sha256sum`` does, and last the sha256 of those lines as ``total``.
The second form reports each output of either tree as equal or not.
For a differing ``.csv`` it gives the largest
``|dE_N| / max(|E_N|, 1e-3)`` over the ``e_n_*`` cells with its column
and row, the rows whose ``stable`` flag changed, the E_N cells that
appeared or went missing, and the other cells that changed; for a
differing ``metadata.txt``, every summary line (``argmax`` and each
summary key) that changed, appeared or went missing.

Exit status: 0 when every output is equal (or in the first form), 1
otherwise, 2 when a run or an extraction fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, checkout

#: the relative output directory of every CLI run
OUT = "out"

#: the ``point_api`` seeds whose draws are evaluated
POINT_API_SEEDS = (1, 7)

#: the floor under |E_N| in the relative E_N change
E_N_FLOOR = 1e-3

#: metadata lines that change from run to run
VOLATILE = ("elapsed seconds:", "timestamp:")

#: the runs off the defaults: output name -> config text
NON_DEFAULT_RUNS = {
    "theta-precision-3": "[sweep]\nkind = theta\n\n[output]\nprecision = 3\n",
    "kappa_grid-precision-5": "[sweep]\nkind = kappa_grid\n\n[output]\nprecision = 5\n",
    "temp_kappa_b-precision-0": "[sweep]\nkind = temp_kappa_b\n\n[output]\nprecision = 0\n",
    "g_minus-precision-12": "[sweep]\nkind = g_minus\n\n[output]\nprecision = 12\n",
    "generic-kappa_b-log": ("[sweep]\nkind = generic\nparam = kappa_b\n"
                            "start = 100 Hz\nstop = 1 MHz\ncount = 41\nscale = log\n"),
}

#: where a metadata summary ends
CONFIG_MARK = "# resolved configuration"


def cell(value):
    """One ``point_api.csv`` cell: ``true``/``false``, empty for None,
    else the ``repr``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else repr(value)


def point_api_header(result):
    """The ``point_api.csv`` header for results shaped like ``result``."""
    return ",".join(("seed", "call_theta", "call_target_g_minus", "stable", "max_re_eig",
                     "e_n_pp", "e_n_mb", "e_n_pb", "drive_strength",
                     *result.basis._fields, *result.couplings._fields, "cov"))


def point_api_row(seed, theta, g_minus, result):
    """One ``point_api.csv`` line (see the module docstring)."""
    cov = "" if result.state is None else " ".join(
        map(repr, result.state.cov.ravel().tolist()))
    return ",".join([str(seed), *map(cell, (
        theta, g_minus, result.stable, result.max_re_eig, result.e_n_pp,
        result.e_n_mb, result.e_n_pb, result.drive_strength,
        *result.basis, *result.couplings)), cov])


def point_api_csv(tree):
    """``point_api.csv`` of ``tree``, evaluated in this process: call it in
    a process whose ``entangle`` is the tree's."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "bench")]
    import workloads

    lines = []
    with tempfile.TemporaryDirectory(prefix="digest-point-api-") as work:
        for seed in POINT_API_SEEDS:
            api = workloads.PointApi(seed, work)
            for theta, g_minus in api.calls:
                result = api.base.evaluate(theta=theta, target_g_minus=g_minus)
                if not lines:
                    lines.append(point_api_header(result))
                lines.append(point_api_row(seed, theta, g_minus, result))
    return "\n".join(lines) + "\n"


def normalize_metadata(text):
    """``metadata.txt`` without the lines that change from run to run."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(VOLATILE))


def _python(tree, args, cwd):
    """Standard output of the tree's ``python args`` run in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode} in "
                           f"{tree}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def runs(kinds):
    """Run name -> config text of every CLI run (see the module docstring),
    given the kinds ``entangle list-sweeps`` names; None runs ``entangle point``."""
    return {**{kind: None if kind == "point" else f"[sweep]\nkind = {kind}\n"
               for kind in kinds if kind != "generic"}, **NON_DEFAULT_RUNS}


def collect(tree):
    """Every output of ``tree`` (see the module docstring): name -> text."""
    tree = Path(tree).resolve()
    kinds = _python(tree, ["-m", "entangle.cli", "list-sweeps"], tree).split()
    outputs = {}
    for name, config in runs(kinds).items():
        with tempfile.TemporaryDirectory(prefix=f"digest-{name}-") as work:
            if config is None:
                args = ["point"]
            else:
                Path(work, "sweep.cfg").write_text(config)
                args = ["run", "sweep.cfg"]
            _python(tree, ["-m", "entangle.cli", *args, "--out", OUT], work)
            for path in sorted(Path(work, OUT).iterdir()):
                text = path.read_text()
                if path.name == "metadata.txt":
                    text = normalize_metadata(text)
                outputs[f"{name}/{path.name}"] = text
    outputs["point_api.csv"] = _python(tree, ["-c", (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import digest\n"
        f"sys.stdout.write(digest.point_api_csv({str(tree)!r}))\n")], tree)
    return outputs


def digests(outputs):
    """``sha256  name`` lines of ``outputs``, then their own sha256 as ``total``."""
    lines = [f"{hashlib.sha256(text.encode()).hexdigest()}  {name}"
             for name, text in sorted(outputs.items())]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"{total}  total"]


def compare_csv(base, head):
    """What differs between two CSV texts with one header line (see the
    module docstring); empty when they are equal."""
    if base == head:
        return []
    (base_header, *base_rows), (head_header, *head_rows) = (
        list(csv.reader(io.StringIO(text))) for text in (base, head))
    if base_header != head_header:
        return [f"header {','.join(base_header)} -> {','.join(head_header)}"]
    if len(base_rows) != len(head_rows):
        return [f"rows {len(base_rows)} -> {len(head_rows)}"]
    worst, flags, gaps, others = None, [], 0, set()
    for row, (old, new) in enumerate(zip(base_rows, head_rows)):
        for column, a, b in zip(base_header, old, new):
            if a == b:
                continue
            if column == "stable":
                flags.append(row)
            elif not column.startswith("e_n_"):
                others.add(column)
            elif not a or not b:
                gaps += 1
            else:
                size = abs(float(b) - float(a)) / max(abs(float(a)), E_N_FLOOR)
                if worst is None or size > worst[0]:
                    worst = (size, column, row)
    findings = []
    if worst is not None:
        findings.append(f"max |dE_N|/max(|E_N|, {E_N_FLOOR:g}) = {worst[0]:.3e} "
                        f"({worst[1]}, row {worst[2]})")
    if flags:
        findings.append(f"stable flag changed on {len(flags)} rows (first: row {flags[0]})")
    if gaps:
        findings.append(f"{gaps} E_N cells appeared or went missing")
    if others:
        findings.append(f"other cells changed in {', '.join(sorted(others))}")
    return findings


def summary_lines(text):
    """``key -> value`` of each ``key: value`` line of a metadata summary."""
    summary = text.split(CONFIG_MARK, 1)[0]
    return dict(line.split(": ", 1) for line in summary.splitlines() if ": " in line)


def compare_metadata(base, head):
    """What differs between two normalized ``metadata.txt`` texts; empty
    when they are equal."""
    if base == head:
        return []
    old, new = summary_lines(base), summary_lines(head)
    findings = []
    for key in [*old, *(key for key in new if key not in old)]:
        if key not in new:
            findings.append(f"{key}: went missing")
        elif key not in old:
            findings.append(f"{key}: appeared ({new[key]})")
        elif old[key] != new[key]:
            findings.append(f"{key}: {old[key]} -> {new[key]}")
    if base.split(CONFIG_MARK, 1)[1:] != head.split(CONFIG_MARK, 1)[1:]:
        findings.append("resolved configuration differs")
    return findings or ["differs"]


def compare(base, head):
    """Each output name of either side -> the list of what differs
    (empty: equal)."""
    report = {}
    for name in sorted(base.keys() | head.keys()):
        old, new = base.get(name), head.get(name)
        if old is None or new is None:
            report[name] = ["only in " + ("head" if old is None else "base")]
        elif name.endswith(".csv"):
            report[name] = compare_csv(old, new)
        elif name.endswith("metadata.txt"):
            report[name] = compare_metadata(old, new)
        else:
            report[name] = [] if old == new else ["differs"]
    return report


def render(report):
    """One line per output: its name, then ``equal`` or what differs."""
    width = max(map(len, report), default=0)
    return [f"{name:<{width}}  {'; '.join(findings) or 'equal'}"
            for name, findings in report.items()]


def _tree(spec, tmp, side):
    """The directory of a ``TREE`` argument, extracting a revision under ``tmp``."""
    tree, info = checkout(spec, Path(tmp) / side)
    return tree, info.get("directory") or f"{info['rev'][:12]} {info['subject']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT),
                        help="directory or git revision to digest (default: the checkout)")
    parser.add_argument("--base", help="directory or git revision to compare from")
    parser.add_argument("--head", help="directory or git revision to compare to")
    args = parser.parse_args(argv)
    if (args.base is None) != (args.head is None):
        parser.error("give both --base and --head, or neither")
    try:
        with tempfile.TemporaryDirectory(prefix="digest-trees-") as tmp:
            if args.base is None:
                tree, _ = _tree(args.tree, tmp, "tree")
                print("\n".join(digests(collect(tree))))
                return 0
            sides = {}
            for side in ("base", "head"):
                tree, label = _tree(getattr(args, side), tmp, side)
                print(f"{side}: {label}")
                sides[side] = collect(tree)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare(sides["base"], sides["head"])
    print("\n".join(render(report)))
    for side in ("base", "head"):
        print(f"{side} {digests(sides[side])[-1]}")
    return 0 if not any(report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
