"""Command-line entry point: sweep orchestration and result emission.

Commands::

    entangle run <config> [--set section.key=value]... [--out DIR]
    entangle point [--set section.key=value]... [--out DIR]
    entangle list-sweeps

``run`` executes the sweep named in the config and writes, into the
output directory: ``records.csv`` (one row per grid point, shortest
round-trip decimals), ``resolved_config.cfg`` (parseable echo of the
fully resolved configuration), ``metadata.txt`` (config echo plus a
summary with argmax/threshold extractions), and gnuplot-ready
``plot_*.dat`` blocks with unstable points masked as nan.  Both files
render each output column once, each distinct value of it once: equal
non-zero floats have the same bits, so the bytes are one ``repr`` per cell.

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 unwritable output path.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from . import __version__, experiments
from .config import RunConfig, _split_key, echo_config, parse_config
from .errors import ConfigError, EntangleError

#: the output columns of ``records.csv`` after the per-sweep axis columns,
#: in their frozen order; a result column not named here reaches no file.
#: The three negativities lead, and they are the curves of the plot data.
RECORD_COLUMNS = ("e_n_pp", "e_n_mb", "e_n_pb", "stable", "max_re_eig",
                  "abs_g_plus", "abs_g_minus", "theta", "delta_plus", "delta_minus")
CURVES = RECORD_COLUMNS[:3]


def _cells(result: experiments.SweepResult, text=repr, width=None):
    """The texts of each output column, the axis columns first, as far as
    ``width`` columns: by default the CSV cells, shortest round-trip
    decimals, ``true``/``false`` for ``stable``, and empty for a
    negativity where ``stable`` is false.  A column renders each distinct
    non-zero float once, because equal non-zero floats have the same bits
    (a NaN, equal to nothing, is found again only as the same object);
    zeros (``0.0 == -0.0``) are rendered per cell."""
    stable = result.columns["stable"].tolist()
    everywhere = [True] * len(stable)
    cells = []
    for name in (result.axis_names + RECORD_COLUMNS)[:width]:
        values = result.columns[name].tolist()
        if name == "stable":
            cells.append(["true" if v else "false" for v in values])
            continue
        memo = {}
        cells.append([(memo.get(v) or memo.setdefault(v, text(v)) if v else text(v))
                      if shown else "" for v, shown
                      in zip(values, stable if name in CURVES else everywhere)])
    return cells


def emit_records(result: experiments.SweepResult, cells=None) -> str:
    """Render a sweep result as CSV text with the frozen column order.

    ``cells`` are the result's rendered columns (:func:`_cells`) when
    the caller already has them (see :func:`write_outputs`).
    """
    if cells is None:
        cells = _cells(result)
    lines = [",".join(result.axis_names + RECORD_COLUMNS)]
    lines += map(",".join, zip(*cells))
    return "\n".join(lines) + "\n"


def emit_metadata(result: experiments.SweepResult, cfg: RunConfig,
                  elapsed=None) -> str:
    """Human-readable run summary plus the resolved config echo."""
    stable = result.columns["stable"]
    lines = [
        f"entangle {__version__}",
        f"sweep kind: {result.kind}",
        f"records: {len(stable)}",
        f"stable points: {int(stable.sum())} / {len(stable)}",
    ]
    for key, value in sorted(result.summary.items()):
        lines.append(f"{key}: {value}")
    if elapsed is not None:
        lines.append(f"elapsed seconds: {elapsed:.3f}")
        lines.append(f"timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    lines.append("")
    lines.append("# resolved configuration")
    lines.append(echo_config(cfg))
    return "\n".join(lines)


def emit_plot_data(result: experiments.SweepResult, precision=None,
                   cells=None) -> str:
    """Gnuplot-ready data blocks for one observable-per-curve plotting.

    1-D sweeps produce one two-column block per negativity curve,
    separated by double blank lines (gnuplot ``index`` convention); 2-D
    sweeps produce a nonuniform-matrix block per curve.  Unstable points
    appear as ``nan`` (use ``set datafile missing "nan"``).  Numbers are
    shortest round-trip decimals, the ``records.csv`` cells (reused from
    ``cells`` when given), unless ``precision`` sets significant digits.
    """
    n = len(result.axis_names)
    if precision is None:
        if cells is None:
            cells = _cells(result)
    else:  # laid out like the record columns, as far as the curves
        cells = _cells(result, lambda v: f"{v:.{precision}g}", n + 3)

    blocks = []
    if n <= 1:
        labels = cells[0] if n else ["0"] * len(cells[0])
        for curve, column in zip(CURVES, cells[n:]):
            rows = [f"# {result.kind}: {curve} vs {', '.join(result.axis_names) or 'point'}"]
            rows += [f"{label} {text or 'nan'}" for label, text in zip(labels, column)]
            blocks.append("\n".join(rows))
    else:
        # the grid runs row by row, its axes strictly increasing: each
        # x holds one row of every y
        x = result.columns[result.axis_names[0]]
        size = int((x == x[0]).sum())
        xs, ys = cells[0][::size], cells[1][:size]
        for curve, column in zip(CURVES, cells[n:]):
            rows = [f"# {result.kind}: {curve} matrix "
                    f"({result.axis_names[0]} down, {result.axis_names[1]} across)",
                    " ".join([str(size), *ys])]
            rows += [" ".join([label, *(text or "nan" for text in column[k:k + size])])
                     for k, label in zip(range(0, len(column), size), xs)]
            blocks.append("\n".join(rows))
    return ("\n\n\n").join(blocks) + "\n"


def write_outputs(result, cfg, elapsed=None):
    """Write the files of ``cfg.output.formats`` into ``cfg.output.directory``."""
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    formats, precision = cfg.output.formats, cfg.output.precision
    (out / "resolved_config.cfg").write_text(echo_config(cfg))
    # each column's numbers are rendered once, for records.csv and for
    # the plot data at shortest round-trip precision alike
    cells = (_cells(result)
             if "csv" in formats or ("dat" in formats and precision is None)
             else None)
    if "csv" in formats:
        (out / "records.csv").write_text(emit_records(result, cells))
    if "meta" in formats:
        (out / "metadata.txt").write_text(emit_metadata(result, cfg, elapsed))
    if "dat" in formats:
        (out / f"plot_{result.kind}.dat").write_text(
            emit_plot_data(result, precision, cells))


def _parse_overrides(pairs):
    overrides = []
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects section.key=value, got {pair!r}")
        spec, _, value = pair.partition("=")
        overrides.append((spec.strip(), value.strip()))
    return overrides


def _load_config(path, overrides):
    try:
        text = "" if path is None else Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text, overrides)


def _execute(cfg: RunConfig) -> int:
    start = time.perf_counter()
    result = experiments.run_sweep(cfg.baseline(), cfg.sweep)
    elapsed = time.perf_counter() - start
    try:
        write_outputs(result, cfg, elapsed)
    except OSError as exc:
        print(f"error: cannot write outputs to {cfg.output.directory!r}: {exc}",
              file=sys.stderr)
        return 4
    argmax = result.summary.get("argmax")
    stable = result.columns["stable"]
    if result.kind == "point":
        print(f"stable: {bool(stable[0])}")
        print("E_N(+,-): {}  E_N(-,b): {}  E_N(+,b): {}".format(
            *(column[0] for column in _cells(result, width=len(CURVES)))))
    elif argmax is not None:
        print(f"argmax: {argmax}")
    print(f"wrote {len(stable)} records to {cfg.output.directory}")
    return 0


@functools.cache
def _parser():
    """The command-line parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="entangle",
        description="Stationary polariton entanglement via a dispersively "
                    "coupled third mode: parameter sweeps and plot-ready data.")
    sub = parser.add_subparsers(dest="command", required=True)
    entries = argparse.ArgumentParser(add_help=False)  # shared by run and point
    entries.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                         help="override a config entry (repeatable; wins over file)")
    entries.add_argument("--out", help="output directory (overrides [output] dir)")

    run_p = sub.add_parser("run", parents=[entries],
                           help="run the sweep described by a config file")
    run_p.add_argument("config", help="path to the run configuration")
    sub.add_parser("point", parents=[entries],
                   help="evaluate a single parameter point")
    sub.add_parser("list-sweeps", help="list available sweep kinds")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "list-sweeps":
        for kind in experiments.SWEEPS:
            print(kind)
        return 0

    try:
        overrides = _parse_overrides(args.set)
        if args.command == "point":
            if any(_split_key(spec) == ("sweep", "kind") for spec, _ in overrides):
                raise ConfigError("point evaluates a single point and takes no "
                                  "sweep kind", "sweep.kind")
            overrides.append(("sweep.kind", "point"))
        if args.out is not None:  # wins over a --set output.dir
            overrides = [entry for entry in overrides
                         if _split_key(entry[0]) != ("output", "dir")]
            overrides.append(("output.dir", args.out))
        return _execute(_load_config(getattr(args, "config", None), overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EntangleError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
