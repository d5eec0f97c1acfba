"""Run-configuration parsing, defaults, and canonical echo.

The config is sectioned ``key = value`` text (``[params]``, ``[sweep]``
and ``[output]``; README "Config format" has an example) in the units
the experimental parameters are usually quoted in.  This module owns the
entry syntax, the ``[output]`` section and the location of every fault.
The ``[params]`` keys with their units, domains and defaults are the
entries of :data:`entangle.experiments.PARAMS`, each a
:class:`~entangle.experiments.Quantity` whose ``text`` writes what its
``parse`` reads.  Unknown sections or keys, a key
given twice in one file, values outside a key's domain (every value must
be finite), invalid sweep axes and sweep grids the parameters cannot
realize are rejected with the line number of the entry, or the
``section.key`` of an override; missing keys take the defaults of the
feasible cavity-magnomechanics parameter set.  An override value obeys
the rules of a file value: non-empty, one line and no ``#``; so does
each field of an :class:`OutputBlock` built through the API, in its
echo.  The ``[sweep]`` block parses to the
:class:`entangle.experiments.SweepSpec` the run executes.
:func:`echo_config` renders a config back to parseable text such that
``parse_config(echo_config(cfg)) == cfg``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, make_dataclass, replace
from typing import NamedTuple

from . import experiments
from .errors import ConfigError, ParameterError


def _check_params(block):
    """Hold a parameter block to the rules of a parsed one, so that its echo
    parses back to it (see :func:`experiments.settle_partners`)."""
    quoted = {key: getattr(block, param.column) for key, param in experiments.PARAMS.items()}
    read = {}
    for key, param in experiments.PARAMS.items():
        if quoted[key] is not None:
            try:
                read[key] = param.parse(param.text(quoted[key]))
            except ParameterError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    with _at(None):
        read = experiments.settle_partners(read)
    for key, param in experiments.PARAMS.items():
        if read.get(key, param.default) != quoted[key]:
            raise ConfigError(f"{key} = {quoted[key]!r} reads back as "
                              f"{read.get(key, param.default)!r}")


ParamsConfig = make_dataclass(
    "ParamsConfig",
    [(param.column, "float | None", field(default=param.default))
     for param in experiments.PARAMS.values()],
    frozen=True, namespace={
        "__module__": __name__, "__post_init__": _check_params,
        "__doc__": """Parameter block in quoted units (Hz, mK, pi-multiples).

One field per :data:`experiments.PARAMS` entry, named by its column.
Exactly one of ``theta_pi`` or the explicit pair ``(g_hz, omega_c_hz)``
fixes the geometry; exactly one of ``g_minus_hz`` or
``drive_strength_hz2`` fixes the drive.  The block keeps the quoted
values because the echo cannot be rebuilt from the baseline:
``(v * 2pi) / 2pi`` differs from ``v`` for about 14% of Hz values.
"""})


# -- entries ---------------------------------------------------------------

@contextmanager
def _at(location, prefix=""):
    """Report a :class:`ParameterError` raised inside as a config error at
    ``location``: a line number or the ``section.key`` of an override."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(prefix + str(exc), location) from None


def _split_key(spec):
    """``(section, key)`` of an override's ``section.key`` as entries are
    keyed, each part stripped of spaces; None where ``spec`` has no dot."""
    section, dot, key = spec.partition(".")
    return (section.strip(), key.strip()) if dot else None


def _value(key, raw, location):
    """The stripped value of one entry, file line or override alike: it
    must be non-empty, one line and free of ``#``, or its echo would not
    parse back to it."""
    value = raw.strip()
    if not value:
        raise ConfigError(f"empty value for {key!r}", location)
    if "#" in value or value.splitlines() != [value]:
        raise ConfigError(
            f"value for {key!r} must be one line without '#', got {value!r}", location)
    return value


def _integer(raw, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", line) from None


def _formats(raw, line):
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    for name in names:
        if name not in ("csv", "meta", "dat"):
            raise ConfigError(f"unknown output format {name!r}", line)
    if not names:
        raise ConfigError("formats must name at least one of csv, meta, dat", line)
    return names


def _precision(raw, line):
    value = _integer(raw, line)
    if value < 0:
        raise ConfigError(f"precision must be non-negative, got {raw!r}", line)
    return value


#: keys of one sweep axis (the second axis adds a "2")
_AXIS_KEYS = ("start", "stop", "count", "scale")
_SWEEP_KEYS = {"kind", "param", *_AXIS_KEYS, *(key + "2" for key in _AXIS_KEYS)}

#: ``[output]`` key -> (OutputBlock field, parse of the entry value, echo)
_OUTPUT_KEYS = {
    "dir": ("directory", lambda raw, line: raw, str),
    "formats": ("formats", _formats, ",".join),
    "precision": ("precision", _precision, str),
}


@dataclass(frozen=True)
class OutputBlock:
    """Where a run writes which files, and the significant digits of its
    plot data (None: shortest round trip).

    A block built through the API obeys the entry rules of a parsed one:
    the echo of each field must parse back to it, so
    ``parse_config(echo_config(cfg)) == cfg`` holds for every config.
    """

    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "meta", "dat")
    precision: int | None = None

    def __post_init__(self):
        for key, (name, parse, echo) in _OUTPUT_KEYS.items():
            value = getattr(self, name)
            if value is not None and parse(_value(key, echo(value), None), None) != value:
                raise ConfigError(
                    f"{key} = {echo(value)} does not read back as {value!r}")


class RunConfig(NamedTuple):
    params: ParamsConfig = ParamsConfig()
    sweep: experiments.SweepSpec = experiments.SweepSpec()
    output: OutputBlock = OutputBlock()

    def baseline(self) -> experiments.Baseline:
        """Convert the parameter block to the angular-unit baseline."""
        return experiments.quoted_baseline(vars(self.params))


def parse_config(text, overrides=()) -> RunConfig:
    """Parse config text (plus ``section.key=value`` overrides) to a RunConfig.

    Overrides are applied after the file and win over it, each key at most
    once; error messages name them by ``section.key`` where file entries
    give a line number.
    """
    entries = {}  # (section, key) -> (raw value, line number)
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("params", "sweep", "output"):
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}",
                              lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) in entries:
            raise ConfigError(f"{key!r} is already given on line "
                              f"{entries[section, key][1]}", lineno)
        entries[(section, key)] = (_value(key, value, lineno), lineno)

    overridden = set()
    for spec, value in overrides:
        parts = _split_key(spec)
        if parts is None:
            raise ConfigError(f"override must look like section.key, got {spec!r}")
        section, key = parts
        location = f"{section}.{key}"
        if location in overridden:
            raise ConfigError(f"{key!r} is already given by an earlier override",
                              location)
        overridden.add(location)
        entries[(section, key)] = (_value(key, str(value), location), location)

    return _build_config(entries)


def _build_config(entries):
    order = list(entries)  # (section, key) in the order given
    known = {"params": experiments.PARAMS, "sweep": _SWEEP_KEYS,
             "output": _OUTPUT_KEYS}
    for (section, key), (_, line) in entries.items():
        table = known.get(section)
        if table is None:
            raise ConfigError(f"unknown section [{section}]", line)
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line)

    def take(section, key):
        return entries.pop((section, key), None)

    # sweep kind first: it fixes the axes and the units of their endpoints
    kind_entry = take("sweep", "kind")
    param_entry = take("sweep", "param")
    kind = kind_entry[0] if kind_entry else "theta"
    param = param_entry[0] if param_entry else None
    entry = param_entry if kind in experiments.SWEEPS and param_entry else kind_entry
    with _at(entry[1] if entry else None):
        sweep = experiments.SweepSpec(kind, param=param)
    axis_lines = sweep.sweep_kind().axes

    axes = {}  # SweepSpec field -> SweepAxis
    # an unrealizable grid (checked once [params] is known) names the
    # start of the first axis, or the kind when that axis is its default
    grid_location = kind_entry[1] if kind_entry else None
    for index, suffix in enumerate(("", "2")):
        axis, located = {}, {}  # axis key -> value, location of its entry
        for key in _AXIS_KEYS:
            entry = take("sweep", key + suffix)
            if entry is None:
                continue
            raw, line = entry
            if index >= len(axis_lines):
                raise ConfigError(
                    f"{key + suffix!r} does not apply to a {kind!r} sweep", line)
            if key == "count":
                axis[key] = _integer(raw, line)
            elif key == "scale":
                axis[key] = raw  # checked with the whole axis
            else:  # the endpoints take the unit and domain of their line
                with _at(line):
                    axis[key] = axis_lines[index].parse(raw)
            located[key] = line
        if not axis:
            continue
        if not {"start", "stop", "count"} <= axis.keys():
            first = min(located, key=lambda key: order.index(("sweep", key + suffix)))
            raise ConfigError("an axis needs all of start, stop, and count",
                              located[first])
        fault = experiments.axis_fault(axis["start"], axis["stop"], axis["count"],
                                       axis.get("scale", "linear"))
        if fault is not None:
            raise ConfigError(fault[1], located[fault[0]])
        axes["axis" + suffix] = experiments.SweepAxis(**axis)
        if index == 0:
            grid_location = located["start"]
    sweep = replace(sweep, **axes)

    quoted = {}  # [params] key -> quoted value
    for key, param in experiments.PARAMS.items():
        entry = take("params", key)
        if entry is not None:
            with _at(entry[1]):
                quoted[key] = param.parse(entry[0])
    with _at(None):
        quoted = experiments.settle_partners(quoted)
    # the block just parsed and settled: __post_init__ would parse each value again
    params = object.__new__(ParamsConfig)
    params.__dict__.update({param.column: quoted.get(key, param.default)
                            for key, param in experiments.PARAMS.items()})

    output_values = {}
    for key, (field_name, parse, _) in _OUTPUT_KEYS.items():
        entry = take("output", key)
        if entry is not None:
            output_values[field_name] = parse(*entry)
    output = OutputBlock(**output_values)

    # a grid the baseline cannot realize: a generic sweep with no axis,
    # a detuning axis below the splitting floor
    with _at(grid_location, "invalid sweep block: "):
        sweep.sweep_kind().overrides(experiments.quoted_baseline(vars(params)),
                                     sweep.resolved_axes())

    assert not entries
    return RunConfig(params=params, sweep=sweep, output=output)


def echo_config(cfg: RunConfig) -> str:
    """Render a RunConfig as canonical parseable text (exact round-trip);
    a linear ``scale``, the default, is left out."""
    p, s, o = cfg.params, cfg.sweep, cfg.output
    lines = ["[params]"]
    for key, param in experiments.PARAMS.items():
        value = getattr(p, param.column)
        if value is not None:
            lines.append(f"{key} = {param.text(value)}")

    lines.append("")
    lines.append("[sweep]")
    lines.append(f"kind = {s.kind}")
    if s.param is not None:
        lines.append(f"param = {s.param}")
    for line, axis, suffix in zip(s.sweep_kind().axes, (s.axis, s.axis2), ("", "2")):
        if axis is not None:
            lines.append(f"start{suffix} = {line.text(axis.start)}")
            lines.append(f"stop{suffix} = {line.text(axis.stop)}")
            lines.append(f"count{suffix} = {axis.count}")
            if axis.scale == "log":  # linear is the default
                lines.append(f"scale{suffix} = log")

    lines.append("")
    lines.append("[output]")
    for key, (name, _, echo) in _OUTPUT_KEYS.items():
        value = getattr(o, name)
        if value is not None:
            lines.append(f"{key} = {echo(value)}")
    lines.append("")
    return "\n".join(lines)
