"""Run-configuration parsing, defaults, and canonical echo.

The config format is plain sectioned key = value text in the units the
experimental parameters are usually quoted in: ordinary frequency with
Hz/kHz/MHz/GHz (or mHz) suffixes, temperature in mK (or K), and angles
as multiples of pi::

    [params]
    omega_a = 10 GHz
    kappa_a = 1 MHz
    temperature = 10 mK
    theta = 0.40 pi

    [sweep]
    kind = theta
    start = 0.26 pi
    stop = 0.49 pi
    count = 200

    [output]
    dir = out

The ``[params]`` keys, their units, domains and defaults are the
entries of :data:`entangle.experiments.PARAMS`.  Unknown sections or
keys, values outside a key's domain (every value must be finite),
invalid sweep axes and sweep grids the parameters cannot realize are
rejected with the line number of the entry, or the ``section.key`` of an
override; missing keys take the defaults of the feasible
cavity-magnomechanics parameter set.  The ``[sweep]`` block parses to
the :class:`entangle.experiments.SweepSpec` the run executes.
:func:`echo_config` renders a config back to parseable text such that
``parse_config(echo_config(cfg)) == cfg``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, make_dataclass, replace

from . import experiments
from .errors import ConfigError, ParameterError

_FREQ_FACTORS = {"": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
                 "mHz": 1e-3}
_TEMP_FACTORS = {"": 1.0, "mK": 1.0, "K": 1e3}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]*)$")


ParamsConfig = make_dataclass(
    "ParamsConfig",
    [(param.column, "float | None", field(default=param.default))
     for param in experiments.PARAMS.values()],
    frozen=True, namespace={"__module__": __name__})
ParamsConfig.__doc__ = """Parameter block in quoted units (Hz, mK, pi-multiples).

One field per :data:`experiments.PARAMS` entry, named by its column.
Exactly one of ``theta_pi`` or the explicit pair ``(g_hz, omega_c_hz)``
fixes the geometry; exactly one of ``g_minus_hz`` or
``drive_strength_hz2`` fixes the drive.  The block keeps the quoted
values because the echo cannot be rebuilt from the baseline:
``(v * 2pi) / 2pi`` differs from ``v`` for about 14% of Hz values.
"""


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "meta", "dat")
    precision: int | None = None


@dataclass(frozen=True)
class RunConfig:
    params: ParamsConfig = ParamsConfig()
    sweep: experiments.SweepSpec = experiments.SweepSpec()
    output: OutputBlock = OutputBlock()

    def baseline(self) -> experiments.Baseline:
        """Convert the parameter block to the angular-unit baseline."""
        return experiments.quoted_baseline(vars(self.params))


# -- value converters --------------------------------------------------------

def _split_value(raw, line):
    m = _VALUE_RE.match(raw)
    if m is None:
        raise ConfigError(f"malformed number {raw!r}", line)
    return float(m.group(1)), m.group(2)


def _freq(raw, line):
    value, suffix = _split_value(raw, line)
    if suffix not in _FREQ_FACTORS:
        raise ConfigError(
            f"expected a frequency (Hz/kHz/MHz/GHz), got suffix {suffix!r}", line)
    return value * _FREQ_FACTORS[suffix]


def _temperature(raw, line):
    value, suffix = _split_value(raw, line)
    if suffix not in _TEMP_FACTORS:
        raise ConfigError(f"expected a temperature (mK or K), got {suffix!r}", line)
    return value * _TEMP_FACTORS[suffix]


def _angle_pi(raw, line):
    value, suffix = _split_value(raw, line)
    if suffix == "pi":
        return value
    if suffix == "":
        return value / math.pi  # bare angles are radians
    raise ConfigError(f"expected an angle ('x pi' or radians), got {suffix!r}", line)


def _integer(raw, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", line) from None


def _bare(raw, line):
    value, suffix = _split_value(raw, line)
    if suffix:
        raise ConfigError(f"expected a bare number, got suffix {suffix!r}", line)
    return value


def _scale_name(raw, line):
    if raw not in ("linear", "log"):
        raise ConfigError(f"scale must be linear or log, got {raw!r}", line)
    return raw


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


#: quoted unit -> (parser of a raw value, unit suffix of its echo)
_UNITS = {
    "Hz": (_freq, " Hz"),
    "Hz^2": (_bare, ""),
    "mK": (_temperature, " mK"),
    "pi": (_angle_pi, " pi"),
}

#: domain -> test of a finite quoted value
_DOMAINS = {
    "finite": lambda v: True,
    "positive": lambda v: v > 0.0,
    "non-negative": lambda v: v >= 0.0,
    "inside (0, pi/2)": lambda v: 0.0 < v < 0.5,
}


def _quoted(quantity, raw, line):
    """Parse a raw value in the quantity's unit and check its domain."""
    value = _UNITS[quantity.unit][0](raw, line)
    # a finite quoted value can still overflow in angular units
    if not math.isfinite(quantity.angular(value)):
        raise ConfigError(f"value must be finite, got {raw!r}", line)
    if not _DOMAINS[quantity.domain](value):
        raise ConfigError(f"value must be {quantity.domain}, got {raw!r}", line)
    return value


#: keys of one sweep axis (the second axis adds a "2"); start and stop
#: take the unit and domain of the axis line they sweep
_AXIS_KEYS = {"start": None, "stop": None, "count": _integer,
              "scale": _scale_name}
_SWEEP_KEYS = {"kind", "param", *_AXIS_KEYS, *(key + "2" for key in _AXIS_KEYS)}

_OUTPUT_KEYS = {
    "dir": ("directory", None),
    "formats": ("formats", _formats),
    "precision": ("precision", _precision),
}


def parse_config(text, overrides=()) -> RunConfig:
    """Parse config text (plus ``section.key=value`` overrides) to a RunConfig.

    Overrides are applied after the file and win over it; error messages
    name them by ``section.key`` where file entries give a line number.
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
        key, value = key.strip(), value.strip()
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[(section, key)] = (value, lineno)

    for spec, value in overrides:
        if "." not in spec:
            raise ConfigError(f"override must look like section.key, got {spec!r}")
        section, _, key = (part.strip() for part in spec.partition("."))
        entries[(section, key)] = (str(value).strip(), f"{section}.{key}")

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
    try:
        sweep = experiments.SweepSpec(kind, param=param)
    except ParameterError as exc:
        entry = param_entry if kind in experiments.SWEEPS else kind_entry
        raise ConfigError(str(exc), entry[1] if entry else None) from None
    axis_lines = sweep.sweep_kind().axes

    axes = {}  # SweepSpec field -> SweepAxis
    # an unrealizable grid (checked once [params] is known) names the
    # start of the first axis, or the kind when that axis is its default
    grid_location = kind_entry[1] if kind_entry else None
    for index, suffix in enumerate(("", "2")):
        axis, located = {}, {}  # axis key -> value, location of its entry
        for key, convert in _AXIS_KEYS.items():
            entry = take("sweep", key + suffix)
            if entry is None:
                continue
            if index >= len(axis_lines):
                raise ConfigError(
                    f"{key + suffix!r} does not apply to a {kind!r} sweep", entry[1])
            if convert is None:
                axis[key] = _quoted(axis_lines[index], *entry)
            else:
                axis[key] = convert(*entry)
            located[key] = entry[1]
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
            quoted[key] = _quoted(param, *entry)
    if ("g" in quoted) != ("omega_c" in quoted):
        raise ConfigError("give both g and omega_c, or neither")
    if "g" in quoted:
        if "theta" in quoted:
            raise ConfigError("give either theta or the pair (g, omega_c)")
        quoted["theta"] = None
    if "drive_strength" in quoted:
        if "g_minus" in quoted:
            raise ConfigError("give either g_minus or drive_strength")
        quoted["g_minus"] = None
    params = ParamsConfig(**{experiments.PARAMS[key].column: value
                             for key, value in quoted.items()})

    output_values = {}
    for key, (field_name, convert) in _OUTPUT_KEYS.items():
        entry = take("output", key)
        if entry is not None:
            raw, line = entry
            output_values[field_name] = raw if convert is None else convert(raw, line)
    output = OutputBlock(**output_values)

    # a grid the baseline cannot realize: a generic sweep with no axis,
    # a detuning axis below the splitting floor
    try:
        sweep.sweep_kind().overrides(experiments.quoted_baseline(vars(params)),
                                     sweep.resolved_axes())
    except ParameterError as exc:
        raise ConfigError(f"invalid sweep block: {exc}", grid_location) from None

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
            lines.append(f"{key} = {value!r}{_UNITS[param.unit][1]}")

    lines.append("")
    lines.append("[sweep]")
    lines.append(f"kind = {s.kind}")
    if s.param is not None:
        lines.append(f"param = {s.param}")
    for line, axis, suffix in zip(s.sweep_kind().axes, (s.axis, s.axis2), ("", "2")):
        if axis is not None:
            unit = _UNITS[line.unit][1]
            lines.append(f"start{suffix} = {axis.start!r}{unit}")
            lines.append(f"stop{suffix} = {axis.stop!r}{unit}")
            lines.append(f"count{suffix} = {axis.count}")
            if axis.scale == "log":  # linear is the default
                lines.append(f"scale{suffix} = log")

    lines.append("")
    lines.append("[output]")
    lines.append(f"dir = {o.directory}")
    lines.append(f"formats = {','.join(o.formats)}")
    if o.precision is not None:
        lines.append(f"precision = {o.precision}")
    lines.append("")
    return "\n".join(lines)
