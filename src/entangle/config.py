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

Unknown sections or keys are rejected with a line number; missing keys
take the defaults of the feasible cavity-magnomechanics parameter set.
:func:`echo_config` renders a config back to parseable text such that
``parse_config(echo_config(cfg)) == cfg``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import experiments
from .errors import ConfigError, ParameterError
from .model import TWO_PI

_FREQ_FACTORS = {"": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
                 "mHz": 1e-3}
_TEMP_FACTORS = {"": 1.0, "mK": 1.0, "K": 1e3}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]*)$")


@dataclass(frozen=True)
class ParamsConfig:
    """Parameter block in quoted units (Hz, mK, pi-multiples).

    Exactly one of ``theta_pi`` or the explicit pair
    ``(g_hz, omega_c_hz)`` fixes the geometry; exactly one of
    ``g_minus_hz`` or ``drive_strength_hz2`` fixes the drive.
    """

    omega_a_hz: float = 10e9
    omega_b_hz: float = 10e6
    kappa_a_hz: float = 1e6
    kappa_c_hz: float = 1e6
    kappa_b_hz: float = 100.0
    temperature_mk: float = 10.0
    theta_pi: float | None = 0.40
    g_hz: float | None = None
    omega_c_hz: float | None = None
    omega_0_hz: float | None = None
    g_minus_hz: float | None = 2e6
    drive_strength_hz2: float | None = None
    g0_hz: float = 1e-3


@dataclass(frozen=True)
class SweepBlock:
    """Sweep block; axis fields left None fall back to per-kind defaults."""

    kind: str = "theta"
    param: str | None = None
    start: float | None = None
    stop: float | None = None
    count: int | None = None
    scale: str | None = None
    start2: float | None = None
    stop2: float | None = None
    count2: int | None = None
    scale2: str | None = None


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "meta", "dat")
    precision: int | None = None


@dataclass(frozen=True)
class RunConfig:
    params: ParamsConfig = ParamsConfig()
    sweep: SweepBlock = SweepBlock()
    output: OutputBlock = OutputBlock()

    def baseline(self) -> experiments.Baseline:
        """Convert the parameter block to the angular-unit baseline."""
        p = self.params
        drive = 0.0
        if p.drive_strength_hz2 is not None:
            drive = p.drive_strength_hz2 * TWO_PI * TWO_PI
        return experiments.Baseline(
            omega_a=TWO_PI * p.omega_a_hz,
            omega_b=TWO_PI * p.omega_b_hz,
            kappa_a=TWO_PI * p.kappa_a_hz,
            kappa_c=TWO_PI * p.kappa_c_hz,
            kappa_b=TWO_PI * p.kappa_b_hz,
            temperature=1e-3 * p.temperature_mk,
            theta=(math.pi * p.theta_pi) if p.theta_pi is not None
            else 0.25 * math.pi,
            g=TWO_PI * p.g_hz if p.g_hz is not None else None,
            omega_c=TWO_PI * p.omega_c_hz if p.omega_c_hz is not None else None,
            omega_0=TWO_PI * p.omega_0_hz if p.omega_0_hz is not None else None,
            target_g_minus=TWO_PI * p.g_minus_hz
            if p.g_minus_hz is not None else None,
            drive_strength=drive,
            g0=TWO_PI * p.g0_hz,
        )

    def sweep_spec(self) -> experiments.SweepSpec:
        s = self.sweep
        try:
            return experiments.SweepSpec(
                kind=s.kind,
                axis=_axis_of(s.start, s.stop, s.count, s.scale),
                axis2=_axis_of(s.start2, s.stop2, s.count2, s.scale2),
                param=s.param,
            )
        except Exception as exc:
            raise ConfigError(f"invalid sweep block: {exc}") from exc


def _axis_of(start, stop, count, scale):
    given = [v is not None for v in (start, stop, count)]
    if not any(given):
        return None
    if not all(given):
        raise ConfigError("an axis needs all of start, stop, and count")
    return experiments.SweepAxis(start, stop, count, scale or "linear")


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


def _positive(convert):
    def check(raw, line):
        value = convert(raw, line)
        if value <= 0.0:
            raise ConfigError(f"value must be positive, got {raw!r}", line)
        return value
    return check


def _non_negative(convert):
    def check(raw, line):
        value = convert(raw, line)
        if value < 0.0:
            raise ConfigError(f"value must be non-negative, got {raw!r}", line)
        return value
    return check


def _theta(raw, line):
    value = _angle_pi(raw, line)
    if not 0.0 < value < 0.5:
        raise ConfigError("theta must lie strictly inside (0, pi/2)", line)
    return value


_PARAM_KEYS = {
    "omega_a": ("omega_a_hz", _positive(_freq)),
    "omega_b": ("omega_b_hz", _positive(_freq)),
    "omega_c": ("omega_c_hz", _positive(_freq)),
    "omega_0": ("omega_0_hz", _positive(_freq)),
    "g": ("g_hz", _non_negative(_freq)),
    "theta": ("theta_pi", _theta),
    "kappa_a": ("kappa_a_hz", _positive(_freq)),
    "kappa_c": ("kappa_c_hz", _positive(_freq)),
    "kappa_b": ("kappa_b_hz", _positive(_freq)),
    "temperature": ("temperature_mk", _non_negative(_temperature)),
    "g_minus": ("g_minus_hz", _non_negative(_freq)),
    "drive_strength": ("drive_strength_hz2", _non_negative(_bare)),
    "g0": ("g0_hz", _positive(_freq)),
}

#: keys of one sweep axis (the second axis adds a "2"); start and stop
#: take the units of the axis line they sweep
_AXIS_KEYS = {"start": None, "stop": None, "count": _integer,
              "scale": _scale_name}
_SWEEP_KEYS = {"kind", "param", *_AXIS_KEYS, *(key + "2" for key in _AXIS_KEYS)}

_OUTPUT_KEYS = {
    "dir": ("directory", None),
    "formats": ("formats", _formats),
    "precision": ("precision", _integer),
}

#: axis endpoint converter per column: the [params] converter of the
#: parameter the axis sweeps
_COLUMN_CONVERTERS = dict(_PARAM_KEYS.values())


def _axis_converter(line):
    # the detuning axis |Delta| is no [params] entry, just a frequency
    return _COLUMN_CONVERTERS.get(line.column, _freq)


def _axis_lines(kind, param):
    return experiments.SweepSpec(kind, param=param).sweep_kind().axes


def parse_config(text, overrides=()) -> RunConfig:
    """Parse config text (plus ``section.key=value`` overrides) to a RunConfig.

    Overrides are applied after the file and win over it; they carry no
    line numbers in error messages.
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
        section, _, key = spec.partition(".")
        entries[(section.strip(), key.strip())] = (str(value).strip(), None)

    return _build_config(entries)


def _build_config(entries):
    known = {"params": _PARAM_KEYS, "sweep": _SWEEP_KEYS, "output": _OUTPUT_KEYS}
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
        axis_lines = _axis_lines(kind, param)
    except ParameterError as exc:
        entry = param_entry if kind in experiments.SWEEPS else kind_entry
        raise ConfigError(str(exc), entry[1] if entry else None) from None

    sweep_values = {"kind": kind, "param": param}
    for index, suffix in enumerate(("", "2")):
        for key, convert in _AXIS_KEYS.items():
            entry = take("sweep", key + suffix)
            if entry is None:
                continue
            if index >= len(axis_lines):
                raise ConfigError(
                    f"{key + suffix!r} does not apply to a {kind!r} sweep", entry[1])
            if convert is None:
                convert = _axis_converter(axis_lines[index])
            sweep_values[key + suffix] = convert(entry[0], entry[1])
    sweep = SweepBlock(**sweep_values)

    param_values = {}
    explicit = set()
    for key, (field_name, convert) in _PARAM_KEYS.items():
        entry = take("params", key)
        if entry is not None:
            param_values[field_name] = convert(entry[0], entry[1])
            explicit.add(key)
    if ("g" in explicit) != ("omega_c" in explicit):
        raise ConfigError("give both g and omega_c, or neither")
    if "g" in explicit:
        if "theta" in explicit:
            raise ConfigError("give either theta or the pair (g, omega_c)")
        param_values["theta_pi"] = None
    if "drive_strength" in explicit:
        if "g_minus" in explicit:
            raise ConfigError("give either g_minus or drive_strength")
        param_values["g_minus_hz"] = None
    params = ParamsConfig(**param_values)

    output_values = {}
    for key, (field_name, convert) in _OUTPUT_KEYS.items():
        entry = take("output", key)
        if entry is not None:
            raw, line = entry
            output_values[field_name] = raw if convert is None else convert(raw, line)
    output = OutputBlock(**output_values)

    assert not entries
    return RunConfig(params=params, sweep=sweep, output=output)


def echo_config(cfg: RunConfig) -> str:
    """Render a RunConfig as canonical parseable text (exact round-trip)."""
    p, s, o = cfg.params, cfg.sweep, cfg.output
    lines = ["[params]"]
    lines.append(f"omega_a = {p.omega_a_hz!r} Hz")
    lines.append(f"omega_b = {p.omega_b_hz!r} Hz")
    if p.theta_pi is not None:
        lines.append(f"theta = {p.theta_pi!r} pi")
    if p.g_hz is not None:
        lines.append(f"g = {p.g_hz!r} Hz")
    if p.omega_c_hz is not None:
        lines.append(f"omega_c = {p.omega_c_hz!r} Hz")
    if p.omega_0_hz is not None:
        lines.append(f"omega_0 = {p.omega_0_hz!r} Hz")
    lines.append(f"kappa_a = {p.kappa_a_hz!r} Hz")
    lines.append(f"kappa_c = {p.kappa_c_hz!r} Hz")
    lines.append(f"kappa_b = {p.kappa_b_hz!r} Hz")
    lines.append(f"temperature = {p.temperature_mk!r} mK")
    if p.g_minus_hz is not None:
        lines.append(f"g_minus = {p.g_minus_hz!r} Hz")
    if p.drive_strength_hz2 is not None:
        lines.append(f"drive_strength = {p.drive_strength_hz2!r}")
    lines.append(f"g0 = {p.g0_hz!r} Hz")

    lines.append("")
    lines.append("[sweep]")
    lines.append(f"kind = {s.kind}")
    if s.param is not None:
        lines.append(f"param = {s.param}")
    for line, suffix in zip(_axis_lines(s.kind, s.param), ("", "2")):
        for key in _AXIS_KEYS:
            value = getattr(s, key + suffix)
            if value is not None:
                unit = f" {line.unit}" if key in ("start", "stop") else ""
                rendered = value if isinstance(value, (str, int)) else repr(value)
                lines.append(f"{key}{suffix} = {rendered}{unit}")

    lines.append("")
    lines.append("[output]")
    lines.append(f"dir = {o.directory}")
    lines.append(f"formats = {','.join(o.formats)}")
    if o.precision is not None:
        lines.append(f"precision = {o.precision}")
    lines.append("")
    return "\n".join(lines)
