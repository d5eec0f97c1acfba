"""Named, reproducible parameter sweeps over the entanglement pipeline.

Every physical parameter is one :class:`Quantity` entry of
:data:`PARAMS`, keyed by its config name: quoted column, baseline field,
unit, domain and default; each unit is one :class:`Unit` entry of
:data:`UNITS`.  The config layer parses and echoes ``[params]`` and the
sweep axes from them, and every conversion from quoted to angular units
goes through :meth:`Quantity.angular`.

Every sweep kind is one :class:`SweepKind` entry of :data:`SWEEPS`: its
axes (CSV column, :class:`Baseline` field, reporting unit), its default
grid, an optional point map and an optional summary hook.
:func:`run_sweep` evaluates the grid as parameter columns (one array
per varying :class:`Baseline` field) through
:meth:`Baseline.evaluate_all`, which hands the whole stack to the
stacked pipeline, and reads the output columns of
:class:`SweepResult` from its one result.  Instability is recorded as
data (not an error).  The columns are the same bits whatever the
kernels' slice size or the evaluation order, and each row agrees with
:meth:`Baseline.evaluate` of its point, which runs the model layer on
Python floats, to rounding.

Axis values and output diagnostics use reporting units: ordinary
frequency (Hz) for rates, couplings and detunings, and millikelvin for
temperature.  A mixing-angle axis is in multiples of pi, the ``theta``
diagnostic in radians, and ``max_re_eig`` in rad/s.
The baseline parameter set itself is angular (rad/s), matching the
model layer.
"""

from __future__ import annotations

import math
import numbers
import re
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import PipelineColumns, PipelineResult, run_pipeline, run_pipelines
from .errors import EntangleError, ParameterError
from .model import TWO_PI, SystemParams, _require, solve_g_omega_c_from_theta

#: rows with E_N below this (or unstable) count as disentangled when
#: extracting robustness thresholds; absorbs the separability clamp
EN_THRESHOLD = 1e-4


# -- parameter table ---------------------------------------------------------

def _times(factor):
    return lambda v: v * factor


class Unit(NamedTuple):
    """A quoted unit: each config suffix with the conversion of the number
    it follows, what an error for another suffix says the value should
    be, the suffix of its echo and its conversion to angular/SI units."""

    suffixes: dict[str, Callable[[float], float]]
    expected: str
    echo: str
    angular: Callable[[float], float]


#: every quoted unit.  The products keep their order: ``v * TWO_PI *
#: TWO_PI`` and ``v * TWO_PI**2`` differ in the last bit for about 27% of
#: values, and a bare angle is ``v / pi``, not ``v * (1 / pi)``.
UNITS = {
    "Hz": Unit({"": _times(1.0), "Hz": _times(1.0), "kHz": _times(1e3),
                "MHz": _times(1e6), "GHz": _times(1e9), "mHz": _times(1e-3)},
               "a frequency (mHz/Hz/kHz/MHz/GHz), got suffix", " Hz",
               lambda v: v * TWO_PI),
    "Hz^2": Unit({"": _times(1.0)}, "a bare number, got suffix", "",
                 lambda v: v * TWO_PI * TWO_PI),
    "mK": Unit({"": _times(1.0), "mK": _times(1.0), "K": _times(1e3)},
               "a temperature (mK or K), got", " mK", lambda v: v * 1e-3),
    "pi": Unit({"pi": lambda v: v, "": lambda v: v / math.pi},  # bare: radians
               "an angle ('x pi' or radians), got", " pi", lambda v: v * math.pi),
}

#: a config value: a number, then a unit suffix
_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]*)$")


class Quantity(NamedTuple):
    """A quantity in quoted units: a ``[params]`` key or a sweep axis.

    ``column`` names it in the config's quoted parameter record and in
    CSV headers; ``field`` is its :class:`Baseline` field (None where a
    point map resolves the axis).  ``unit`` is a key of :data:`UNITS`.
    ``domain`` names the values it admits, a row of the one domain table
    ``model._DOMAINS`` (bounds in angular units): ``positive``,
    ``non-negative``, ``finite`` or ``inside (0, pi/2)``.
    ``default`` is the quoted default.
    """

    column: str
    field: str | None
    unit: str
    domain: str
    default: float | None = None

    def angular(self, quoted):
        """The :class:`Baseline` field value of a quoted value (None: not given)."""
        return None if quoted is None else UNITS[self.unit].angular(quoted)

    def parse(self, raw):
        """The quoted value of config text ``raw``: a number and one of the unit's
        suffixes, inside the domain in angular and in quoted units.  Raises
        :class:`ParameterError` naming the rule ``raw`` breaks."""
        m = _VALUE_RE.match(raw)
        if m is None:
            raise ParameterError(f"malformed number {raw!r}")
        unit, suffix = UNITS[self.unit], m.group(2)
        if suffix not in unit.suffixes:
            raise ParameterError(f"expected {unit.expected} {suffix!r}")
        value = unit.suffixes[suffix](float(m.group(1)))
        # the angular value catches a finite quoted value that overflows,
        # the quoted one a negative value that underflows to -0.0
        _require("value", unit.angular(value), self.domain, raw)
        _require("value", value, self.domain, raw)
        return value

    def text(self, quoted):
        """The config text of a quoted value: its ``repr`` and the unit's
        echo suffix, which :meth:`parse` reads back to ``quoted``."""
        return f"{quoted!r}{UNITS[self.unit].echo}"


#: every ``[params]`` key, in the order the config echo lists them
PARAMS = {
    "omega_a": Quantity("omega_a_hz", "omega_a", "Hz", "positive", 10e9),
    "omega_b": Quantity("omega_b_hz", "omega_b", "Hz", "positive", 10e6),
    "theta": Quantity("theta_pi", "theta", "pi", "inside (0, pi/2)", 0.40),
    "g": Quantity("g_hz", "g", "Hz", "non-negative"),
    "omega_c": Quantity("omega_c_hz", "omega_c", "Hz", "positive"),
    # None: the drive sits at the midpoint (omega_a + omega_c) / 2
    "omega_0": Quantity("omega_0_hz", "omega_0", "Hz", "positive"),
    "kappa_a": Quantity("kappa_a_hz", "kappa_a", "Hz", "positive", 1e6),
    "kappa_c": Quantity("kappa_c_hz", "kappa_c", "Hz", "positive", 1e6),
    "kappa_b": Quantity("kappa_b_hz", "kappa_b", "Hz", "positive", 100.0),
    "temperature": Quantity("temperature_mk", "temperature", "mK", "non-negative", 10.0),
    "g_minus": Quantity("g_minus_hz", "target_g_minus", "Hz", "non-negative", 2e6),
    # the product G0 * Omega, the one drive knob
    "drive_strength": Quantity("drive_strength_hz2", "drive_strength", "Hz^2",
                               "non-negative"),
}

#: the parameters a generic sweep can vary
GENERIC_PARAMS = {key: PARAMS[key] for key in (
    "omega_a", "omega_b", "theta", "kappa_a", "kappa_c", "kappa_b",
    "temperature", "g_minus")}


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis in reporting units."""

    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        fault = axis_fault(self.start, self.stop, self.count, self.scale)
        if fault is not None:
            raise ParameterError(fault[1])

    def values(self):
        return _SPACES[self.scale](self.start, self.stop, self.count)


#: the axis scales and the spacing of each
_SPACES = {"linear": np.linspace, "log": np.geomspace}


def axis_fault(start, stop, count, scale):
    """``(field, message)`` of the first invalid :class:`SweepAxis` field,
    or None: the config layer reports the line of that field."""
    if not isinstance(count, numbers.Integral):
        return "count", f"axis count must be an integer, got {count!r}"
    if count < 2:
        return "count", f"axis needs at least 2 points, got {count}"
    for name, value in (("start", start), ("stop", stop)):
        if not isinstance(value, numbers.Real):
            return name, f"axis {name} must be a real number, got {value!r}"
        if not math.isfinite(value):
            return name, f"axis {name} must be finite, got {value!r}"
    if not start < stop:
        return "stop", f"axis start must be below stop, got [{start}, {stop}]"
    if scale not in _SPACES:
        return "scale", f"axis scale must be linear or log, got {scale!r}"
    if scale == "log" and start <= 0.0:
        return "start", "log-scaled axis requires positive endpoints"
    if not (np.diff(_SPACES[scale](start, stop, count)) > 0.0).all():
        return "count", f"axis of {count} points over [{start}, {stop}] repeats a value"
    return None


@dataclass(frozen=True)
class Baseline:
    """Base parameter set shared by all grid points (angular units).

    Exactly one of ``theta`` (via the fixed-splitting inverse, splitting
    = 2 omega_b) or the pair ``(g, omega_c)`` fixes the geometry; the
    other is None.  The drive is pinned per point to hit
    ``target_g_minus`` unless that is None, in which case
    ``drive_strength`` is used directly (None: no drive).  A baseline
    breaking either rule, or with a ``drive_strength`` (0.0 too) beside a
    ``target_g_minus``, raises :class:`ParameterError`, however it is built.
    """

    omega_a: float
    omega_b: float
    kappa_a: float
    kappa_c: float
    kappa_b: float
    temperature: float
    theta: float | None
    g: float | None
    omega_c: float | None
    omega_0: float | None
    target_g_minus: float | None
    drive_strength: float | None

    def __post_init__(self):
        given = [name for name in ("theta", "g", "omega_c") if getattr(self, name) is not None]
        check_geometry(given)
        if not given:
            raise ParameterError(_NO_GEOMETRY)
        if self.drive_strength is not None:
            _drive_target(self.target_g_minus, {"drive_strength": self.drive_strength})

    def params(self, **overrides) -> SystemParams:
        """Resolve to concrete :class:`SystemParams`.

        An overriding ``theta`` re-derives the geometry even when the
        baseline pins ``(g, omega_c)`` explicitly.  Like the config,
        overrides follow :func:`check_geometry`, so none is dropped (nor
        a pair with one member None, nor a ``drive_strength`` beside a
        target: see :func:`_drive_target`), and one that is not a field
        raises :class:`TypeError`.  Overrides may be one value each or
        columns, made Python floats and float64 arrays by :func:`_columns`;
        with columns the result holds parameter columns (see
        :meth:`evaluate_all`).  It is the one resolver, and the one check of
        every per-call rule, behind :meth:`evaluate` and :meth:`evaluate_all`.
        """
        overrides = _columns(overrides)[0]
        _drive_target(self.target_g_minus, overrides)
        check_geometry(overrides)
        if "g" in overrides and (overrides["g"] is None) != (overrides["omega_c"] is None):
            raise ParameterError(_LONE_MEMBER)  # one member unset, the other given
        fields = vars(self)
        if not overrides.keys() <= fields.keys():
            raise TypeError("Baseline.params() got an unexpected keyword "
                            f"argument {min(overrides.keys() - fields.keys())!r}")
        eff = SimpleNamespace(**{**fields, **overrides})
        if "theta" in overrides or eff.g is None or eff.omega_c is None:
            if eff.theta is None:  # the overrides unset the pair
                raise ParameterError(_NO_GEOMETRY)
            g, omega_c = solve_g_omega_c_from_theta(
                eff.theta, eff.omega_a, eff.omega_b)
        else:
            g, omega_c = eff.g, eff.omega_c
        omega_0 = eff.omega_0
        if omega_0 is None:
            omega_0 = 0.5 * (eff.omega_a + omega_c)
        return SystemParams(
            omega_a=eff.omega_a, omega_c=omega_c, omega_b=eff.omega_b,
            g=g, kappa_a=eff.kappa_a, kappa_c=eff.kappa_c,
            kappa_b=eff.kappa_b, temperature=eff.temperature, omega_0=omega_0,
            drive_strength=0.0 if eff.drive_strength is None else eff.drive_strength,
        )

    def evaluate(self, **overrides) -> PipelineResult:
        """Evaluate one point.  Each override is one value, evaluated as
        the Python float it holds (see :func:`_columns`); a column raises
        :class:`ParameterError` (:meth:`evaluate_all` takes stacks)."""
        overrides, columns = _columns(overrides)
        if columns:
            raise ParameterError(
                f"evaluate() takes one point, but override {columns[0]!r} is a "
                "column; evaluate_all() evaluates a stack")
        return run_pipeline(self.params(**overrides),
                            overrides.get("target_g_minus", self.target_g_minus))

    def evaluate_all(self, overrides) -> PipelineColumns:
        """Evaluate a stack of points given as override columns.

        ``overrides`` maps fields to columns (1-d arrays, lists or tuples
        of one length, one entry per point) or to a value every point shares;
        with no column it is one point, and with empty columns none.
        Returns one :class:`PipelineColumns` for the whole stack.  Its
        columns are the same bits in any stack; they agree with
        :meth:`evaluate` of each point to rounding, because the model
        layer runs on numpy for columns and on :mod:`math` for the floats
        of one point.  A stack that raises is re-evaluated point by
        point, so the error is the one :meth:`evaluate` raises at its
        first failing point; that replay may walk the whole stack, but
        runs only on the error path, and emits no warning of its own.
        """
        overrides, columns = _columns(overrides)
        with np.errstate(all="ignore"):
            try:
                return run_pipelines(self.params(**overrides),
                                     overrides.get("target_g_minus", self.target_g_minus))
            except EntangleError:
                # raises at the first failing point; the stack gave the warnings
                with warnings.catch_warnings(action="ignore"):
                    for i in range(len(overrides[columns[0]]) if columns else 1):
                        self.evaluate(**{name: value[i] if name in columns else value
                                         for name, value in overrides.items()})
                raise


def _drive_target(target, overrides):
    """Raise :class:`ParameterError` where the |G_-| target of ``overrides``
    over a baseline's ``target`` would drop an overriding ``drive_strength``."""
    target = overrides.get("target_g_minus", target)
    if target is not None and "drive_strength" in overrides:
        raise ParameterError(
            "give either target_g_minus or drive_strength "
            "(target_g_minus=None pins the drive)")


def _columns(overrides):
    """``overrides`` as the model layer takes them, and the names of their
    columns.  Python floats, and None where it unsets ``g``, ``omega_c``,
    ``omega_0`` or ``target_g_minus``, pass as they are.  Any other value goes
    through :func:`numpy.asarray`: a real number becomes the Python float it
    holds, a list, tuple or array of real numbers a float64 column, and
    anything else raises :class:`TypeError` naming the override.  Raises
    :class:`ParameterError`, naming each column's shape (or a ragged one),
    unless the columns are 1-d and of one length."""
    converted = {}
    for name, value in overrides.items():
        if type(value) is float or value is None and name in (
                "g", "omega_c", "omega_0", "target_g_minus"):
            continue
        try:
            array = np.asarray(value)
        except ValueError:  # a ragged nested list has no shape
            raise ParameterError("override columns must be 1-d and of one "
                                 f"length, got {name} of ragged shape") from None
        if array.dtype.kind not in "biuf":  # not bool, integer or float
            bad = [entry for entry in array.ravel().tolist()
                   if not isinstance(entry, numbers.Real)]
            if array.ndim and any(isinstance(entry, (str, bytes)) for entry in bad):
                raise TypeError(f"override {name!r} is a column with text; give numbers")
            if bad:
                raise TypeError(f"override {name!r} takes real numbers, got {bad[0]!r}")
        array = np.asarray(array, dtype=float)
        converted[name] = array if array.ndim else array.item()
    if not converted:  # floats and unsets alone, as one point's callers give
        return overrides, ()
    shapes = {name: value.shape for name, value in converted.items()
              if type(value) is not float}
    if len(set(shapes.values())) > 1 or any(len(s) > 1 for s in shapes.values()):
        raise ParameterError(
            "override columns must be 1-d and of one length, got "
            + ", ".join(f"{name} of shape {shape}" for name, shape in shapes.items()))
    return {**overrides, **converted}, tuple(shapes)


#: what a baseline or an evaluation that holds no geometry lacks
_NO_GEOMETRY = "give theta or the pair (g, omega_c)"

#: what one member of the pair (g, omega_c) given alone lacks
_LONE_MEMBER = "give both g and omega_c, or neither"


def check_geometry(given):
    """Raise :class:`ParameterError` unless the names ``given`` hold both
    of ``g`` and ``omega_c`` or neither, and not beside ``theta``."""
    pair = ("g" in given) + ("omega_c" in given)
    if pair == 1:
        raise ParameterError(_LONE_MEMBER)
    if pair and "theta" in given:
        raise ParameterError("give either theta or the pair (g, omega_c)")


def settle_partners(quoted):
    """The given quoted ``[params]`` values (by :data:`PARAMS` key), with
    the either-or partner each one replaces cleared to None: theta beside
    ``(g, omega_c)``, g_minus beside drive_strength."""
    check_geometry(quoted)
    if "drive_strength" in quoted and "g_minus" in quoted:
        raise ParameterError("give either g_minus or drive_strength")
    for given, partner in (("g", "theta"), ("drive_strength", "g_minus")):
        if given in quoted:
            quoted = {**quoted, partner: None}
    return quoted


def quoted_baseline(quoted) -> Baseline:
    """The baseline of quoted values, keyed by :data:`PARAMS` column."""
    return Baseline(**{param.field: param.angular(quoted[param.column])
                       for param in PARAMS.values()})


def default_baseline(**overrides) -> Baseline:
    """The experimentally feasible cavity-magnomechanics parameter set.

    Overrides are :class:`Baseline` fields in angular units, copied in by
    :func:`dataclasses.replace` under the baseline's rules; a given ``g``
    or ``omega_c`` clears the default ``theta``.
    """
    if any(overrides.get(name) is not None for name in ("g", "omega_c")):
        overrides = {"theta": None, **overrides}
    return replace(quoted_baseline({param.column: param.default
                                    for param in PARAMS.values()}), **overrides)


class SweepResult(NamedTuple):
    """The columns of one sweep plus a machine-readable summary.

    ``columns`` maps each output name to a 1-d array with one entry per
    grid point, in emission order and reporting units (see the module
    docstring): the axis columns (``axis_names``), then ``e_n_pp``,
    ``e_n_mb``, ``e_n_pb``, ``stable`` (bool), ``max_re_eig``,
    ``abs_g_plus``, ``abs_g_minus``, ``theta``, ``delta_plus`` and
    ``delta_minus``.  The negativities are NaN where ``stable`` is false.
    """

    kind: str
    axis_names: tuple[str, ...]
    columns: dict[str, np.ndarray]
    summary: dict


def _sweep_columns(names, axes, result: PipelineColumns) -> dict[str, np.ndarray]:
    """The :attr:`SweepResult.columns` of the grid columns ``axes`` (one
    per name of ``names``) from the stacked result that evaluated them
    (:meth:`Baseline.evaluate_all`)."""
    couplings, basis = result.couplings, result.basis
    return {
        **dict(zip(names, axes)),
        "e_n_pp": result.e_n_pp,
        "e_n_mb": result.e_n_mb,
        "e_n_pb": result.e_n_pb,
        "stable": result.stable,
        "max_re_eig": result.max_re_eig,
        "abs_g_plus": np.abs(couplings.g_plus) / TWO_PI,
        "abs_g_minus": np.abs(couplings.g_minus) / TWO_PI,
        "theta": basis.theta,
        "delta_plus": basis.delta_plus / TWO_PI,
        "delta_minus": basis.delta_minus / TWO_PI,
    }


# -- sweep registry ---------------------------------------------------------

class SweepKind(NamedTuple):
    """One sweep kind: its axes, default grid and hooks.

    ``defaults`` holds one default axis per axis line (None where the
    axis must be given).  ``point_map(base, axes)`` returns the function
    from grid points (a tuple of axis values: floats for one point, or
    columns for many) to overrides of :meth:`Baseline.evaluate` or
    :meth:`Baseline.evaluate_all`; without it each axis value, converted
    by :meth:`Quantity.angular`, overrides its line's field.
    ``summary(base, axes, columns)`` returns extra summary entries, from
    the :attr:`SweepResult.columns` of the grid.
    """

    axes: tuple[Quantity, ...] = ()
    defaults: tuple[SweepAxis | None, ...] = ()
    point_map: Callable | None = None
    summary: Callable | None = None

    def overrides(self, base: Baseline, axes):
        """The map from a grid point of ``axes`` to evaluate overrides."""
        if self.point_map is not None:
            return self.point_map(base, axes)
        return lambda point: {line.field: line.angular(v)
                              for line, v in zip(self.axes, point)}


def _detuning_map(base, axes):
    """|Delta|/2pi -> overrides for the symmetric polariton-drive detuning.

    ``g`` is frozen at the baseline-geometry solution while ``omega_c``
    varies on the baseline's side of ``omega_a``; the drive follows
    ``omega_0 = (omega_a + omega_c) / 2`` so the detunings stay
    symmetric.  |Delta| cannot go below g/2pi (half the minimum
    splitting).
    """
    if base.g is not None and base.omega_c is not None:
        g_fixed = base.g
        theta_ref = 0.5 * math.atan2(2.0 * g_fixed,
                                     base.omega_a - base.omega_c)
    else:
        g_fixed, _ = solve_g_omega_c_from_theta(base.theta, base.omega_a,
                                                base.omega_b)
        # not hybridize's theta: it reads >= pi/4 where omega_c rounds to omega_a
        theta_ref = base.theta
    if TWO_PI * axes[0].start < g_fixed:
        raise ParameterError(
            f"detuning axis starts below the splitting floor g/2pi = "
            f"{g_fixed / TWO_PI:.6g} Hz")
    side = -1.0 if theta_ref >= 0.25 * math.pi else 1.0

    def overrides(point):
        delta = TWO_PI * point[0]
        gap = np.sqrt(np.maximum(delta * delta - g_fixed * g_fixed, 0.0))
        return {"g": g_fixed, "omega_c": base.omega_a - side * 2.0 * gap,
                "omega_0": None}
    return overrides


def _first_unstable(base, axes, columns):
    g_minus, stable = columns[PARAMS["g_minus"].column], columns["stable"]
    return {"first_unstable_g_minus_hz":
            None if stable.all() else g_minus[~stable].min().item()}


def _entangled_area(base, axes, columns):
    e_n_pp = columns["e_n_pp"]  # NaN: unstable
    return {"entangled_area_fraction":
            int(np.count_nonzero(e_n_pp > EN_THRESHOLD)) / len(e_n_pp)}


def _thresholds(base, axes, columns):
    """Robustness thresholds, each from a dedicated line.

    ``t_crit_mk`` is the smallest temperature with E_N below
    :data:`EN_THRESHOLD` at kappa_b/2pi = 100 Hz, ``kappa_b_crit_hz``
    the smallest kappa_b below it at T = 10 mK; an unstable point counts
    as below, and a line that never crosses gives None.  Both lines are
    one stack of full columns, like the grid's.
    """
    temps, kappa_bs = (axis.values() for axis in axes)
    temperature, kappa_b = SWEEPS["temp_kappa_b"].axes
    e_n_pp = base.evaluate_all({
        temperature.field: temperature.angular(
            np.concatenate([temps, np.full_like(kappa_bs, 10.0)])),
        kappa_b.field: kappa_b.angular(
            np.concatenate([np.full_like(temps, 100.0), kappa_bs])),
    }).e_n_pp
    below = ~(e_n_pp >= EN_THRESHOLD)  # NaN: unstable
    return {key: float(values[hit.argmax()]) if hit.any() else None
            for key, values, hit in (("t_crit_mk", temps, below[:len(temps)]),
                                     ("kappa_b_crit_hz", kappa_bs, below[len(temps):]))}


#: every sweep kind, in listing order
SWEEPS = {
    "point": SweepKind(),
    # theta re-derives (g, omega_c) so the splitting stays at 2 omega_b
    # and delta_plus = -delta_minus = omega_b across the whole sweep
    "theta": SweepKind((PARAMS["theta"],), (SweepAxis(0.26, 0.49, 200),)),
    "detuning": SweepKind((Quantity("delta_abs_hz", None, "Hz", "finite"),),
                          (SweepAxis(6e6, 14e6, 33),), point_map=_detuning_map),
    "g_minus": SweepKind((PARAMS["g_minus"],),
                         (SweepAxis(0.0, 6e6, 200),), summary=_first_unstable),
    "kappa_grid": SweepKind((PARAMS["kappa_a"], PARAMS["kappa_c"]),
                            (SweepAxis(1e5, 1e7, 60, "log"),) * 2,
                            summary=_entangled_area),
    "temp_kappa_b": SweepKind(
        (PARAMS["temperature"], PARAMS["kappa_b"]),
        (SweepAxis(1.0, 500.0, 60), SweepAxis(1e2, 1e6, 60, "log")),
        summary=_thresholds),
    # one explicit axis over the baseline field named by SweepSpec.param
    "generic": SweepKind(),
}


@dataclass(frozen=True)
class SweepSpec:
    """Which sweep to run and on what grid (None axes take defaults)."""

    kind: str = "theta"
    axis: SweepAxis | None = None
    axis2: SweepAxis | None = None
    param: str | None = None

    def __post_init__(self):
        if self.kind not in SWEEPS:
            raise ParameterError(
                f"unknown sweep kind {self.kind!r}; choose from {tuple(SWEEPS)}")
        if self.kind != "generic":
            if self.param is not None:
                raise ParameterError("'param' is only valid for generic sweeps")
        elif self.param is None:
            raise ParameterError("generic sweeps need a param name")
        elif self.param not in GENERIC_PARAMS:
            raise ParameterError(
                f"cannot sweep {self.param!r}; choose from {sorted(GENERIC_PARAMS)}")
        given = (("axis", self.axis), ("axis2", self.axis2))
        for name, axis in given:
            if axis is not None and not isinstance(axis, SweepAxis):
                raise ParameterError(f"{name!r} must be a SweepAxis or None, got {axis!r}")
        for name, axis in given[len(self.sweep_kind().axes):]:
            if axis is not None:
                raise ParameterError(
                    f"{name!r} does not apply to a {self.kind!r} sweep")

    def sweep_kind(self) -> SweepKind:
        """The registry entry; a generic sweep gets its axis from ``param``."""
        if self.kind != "generic":
            return SWEEPS[self.kind]
        param = self.param
        return SweepKind((GENERIC_PARAMS[param],), (None,),
                         summary=lambda *_: {"param": param})

    def resolved_axes(self) -> tuple[SweepAxis, ...]:
        """One axis per axis line: the given one, else the kind's default."""
        defaults = self.sweep_kind().defaults
        axes = tuple(given or default for given, default
                     in zip((self.axis, self.axis2), defaults))
        if None in axes:
            raise ParameterError(f"{self.kind} sweeps need an explicit axis")
        return axes


def grid(axes):
    """The axis columns of the grid of ``axes``, one per axis, in emission
    order (last axis fastest)."""
    return tuple(column.ravel() for column in
                 np.meshgrid(*(axis.values() for axis in axes), indexing="ij"))


def run_sweep(base: Baseline, spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point of ``spec`` in order, then summarize it."""
    kind = spec.sweep_kind()
    axes = spec.resolved_axes()
    names = tuple(line.column for line in kind.axes)
    points = grid(axes)
    with np.errstate(all="ignore"):  # the point map and the summary too
        columns = _sweep_columns(
            names, points, base.evaluate_all(kind.overrides(base, axes)(points)))
        summary = {}
        if names:  # the first stable row with the largest E_N(+,-); None: none stable
            stable = columns["stable"]
            best = np.where(stable, columns["e_n_pp"], -np.inf).argmax()
            summary["argmax"] = ({name: columns[name][best].item()
                                  for name in (*names, "e_n_pp")} if stable[best] else None)
        if kind.summary is not None:
            summary.update(kind.summary(base, axes, columns))
    return SweepResult(spec.kind, names, columns, summary)
