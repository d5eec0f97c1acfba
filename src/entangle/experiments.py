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
stacked pipeline, and builds the records from its one result.
Instability is recorded as data (not an error).  Records are the same
bits whatever the kernels' slice size or the evaluation order, and
agree with :meth:`Baseline.evaluate` of their point, which runs the
model layer on Python floats, to rounding.

Axis values and record diagnostics use reporting units: ordinary
frequency (Hz) for rates, couplings and detunings, millikelvin for
temperature, and multiples of pi for the mixing angle.  The baseline
parameter set itself is angular (rad/s), matching the model layer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import product
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import PipelineColumns, PipelineResult, run_pipeline, run_pipelines
from .errors import EntangleError, ParameterError
from .model import TWO_PI, SystemParams, solve_g_omega_c_from_theta

#: records with E_N below this (or unstable) count as disentangled when
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
               "a frequency (Hz/kHz/MHz/GHz), got suffix", " Hz",
               lambda v: v * TWO_PI),
    "Hz^2": Unit({"": _times(1.0)}, "a bare number, got suffix", "",
                 lambda v: v * TWO_PI * TWO_PI),
    "mK": Unit({"": _times(1.0), "mK": _times(1.0), "K": _times(1e3)},
               "a temperature (mK or K), got", " mK", lambda v: v * 1e-3),
    "pi": Unit({"pi": lambda v: v, "": lambda v: v / math.pi},  # bare: radians
               "an angle ('x pi' or radians), got", " pi", lambda v: v * math.pi),
}

#: domain -> test of a finite quoted value
_DOMAINS = {
    "finite": lambda v: True,
    "positive": lambda v: v > 0.0,
    "non-negative": lambda v: v >= 0.0,
    "inside (0, pi/2)": lambda v: 0.0 < v < 0.5,
}

#: a config value: a number, then a unit suffix
_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]*)$")


class Quantity(NamedTuple):
    """A quantity in quoted units: a ``[params]`` key or a sweep axis.

    ``column`` names it in the config's quoted parameter record and in
    CSV headers; ``field`` is its :class:`Baseline` field (None where a
    point map resolves the axis).  ``unit`` is a key of :data:`UNITS`.
    ``domain`` names the finite values it admits (see :data:`_DOMAINS`):
    ``positive``, ``non-negative``, ``finite`` or ``inside (0, pi/2)``.
    ``default`` is the quoted default; ``sweepable`` marks the keys a
    generic sweep can vary.  ``unset`` stands in for the quoted value
    while an either-or partner is given instead (theta beside an
    explicit ``(g, omega_c)``, drive_strength beside g_minus).
    """

    column: str
    field: str | None
    unit: str
    domain: str
    default: float | None = None
    sweepable: bool = False
    unset: float | None = None

    def angular(self, quoted):
        """The :class:`Baseline` field value of a quoted value."""
        if quoted is None:
            quoted = self.unset
        return None if quoted is None else UNITS[self.unit].angular(quoted)

    def parse(self, raw):
        """The quoted value of config text ``raw``: a number and one of the
        unit's suffixes, finite in angular units and inside the domain.
        Raises :class:`ParameterError` naming the rule ``raw`` breaks."""
        m = _VALUE_RE.match(raw)
        if m is None:
            raise ParameterError(f"malformed number {raw!r}")
        unit, suffix = UNITS[self.unit], m.group(2)
        if suffix not in unit.suffixes:
            raise ParameterError(f"expected {unit.expected} {suffix!r}")
        value = unit.suffixes[suffix](float(m.group(1)))
        # a finite quoted value can still overflow in angular units
        if not math.isfinite(unit.angular(value)):
            raise ParameterError(f"value must be finite, got {raw!r}")
        if not _DOMAINS[self.domain](value):
            raise ParameterError(f"value must be {self.domain}, got {raw!r}")
        return value


#: every ``[params]`` key, in the order the config echo lists them
PARAMS = {
    "omega_a": Quantity("omega_a_hz", "omega_a", "Hz", "positive", 10e9,
                        sweepable=True),
    "omega_b": Quantity("omega_b_hz", "omega_b", "Hz", "positive", 10e6,
                        sweepable=True),
    "theta": Quantity("theta_pi", "theta", "pi", "inside (0, pi/2)", 0.40,
                      sweepable=True, unset=0.25),
    "g": Quantity("g_hz", "g", "Hz", "non-negative"),
    "omega_c": Quantity("omega_c_hz", "omega_c", "Hz", "positive"),
    # None: the drive sits at the midpoint (omega_a + omega_c) / 2
    "omega_0": Quantity("omega_0_hz", "omega_0", "Hz", "positive"),
    "kappa_a": Quantity("kappa_a_hz", "kappa_a", "Hz", "positive", 1e6,
                        sweepable=True),
    "kappa_c": Quantity("kappa_c_hz", "kappa_c", "Hz", "positive", 1e6,
                        sweepable=True),
    "kappa_b": Quantity("kappa_b_hz", "kappa_b", "Hz", "positive", 100.0,
                        sweepable=True),
    "temperature": Quantity("temperature_mk", "temperature", "mK",
                            "non-negative", 10.0, sweepable=True),
    "g_minus": Quantity("g_minus_hz", "target_g_minus", "Hz", "non-negative",
                        2e6, sweepable=True),
    # the product G0 * Omega
    "drive_strength": Quantity("drive_strength_hz2", "drive_strength", "Hz^2",
                               "non-negative", unset=0.0),
    # sets only the scale of the diagnostic Re<b>
    "g0": Quantity("g0_hz", "g0", "Hz", "positive", 1e-3),
}

#: the parameters a generic sweep can vary
GENERIC_PARAMS = {key: param for key, param in PARAMS.items() if param.sweepable}


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
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def axis_fault(start, stop, count, scale):
    """``(field, message)`` of the first invalid :class:`SweepAxis` field,
    or None: the config layer reports the line of that field."""
    if count < 2:
        return "count", f"axis needs at least 2 points, got {count}"
    for name, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            return name, f"axis {name} must be finite, got {value!r}"
    if not start < stop:
        return "stop", f"axis start must be below stop, got [{start}, {stop}]"
    if scale not in ("linear", "log"):
        return "scale", f"axis scale must be linear or log, got {scale!r}"
    if scale == "log" and start <= 0.0:
        return "start", "log-scaled axis requires positive endpoints"
    return None


@dataclass(frozen=True)
class Baseline:
    """Base parameter set shared by all grid points (angular units).

    Geometry comes either from an explicit ``(g, omega_c)`` pair or from
    ``theta`` via the fixed-splitting inverse (splitting = 2 omega_b).
    The drive is pinned per point to hit ``target_g_minus`` unless that
    is None, in which case ``drive_strength`` is used directly.
    """

    omega_a: float
    omega_b: float
    kappa_a: float
    kappa_c: float
    kappa_b: float
    temperature: float
    theta: float
    g: float | None
    omega_c: float | None
    omega_0: float | None
    target_g_minus: float | None
    drive_strength: float
    g0: float

    def params(self, **overrides) -> SystemParams:
        """Resolve to concrete :class:`SystemParams`.

        An overriding ``theta`` re-derives the geometry even when the
        baseline pins ``(g, omega_c)`` explicitly.  Like the config,
        overrides follow :func:`check_geometry`, so none is dropped, and
        one that is not a field raises :class:`TypeError`.  Overrides may
        be floats or columns (see :meth:`evaluate_all`); the result then
        holds parameter columns.
        """
        check_geometry(overrides)
        fields = vars(self)
        unknown = overrides.keys() - fields.keys()
        if unknown:
            raise TypeError("Baseline.params() got an unexpected keyword "
                            f"argument {min(unknown)!r}")
        eff = SimpleNamespace(**{**fields, **overrides})
        if "theta" in overrides or eff.g is None or eff.omega_c is None:
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
            kappa_b=eff.kappa_b, temperature=eff.temperature,
            omega_0=omega_0, drive_strength=eff.drive_strength, g0=eff.g0,
        )

    def evaluate(self, **overrides) -> PipelineResult:
        return run_pipeline(*self._point(overrides))

    def evaluate_all(self, overrides) -> PipelineColumns:
        """Evaluate a stack of points given as override columns.

        ``overrides`` maps fields to columns (1-d array-likes of one
        length, one entry per point) or to a value every point shares;
        with no column it is one point, and with empty columns none.
        Returns one :class:`PipelineColumns` for the whole stack.  Its
        columns are the same bits in any stack; they agree with
        :meth:`evaluate` of each point to rounding, because the model
        layer runs on numpy for columns and on :mod:`math` for the floats
        of one point.  A stack that raises is re-evaluated point by
        point, so the error is the one :meth:`evaluate` raises at its
        first failing point; that replay may walk the whole stack, but
        runs only on the error path.
        """
        columns = {name: np.asarray(value, dtype=float) if np.ndim(value) else value
                   for name, value in overrides.items()}
        shapes = {name: value.shape for name, value in columns.items() if np.ndim(value)}
        if len(set(shapes.values())) > 1 or any(len(s) > 1 for s in shapes.values()):
            raise ParameterError(
                "override columns must be 1-d and of one length, got "
                + ", ".join(f"{name} of shape {shape}" for name, shape in shapes.items()))
        (size,) = next(iter(shapes.values()), (1,))
        try:
            return run_pipelines(*self._point(columns))
        except EntangleError:
            for i in range(size):  # raises at the first failing point
                self.evaluate(**{name: value[i].item() if np.ndim(value) else value
                                 for name, value in columns.items()})
            raise

    def _point(self, overrides):
        """``(SystemParams, target_g_minus)`` of one override set (floats or
        columns); a target would drop an overriding ``drive_strength``."""
        target = overrides.get("target_g_minus", self.target_g_minus)
        if target is not None and "drive_strength" in overrides:
            raise ParameterError(
                "give either target_g_minus or drive_strength "
                "(target_g_minus=None pins the drive)")
        return self.params(**overrides), target


def check_geometry(given):
    """Raise :class:`ParameterError` unless the names ``given`` hold both
    of ``g`` and ``omega_c`` or neither, and not beside ``theta``."""
    pair = ("g" in given) + ("omega_c" in given)
    if pair == 1:
        raise ParameterError("give both g and omega_c, or neither")
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

    Overrides are :class:`Baseline` fields in angular units.
    """
    base = quoted_baseline({param.column: param.default
                            for param in PARAMS.values()})
    return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class SweepRecord:
    """One emitted grid point, in reporting units (see module docstring).

    ``max_re_eig`` stays in rad/s as the raw stability diagnostic; the
    negativities are None when the point is unstable.
    """

    axis: tuple[float, ...]
    e_n_pp: float | None
    e_n_mb: float | None
    e_n_pb: float | None
    stable: bool
    max_re_eig: float
    abs_g_plus: float
    abs_g_minus: float
    theta: float
    delta_plus: float
    delta_minus: float

    @classmethod
    def from_columns(cls, points, result: PipelineColumns) -> list[SweepRecord]:
        """The records of ``points`` (axis tuples, in order) from the
        stacked result that evaluated them (:meth:`Baseline.evaluate_all`)."""
        column = result.column
        stable = result.stable.tolist()
        e_n = [[v if ok else None for v, ok in zip(values.tolist(), stable)]
               for values in (result.e_n_pp, result.e_n_mb, result.e_n_pb)]
        return [cls(*fields) for fields in zip(
            points,
            *e_n,
            stable,
            result.max_re_eig.tolist(),
            (np.abs(column(result.couplings.g_plus)) / TWO_PI).tolist(),
            (np.abs(column(result.couplings.g_minus)) / TWO_PI).tolist(),
            column(result.basis.theta).tolist(),
            (column(result.basis.delta_plus) / TWO_PI).tolist(),
            (column(result.basis.delta_minus) / TWO_PI).tolist(),
        )]


@dataclass(frozen=True)
class SweepResult:
    """Ordered records of one sweep plus a machine-readable summary."""

    kind: str
    axis_names: tuple[str, ...]
    records: tuple[SweepRecord, ...]
    summary: dict

    def argmax(self):
        """Record with the largest polariton-polariton E_N, or None."""
        best = None
        for rec in self.records:
            if rec.e_n_pp is not None and (best is None or rec.e_n_pp > best.e_n_pp):
                best = rec
        return best


# -- sweep registry ---------------------------------------------------------

@dataclass(frozen=True)
class SweepKind:
    """One sweep kind: its axes, default grid and hooks.

    ``defaults`` holds one default axis per axis line (None where the
    axis must be given).  ``point_map(base, axes)`` returns the function
    from grid points (a tuple of axis values: floats for one point, or
    columns for many) to overrides of :meth:`Baseline.evaluate` or
    :meth:`Baseline.evaluate_all`; without it each axis value, converted
    by :meth:`Quantity.angular`, overrides its line's field.
    ``summary(base, axes, records)`` returns extra summary entries.
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


def _first_unstable(base, axes, records):
    unstable = [rec.axis[0] for rec in records if not rec.stable]
    return {"first_unstable_g_minus_hz": min(unstable) if unstable else None}


def _entangled_area(base, axes, records):
    entangled = sum(1 for r in records
                    if r.e_n_pp is not None and r.e_n_pp > EN_THRESHOLD)
    return {"entangled_area_fraction": entangled / len(records)}


def _thresholds(base, axes, records):
    """Robustness thresholds, each from a dedicated line.

    ``t_crit_mk`` is the smallest temperature with E_N below
    :data:`EN_THRESHOLD` at kappa_b/2pi = 100 Hz, ``kappa_b_crit_hz``
    the smallest kappa_b below it at T = 10 mK; None when the axis never
    crosses.
    """
    return {"t_crit_mk": _first_below(base, axes, records, 0, 100.0),
            "kappa_b_crit_hz": _first_below(base, axes, records, 1, 10.0)}


def _first_below(base, axes, records, along, fixed):
    """Smallest value of axis ``along`` whose point on the line through
    the quoted value ``fixed`` of the other axis is unstable or has E_N
    below :data:`EN_THRESHOLD`; None if there is none.

    Where the other axis holds ``fixed`` exactly, the line is read from
    the grid records: the grid evaluated the same columns, so the values
    are the same bits.  Otherwise the line is evaluated as full columns,
    like the grid's.
    """
    lines = SWEEPS["temp_kappa_b"].axes
    other = 1 - along
    values = axes[along].values()
    if fixed in axes[other].values():
        e_n_pp = np.array([np.nan if rec.e_n_pp is None else rec.e_n_pp
                           for rec in records if rec.axis[other] == fixed])
    else:
        overrides = {lines[along].field: lines[along].angular(values),
                     lines[other].field: lines[other].angular(np.full_like(values, fixed))}
        e_n_pp = base.evaluate_all(overrides).e_n_pp
    below = ~(e_n_pp >= EN_THRESHOLD)  # NaN: unstable
    return float(values[below.argmax()]) if below.any() else None


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
        n_axes = len(self.sweep_kind().axes)
        for name, axis in (("axis", self.axis), ("axis2", self.axis2))[n_axes:]:
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
    """Grid points of ``axes`` in emission order (last axis fastest)."""
    return list(product(*(axis.values().tolist() for axis in axes)))


def run_sweep(base: Baseline, spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point of ``spec`` in order, then summarize it."""
    kind = spec.sweep_kind()
    axes = spec.resolved_axes()
    points = grid(axes)
    columns = tuple(np.array(column) for column in zip(*points))
    records = tuple(SweepRecord.from_columns(
        points, base.evaluate_all(kind.overrides(base, axes)(columns))))
    names = tuple(line.column for line in kind.axes)
    result = SweepResult(spec.kind, names, records, {})
    if names:
        best = result.argmax()
        result.summary["argmax"] = None if best is None else {
            **dict(zip(names, best.axis)), "e_n_pp": best.e_n_pp}
    if kind.summary is not None:
        result.summary.update(kind.summary(base, axes, records))
    return result
