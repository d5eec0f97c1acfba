"""Named, reproducible parameter sweeps over the entanglement pipeline.

Every sweep kind is one :class:`SweepKind` entry of :data:`SWEEPS`: its
axes (CSV column, :class:`Baseline` field, reporting unit), its default
grid, an optional point map and an optional summary hook.
:func:`run_sweep` evaluates the grid through
:meth:`Baseline.evaluate_all`, which stacks :data:`CHUNK_SIZE` points
per call of the stacked pipeline; instability is recorded as data (not
an error), and every record equals :meth:`Baseline.evaluate` of its
point bit for bit, whatever the chunk size or evaluation order.

Axis values and record diagnostics use reporting units: ordinary
frequency (Hz) for rates, couplings and detunings, millikelvin for
temperature, and multiples of pi for the mixing angle.  The baseline
parameter set itself is angular (rad/s), matching the model layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice, product
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .dynamics import PipelineResult, run_pipeline, run_pipelines
from .errors import ParameterError
from .model import (
    DEFAULT_G0,
    TWO_PI,
    SystemParams,
    solve_g_omega_c_from_theta,
)

#: records with E_N below this (or unstable) count as disentangled when
#: extracting robustness thresholds; absorbs the separability clamp
EN_THRESHOLD = 1e-4

#: grid points per stacked pipeline call.  It changes no record; it
#: bounds the stacked arrays (256 took about 1 MB more peak memory on
#: the 200-point theta sweep than 64, for no measurable speed)
CHUNK_SIZE = 64


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis in reporting units."""

    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ParameterError(f"axis needs at least 2 points, got {self.count}")
        if not self.start < self.stop:
            raise ParameterError(
                f"axis start must be below stop, got [{self.start}, {self.stop}]")
        if self.scale not in ("linear", "log"):
            raise ParameterError(f"axis scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ParameterError("log-scaled axis requires positive endpoints")

    def values(self):
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


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
    theta: float = 0.40 * math.pi
    g: float | None = None
    omega_c: float | None = None
    omega_0: float | None = None
    target_g_minus: float | None = TWO_PI * 2e6
    drive_strength: float = 0.0
    g0: float = DEFAULT_G0

    def params(self, **overrides) -> SystemParams:
        """Resolve to concrete :class:`SystemParams`.

        An overriding ``theta`` re-derives the geometry even when the
        baseline pins ``(g, omega_c)`` explicitly.
        """
        eff = replace(self, **{k: v for k, v in overrides.items()
                               if k != "target_g_minus"})
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

    def evaluate_all(self, overrides_seq) -> Iterator[PipelineResult]:
        """Evaluate many override sets, in order, through the stacked pipeline.

        Yields one result per override set; points are resolved and
        evaluated :data:`CHUNK_SIZE` at a time, as the results are
        consumed.  Each result equals :meth:`evaluate` of its overrides
        bit for bit.
        """
        pending = iter(overrides_seq)
        while chunk := [self._point(overrides)
                        for overrides in islice(pending, CHUNK_SIZE)]:
            yield from run_pipelines(chunk)

    def _point(self, overrides):
        """``(SystemParams, target_g_minus)`` of one override set."""
        return (self.params(**overrides),
                overrides.get("target_g_minus", self.target_g_minus))


def default_baseline(**overrides) -> Baseline:
    """The experimentally feasible cavity-magnomechanics parameter set."""
    base = Baseline(
        omega_a=TWO_PI * 10e9,
        omega_b=TWO_PI * 10e6,
        kappa_a=TWO_PI * 1e6,
        kappa_c=TWO_PI * 1e6,
        kappa_b=TWO_PI * 100.0,
        temperature=0.010,
    )
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
    def from_result(cls, axis, result: PipelineResult) -> SweepRecord:
        return cls(
            axis=tuple(float(a) for a in axis),
            e_n_pp=result.e_n_pp,
            e_n_mb=result.e_n_mb,
            e_n_pb=result.e_n_pb,
            stable=result.stable,
            max_re_eig=result.max_re_eig,
            abs_g_plus=abs(result.couplings.g_plus) / TWO_PI,
            abs_g_minus=abs(result.couplings.g_minus) / TWO_PI,
            theta=result.basis.theta,
            delta_plus=result.basis.delta_plus / TWO_PI,
            delta_minus=result.basis.delta_minus / TWO_PI,
        )


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

#: reporting unit -> factor to the baseline's angular/SI unit
UNIT_FACTORS = {"pi": math.pi, "Hz": TWO_PI, "mK": 1e-3}


class AxisLine(NamedTuple):
    """What one sweep axis varies: CSV column, baseline field, unit.

    The column of a swept parameter is also its field name in the
    config's parameter block.
    """

    column: str
    field: str | None
    unit: str


#: generic sweepable parameters: config name -> axis line
GENERIC_PARAMS = {
    "theta": AxisLine("theta_pi", "theta", "pi"),
    "omega_a": AxisLine("omega_a_hz", "omega_a", "Hz"),
    "omega_b": AxisLine("omega_b_hz", "omega_b", "Hz"),
    "kappa_a": AxisLine("kappa_a_hz", "kappa_a", "Hz"),
    "kappa_c": AxisLine("kappa_c_hz", "kappa_c", "Hz"),
    "kappa_b": AxisLine("kappa_b_hz", "kappa_b", "Hz"),
    "temperature": AxisLine("temperature_mk", "temperature", "mK"),
    "g_minus": AxisLine("g_minus_hz", "target_g_minus", "Hz"),
}


@dataclass(frozen=True)
class SweepKind:
    """One sweep kind: its axes, default grid and hooks.

    ``defaults`` holds one default axis per axis line (None where the
    axis must be given).  ``point_map(base, axes)`` returns the function
    from one grid point (a tuple of axis values) to
    :meth:`Baseline.evaluate` overrides; without it each axis value
    times its unit factor overrides its line's field.
    ``summary(base, axes, records)`` returns extra summary entries.
    """

    axes: tuple[AxisLine, ...] = ()
    defaults: tuple[SweepAxis | None, ...] = ()
    point_map: Callable | None = None
    summary: Callable | None = None

    def overrides(self, base: Baseline, axes):
        """The map from a grid point of ``axes`` to evaluate overrides."""
        if self.point_map is not None:
            return self.point_map(base, axes)
        lines = self.axes
        return lambda point: {line.field: v * UNIT_FACTORS[line.unit]
                              for line, v in zip(lines, point)}


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
        gap = math.sqrt(max(delta * delta - g_fixed * g_fixed, 0.0))
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
    crosses.  A line is evaluated only up to the chunk holding its first
    crossing.
    """
    temps, kappa_bs = (axis.values() for axis in axes)
    t_line = base.evaluate_all({"temperature": t * 1e-3, "kappa_b": TWO_PI * 100.0}
                               for t in temps)
    kb_line = base.evaluate_all({"temperature": 0.010, "kappa_b": TWO_PI * kb}
                                for kb in kappa_bs)
    return {"t_crit_mk": _first_below(temps, t_line),
            "kappa_b_crit_hz": _first_below(kappa_bs, kb_line)}


def _first_below(axis_values, results, threshold=EN_THRESHOLD):
    """Smallest axis value whose point is unstable or has E_N < threshold."""
    for value, result in zip(axis_values, results):
        if result.e_n_pp is None or result.e_n_pp < threshold:
            return float(value)
    return None


#: every sweep kind, in listing order
SWEEPS = {
    "point": SweepKind(),
    # theta re-derives (g, omega_c) so the splitting stays at 2 omega_b
    # and delta_plus = -delta_minus = omega_b across the whole sweep
    "theta": SweepKind((GENERIC_PARAMS["theta"],), (SweepAxis(0.26, 0.49, 200),)),
    "detuning": SweepKind((AxisLine("delta_abs_hz", None, "Hz"),),
                          (SweepAxis(6e6, 14e6, 33),), point_map=_detuning_map),
    "g_minus": SweepKind((GENERIC_PARAMS["g_minus"],),
                         (SweepAxis(0.0, 6e6, 200),), summary=_first_unstable),
    "kappa_grid": SweepKind((GENERIC_PARAMS["kappa_a"], GENERIC_PARAMS["kappa_c"]),
                            (SweepAxis(1e5, 1e7, 60, "log"),) * 2,
                            summary=_entangled_area),
    "temp_kappa_b": SweepKind(
        (GENERIC_PARAMS["temperature"], GENERIC_PARAMS["kappa_b"]),
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
    return list(product(*(axis.values() for axis in axes)))


def run_sweep(base: Baseline, spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point of ``spec`` in order, then summarize it."""
    kind = spec.sweep_kind()
    axes = spec.resolved_axes()
    overrides = kind.overrides(base, axes)
    points = grid(axes)
    records = tuple(
        SweepRecord.from_result(point, result)
        for point, result in zip(points, base.evaluate_all(map(overrides, points))))
    names = tuple(line.column for line in kind.axes)
    result = SweepResult(spec.kind, names, records, {})
    if names:
        best = result.argmax()
        result.summary["argmax"] = None if best is None else {
            **dict(zip(names, best.axis)), "e_n_pp": best.e_n_pp}
    if kind.summary is not None:
        result.summary.update(kind.summary(base, axes, records))
    return result
