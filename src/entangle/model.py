"""Bare and hybridized (polariton) parameters of the three-mode model.

Two nearly resonant bosonic modes ``a`` and ``c`` (GHz scale in the
magnomechanical realization) are strongly coupled with beam-splitter
strength ``g`` and form two polariton modes with mixing angle ``theta``.
A third low-frequency mode ``b`` (MHz scale) couples dispersively to
``c``, so under a strong drive both polaritons acquire an enhanced
effective coupling to ``b``.  This module is the closed-form layer:
hybridization, thermal occupations, the approximate steady-state
amplitudes of the driven modes, and the effective coupling strengths
``G_pm = 2i G0 <A_pm>`` that feed the linearized fluctuation dynamics.
``<A_pm>`` is linear in the drive Omega, so the one drive knob is the
product ``drive_strength = G0 * Omega``.

Every formula is written once and takes either Python floats (one
point) or parameter columns: equal-length float64 arrays, one entry per
point of a stack, mixed freely with floats shared by every point.
Floats go through :mod:`math` and arrays through numpy, so a point
evaluated alone keeps the arithmetic of a scalar formula, while a stack
costs one numpy call per formula.  The branches (zero temperature, the
overflow guard, the bare-mode limits of the mixing angle) are selects,
and every input check names the first offending point in stack order.

All frequencies, rates and couplings are angular (rad/s); temperatures
are in kelvin.  Only the CLI layer speaks ordinary frequency (Hz) and
millikelvin.  Everything here is a pure function of its inputs; none
touches numpy's error state, which the evaluation entry points own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError

TWO_PI = 2.0 * math.pi

# Planck's and Boltzmann's constants are exact by definition since the
# 2019 SI redefinition (BIPM, The International System of Units, 9th ed.)
hbar = 6.62607015e-34 / TWO_PI
k_B = 1.380649e-23


#: the functions a formula calls on Python floats; ``log`` is numpy's, so
#: that a float and a column entry get the same bits
_FLOAT_MATH = SimpleNamespace(
    atan2=math.atan2, hypot=math.hypot, sin=math.sin, cos=math.cos, expm1=math.expm1,
    sqrt=math.sqrt, log=lambda x: float(np.log(x)), isfinite=math.isfinite,
    maximum=max, minimum=min, max=float, any=bool, all=bool, first=lambda value, flags: value,
    where=lambda condition, if_true, if_false: if_true if condition else if_false)

#: the same on parameter columns: ``any`` and ``all`` reduce every axis without
#: their Python wrappers, ``first(value, flags)`` is ``value`` at the first set
#: flag as a Python number
_COLUMN_MATH = SimpleNamespace(
    atan2=np.arctan2, hypot=np.hypot, sin=np.sin, cos=np.cos, expm1=np.expm1,
    sqrt=np.sqrt, log=np.log, isfinite=np.isfinite,
    maximum=np.maximum, minimum=np.minimum, max=np.max,
    any=partial(np.logical_or.reduce, axis=None), all=partial(np.logical_and.reduce, axis=None),
    first=lambda value, flags: np.broadcast_to(value, flags.shape)[flags.argmax()].item(),
    where=np.where)


def _math_for(*values):
    """:data:`_COLUMN_MATH` if any value is a column, else :data:`_FLOAT_MATH`."""
    for value in values:
        if isinstance(value, np.ndarray):
            return _COLUMN_MATH
    return _FLOAT_MATH


#: the one domain table of the model and the config: domain -> (lower bound,
#: whether it is admitted, upper bound, which never is) of angular values,
#: keyed by the domain words of ``experiments.Quantity``; none admits +-inf or NaN
_DOMAINS = {
    "finite": (-math.inf, False, math.inf),
    "positive": (0.0, False, math.inf),
    "non-negative": (0.0, True, math.inf),
    "inside (0, pi/2)": (0.0, False, 0.5 * math.pi),
}


def _require(name, value, domain, _quoted=None):
    """Raise :class:`ParameterError` unless ``value`` lies in ``domain``;
    for a column, the message names the first failing entry.  The message
    quotes ``value``, or the config text ``_quoted`` it was read from."""
    low, closed, high = _DOMAINS[domain]
    if isinstance(value, np.ndarray):  # one numpy pass
        failed = ~((value >= low if closed else value > low) & (value < high))
        if not _COLUMN_MATH.any(failed):
            return
        value = _COLUMN_MATH.first(value, failed)
    elif (low <= value < high) if closed else (low < value < high):
        return  # a valid float, on one comparison chain
    got = value if _quoted is None else _quoted
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {got!r}")
    raise ParameterError(f"{name} must be {domain}, got {got!r}")


@dataclass(frozen=True)
class SystemParams:
    """Bare physical parameters of the driven three-mode system.

    Each attribute is a float, or for a stack of points a column (a 1-d
    float64 array with one entry per point); floats and columns of one
    length mix freely.

    Attributes
    ----------
    omega_a, omega_c, omega_b : float
        Mode resonance frequencies (rad/s).  The intended regime is
        ``omega_b << omega_a, omega_c``; a warning is emitted outside it.
    g : float
        Beam-splitter coupling between ``a`` and ``c`` (rad/s).
    kappa_a, kappa_c, kappa_b : float
        Dissipation rates (rad/s).
    temperature : float
        Bath temperature (K), shared by all three modes.
    omega_0 : float
        Drive frequency (rad/s).
    drive_strength : float
        The product ``G0 * Omega`` (rad^2/s^2) of the bare dispersive and
        the mode-drive coupling, the one drive knob: no result depends on
        ``G0`` or ``Omega`` alone.
    """

    omega_a: float
    omega_c: float
    omega_b: float
    g: float
    kappa_a: float
    kappa_c: float
    kappa_b: float
    temperature: float
    omega_0: float
    drive_strength: float = 0.0

    def __post_init__(self):
        for name in ("omega_a", "omega_c", "omega_b", "omega_0",
                     "kappa_a", "kappa_c", "kappa_b"):
            _require(name, getattr(self, name), "positive")
        _require("g", self.g, "non-negative")
        _require("temperature", self.temperature, "non-negative")
        _require("drive_strength", self.drive_strength, "non-negative")
        if _math_for(self.omega_b, self.omega_a).any(self.omega_b > self.omega_a / 10.0):
            warnings.warn(
                "omega_b is not small compared with omega_a; the dispersive "
                "model assumes omega_b << omega_a, omega_c",
                stacklevel=3,  # past the generated __init__ to its caller
            )


class PolaritonBasis(NamedTuple):
    """Derived hybridization quantities of the polariton modes (floats,
    or columns where the :class:`SystemParams` hold columns), as an
    immutable named tuple.

    ``kappa_a`` and ``kappa_c`` are carried along so downstream code can
    evaluate the bare-rate form of the noise cross-correlation, which
    stays finite at ``theta = pi/4``.
    """

    theta: float
    omega_plus: float
    omega_minus: float
    delta_plus: float
    delta_minus: float
    kappa_plus: float
    kappa_minus: float
    delta_kappa: float
    kappa_a: float
    kappa_c: float
    n_a: float
    n_c: float
    n_b: float
    n_plus: float
    n_minus: float


class EffectiveCouplings(NamedTuple):
    """Drive-enhanced coupling strengths (complex rad/s, or columns for a
    stack of points), as an immutable named tuple.

    ``g_plus``/``g_minus`` are the enhanced dispersive couplings of the
    polaritons; ``g_pm`` their theta-weighted combination, the enhanced
    coupling of mode ``c``; and ``g_plus_b``/``g_minus_b`` the resulting
    polariton-b couplings that enter the drift matrix.
    """

    g_plus: complex
    g_minus: complex
    g_pm: complex
    g_plus_b: complex
    g_minus_b: complex


#: at or below this x = hbar omega / k_B T the occupation 1/expm1(x),
#: which is 1/x there, overflows (x is 0 once hbar omega underflows)
_X_MIN = 2.0 ** -1024


def thermal_occupation(omega, temperature):
    """Equilibrium Bose occupation of a mode at ``omega`` (rad/s).

    Exactly 0 at ``temperature = 0`` (and wherever ``k_B T``
    underflows to 0); evaluates 1/expm1(x) with an overflow guard for
    deeply quantum modes (x > 700).  A mode so far in the classical
    limit that the occupation overflows is a :class:`ParameterError`.
    """
    _require("omega", omega, "positive")
    _require("temperature", temperature, "non-negative")
    k_T = k_B * temperature
    cold = k_T == 0.0  # also below about 4e-301 K, where k_B T underflows
    m = _math_for(omega, temperature)
    # the select below discards what the stand-ins give: k_B T = 1 and
    # x = 700 for a cold mode, x = 700 beyond the guard
    x = m.where(cold, 700.0, hbar * omega / (k_T + cold))
    overflow = x <= _X_MIN
    if m.any(overflow):
        raise ParameterError(
            f"omega = {m.first(omega, overflow)!r} rad/s is too small at "
            f"temperature {m.first(temperature, overflow)!r} K: the thermal "
            "occupation k_B T / (hbar omega) overflows")
    return m.where(cold | (x > 700.0), 0.0, 1.0 / m.expm1(m.minimum(x, 700.0)))


def hybridize(params: SystemParams) -> PolaritonBasis:
    """Diagonalize the beam-splitter coupling into the polariton basis.

    The mixing angle is ``theta = arctan2(2g, omega_a - omega_c) / 2``,
    which places ``theta`` in [0, pi/2] for any detuning sign, with
    ``theta = pi/4`` at exact resonance.  Polariton frequencies,
    detunings from the drive, mixed dissipation rates, the dissipative
    polariton-polariton coupling ``delta_kappa``, and the bare and
    polariton thermal occupations are all populated.
    """
    d = params.omega_a - params.omega_c
    m = _math_for(d, params.g)
    theta = 0.5 * m.atan2(2.0 * params.g, d)
    splitting = m.hypot(d, 2.0 * params.g)
    omega_plus = 0.5 * (params.omega_a + params.omega_c + splitting)
    omega_minus = 0.5 * (params.omega_a + params.omega_c - splitting)

    s = m.sin(theta)
    c = m.cos(theta)
    s2 = s * s
    c2 = c * c

    n_a = thermal_occupation(params.omega_a, params.temperature)
    n_c = thermal_occupation(params.omega_c, params.temperature)
    n_b = thermal_occupation(params.omega_b, params.temperature)

    kappa_plus = params.kappa_a * c2 + params.kappa_c * s2
    kappa_minus = params.kappa_a * s2 + params.kappa_c * c2
    n_plus = 0.5 * ((params.kappa_a * c2 * (2.0 * n_a + 1.0)
                     + params.kappa_c * s2 * (2.0 * n_c + 1.0))
                    / kappa_plus - 1.0)
    n_minus = 0.5 * ((params.kappa_a * s2 * (2.0 * n_a + 1.0)
                      + params.kappa_c * c2 * (2.0 * n_c + 1.0))
                     / kappa_minus - 1.0)
    delta_kappa = (params.kappa_c - params.kappa_a) * s * c
    # At theta = 0 or pi/2 the polaritons coincide with the bare modes;
    # select the bare values so kappa_plus == kappa_a, n_plus == n_a and
    # delta_kappa == 0 hold bitwise.  The angle keys the selects, because
    # cos(pi/2)**2 is 3.7e-33 in doubles, not 0.
    a_is_plus, c_is_plus = theta == 0.0, theta == 0.5 * math.pi
    if m.any(a_is_plus | c_is_plus):
        kappa_plus = m.where(a_is_plus, params.kappa_a,
                             m.where(c_is_plus, params.kappa_c, kappa_plus))
        n_plus = m.where(a_is_plus, n_a, m.where(c_is_plus, n_c, n_plus))
        kappa_minus = m.where(a_is_plus, params.kappa_c,
                              m.where(c_is_plus, params.kappa_a, kappa_minus))
        n_minus = m.where(a_is_plus, n_c, m.where(c_is_plus, n_a, n_minus))
        delta_kappa = m.where(a_is_plus | c_is_plus, 0.0, delta_kappa)

    return PolaritonBasis(
        theta=theta,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        delta_plus=omega_plus - params.omega_0,
        delta_minus=omega_minus - params.omega_0,
        kappa_plus=kappa_plus,
        kappa_minus=kappa_minus,
        delta_kappa=delta_kappa,
        kappa_a=params.kappa_a,
        kappa_c=params.kappa_c,
        n_a=n_a,
        n_c=n_c,
        n_b=n_b,
        n_plus=n_plus,
        n_minus=n_minus,
    )


def solve_g_omega_c_from_theta(theta, omega_a, omega_b):
    """Invert the hybridization for a target mixing angle.

    Fixes the normal-mode splitting to ``2 * omega_b`` (the condition
    that puts the two polaritons on the two sidebands of the drive) and
    returns the closed form ``g = omega_b * sin(2 theta)``,
    ``omega_c = omega_a - 2 omega_b * cos(2 theta)``.
    """
    _require("theta", theta, "inside (0, pi/2)")
    _require("omega_a", omega_a, "positive")
    _require("omega_b", omega_b, "positive")
    m = _math_for(theta)
    g = omega_b * m.sin(2.0 * theta)
    omega_c = omega_a - 2.0 * omega_b * m.cos(2.0 * theta)
    return g, omega_c


def _amplitudes_per_unit_drive(basis: PolaritonBasis):
    """Polariton amplitudes per unit Omega, ``(a_plus, a_minus)``.

    Valid in the sideband-resolved regime |delta| ~ omega_b >> kappa.
    """
    zp = basis.delta_plus - 1j * basis.kappa_plus
    zm = basis.delta_minus - 1j * basis.kappa_minus
    dk = basis.delta_kappa
    den = zm * zp + dk * dk
    m = _math_for(den)  # a column wherever theta or a rate is one
    s = m.sin(basis.theta)
    c = m.cos(basis.theta)
    size = abs(den)
    scale = m.maximum(abs(zm) * abs(zp), dk * dk)
    # an overflowed product is NaN or inf, which the relative test below
    # would pass or call vanishing
    if not m.all(m.isfinite(size) & m.isfinite(scale)):
        raise ParameterError("steady-state denominator (dm - i km)(dp - i kp) + dk^2 "
                             "overflows: the rates and detunings are too large")
    if m.any(size <= 1e-12 * scale):
        raise NumericalError(
            "steady-state denominator (dm - i km)(dp - i kp) + dk^2 vanishes"
        )
    a_plus = (dk * c - 1j * s * zm) / den
    a_minus = (dk * s - 1j * c * zp) / den
    return a_plus, a_minus


def steady_state_amplitudes(basis: PolaritonBasis, drive_strength,
                            amplitudes=None) -> EffectiveCouplings:
    """Effective couplings of the approximate steady-state amplitudes.

    The amplitudes ``<A_pm>`` are linear in the drive Omega, so the
    enhanced couplings ``G_pm = 2i G0 <A_pm>`` are ``2i drive_strength
    a_pm``, with ``drive_strength = G0 * Omega`` (rad^2/s^2) and
    ``a_pm`` the amplitudes per unit Omega; the polariton-b couplings
    follow from the theta weights of mode ``c`` in each polariton.
    ``amplitudes`` is :func:`_amplitudes_per_unit_drive` of ``basis``
    when the caller already has it.
    """
    _require("drive_strength", drive_strength, "non-negative")
    a_plus, a_minus = amplitudes or _amplitudes_per_unit_drive(basis)

    m = _math_for(basis.theta)
    s = m.sin(basis.theta)
    c = m.cos(basis.theta)
    g_plus = 2j * drive_strength * a_plus
    g_minus = 2j * drive_strength * a_minus
    g_pm = g_plus * s + g_minus * c
    return EffectiveCouplings(
        g_plus=g_plus,
        g_minus=g_minus,
        g_pm=g_pm,
        g_plus_b=g_pm * s,
        g_minus_b=g_pm * c,
    )


def drive_for_target_g_minus(basis: PolaritonBasis, target_abs_g_minus,
                             amplitudes=None):
    """Drive strength ``G0 * Omega`` that realizes a target ``|G_-|``.

    Uses the exact linearity of the amplitudes in Omega, so the returned
    value reproduces the target to rounding accuracy.  ``amplitudes`` is
    :func:`_amplitudes_per_unit_drive` of ``basis`` when the caller
    already has it.
    """
    _require("target_abs_g_minus", target_abs_g_minus, "non-negative")
    pinned = target_abs_g_minus != 0.0
    if not _math_for(pinned).any(pinned):
        return 0.0 * target_abs_g_minus
    _, a_minus = amplitudes or _amplitudes_per_unit_drive(basis)
    per_unit = abs(a_minus)
    m = _math_for(pinned, per_unit)
    if m.any(pinned & (per_unit == 0.0)):
        raise ParameterError(
            "the A_- amplitude vanishes for these parameters; "
            "|G_-| cannot be set by the drive"
        )
    # a zero target gives zero drive whatever it is divided by; the
    # stand-in 1 keeps that division finite
    return target_abs_g_minus / (2.0 * m.where(pinned, per_unit, 1.0))
