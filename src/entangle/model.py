"""Bare and hybridized (polariton) parameters of the three-mode model.

Two nearly resonant bosonic modes ``a`` and ``c`` (GHz scale in the
magnomechanical realization) are strongly coupled with beam-splitter
strength ``g`` and form two polariton modes with mixing angle ``theta``.
A third low-frequency mode ``b`` (MHz scale) couples dispersively to
``c``, so under a strong drive both polaritons acquire an enhanced
effective coupling to ``b``.  This module is the closed-form layer:
hybridization, thermal occupations, the approximate steady-state
amplitudes of the driven modes, and the effective coupling strengths
that feed the linearized fluctuation dynamics.

All frequencies, rates and couplings are angular (rad/s); temperatures
are in kelvin.  Only the CLI layer speaks ordinary frequency (Hz) and
millikelvin.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.constants import hbar, k as k_B

from .errors import (
    DegenerateHybridizationError,
    DriveSolveError,
    ParameterError,
    SingularSteadyStateError,
)

TWO_PI = 2.0 * math.pi

# Bare dispersive coupling G0 is typically millihertz-scale in cavity
# magnomechanics.  It only sets the scale of the diagnostic Re<b>; the
# physical drive knob is the product G0*Omega.
DEFAULT_G0 = TWO_PI * 1e-3


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


def _require_positive(name, value):
    _require_finite(name, value)
    if value <= 0.0:
        raise ParameterError(f"{name} must be positive, got {value!r}")


def _require_non_negative(name, value):
    _require_finite(name, value)
    if value < 0.0:
        raise ParameterError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Bare physical parameters of the driven three-mode system.

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
        The product ``G0 * Omega`` treated as a single knob (rad^2/s^2).
    g0 : float
        Bare dispersive coupling ``G0`` (rad/s); only affects the
        diagnostic ``Re<b>``.
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
    g0: float = DEFAULT_G0

    def __post_init__(self):
        for name in ("omega_a", "omega_c", "omega_b", "omega_0",
                     "kappa_a", "kappa_c", "kappa_b", "g0"):
            _require_positive(name, getattr(self, name))
        _require_non_negative("g", self.g)
        _require_non_negative("temperature", self.temperature)
        _require_non_negative("drive_strength", self.drive_strength)
        if self.omega_b > self.omega_a / 10.0:
            warnings.warn(
                "omega_b is not small compared with omega_a; the dispersive "
                "model assumes omega_b << omega_a, omega_c",
                stacklevel=2,
            )


@dataclass(frozen=True)
class PolaritonBasis:
    """Derived hybridization quantities of the polariton modes.

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


@dataclass(frozen=True)
class EffectiveCouplings:
    """Steady-state amplitudes and drive-enhanced coupling strengths.

    ``amp_plus``/``amp_minus`` are the dimensionless coherent amplitudes
    of the polaritons; ``g_plus``/``g_minus`` the enhanced dispersive
    couplings (rad/s); ``g_pm`` their theta-weighted combination, and
    ``g_plus_b``/``g_minus_b`` the resulting polariton-b couplings that
    enter the drift matrix.  ``re_b`` is the static displacement of the
    low-frequency mode (diagnostic only, never fed back).
    """

    amp_plus: complex
    amp_minus: complex
    re_b: float
    g_plus: complex
    g_minus: complex
    g_pm: complex
    g_plus_b: complex
    g_minus_b: complex


def thermal_occupation(omega, temperature):
    """Equilibrium Bose occupation of a mode at ``omega`` (rad/s).

    Exactly 0 at ``temperature = 0``; evaluates 1/expm1(x) with an
    overflow guard for deeply quantum modes (x > 700).
    """
    _require_positive("omega", omega)
    _require_non_negative("temperature", temperature)
    if temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


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
    theta = 0.5 * math.atan2(2.0 * params.g, d)
    splitting = math.hypot(d, 2.0 * params.g)
    omega_plus = 0.5 * (params.omega_a + params.omega_c + splitting)
    omega_minus = 0.5 * (params.omega_a + params.omega_c - splitting)

    s = math.sin(theta)
    c = math.cos(theta)
    s2 = s * s
    c2 = c * c

    n_a = thermal_occupation(params.omega_a, params.temperature)
    n_c = thermal_occupation(params.omega_c, params.temperature)
    n_b = thermal_occupation(params.omega_b, params.temperature)

    # At theta = 0 or pi/2 the polaritons coincide with the bare modes;
    # branch so the identities kappa_plus == kappa_a, n_plus == n_a hold
    # bitwise instead of through a multiply/divide round trip.
    if s2 == 0.0:
        kappa_plus, n_plus = params.kappa_a, n_a
        kappa_minus, n_minus = params.kappa_c, n_c
    elif c2 == 0.0:
        kappa_plus, n_plus = params.kappa_c, n_c
        kappa_minus, n_minus = params.kappa_a, n_a
    else:
        kappa_plus = params.kappa_a * c2 + params.kappa_c * s2
        kappa_minus = params.kappa_a * s2 + params.kappa_c * c2
        n_plus = 0.5 * ((params.kappa_a * c2 * (2.0 * n_a + 1.0)
                         + params.kappa_c * s2 * (2.0 * n_c + 1.0))
                        / kappa_plus - 1.0)
        n_minus = 0.5 * ((params.kappa_a * s2 * (2.0 * n_a + 1.0)
                          + params.kappa_c * c2 * (2.0 * n_c + 1.0))
                         / kappa_minus - 1.0)

    return PolaritonBasis(
        theta=theta,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        delta_plus=omega_plus - params.omega_0,
        delta_minus=omega_minus - params.omega_0,
        kappa_plus=kappa_plus,
        kappa_minus=kappa_minus,
        delta_kappa=(params.kappa_c - params.kappa_a) * s * c,
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
    _require_finite("theta", theta)
    _require_positive("omega_a", omega_a)
    _require_positive("omega_b", omega_b)
    if not 0.0 < theta < 0.5 * math.pi:
        raise DegenerateHybridizationError(
            f"theta must lie strictly inside (0, pi/2); got {theta!r} "
            "(the polaritons decouple and g = 0 at the endpoints)"
        )
    g = omega_b * math.sin(2.0 * theta)
    omega_c = omega_a - 2.0 * omega_b * math.cos(2.0 * theta)
    return g, omega_c


def _amplitudes_per_unit_drive(basis: PolaritonBasis):
    """Polariton amplitudes per unit Omega, and the shared denominator.

    Valid in the sideband-resolved regime |delta| ~ omega_b >> kappa.
    """
    s = math.sin(basis.theta)
    c = math.cos(basis.theta)
    zp = basis.delta_plus - 1j * basis.kappa_plus
    zm = basis.delta_minus - 1j * basis.kappa_minus
    dk = basis.delta_kappa
    den = zm * zp + dk * dk
    scale = max(abs(zm) * abs(zp), dk * dk)
    if abs(den) <= 1e-12 * scale:
        raise SingularSteadyStateError(
            "steady-state denominator (dm - i km)(dp - i kp) + dk^2 vanishes"
        )
    amp_plus_u = (dk * c - 1j * s * zm) / den
    amp_minus_u = (dk * s - 1j * c * zp) / den
    return amp_plus_u, amp_minus_u


def steady_state_amplitudes(basis: PolaritonBasis, omega_b, omega_drive,
                            g0=DEFAULT_G0) -> EffectiveCouplings:
    """Approximate steady-state amplitudes and effective couplings.

    ``omega_drive`` is the mode-drive coupling Omega (rad/s).  The
    amplitudes are linear in Omega; the enhanced couplings are
    ``G_pm = 2i G0 <A_pm>`` and the polariton-b couplings follow from
    the theta weights of mode ``c`` in each polariton.
    """
    _require_positive("omega_b", omega_b)
    _require_non_negative("omega_drive", omega_drive)
    _require_positive("g0", g0)
    amp_plus_u, amp_minus_u = _amplitudes_per_unit_drive(basis)
    amp_plus = omega_drive * amp_plus_u
    amp_minus = omega_drive * amp_minus_u

    s = math.sin(basis.theta)
    c = math.cos(basis.theta)
    re_b = -(g0 / omega_b) * abs(amp_plus * s + amp_minus * c) ** 2
    g_plus = 2j * g0 * amp_plus
    g_minus = 2j * g0 * amp_minus
    g_pm = g_plus * s + g_minus * c
    return EffectiveCouplings(
        amp_plus=amp_plus,
        amp_minus=amp_minus,
        re_b=re_b,
        g_plus=g_plus,
        g_minus=g_minus,
        g_pm=g_pm,
        g_plus_b=g_pm * s,
        g_minus_b=g_pm * c,
    )


def drive_for_target_g_minus(basis: PolaritonBasis, target_abs_g_minus):
    """Drive strength ``G0 * Omega`` that realizes a target ``|G_-|``.

    Uses the exact linearity of the amplitudes in Omega, so the returned
    value reproduces the target to rounding accuracy.
    """
    _require_non_negative("target_abs_g_minus", target_abs_g_minus)
    if target_abs_g_minus == 0.0:
        return 0.0
    _, amp_minus_u = _amplitudes_per_unit_drive(basis)
    per_unit = abs(amp_minus_u)
    if per_unit == 0.0:
        raise DriveSolveError(
            "the A_- amplitude vanishes for these parameters; "
            "|G_-| cannot be set by the drive"
        )
    return target_abs_g_minus / (2.0 * per_unit)
