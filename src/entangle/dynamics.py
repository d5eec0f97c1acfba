"""Drift/diffusion assembly and the parameter-to-entanglement pipeline.

Builds the 6x6 drift matrix of the linearized quadrature dynamics and
the matching diffusion matrix from the model layer, then composes
hybridization, drive calibration, the Lyapunov solve, and the
logarithmic negativity of all three mode pairs into one call.

Both matrices are nondimensionalized by ``omega_b`` before the solve so
entries span roughly 1e-5..1; the covariance matrix is unchanged by
this rescaling and reported diagnostics are converted back to rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import EntangleError
from .model import (
    EffectiveCouplings,
    PolaritonBasis,
    SystemParams,
    drive_for_target_g_minus,
    hybridize,
    steady_state_amplitudes,
)


@dataclass(frozen=True)
class PipelineResult:
    """Everything computed for one parameter point.

    The three negativities are present iff the drift is stable; unstable
    points are flagged data, not errors, so sweeps can chart instability
    regions.
    """

    basis: PolaritonBasis
    couplings: EffectiveCouplings
    drive_strength: float
    stable: bool
    max_re_eig: float
    state: gaussian.GaussianState | None
    e_n_pp: float | None
    e_n_mb: float | None
    e_n_pb: float | None


def build_drift(basis: PolaritonBasis, couplings: EffectiveCouplings,
                omega_b, kappa_b):
    """Drift matrix of the quadrature fluctuations (rad/s entries).

    Row 5 carries no coupling back from the polaritons (the X_b column
    is the only route into rows 1-4), and the only polariton-polariton
    entries are the dissipative -delta_kappa terms.
    """
    dp, dm = basis.delta_plus, basis.delta_minus
    kp, km = basis.kappa_plus, basis.kappa_minus
    dk = basis.delta_kappa
    gpb, gmb = couplings.g_plus_b, couplings.g_minus_b
    return np.array([
        [-kp, dp, -dk, 0.0, -gpb.real, 0.0],
        [-dp, -kp, 0.0, -dk, -gpb.imag, 0.0],
        [-dk, 0.0, -km, dm, -gmb.real, 0.0],
        [0.0, -dk, -dm, -km, -gmb.imag, 0.0],
        [0.0, 0.0, 0.0, 0.0, -kappa_b, omega_b],
        [-gpb.imag, gpb.real, -gmb.imag, gmb.real, -omega_b, -kappa_b],
    ])


def build_diffusion(basis: PolaritonBasis, kappa_b, n_b):
    """Diffusion matrix of the input noises (rad/s entries).

    Diagonal kappa*(2N+1) per quadrature plus the polariton
    cross-correlation from the shared bare noises.  The cross term is
    evaluated in the bare-rate form
    sin(2 theta) * [kappa_c (2 N_c + 1) - kappa_a (2 N_a + 1)] / 2,
    which is algebraically identical to the tan(2 theta) mixed-rate form
    and stays finite at theta = pi/4.
    """
    dp = basis.kappa_plus * (2.0 * basis.n_plus + 1.0)
    dm = basis.kappa_minus * (2.0 * basis.n_minus + 1.0)
    db = kappa_b * (2.0 * n_b + 1.0)
    D = np.diag([dp, dp, dm, dm, db, db])
    cross = 0.5 * math.sin(2.0 * basis.theta) * (
        basis.kappa_c * (2.0 * basis.n_c + 1.0)
        - basis.kappa_a * (2.0 * basis.n_a + 1.0)
    )
    D[0, 2] = D[2, 0] = cross
    D[1, 3] = D[3, 1] = cross
    return D


def run_pipeline(params: SystemParams, target_g_minus=None) -> PipelineResult:
    """Full parameter-to-entanglement evaluation of one point.

    If ``target_g_minus`` (rad/s) is given, the drive strength is
    derived so |G_-| hits the target; otherwise ``params.drive_strength``
    is used directly.  Stable points get the stationary covariance from
    a single Lyapunov solve and the negativities of the pairs
    (A+, A-), (A-, b), (A+, b); unstable points are returned flagged.
    """
    basis = _stage("hybridize", hybridize, params)
    if target_g_minus is None:
        drive = params.drive_strength
    else:
        drive = _stage("drive calibration", drive_for_target_g_minus,
                       basis, target_g_minus)
    couplings = _stage(
        "steady-state amplitudes", steady_state_amplitudes,
        basis, params.omega_b, drive / params.g0, params.g0,
    )

    wb = params.omega_b
    drift = build_drift(basis, couplings, wb, params.kappa_b) / wb
    diffusion = build_diffusion(basis, params.kappa_b, basis.n_b) / wb

    stable, max_re_scaled = gaussian.stability(drift)
    max_re_eig = max_re_scaled * wb
    if not stable:
        return PipelineResult(
            basis=basis, couplings=couplings, drive_strength=drive,
            stable=False, max_re_eig=max_re_eig, state=None,
            e_n_pp=None, e_n_mb=None, e_n_pb=None,
        )

    cov = _stage("Lyapunov solve", gaussian.solve_lyapunov, drift, diffusion)
    state = gaussian.GaussianState(cov)
    e_n = {
        pair: gaussian.log_negativity(gaussian.reduce_two_mode(cov, pair))
        for pair in gaussian.PAIR_CHOICES
    }
    return PipelineResult(
        basis=basis, couplings=couplings, drive_strength=drive,
        stable=True, max_re_eig=max_re_eig, state=state,
        e_n_pp=e_n["+-"], e_n_mb=e_n["-b"], e_n_pb=e_n["+b"],
    )


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except EntangleError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
