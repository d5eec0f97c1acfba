"""Drift/diffusion assembly and the parameter-to-entanglement pipeline.

Builds the 6x6 drift matrix of the linearized quadrature dynamics and
the matching diffusion matrix from the model layer, then composes
hybridization, drive calibration, the Lyapunov solve, and the
logarithmic negativity of all three mode pairs.  :func:`run_pipelines`
does this for a stack of points: the scalar model layer runs point by
point, the matrix rows of all points become ``(N, 6, 6)`` arrays, and
each ``gaussian`` kernel (eigendecomposition, eigenbasis Lyapunov solve
with its dense fallback, closed-form negativities) runs once for the
stack.  :func:`run_pipeline` is its one-point case, so a point gives
the same bits alone or inside any stack.

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
    return np.array(_drift_rows(basis, couplings, omega_b, kappa_b))


def _drift_rows(basis, couplings, omega_b, kappa_b):
    dp, dm = basis.delta_plus, basis.delta_minus
    kp, km = basis.kappa_plus, basis.kappa_minus
    dk = basis.delta_kappa
    gpb, gmb = couplings.g_plus_b, couplings.g_minus_b
    return [
        [-kp, dp, -dk, 0.0, -gpb.real, 0.0],
        [-dp, -kp, 0.0, -dk, -gpb.imag, 0.0],
        [-dk, 0.0, -km, dm, -gmb.real, 0.0],
        [0.0, -dk, -dm, -km, -gmb.imag, 0.0],
        [0.0, 0.0, 0.0, 0.0, -kappa_b, omega_b],
        [-gpb.imag, gpb.real, -gmb.imag, gmb.real, -omega_b, -kappa_b],
    ]


def build_diffusion(basis: PolaritonBasis, kappa_b, n_b):
    """Diffusion matrix of the input noises (rad/s entries).

    Diagonal kappa*(2N+1) per quadrature plus the polariton
    cross-correlation from the shared bare noises.  The cross term is
    evaluated in the bare-rate form
    sin(2 theta) * [kappa_c (2 N_c + 1) - kappa_a (2 N_a + 1)] / 2,
    which is algebraically identical to the tan(2 theta) mixed-rate form
    and stays finite at theta = pi/4.
    """
    return np.array(_diffusion_rows(basis, kappa_b, n_b))


def _diffusion_rows(basis, kappa_b, n_b):
    dp = basis.kappa_plus * (2.0 * basis.n_plus + 1.0)
    dm = basis.kappa_minus * (2.0 * basis.n_minus + 1.0)
    db = kappa_b * (2.0 * n_b + 1.0)
    cross = 0.5 * math.sin(2.0 * basis.theta) * (
        basis.kappa_c * (2.0 * basis.n_c + 1.0)
        - basis.kappa_a * (2.0 * basis.n_a + 1.0)
    )
    return [
        [dp, 0.0, cross, 0.0, 0.0, 0.0],
        [0.0, dp, 0.0, cross, 0.0, 0.0],
        [cross, 0.0, dm, 0.0, 0.0, 0.0],
        [0.0, cross, 0.0, dm, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, db, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, db],
    ]


def run_pipeline(params: SystemParams, target_g_minus=None) -> PipelineResult:
    """Full parameter-to-entanglement evaluation of one point.

    If ``target_g_minus`` (rad/s) is given, the drive strength is
    derived so |G_-| hits the target; otherwise ``params.drive_strength``
    is used directly.  The one-point case of :func:`run_pipelines`.
    """
    return run_pipelines([(params, target_g_minus)])[0]


def run_pipelines(points) -> list[PipelineResult]:
    """Evaluate a stack of ``(params, target_g_minus)`` points.

    Each point gets its basis, drive and couplings from the scalar model
    layer and its matrix rows; the stacked drift and diffusion then go
    through each ``gaussian`` kernel once.  Stable points get the
    stationary covariance and the negativities of the pairs (A+, A-),
    (A-, b), (A+, b); unstable points are returned flagged.  Every
    result equals :func:`run_pipeline` of its point bit for bit.
    """
    models = [(params, *_model_point(params, target)) for params, target in points]
    omega_b = np.array([params.omega_b for params, _ in points])[:, None, None]
    drifts = np.array([
        _drift_rows(basis, couplings, params.omega_b, params.kappa_b)
        for params, basis, couplings, _ in models]) / omega_b
    diffusions = np.array([
        _diffusion_rows(basis, params.kappa_b, basis.n_b)
        for params, basis, _, _ in models]) / omega_b

    lam, U = gaussian.drift_spectra(drifts)
    max_re = lam.real.max(axis=1)
    stable = np.flatnonzero(max_re < 0.0)
    covs, e_n = {}, {}
    if stable.size:
        solved = _stage("Lyapunov solve", gaussian.solve_lyapunov_stacked,
                        drifts[stable], diffusions[stable], (lam[stable], U[stable]))
        blocks = gaussian.pair_blocks(solved).reshape(-1, 4, 4)
        values = gaussian.log_negativity_stacked(blocks).reshape(-1, 3)
        covs = dict(zip(stable.tolist(), solved))
        e_n = dict(zip(stable.tolist(), values.tolist()))

    results = []
    for i, (params, basis, couplings, drive) in enumerate(models):
        cov = covs.get(i)
        e_n_pp, e_n_pb, e_n_mb = e_n.get(i, (None, None, None))  # PAIR_CHOICES order
        results.append(PipelineResult(
            basis=basis, couplings=couplings, drive_strength=drive,
            stable=cov is not None, max_re_eig=max_re[i].item() * params.omega_b,
            state=None if cov is None else gaussian.GaussianState(cov),
            e_n_pp=e_n_pp, e_n_mb=e_n_mb, e_n_pb=e_n_pb,
        ))
    return results


def _model_point(params, target_g_minus):
    """Basis, couplings and drive strength of one point (scalar model layer)."""
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
    return basis, couplings, drive


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except EntangleError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
