"""Drift/diffusion assembly and the parameter-to-entanglement pipeline.

Builds the 6x6 drift matrix of the linearized quadrature dynamics and
the matching diffusion matrix from the model layer, then composes
hybridization, drive calibration, the Lyapunov solve, and the
logarithmic negativity of all three mode pairs.  A point and a stack
take one path: the model layer, one fill of the drift and the diffusion
(:func:`_pairs`), one ``gaussian._steady_states`` kernel step
(eigendecomposition, eigenbasis Lyapunov solve with its dense fallback)
and the closed-form negativities.  :func:`run_pipelines` runs the model
layer and the fill once on whole parameter columns, and each
``gaussian`` kernel once per slice of at most :data:`CHUNK_SIZE` rows.
:func:`run_pipeline` runs the model layer and the negativities of one
point on Python floats, and the fill and the kernel step on the stack
of one; the negativities are one body for floats and columns (see
:mod:`entangle.gaussian`), so they add no rounding difference.
Column arithmetic is elementwise, so a point gives the same bits in any
stack; against :func:`run_pipeline` it differs only where numpy's
``expm1``, ``arctan2``, ``hypot``, complex multiply or ``abs`` round
differently from :mod:`math` and CPython's.

Both matrices are nondimensionalized by ``omega_b`` (each entry divided
before it is placed: the bits of dividing the matrix) so entries span
roughly 1e-5..1; the covariance matrix is unchanged by this rescaling
and reported diagnostics are converted back to rad/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gaussian
from .errors import EntangleError
from .model import (
    EffectiveCouplings,
    PolaritonBasis,
    SystemParams,
    _COLUMN_MATH,
    _FLOAT_MATH,
    _amplitudes_per_unit_drive,
    _math_for,
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


class PipelineColumns(NamedTuple):
    """Everything computed for a stack of n points, as columns.

    Every field but ``covs`` is an ``(n,)`` array, the fields of
    ``basis`` and ``couplings`` included (a value every point shares
    fills its column), so ``len(result.stable)`` is the row count;
    ``covs`` is ``(n, 6, 6)``.
    The covariances and negativities of unstable points are NaN.
    """

    basis: PolaritonBasis
    couplings: EffectiveCouplings
    drive_strength: np.ndarray
    stable: np.ndarray
    max_re_eig: np.ndarray
    covs: np.ndarray
    e_n_pp: np.ndarray
    e_n_mb: np.ndarray
    e_n_pb: np.ndarray


#: rows per kernel call of :func:`run_pipelines`: it changes no result
#: and bounds the kernels' temporaries (near 1 MB for 256 rows), while
#: the model layer and the fill run once on the whole stack
CHUNK_SIZE = 256


#: (row, column) of every non-zero drift entry, in the order of the
#: values :func:`_drift_entries` returns
_DRIFT_SLOTS = np.ravel_multi_index(tuple(zip(*(
    (0, 0), (0, 1), (0, 2), (0, 4),
    (1, 0), (1, 1), (1, 3), (1, 4),
    (2, 0), (2, 2), (2, 3), (2, 4),
    (3, 1), (3, 2), (3, 3), (3, 4),
    (4, 4), (4, 5),
    (5, 0), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5),
))), (6, 6))

#: (row, column) of every non-zero diffusion entry, in the order of the
#: values :func:`_diffusion_entries` returns
_DIFFUSION_SLOTS = np.ravel_multi_index(tuple(zip(*(
    (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
    (0, 2), (2, 0), (1, 3), (3, 1),
))), (6, 6))

#: the drift's slots in the first matrix of a pair, the diffusion's in the second
_PAIR_SLOTS = np.concatenate([_DRIFT_SLOTS, 36 + _DIFFUSION_SLOTS])


def build_drift(basis: PolaritonBasis, couplings: EffectiveCouplings,
                omega_b, kappa_b):
    """Drift matrix of the quadrature fluctuations (rad/s entries).

    Row 5 carries no coupling back from the polaritons (the X_b column
    is the only route into rows 1-4), and the only polariton-polariton
    entries are the dissipative -delta_kappa terms.  The one-point view
    of the stacked fill :func:`run_pipelines` uses.
    """
    return _fill(_DRIFT_SLOTS, _drift_entries(basis, couplings, omega_b, kappa_b))[0, 0]


def _drift_entries(basis, couplings, omega_b, kappa_b):
    dp, dm = basis.delta_plus, basis.delta_minus
    kp, km = basis.kappa_plus, basis.kappa_minus
    dk = basis.delta_kappa
    gpb, gmb = couplings.g_plus_b, couplings.g_minus_b
    return (
        -kp, dp, -dk, -gpb.real,
        -dp, -kp, -dk, -gpb.imag,
        -dk, -km, dm, -gmb.real,
        -dk, -dm, -km, -gmb.imag,
        -kappa_b, omega_b,
        -gpb.imag, gpb.real, -gmb.imag, gmb.real, -omega_b, -kappa_b,
    )


def build_diffusion(basis: PolaritonBasis, kappa_b, n_b):
    """Diffusion matrix of the input noises (rad/s entries).

    Diagonal kappa*(2N+1) per quadrature plus the polariton
    cross-correlation from the shared bare noises.  The cross term is
    evaluated in the bare-rate form
    sin(2 theta) * [kappa_c (2 N_c + 1) - kappa_a (2 N_a + 1)] / 2,
    which is algebraically identical to the tan(2 theta) mixed-rate form
    and stays finite at theta = pi/4.  The one-point view of the stacked
    fill :func:`run_pipelines` uses.
    """
    return _fill(_DIFFUSION_SLOTS, _diffusion_entries(basis, kappa_b, n_b))[0, 0]


def _diffusion_entries(basis, kappa_b, n_b):
    dp = basis.kappa_plus * (2.0 * basis.n_plus + 1.0)
    dm = basis.kappa_minus * (2.0 * basis.n_minus + 1.0)
    db = kappa_b * (2.0 * n_b + 1.0)
    cross = 0.5 * _math_for(basis.theta).sin(2.0 * basis.theta) * (
        basis.kappa_c * (2.0 * basis.n_c + 1.0)
        - basis.kappa_a * (2.0 * basis.n_a + 1.0)
    )
    return (dp, dp, dm, dm, db, db, cross, cross, cross, cross)


def _fill(slots, entries, size=1, scale=1.0):
    """``(size, k, 6, 6)`` matrices, zero but for ``entries / scale`` at the
    flat indices ``slots`` of each point's k matrices (the last slot lies in
    the last).  Entries are floats, columns of ``size``, or both mixed."""
    try:
        values = np.array(entries)
    except ValueError:  # floats mixed with columns
        values = np.array(np.broadcast_arrays(*entries))
    count = slots[-1] // 36 + 1
    out = np.zeros((size, 36 * count))
    out[:, slots] = (values / scale).T
    return out.reshape(size, count, 6, 6)


def run_pipeline(params: SystemParams, target_g_minus=None) -> PipelineResult:
    """Full parameter-to-entanglement evaluation of one point.

    If ``target_g_minus`` (rad/s) is given, the drive strength is
    derived so |G_-| hits the target; otherwise ``params.drive_strength``
    is used directly.  The model layer and the negativities run on
    floats, the fill and the kernel step on the stack of one.
    """
    basis, couplings, drive = _model_layer(params, target_g_minus)
    R, D = _pairs(params, basis, couplings, 1, _FLOAT_MATH)
    max_re, stable, covs = _stage("Lyapunov solve", gaussian._steady_states, R, D)
    max_re_eig = max_re[0].item() * params.omega_b
    if not stable.size:
        return PipelineResult(basis, couplings, drive, False, max_re_eig,
                              None, None, None, None)
    return PipelineResult(
        basis, couplings, drive, True, max_re_eig, gaussian.GaussianState(covs[0]),
        *_stage("log-negativity", gaussian.pair_log_negativities,
                covs[0].ravel().tolist()))


def run_pipelines(params: SystemParams, target_g_minus=None) -> PipelineColumns:
    """Evaluate a stack of points given as parameter columns.

    ``params`` holds a column (or a shared float) per field, and
    ``target_g_minus`` is None, a float or a column.  The model layer
    and the fill run once on the whole columns, the kernel step and the
    negativities on slices of at most :data:`CHUNK_SIZE` rows.  Stable
    points get the stationary covariance and the negativities of the
    pairs (A+, A-), (A-, b), (A+, b); unstable points are flagged.  A
    shared value of the result fills a column.
    """
    size = np.broadcast(*vars(params).values(), target_g_minus).size
    basis, couplings, drive = _model_layer(params, target_g_minus)
    R, D = _pairs(params, basis, couplings, size, _COLUMN_MATH)
    max_re = np.empty(size)
    covs, e_n = np.full((size, 6, 6), np.nan), np.full((size, 3), np.nan)
    for start in range(0, size, CHUNK_SIZE):
        rows = slice(start, start + CHUNK_SIZE)  # covs[rows] is a view: writes land
        max_re[rows], stable, solved = _stage(
            "Lyapunov solve", gaussian._steady_states, R[rows], D[rows])
        if stable.size:
            covs[rows][stable] = solved
            blocks = gaussian.pair_blocks(solved).reshape(-1, 4, 4)
            e_n[rows][stable] = _stage("log-negativity", gaussian.log_negativity_stacked,
                                       blocks).reshape(-1, 3)
    # full columns after the fill, which takes sin(2 theta) of a shared theta with math
    def full(value):
        return value if getattr(value, "ndim", 0) else np.full(size, value)

    return PipelineColumns(basis._make(map(full, basis)),
                           couplings._make(map(full, couplings)), full(drive),
                           max_re < 0.0, max_re * params.omega_b, covs, *e_n.T)


def _model_layer(params, target_g_minus):
    """Basis, couplings and drive strength (model layer, floats or columns).

    A calibrated drive computes the amplitudes per unit drive once, for
    the calibration and the couplings alike.
    """
    basis = _stage("hybridize", hybridize, params)
    if target_g_minus is None:
        drive, amplitudes = params.drive_strength, None
    else:
        amplitudes = _stage("drive calibration", _amplitudes_per_unit_drive, basis)
        drive = _stage("drive calibration", drive_for_target_g_minus,
                       basis, target_g_minus, amplitudes)
    couplings = _stage("steady-state amplitudes", steady_state_amplitudes,
                       basis, drive, amplitudes)
    return basis, couplings, drive


def _pairs(params, basis, couplings, size, m):
    """The ``(size, 6, 6)`` drift and diffusion stacks of ``size`` points
    (``m``: their math), each divided by ``omega_b``: views of one fill."""
    with m.quiet():  # the Lyapunov solve names noise that overflows to inf
        noise = _diffusion_entries(basis, params.kappa_b, basis.n_b)
    pairs = _fill(_PAIR_SLOTS, _drift_entries(
        basis, couplings, params.omega_b, params.kappa_b) + noise, size, params.omega_b)
    return pairs[:, 0], pairs[:, 1]


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except EntangleError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
