"""Dense linear algebra for small Gaussian states.

Steady-state covariance matrices of linearized bosonic dynamics,
evaluated on stacks of points at once.  One batched eigendecomposition
of ``(N, n, n)`` drift matrices (:func:`drift_spectra`) gives spectral
stability as ``max Re lambda`` and the eigenbasis in which
:func:`solve_lyapunov_stacked` solves ``R V + V R^T = -D`` entrywise,
``V = U [-(U^-1 D U^-H)_ij / (lambda_i + conj(lambda_j))] U^H``.  Every
solution must meet the residual contract
``||R V + V R^T + D||_F <= 1e-9 ||D||_F``.  A row that misses it, or
whose eigenvector matrix has a Frobenius condition number above 1e3
(a defective or nearly defective drift, where eigenvalues coalesce), is
re-solved by the dense vectorized n^2-unknown system with one
refinement pass, and raises :class:`NumericalError` if that misses the
contract too, or if ``||D||_F`` overflows so the contract cannot be
checked.  :func:`log_negativity_stacked` takes the logarithmic
negativity of stacked two-mode blocks from closed-form 2x2 block
determinants, and raises :class:`NumericalError` where those would
overflow.

:func:`stability`, :func:`solve_lyapunov` and :func:`log_negativity`
are the one-point views of these kernels.  Every row of a stacked call
runs the same arithmetic as the one-point call on that row, so the two
agree bit for bit.

Quadrature ordering is fixed globally as (X+, Y+, X-, Y-, Xb, Yb) and
the vacuum covariance matrix is identity/2.  Drift and diffusion inputs
are expected nondimensionalized (divided by a reference frequency) for
conditioning; the covariance matrix itself is dimensionless either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

#: quadrature slots of each mode in the global ordering
MODE_SLOTS = {"+": (0, 1), "-": (2, 3), "b": (4, 5)}

#: valid mode-pair selectors for two-mode reduction
PAIR_CHOICES = ("+-", "+b", "-b")

#: rows/columns of each pair's 4x4 block, in PAIR_CHOICES order
_PAIR_INDEX = np.array([MODE_SLOTS[pair[0]] + MODE_SLOTS[pair[1]]
                        for pair in PAIR_CHOICES])

# negativities this small above the separability boundary are rounding,
# not entanglement
_CLAMP_TOL = 1e-10

_LYAPUNOV_RESIDUAL_RTOL = 1e-9

# the eigenbasis solve loses accuracy like cond(U)^2 * eps even where it
# meets the residual contract; above this Frobenius condition number of
# the eigenvector matrix a row goes to the dense solve (the physical
# grids stay below about 130; 6 is a unitary U)
_EIGENBASIS_COND_MAX = 1e3

# rows (r, r + 1) and columns (p, q) of the 2x2 minors of a 4x4 matrix:
# the six column pairs on rows (0, 1), then the same six on rows (2, 3).
# The column pair complementary to pair k is pair 5 - k, and
# _LAPLACE_SIGN is the sign of the permutation (p, q, complement)
_MINOR_R = np.repeat([0, 2], 6)
_MINOR_R1 = _MINOR_R + 1
_MINOR_P = np.tile([0, 0, 0, 1, 1, 2], 2)
_MINOR_Q = np.tile([1, 2, 3, 2, 3, 3], 2)
_LAPLACE_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])

# largest two-mode covariance entry s the negativity accepts: the
# determinants are quartic in the entries and |Sigma^2 - 4 det V| stays
# below 160 s^4, within the float range up to s of about 3e76
_ENTRY_MAX = 1e76


@dataclass
class GaussianState:
    """Steady-state Gaussian state of the three-mode fluctuations.

    ``cov`` is the 6x6 covariance matrix (vacuum = identity/2).
    """

    cov: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.cov, dtype=float)
        if V.shape != (6, 6):
            raise ParameterError(f"covariance must be 6x6, got {V.shape}")
        scale = np.abs(V).max()
        if np.abs(V - V.T).max() > 1e-10 * max(scale, 1.0):
            raise NumericalError("covariance matrix is not symmetric")
        self.cov = V


def drift_spectra(drifts):
    """Eigenvalues and right eigenvectors of a stack of drift matrices.

    ``drifts`` is ``(N, n, n)``.  Returns complex ``(N, n)`` eigenvalues
    and ``(N, n, n)`` eigenvectors (as columns); row ``i`` is stable iff
    every ``lam[i].real`` is strictly negative.
    """
    R = np.asarray(drifts, dtype=float)
    if not np.all(np.isfinite(R)):
        raise ParameterError("drift matrix has non-finite entries")
    try:
        lam, U = np.linalg.eig(R)
    except np.linalg.LinAlgError as exc:
        for row in R:  # name the first matrix that does not converge
            try:
                np.linalg.eig(row)
            except np.linalg.LinAlgError:
                break
        raise NumericalError(
            f"eigensolver failed to converge on drift matrix:\n{row!r}"
        ) from exc
    # numpy returns real arrays when the whole stack has real spectra;
    # always going complex keeps each row's arithmetic independent of
    # the other rows
    return lam.astype(complex), U.astype(complex)


def stability(drift):
    """Spectral stability of a drift matrix.

    Returns ``(stable, max_re_eig)`` where ``stable`` is True iff every
    eigenvalue has a strictly negative real part.
    """
    lam, _ = drift_spectra(np.asarray(drift, dtype=float)[None])
    max_re = float(lam.real.max())
    return max_re < 0.0, max_re


def solve_lyapunov_stacked(drifts, diffusions, spectra=None):
    """Solve R V + V R^T = -D for the stationary covariance of each row.

    ``drifts`` and ``diffusions`` are ``(N, n, n)``; every drift must be
    strictly stable.  ``spectra`` is :func:`drift_spectra` of ``drifts``
    when the caller already has it.  Each row is solved in the drift's
    eigenbasis, symmetrized and checked against ``1e-9 * ||D||_F``; rows
    that miss the contract, or whose eigenvector matrix is too badly
    conditioned to trust, fall back to the dense vectorized solve.
    """
    R = np.asarray(drifts, dtype=float)
    D = np.asarray(diffusions, dtype=float)
    if R.ndim != 3 or R.shape[1] != R.shape[2] or D.shape != R.shape:
        raise ParameterError("drift and diffusion must be square and equal-size")
    d_scale = np.maximum(np.abs(D).max(axis=(1, 2)), 1.0)
    if (np.abs(D - D.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-10 * d_scale).any():
        raise ParameterError("diffusion matrix must be symmetric")
    if (np.linalg.eigvalsh(D).min(axis=1) < -1e-12 * d_scale).any():
        raise ParameterError("diffusion matrix must be positive semidefinite")

    lam, U = drift_spectra(R) if spectra is None else spectra
    max_re = lam.real.max(axis=1)
    unstable = ~(max_re < 0.0)
    if unstable.any():
        raise ParameterError(
            "drift matrix is not strictly stable "
            f"(max Re eig = {max_re[unstable][0]:g}); "
            "no stationary state exists"
        )

    try:
        U_inv = np.linalg.inv(U)
    except np.linalg.LinAlgError:
        # a singular eigenvector matrix (a defective drift) leaves its
        # row NaN, which the checks below send to the dense solve
        U_inv = np.stack([_inverse_or_nan(u) for u in U])
    # a (nearly) defective row may overflow or turn NaN here; the same
    # checks send it to the dense solve.  X is divided in place and freed
    # early, which lowers the peak memory of a full stack
    with np.errstate(all="ignore"):
        X = -(U_inv @ D @ U_inv.conj().swapaxes(1, 2))
        X /= lam[:, :, None] + lam.conj()[:, None, :]
        V = (U @ X @ U.conj().swapaxes(1, 2)).real
        del X
        V = 0.5 * (V + V.swapaxes(1, 2))
        resid = np.linalg.norm(R @ V + V @ R.swapaxes(1, 2) + D, axis=(1, 2))
        cond = np.linalg.norm(U, axis=(1, 2)) * np.linalg.norm(U_inv, axis=(1, 2))
        d_norm = np.linalg.norm(D, axis=(1, 2))
    if not np.isfinite(d_norm).all():
        raise NumericalError(
            "the residual contract cannot be checked: ||D||_F overflows "
            f"(diffusion entries up to {d_scale.max():.3e})")
    accepted = ((resid <= _LYAPUNOV_RESIDUAL_RTOL * d_norm)
                & (cond <= _EIGENBASIS_COND_MAX))
    for i in np.flatnonzero(~accepted):
        V[i] = _solve_lyapunov_dense(R[i], D[i])
    return V


def solve_lyapunov(drift, diffusion):
    """Solve R V + V R^T = -D for the stationary covariance V.

    The one-point view of :func:`solve_lyapunov_stacked`: eigenbasis
    solve, dense fallback, symmetrized result with its residual checked
    against ``1e-9 * ||D||_F``.
    """
    R = np.asarray(drift, dtype=float)
    D = np.asarray(diffusion, dtype=float)
    return solve_lyapunov_stacked(R[None], D[None])[0]


def _inverse_or_nan(matrix):
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return np.full_like(matrix, np.nan)


def _solve_lyapunov_dense(R, D):
    """Dense solve of the vectorized n^2-unknown Lyapunov system.

    One residual-refinement pass; the result is symmetrized and must
    meet the residual contract or :class:`NumericalError` is raised.
    """
    n = R.shape[0]
    eye = np.eye(n)
    A = np.kron(eye, R) + np.kron(R, eye)
    # a nearly singular system may overflow or turn NaN; the residual
    # check below rejects such a solution
    with np.errstate(all="ignore"):
        try:
            v = np.linalg.solve(A, -D.reshape(-1))
            V = v.reshape(n, n)
            # one refinement pass tightens the residual near the stability
            # boundary, where the vectorized system is ill-conditioned
            resid = R @ V + V @ R.T + D
            V = V - np.linalg.solve(A, resid.reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "vectorized Lyapunov system is singular "
                f"(condition estimate {np.linalg.cond(A):.3e})"
            ) from exc
        V = 0.5 * (V + V.T)
        resid_norm = np.linalg.norm(R @ V + V @ R.T + D)
    d_norm = np.linalg.norm(D)
    if not resid_norm <= _LYAPUNOV_RESIDUAL_RTOL * d_norm:  # NaN fails too
        raise NumericalError(
            f"Lyapunov residual {resid_norm:.3e} exceeds "
            f"{_LYAPUNOV_RESIDUAL_RTOL:g} * ||D||_F = "
            f"{_LYAPUNOV_RESIDUAL_RTOL * d_norm:.3e} "
            f"(condition estimate {np.linalg.cond(A):.3e})"
        )
    return V


def reduce_two_mode(cov, pair):
    """Extract the 4x4 covariance block of a mode pair.

    ``pair`` is one of ``"+-"``, ``"+b"``, ``"-b"``; the first-named
    mode occupies the first two rows/columns of the result.
    """
    V = np.asarray(cov, dtype=float)
    if V.shape != (6, 6):
        raise ParameterError(f"expected a 6x6 covariance matrix, got {V.shape}")
    if pair not in PAIR_CHOICES:
        raise ParameterError(f"pair must be one of {PAIR_CHOICES}, got {pair!r}")
    return pair_blocks(V[None])[0, PAIR_CHOICES.index(pair)]


def pair_blocks(covs):
    """``(N, 3, 4, 4)`` two-mode blocks of ``(N, 6, 6)`` covariances.

    The pairs follow :data:`PAIR_CHOICES`, each block ordered as in
    :func:`reduce_two_mode`.
    """
    V = np.asarray(covs, dtype=float)
    return V[:, _PAIR_INDEX[:, :, None], _PAIR_INDEX[:, None, :]]


def log_negativity_stacked(covs4):
    """Logarithmic negativities of a stack of two-mode covariance matrices.

    Row-wise E_N = max[0, -ln(2 eta)], with eta the smallest symplectic
    eigenvalue of the partially transposed state, evaluated from the
    closed-form 2x2 block determinants and the Laplace expansion of the
    4x4 determinant along the first mode's rows.  Rounding overshoots
    just above the separability boundary are clamped to exactly 0.
    """
    V = np.asarray(covs4, dtype=float)
    if V.ndim != 3 or V.shape[1:] != (4, 4):
        raise ParameterError(f"expected 4x4 covariance matrices, got {V.shape}")
    scale = np.maximum(np.abs(V).max(axis=(1, 2)), 1.0)
    if not (scale <= _ENTRY_MAX).all():  # NaN fails too
        if not np.isfinite(scale).all():
            raise NumericalError("two-mode covariance matrix has non-finite entries")
        raise NumericalError(
            f"covariance entries up to {scale.max():.3e} overflow the block "
            f"determinants (at most {_ENTRY_MAX:g})")
    if (np.abs(V - V.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-10 * scale).any():
        raise NumericalError("two-mode covariance matrix is not symmetric")

    minors = (V[:, _MINOR_R, _MINOR_P] * V[:, _MINOR_R1, _MINOR_Q]
              - V[:, _MINOR_R, _MINOR_Q] * V[:, _MINOR_R1, _MINOR_P])
    top, low = minors[:, :6], minors[:, 6:]
    det_plus, det_cross, det_minus = top[:, 0], top[:, 5], low[:, 5]
    det_full = (_LAPLACE_SIGN * top * low[:, ::-1]).sum(axis=1)
    sigma = det_plus + det_minus - 2.0 * det_cross

    disc = sigma * sigma - 4.0 * det_full
    bad = disc < -1e-10
    if bad.any():
        raise NumericalError(
            "inconsistent covariance matrix: "
            f"Sigma^2 - 4 det V = {disc[bad][0]:g} < 0"
        )
    denom = sigma + np.sqrt(np.maximum(disc, 0.0))
    if (denom <= 0.0).any():
        raise NumericalError("covariance matrix has non-positive Sigma")
    # eta^2 = (Sigma - sqrt(disc)) / 2 rewritten to avoid cancellation
    eta_sq = 2.0 * det_full / denom
    bad = eta_sq <= 0.0
    if bad.any():
        raise NumericalError(
            f"non-positive symplectic eigenvalue (det V4 = {det_full[bad][0]:g})"
        )
    two_eta = 2.0 * np.sqrt(eta_sq)
    return np.where(two_eta >= 1.0 - _CLAMP_TOL, 0.0, -np.log(two_eta))


def log_negativity(cov4):
    """Logarithmic negativity of a two-mode covariance matrix.

    The one-point view of :func:`log_negativity_stacked`.
    """
    V4 = np.asarray(cov4, dtype=float)
    if V4.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 covariance matrix, got {V4.shape}")
    return float(log_negativity_stacked(V4[None])[0])
