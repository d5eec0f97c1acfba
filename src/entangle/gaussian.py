"""Dense linear algebra for small Gaussian states.

Steady-state covariance matrices of linearized bosonic dynamics,
evaluated on stacks of points at once by one kernel step
(``_steady_states``): one batched eigendecomposition of ``(N, n, n)``
drift matrices (``_spectra``) gives spectral stability as
``max Re lambda`` and the eigenbasis in which ``_solve_stacked``
solves ``R V + V R^T = -D`` for the stable rows entrywise,
``V = U [-(U^-1 D U^-H)_ij / (lambda_i + conj(lambda_j))] U^H``.  Every
solution must meet the residual contract
``||R V + V R^T + D||_F <= 1e-9 ||D||_F``.  A row that misses it, or
whose eigenvector matrix has a Frobenius condition number above 1e3
(a defective or nearly defective drift, where eigenvalues coalesce), is
re-solved by the dense vectorized n^2-unknown system with one
refinement pass, and raises :class:`NumericalError` if that misses the
contract too, or if ``||D||_F`` overflows (an infinite entry included)
so the contract cannot be checked.  The logarithmic negativity of a
two-mode block comes from closed-form 2x2 block determinants, and raises
:class:`NumericalError` where those would overflow.

Each kernel step is one call of a LAPACK gufunc of numpy
(``numpy.linalg._umath_linalg``), and each reduction a ufunc call, whose
``np.linalg`` and method wrappers would cost as much again on one small
matrix.  A matrix the gufunc cannot factor comes back NaN in its own
row.  The tests hold each call to its wrapper's bits; the rare dense
fallback keeps ``np.linalg``.  The gates are cheap beside the calls:
LAPACK's eigenvectors have unit norm, so ``||U||_F = sqrt(n)``, and the
symmetrized ``V`` is exactly symmetric, so ``V R^T = (R V)^T``.

:func:`solve_lyapunov` is the kernel step on a stack of one, refusing
an unstable drift, and :func:`stability` its decomposition alone.  The
negativity has one body for a point and a stack: :func:`log_negativity`
and :func:`pair_log_negativities` run it on Python floats, which one
point needs without the dispatch of about fifty tiny numpy calls, and
:func:`log_negativity_stacked` runs it on columns with one entry per
matrix.  Every row of a stacked call runs the same arithmetic as the
one-point call on that row, so the two agree bit for bit.

Quadrature ordering is fixed globally as (X+, Y+, X-, Y-, Xb, Yb) and
the vacuum covariance matrix is identity/2.  Drift and diffusion inputs
are expected nondimensionalized (divided by a reference frequency) for
conditioning; the covariance matrix itself is dimensionless either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .errors import NumericalError, ParameterError
from .model import _COLUMN_MATH, _FLOAT_MATH

#: quadrature slots of each mode in the global ordering
MODE_SLOTS = {"+": (0, 1), "-": (2, 3), "b": (4, 5)}

#: valid mode-pair selectors for two-mode reduction, in the order of the
#: result fields ``e_n_pp``, ``e_n_mb``, ``e_n_pb``
PAIR_CHOICES = ("+-", "-b", "+b")

#: each pair's 16 block entries, row by row, as flat indices into a 6x6
#: covariance stored row by row, in PAIR_CHOICES order
_PAIR_FLAT = np.array([[6 * i + j for i in slots for j in slots] for slots in
                       (MODE_SLOTS[a] + MODE_SLOTS[b] for a, b in PAIR_CHOICES)])
_PAIR_ENTRIES = [itemgetter(*flat) for flat in _PAIR_FLAT.tolist()]

# negativities this small above the separability boundary are rounding,
# not entanglement
_CLAMP_TOL = 1e-10

_LYAPUNOV_RESIDUAL_RTOL = 1e-9

# the eigenbasis solve loses accuracy like cond(U)^2 * eps even where it
# meets the residual contract; above this Frobenius condition number of
# the eigenvector matrix a row goes to the dense solve (the physical
# grids stay below about 130; 6 is a unitary U)
_EIGENBASIS_COND_MAX = 1e3

# largest two-mode covariance entry s the negativity accepts: the
# determinants are quartic in the entries and |Sigma^2 - 4 det V| stays
# below 160 s^4, within the float range up to s of about 3e76
_ENTRY_MAX = 1e76


@dataclass
class GaussianState:
    """Steady-state Gaussian state of the three-mode fluctuations:
    ``cov`` is the 6x6 covariance matrix (vacuum = identity/2)."""

    cov: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.cov, dtype=float)
        if V.shape != (6, 6):
            raise ParameterError(f"covariance must be 6x6, got {V.shape}")
        # an exactly symmetric V, which the solve returns, passes the
        # tolerance anyway; a NaN is unequal to itself and is refused here
        if not _COLUMN_MATH.all(V == V.T):
            if not _COLUMN_MATH.all(np.isfinite(V)):
                raise NumericalError("covariance matrix has non-finite entries")
            scale = np.abs(V).max()
            if np.abs(V - V.T).max() > 1e-10 * max(scale, 1.0):
                raise NumericalError("covariance matrix is not symmetric")
        self.cov = V


def _spectra(R):
    """Eigenvalues and right eigenvectors of a float stack of drift
    matrices, under the caller's ``np.errstate``.

    ``R`` is ``(N, n, n)``.  Returns complex ``(N, n)`` eigenvalues and
    ``(N, n, n)`` eigenvectors (as columns); row ``i`` is stable iff
    every ``lam[i].real`` is strictly negative.
    """
    if R.ndim != 3 or R.shape[1] != R.shape[2]:
        raise ParameterError(f"drift matrix must be square, got shape {R.shape[1:]}")
    if not _COLUMN_MATH.all(np.isfinite(R)):
        raise ParameterError("drift matrix has non-finite entries")
    # complex output for every stack keeps each row independent of the rest
    lam, U = _lapack.eig(R, signature="d->DD")
    if _COLUMN_MATH.any(np.isnan(lam)):  # a row that fails comes back NaN
        raise NumericalError("eigensolver failed to converge on drift matrix:\n"
                             f"{R[np.isnan(lam).any(axis=1).argmax()]!r}")
    return lam, U


def stability(drift):
    """Spectral stability of a drift matrix: ``(stable, max_re_eig)``,
    ``stable`` iff every eigenvalue has a strictly negative real part."""
    with np.errstate(all="ignore"):
        lam, _ = _spectra(np.asarray(drift, dtype=float)[None])
    max_re = float(lam.real.max())
    return max_re < 0.0, max_re


def _solve_stacked(R, D, spectra):
    """Solve R V + V R^T = -D for the stationary covariance of each row,
    under the caller's ``np.errstate``.

    ``R`` and ``D`` are float ``(N, n, n)`` stacks and ``spectra`` the
    ``(lam, U)`` of :func:`_spectra` on ``R``, whose rows must all be
    strictly stable.  Each row is solved in the drift's eigenbasis,
    symmetrized and checked against ``1e-9 * ||D||_F``; rows that miss
    the contract, or whose unit-norm eigenvectors are too badly
    conditioned to trust, fall back to the dense vectorized solve.
    """
    d_norm = _frobenius(D)
    if not _COLUMN_MATH.all(np.isfinite(d_norm)):
        if np.isnan(d_norm).any() and not np.isinf(D).any():
            raise NumericalError("diffusion matrix has NaN entries")
        raise NumericalError(  # inf noise also leaves NaN where infinities cancel
            "the residual contract cannot be checked: ||D||_F overflows "
            f"(diffusion entries up to {np.nanmax(np.abs(D)):.3e})")
    # max(1, |D_ij|) of each matrix, shaped to broadcast against the stack
    d_scale = np.maximum.reduce(np.abs(D), axis=(1, 2), keepdims=True, initial=1.0)
    # exact symmetry (what the fill builds) settles the check in one pass
    D_T = D.swapaxes(1, 2)
    if (not _COLUMN_MATH.all(D == D_T)
            and _COLUMN_MATH.any(np.abs(D - D_T) > 1e-10 * d_scale)):
        raise ParameterError("diffusion matrix must be symmetric")
    # ascending eigenvalues; a row that does not converge is NaN and fails
    d_eig = _lapack.eigvalsh_lo(D, signature="d->d")
    if not _COLUMN_MATH.all(d_eig[:, 0] >= -1e-12 * d_scale[:, 0, 0]):
        raise ParameterError("diffusion matrix must be positive semidefinite")

    lam, U = spectra
    # X is divided in place and freed early (a lower peak for a full stack);
    # -D's sign enters with the factor -0.5: IEEE rounding is sign-symmetric
    U_inv = _lapack.inv(U, signature="D->D")
    X = U_inv @ D @ U_inv.conj().swapaxes(1, 2)
    X /= lam[:, :, None] + lam.conj()[:, None, :]
    V = (U @ X @ U.conj().swapaxes(1, 2)).real
    del X
    V = -0.5 * (V + V.swapaxes(1, 2))
    RV = R @ V
    resid = _frobenius(RV + RV.swapaxes(1, 2) + D)
    cond = math.sqrt(R.shape[1]) * _frobenius(U_inv.view(float))
    accepted = ((resid <= _LYAPUNOV_RESIDUAL_RTOL * d_norm)
                & (cond <= _EIGENBASIS_COND_MAX))
    if not _COLUMN_MATH.all(accepted):
        for i in np.flatnonzero(~accepted):
            V[i] = _solve_lyapunov_dense(R[i], D[i])
    return V


def _steady_states(R, D):
    """The kernel step on float ``(N, n, n)`` drift and diffusion stacks:
    ``(max_re, stable, covs)``, the largest real part of each drift
    spectrum, the indices of the strictly stable rows and their
    covariances (None if there is none).  The drift is decomposed, and
    its stability decided, before the stable rows' diffusion is checked.
    It runs under the caller's ``np.errstate``: an overflowing ``||D||_F``,
    a NaN eigenvalue of D and a (nearly) defective or singular drift turn
    inf or NaN, which the checks decide."""
    lam, U = _spectra(R)
    max_re = np.maximum.reduce(lam.real, axis=1)  # no numpy Python wrappers
    stable = (max_re < 0.0).nonzero()[0]
    if not stable.size:
        return max_re, stable, None
    if stable.size < len(R):
        R, D, lam, U = R[stable], D[stable], lam[stable], U[stable]
    return max_re, stable, _solve_stacked(R, D, (lam, U))


def solve_lyapunov(drift, diffusion):
    """Solve R V + V R^T = -D for the stationary covariance V of a
    strictly stable drift: the kernel step on a stack of one, with its
    eigenbasis solve, dense fallback and residual contract."""
    R = np.asarray(drift, dtype=float)[None]
    D = np.asarray(diffusion, dtype=float)[None]
    if R.ndim != 3 or R.shape[1] != R.shape[2] or D.shape != R.shape:
        raise ParameterError("drift and diffusion must be square and equal-size")
    with np.errstate(all="ignore"):
        max_re, stable, covs = _steady_states(R, D)
    if not stable.size:
        raise ParameterError(
            f"drift matrix is not strictly stable (max Re eig = {max_re[0]:g}); "
            "no stationary state exists")
    return covs[0]


def _frobenius(x):
    """Frobenius norm of each matrix of a real ``(N, n, m)`` stack, or of a
    complex one as its ``view(float)``, without ``np.linalg.norm``'s dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=(1, 2)))


def _solve_lyapunov_dense(R, D):
    """Dense solve of the vectorized n^2-unknown Lyapunov system, under
    the caller's ``np.errstate``.

    One residual-refinement pass; the result is symmetrized and must
    meet the residual contract or :class:`NumericalError` is raised, so
    a nearly singular system that overflows or turns NaN is rejected.
    """
    n = R.shape[0]
    eye = np.eye(n)
    A = np.kron(eye, R) + np.kron(R, eye)
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
    return V.reshape(len(V), 36)[:, _PAIR_FLAT].reshape(-1, 3, 4, 4)


def _float_scale(v):
    """max(1, |v|) over Python floats, NaN if any entry is NaN: ``max``
    skips a NaN that is not first, a sum of magnitudes keeps it."""
    mags = list(map(abs, v))
    total = sum(mags)
    return total if math.isnan(total) else max(1.0, *mags)


#: (upper, lower) flat indices of the mirrored off-diagonal entries of a
#: 4x4 matrix stored row by row
_UPPER, _LOWER = zip(*((4 * i + j, 4 * j + i)
                       for i in range(4) for j in range(i + 1, 4)))
_UPPER_ENTRIES, _LOWER_ENTRIES = itemgetter(*_UPPER), itemgetter(*_LOWER)


def _float_asymmetry(v):
    """max |v_ij - v_ji| over Python floats: 0.0 at once where the mirrored
    entries are equal as tuples, as the solve's symmetrized blocks are
    (the scale check has already rejected a NaN or an infinity)."""
    if _UPPER_ENTRIES(v) == _LOWER_ENTRIES(v):
        return 0.0
    return max(abs(v[i] - v[j]) for i, j in zip(_UPPER, _LOWER))


#: the operations :func:`_log_negativity` runs on one matrix of floats
_FLOAT_OPS = SimpleNamespace(
    **vars(_FLOAT_MATH), scale=_float_scale, asymmetry=_float_asymmetry)

#: the same operations on columns with one entry per matrix
_COLUMN_OPS = SimpleNamespace(
    **vars(_COLUMN_MATH), scale=lambda v: np.maximum(np.abs(v).max(axis=0), 1.0),
    asymmetry=lambda v: np.abs(v[list(_UPPER)] - v[list(_LOWER)]).max(axis=0))


def _log_negativity(v, m):
    """E_N = max[0, -ln(2 eta)] of the two-mode covariance whose 16
    entries, row by row, are ``v``: Python floats with ``m`` =
    :data:`_FLOAT_OPS`, or columns with one entry per matrix with
    :data:`_COLUMN_OPS`.

    ``eta`` is the smallest symplectic eigenvalue of the partially
    transposed state, from the closed-form 2x2 block determinants and the
    Laplace expansion of the 4x4 determinant along the first mode's rows.
    Each step is the same IEEE operation on a float and on a column entry,
    so both give the same bits: the six Laplace terms are summed left to
    right, as numpy reduces six elements, ``math.sqrt`` is correctly
    rounded like numpy's, and the logarithm is numpy's on both.
    """
    scale = m.scale(v)
    if not m.all(scale <= _ENTRY_MAX):  # NaN fails too
        if not m.all(m.isfinite(scale)):
            raise NumericalError("two-mode covariance matrix has non-finite entries")
        raise NumericalError(
            f"covariance entries up to {m.max(scale):.3e} overflow the block "
            f"determinants (at most {_ENTRY_MAX:g})")
    if m.any(m.asymmetry(v) > 1e-10 * scale):
        raise NumericalError("two-mode covariance matrix is not symmetric")

    (v00, v01, v02, v03, v10, v11, v12, v13,
     v20, v21, v22, v23, v30, v31, v32, v33) = v
    # 2x2 minors on the columns (p, q) of the first mode's rows (t_pq)
    # and of the second mode's rows (l_pq)
    t01 = v00 * v11 - v01 * v10
    t02 = v00 * v12 - v02 * v10
    t03 = v00 * v13 - v03 * v10
    t12 = v01 * v12 - v02 * v11
    t13 = v01 * v13 - v03 * v11
    t23 = v02 * v13 - v03 * v12
    l01 = v20 * v31 - v21 * v30
    l02 = v20 * v32 - v22 * v30
    l03 = v20 * v33 - v23 * v30
    l12 = v21 * v32 - v22 * v31
    l13 = v21 * v33 - v23 * v31
    l23 = v22 * v33 - v23 * v32
    # det V with the complementary minor of each column pair; t01, l23
    # and t23 are det A, det B and det C of the blocks [[A, C], [C^T, B]]
    det_full = (t01 * l23 - t02 * l13 + t03 * l12
                + t12 * l03 - t13 * l02 + t23 * l01)
    sigma = t01 + l23 - 2.0 * t23

    disc = sigma * sigma - 4.0 * det_full
    bad = disc < -1e-10
    if m.any(bad):
        raise NumericalError(
            "inconsistent covariance matrix: "
            f"Sigma^2 - 4 det V = {m.first(disc, bad):g} < 0"
        )
    denom = sigma + m.sqrt(m.maximum(disc, 0.0))
    if m.any(denom <= 0.0):
        raise NumericalError("covariance matrix has non-positive Sigma")
    # eta^2 = (Sigma - sqrt(disc)) / 2 rewritten to avoid cancellation
    eta_sq = 2.0 * det_full / denom
    bad = eta_sq <= 0.0
    if m.any(bad):
        raise NumericalError(
            f"non-positive symplectic eigenvalue (det V4 = {m.first(det_full, bad):g})"
        )
    two_eta = 2.0 * m.sqrt(eta_sq)
    # rounding overshoots just above the separability boundary are 0
    return m.where(two_eta >= 1.0 - _CLAMP_TOL, 0.0, -m.log(two_eta))


def log_negativity_stacked(covs4):
    """Logarithmic negativities of a stack of two-mode covariance matrices.

    The column instance of :func:`_log_negativity`: one entry per matrix.
    """
    V = np.asarray(covs4, dtype=float)
    if V.ndim != 3 or V.shape[1:] != (4, 4):
        raise ParameterError(f"expected 4x4 covariance matrices, got {V.shape}")
    return _log_negativity(V.reshape(-1, 16).T, _COLUMN_OPS)


def log_negativity(cov4):
    """Logarithmic negativity of a two-mode covariance matrix.

    The float instance of :func:`_log_negativity`; it gives the same bits
    as the row of :func:`log_negativity_stacked`.
    """
    V4 = np.asarray(cov4, dtype=float)
    if V4.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 covariance matrix, got {V4.shape}")
    return _log_negativity(V4.ravel().tolist(), _FLOAT_OPS)


def pair_log_negativities(cov):
    """Negativities of the pairs :data:`PAIR_CHOICES` of one 6x6
    covariance given as its 36 Python floats, row by row
    (``cov.ravel().tolist()``): the float instance on each block, with no
    array built per block."""
    return [_log_negativity(block(cov), _FLOAT_OPS) for block in _PAIR_ENTRIES]
