"""Dense linear algebra for small Gaussian states.

Steady-state covariance matrices of linearized bosonic dynamics: a
direct Lyapunov solver, a spectral stability test with an independent
Routh-Hurwitz cross-check, two-mode reduction, symplectic eigenvalues,
and the logarithmic negativity.

Quadrature ordering is fixed globally as (X+, Y+, X-, Y-, Xb, Yb) and
the vacuum covariance matrix is identity/2.  Drift and diffusion inputs
are expected nondimensionalized (divided by a reference frequency) for
conditioning; the covariance matrix itself is dimensionless either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidStateError,
    NumericalError,
    ParameterError,
    UnstableDriftError,
)

#: quadrature slots of each mode in the global ordering
MODE_SLOTS = {"+": (0, 1), "-": (2, 3), "b": (4, 5)}

#: valid mode-pair selectors for two-mode reduction
PAIR_CHOICES = ("+-", "+b", "-b")

# negativities this small above the separability boundary are rounding,
# not entanglement
_CLAMP_TOL = 1e-10

_LYAPUNOV_RESIDUAL_RTOL = 1e-9


def symplectic_form(n_modes):
    """Block-diagonal symplectic form J = diag([[0, 1], [-1, 0]], ...)."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), j2)


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
            raise InvalidStateError("covariance matrix is not symmetric")
        self.cov = V

    def physicality_min_eig(self):
        """Smallest eigenvalue of V + iJ/2; >= -1e-8 for a physical state."""
        return min_physicality_eig(self.cov)


def stability(drift):
    """Spectral stability of a drift matrix.

    Returns ``(stable, max_re_eig)`` where ``stable`` is True iff every
    eigenvalue has a strictly negative real part.
    """
    R = np.asarray(drift, dtype=float)
    if not np.all(np.isfinite(R)):
        raise ParameterError("drift matrix has non-finite entries")
    try:
        eigs = np.linalg.eigvals(R)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed to converge on drift matrix:\n{R!r}"
        ) from exc
    max_re = float(eigs.real.max())
    return max_re < 0.0, max_re


def characteristic_polynomial(matrix):
    """Coefficients of det(s*I - M), monic, by Faddeev-LeVerrier.

    Trace-based recursion; independent of any eigenvalue computation.
    """
    M = np.asarray(matrix, dtype=float)
    n = M.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[k - 1] * M
        coeffs[k] = -np.trace(Mk) / k
    return coeffs


def routh_hurwitz_stable(coeffs):
    """Routh array test: are all polynomial roots in the open left half-plane?

    A zero pivot in the first column marks a root on the imaginary axis
    (the stability boundary) and is reported as not stable.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ParameterError("need at least a degree-1 polynomial")
    if a[0] <= 0.0:
        raise ParameterError("leading coefficient must be positive")
    width = (a.size + 1) // 2
    prev = np.zeros(width + 1)
    cur = np.zeros(width + 1)
    prev[: (a.size + 1) // 2] = a[0::2]
    cur[: a.size // 2] = a[1::2]
    if cur[0] <= 0.0:
        return False
    for _ in range(a.size - 2):
        nxt = (cur[0] * prev[1:] - prev[0] * cur[1:]) / cur[0]
        if nxt[0] <= 0.0:
            return False
        prev, cur = cur, np.append(nxt, 0.0)
    return True


def solve_lyapunov(drift, diffusion):
    """Solve R V + V R^T = -D for the stationary covariance V.

    Direct dense solve of the vectorized 36-unknown linear system with
    one residual-refinement pass; the result is symmetrized and its
    residual checked against ``1e-9 * ||D||_F``.
    """
    R = np.asarray(drift, dtype=float)
    D = np.asarray(diffusion, dtype=float)
    n = R.shape[0]
    if R.shape != (n, n) or D.shape != (n, n):
        raise ParameterError("drift and diffusion must be square and equal-size")
    d_scale = np.abs(D).max()
    if np.abs(D - D.T).max() > 1e-10 * max(d_scale, 1.0):
        raise ParameterError("diffusion matrix must be symmetric")
    if np.linalg.eigvalsh(D).min() < -1e-12 * max(d_scale, 1.0):
        raise ParameterError("diffusion matrix must be positive semidefinite")

    stable, max_re = stability(R)
    if not stable:
        raise UnstableDriftError(
            f"drift matrix is not strictly stable (max Re eig = {max_re:g}); "
            "no stationary state exists"
        )

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
    d_norm = np.linalg.norm(D)
    resid_norm = np.linalg.norm(R @ V + V @ R.T + D)
    if resid_norm > _LYAPUNOV_RESIDUAL_RTOL * d_norm:
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
    idx = MODE_SLOTS[pair[0]] + MODE_SLOTS[pair[1]]
    return V[np.ix_(idx, idx)].copy()


def partial_transpose(cov4):
    """Partial transposition of a two-mode covariance matrix.

    Flips the sign of the second mode's momentum quadrature.
    """
    P = np.diag([1.0, 1.0, 1.0, -1.0])
    return P @ np.asarray(cov4, dtype=float) @ P


def symplectic_eigenvalues(cov):
    """Symplectic spectrum of a covariance matrix: |eig(iJV)|, one per mode."""
    V = np.asarray(cov, dtype=float)
    n_modes = V.shape[0] // 2
    J = symplectic_form(n_modes)
    nu = np.abs(np.linalg.eigvals(1j * J @ V))
    nu.sort()
    return nu[::2]


def min_physicality_eig(cov):
    """Smallest eigenvalue of the Hermitian matrix V + iJ/2.

    Non-negative (up to rounding) iff V describes a physical Gaussian
    state in the vacuum = identity/2 convention.
    """
    V = np.asarray(cov, dtype=float)
    n_modes = V.shape[0] // 2
    J = symplectic_form(n_modes)
    return float(np.linalg.eigvalsh(V + 0.5j * J).min())


def log_negativity(cov4):
    """Logarithmic negativity of a two-mode covariance matrix.

    E_N = max[0, -ln(2 eta)], with eta the smallest symplectic
    eigenvalue of the partially transposed state, evaluated from the
    block determinants.  Rounding overshoots just above the
    separability boundary are clamped to exactly 0.
    """
    V4 = np.asarray(cov4, dtype=float)
    if V4.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 covariance matrix, got {V4.shape}")
    scale = np.abs(V4).max()
    if np.abs(V4 - V4.T).max() > 1e-10 * max(scale, 1.0):
        raise InvalidStateError("two-mode covariance matrix is not symmetric")

    det_plus = np.linalg.det(V4[:2, :2])
    det_minus = np.linalg.det(V4[2:, 2:])
    det_cross = np.linalg.det(V4[:2, 2:])
    det_full = np.linalg.det(V4)
    sigma = det_plus + det_minus - 2.0 * det_cross

    disc = sigma * sigma - 4.0 * det_full
    if disc < -1e-10:
        raise InvalidStateError(
            f"inconsistent covariance matrix: Sigma^2 - 4 det V = {disc:g} < 0"
        )
    disc = max(disc, 0.0)
    denom = sigma + np.sqrt(disc)
    if denom <= 0.0:
        raise InvalidStateError("covariance matrix has non-positive Sigma")
    # eta^2 = (Sigma - sqrt(disc)) / 2 rewritten to avoid cancellation
    eta_sq = 2.0 * det_full / denom
    if eta_sq <= 0.0:
        raise InvalidStateError(
            f"non-positive symplectic eigenvalue (det V4 = {det_full:g})"
        )
    two_eta = 2.0 * np.sqrt(eta_sq)
    if two_eta >= 1.0 - _CLAMP_TOL:
        return 0.0
    return float(-np.log(two_eta))
