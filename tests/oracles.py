"""Independent cross-checks of the steady-state numbers.

The package decides stability from the drift spectrum and takes the
logarithmic negativity from closed-form block determinants.  These
functions reach the same answers another way, in the style of Vitali
et al., PRL 98, 030405 (2007): the Routh-Hurwitz test on the
characteristic polynomial (Faddeev-LeVerrier, no eigenvalues), the
symplectic spectrum of the partially transposed state, and the
physicality condition ``V + iJ/2 >= 0``.

Quadrature ordering is (X1, Y1, X2, Y2, ...) and the vacuum covariance
matrix is identity/2, as in :mod:`entangle.gaussian`.
"""

import numpy as np

from entangle.errors import ParameterError


def symplectic_form(n_modes):
    """Block-diagonal symplectic form J = diag([[0, 1], [-1, 0]], ...)."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), j2)


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
