"""Bare-mode oracle for the stationary polariton state.

An independent construction of what :func:`entangle.dynamics.run_pipeline`
computes.  Where the package works in the polariton basis with closed-form
mixed rates, occupations and amplitudes, this module writes the
Heisenberg-Langevin equations of the bare modes ``(a, c, b)``:

    da/dt = -(i Delta_a + kappa_a) a - i g c
    dc/dt = -(i Delta_c + kappa_c) c - i g a - (G_c / 2) (b + b^dag)
    db/dt = -(i omega_b + kappa_b) b + (G_c^* c - G_c c^dag) / 2

with ``G_c = 2 i G0 <c>`` from the linear mean-field solve of the driven
``(a, c)`` pair, the drive scaled so that ``|G_-| = 2 G0 |<A_->|`` hits the
target, and a thermal bath of Bose occupation ``n_j`` on each bare mode.
The stationary covariance comes from scipy's Bartels-Stewart solver and is
rotated into polariton quadratures by the mixing angle
``A_+ = cos(theta) a + sin(theta) c``, ``A_- = -sin(theta) a + cos(theta) c``.
The log-negativity is taken from the symplectic spectrum of the partial
transpose, not from block determinants.  Of a parameter point, only the
:class:`SystemParams` fields and the target ``|G_-|`` are read.
"""

import math

import numpy as np
from scipy.constants import hbar, k as k_B
from scipy.linalg import solve_continuous_lyapunov

from entangle.experiments import EN_THRESHOLD, SweepAxis
from entangle.model import TWO_PI

#: the 10 mK kappa_b/2pi line (Hz), ten points a decade, extended past the
#: E_N < EN_THRESHOLD crossing that the default axis never reaches
KAPPA_B_LINE = SweepAxis(1e2, 1e8, 61, "log")


def _bose(omega, temperature):
    if temperature == 0.0:
        return 0.0
    try:
        return 1.0 / math.expm1(hbar * omega / (k_B * temperature))
    except OverflowError:  # hbar omega / k_B T past about 709: n underflows to 0
        return 0.0


def _mixing_angle(params):
    return 0.5 * math.atan2(2.0 * params.g, params.omega_a - params.omega_c)


def _quadrature_drift(M, N):
    """Drift of (X1, Y1, X2, Y2, ...) for d alpha/dt = M alpha + N alpha^*."""
    n = M.shape[0]
    block = np.block([[(M + N).real, -(M - N).imag],
                      [(M + N).imag, (M - N).real]])
    order = np.ravel(np.column_stack([np.arange(n), n + np.arange(n)]))
    return block[np.ix_(order, order)]


def bare_mode_drift_diffusion(params, target_g_minus):
    """Drift and diffusion of the bare-mode quadratures (X_a, Y_a, X_c, Y_c, X_b, Y_b)."""
    theta = _mixing_angle(params)
    delta_a = params.omega_a - params.omega_0
    delta_c = params.omega_c - params.omega_0
    ac = np.array([[-(1j * delta_a + params.kappa_a), -1j * params.g],
                   [-1j * params.g, -(1j * delta_c + params.kappa_c)]])
    # linear mean field under a unit drive on c, scaled so that
    # |G_-| = 2 G0 |<A_->| hits the target; G_c = 2 i G0 <c> then
    # does not depend on G0
    a, c = np.linalg.solve(-ac, [0.0, 1.0])
    amp_minus = -math.sin(theta) * a + math.cos(theta) * c
    g_c = 1j * target_g_minus * c / abs(amp_minus)
    M = np.zeros((3, 3), dtype=complex)
    M[:2, :2] = ac
    M[1, 2] = -g_c / 2.0
    M[2, 1] = np.conj(g_c) / 2.0
    M[2, 2] = -(1j * params.omega_b + params.kappa_b)
    N = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -g_c / 2.0],
        [0.0, -g_c / 2.0, 0.0],
    ])
    noise = [kappa * (2.0 * _bose(omega, params.temperature) + 1.0)
             for omega, kappa in ((params.omega_a, params.kappa_a),
                                  (params.omega_c, params.kappa_c),
                                  (params.omega_b, params.kappa_b))]
    return _quadrature_drift(M, N), np.diag(np.repeat(noise, 2))


def polariton_rotation(params):
    """Orthogonal map from bare to polariton quadratures (X+, Y+, X-, Y-, Xb, Yb)."""
    theta = _mixing_angle(params)
    s, c = math.sin(theta), math.cos(theta)
    modes = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return np.kron(modes, np.eye(2))


def bare_mode_covariance(params, target_g_minus):
    """Stationary covariance in polariton quadratures, or None if unstable."""
    R, D = bare_mode_drift_diffusion(params, target_g_minus)
    if np.linalg.eigvals(R).real.max() >= 0.0:
        return None
    wb = params.omega_b
    V = solve_continuous_lyapunov(R / wb, -D / wb)
    T = polariton_rotation(params)
    return T @ (0.5 * (V + V.T)) @ T.T


def symplectic_log_negativity(cov4):
    """E_N = max(0, -ln 2 nu) from the partially transposed symplectic spectrum."""
    P = np.diag([1.0, 1.0, 1.0, -1.0])
    J = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    nu = np.abs(np.linalg.eigvals(1j * J @ P @ cov4 @ P)).min()
    return max(0.0, -math.log(2.0 * nu))


def bare_mode_kappa_b_crossing(base, kappa_b_values, temperature=0.010):
    """Smallest kappa_b/2pi (Hz) whose oracle point is unstable or below EN_THRESHOLD.

    The same definition as the ``kappa_b_crit_hz`` summary of the
    temperature x kappa_b sweep; None when the values never cross.
    """
    for kb in kappa_b_values:
        params = base.params(temperature=temperature, kappa_b=TWO_PI * kb)
        cov = bare_mode_covariance(params, base.target_g_minus)
        if cov is None or symplectic_log_negativity(cov[:4, :4]) < EN_THRESHOLD:
            return float(kb)
    return None
