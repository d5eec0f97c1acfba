"""Gaussian-state linear algebra against independent oracles.

The Lyapunov solver is cross-checked three ways: an index-loop
construction of the vectorized system (no Kronecker products), scipy's
Bartels-Stewart solver, and direct time integration of the covariance
ODE.  The spectral stability test is cross-checked against the
Routh-Hurwitz criterion on the characteristic polynomial.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg as sla
from scipy.integrate import solve_ivp

from entangle import gaussian

from entangle.errors import NumericalError, ParameterError
from entangle.gaussian import (
    PAIR_CHOICES,
    GaussianState,
    drift_spectra,
    log_negativity,
    log_negativity_stacked,
    pair_blocks,
    reduce_two_mode,
    solve_lyapunov,
    solve_lyapunov_stacked,
    stability,
)

from oracles import (
    characteristic_polynomial,
    min_physicality_eig,
    partial_transpose,
    routh_hurwitz_stable,
    symplectic_eigenvalues,
    symplectic_form,
)


# -- oracles -----------------------------------------------------------------

def lyapunov_oracle(R, D):
    """Vectorized Lyapunov solve built entry by entry (no np.kron)."""
    n = R.shape[0]
    A = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    coeff = 0.0
                    if j == l:
                        coeff += R[i, k]
                    if i == k:
                        coeff += R[j, l]
                    A[i * n + j, k * n + l] = coeff
    v = np.linalg.solve(A, -D.reshape(-1))
    V = v.reshape(n, n)
    return 0.5 * (V + V.T)


def integrate_covariance(R, D, v0, t_end, rtol=1e-10, atol=1e-12):
    """Time integration of dV/dt = R V + V R^T + D."""
    def rhs(_, v):
        V = v.reshape(R.shape)
        return (R @ V + V @ R.T + D).reshape(-1)
    sol = solve_ivp(rhs, [0.0, t_end], v0.reshape(-1),
                    rtol=rtol, atol=atol, method="LSODA")
    assert sol.success
    V = sol.y[:, -1].reshape(R.shape)
    return 0.5 * (V + V.T)


def random_stable_system(rng, n=6, margin=0.05):
    """Random strictly stable drift and PSD diffusion, entries O(1)."""
    R = rng.standard_normal((n, n))
    shift = np.linalg.eigvals(R).real.max()
    R -= (shift + margin) * np.eye(n)
    B = rng.standard_normal((n, n))
    D = B @ B.T / n
    return R, D


def random_symplectic(rng, n_modes):
    """exp(J H) with H symmetric is symplectic in the xpxp ordering.

    The generator is kept moderate so squeezing stays in a range where
    absolute 1e-9 comparisons are meaningful.
    """
    dim = 2 * n_modes
    H = 0.3 * rng.standard_normal((dim, dim))
    H = 0.5 * (H + H.T)
    return sla.expm(symplectic_form(n_modes) @ H)


def random_local_symplectic(rng):
    blocks = [random_symplectic(rng, 1) for _ in range(2)]
    S = np.zeros((4, 4))
    S[:2, :2] = blocks[0]
    S[2:, 2:] = blocks[1]
    return S


def random_physical_cm(rng, n_modes=2, max_nu=3.0):
    nu = 0.5 + (max_nu - 0.5) * rng.random(n_modes)
    V0 = np.diag(np.repeat(nu, 2))
    S = random_symplectic(rng, n_modes)
    return S @ V0 @ S.T


def tmsv_cm(r):
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    V = np.zeros((4, 4))
    V[:2, :2] = ch * np.eye(2)
    V[2:, 2:] = ch * np.eye(2)
    V[:2, 2:] = sh * np.diag([1.0, -1.0])
    V[2:, :2] = sh * np.diag([1.0, -1.0])
    return V


# -- Lyapunov ----------------------------------------------------------------

class TestSolveLyapunov:
    def test_scalar_balance(self):
        kappa, n_th = 0.8, 2.5
        R = -kappa * np.eye(6)
        D = kappa * (2 * n_th + 1) * np.eye(6)
        V = solve_lyapunov(R, D)
        assert np.allclose(V, (n_th + 0.5) * np.eye(6), rtol=1e-13, atol=0)

    def test_reference_point_matches_loop_oracle(self):
        from entangle.dynamics import build_diffusion, build_drift
        from entangle.experiments import default_baseline
        from entangle.model import hybridize, \
            steady_state_amplitudes, drive_for_target_g_minus, TWO_PI
        p = default_baseline().params(theta=0.40 * math.pi)
        basis = hybridize(p)
        drive = drive_for_target_g_minus(basis, TWO_PI * 2e6)
        coup = steady_state_amplitudes(basis, p.omega_b, drive / p.g0, p.g0)
        R = build_drift(basis, coup, p.omega_b, p.kappa_b) / p.omega_b
        D = build_diffusion(basis, p.kappa_b, basis.n_b) / p.omega_b
        V = solve_lyapunov(R, D)
        V_ref = lyapunov_oracle(R, D)
        rel = np.linalg.norm(V - V_ref) / np.linalg.norm(V_ref)
        assert rel < 1e-9

    def test_random_instances_match_loop_oracle_and_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            R, D = random_stable_system(rng)
            V = solve_lyapunov(R, D)
            rel = np.linalg.norm(V - lyapunov_oracle(R, D)) / np.linalg.norm(D)
            assert rel < 1e-9
            V_bs = sla.solve_continuous_lyapunov(R, -D)
            assert np.allclose(V, V_bs, rtol=1e-8, atol=1e-12)

    def test_matches_ode_integration_on_stiff_instance(self):
        # rates spread over a decade around the reference frequency
        rng = np.random.default_rng(3)
        R, D = random_stable_system(rng)
        R = R - 9.0 * np.diag(rng.random(6))  # decay rates ~0.1..10
        t_end = 40.0 / abs(np.linalg.eigvals(R).real.max())
        V = solve_lyapunov(R, D)
        V_ode = integrate_covariance(R, D, 0.5 * np.eye(6), t_end)
        assert np.linalg.norm(V - V_ode) / np.linalg.norm(V) < 1e-6

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        R, D = random_stable_system(rng)
        V = solve_lyapunov(R, D)
        resid = np.linalg.norm(R @ V + V @ R.T + D)
        assert resid <= 1e-9 * np.linalg.norm(D)
        assert np.array_equal(V, V.T)

    def test_unstable_drift_rejected(self):
        R = np.diag([1.0, -1, -1, -1, -1, -1.0])
        with pytest.raises(ParameterError, match="not strictly stable"):
            solve_lyapunov(R, np.eye(6))

    def test_asymmetric_diffusion_rejected(self):
        R = -np.eye(6)
        D = np.eye(6)
        D[0, 1] = 0.5
        with pytest.raises(ParameterError):
            solve_lyapunov(R, D)

    def test_indefinite_diffusion_rejected(self):
        with pytest.raises(ParameterError):
            solve_lyapunov(-np.eye(6), np.diag([1, 1, 1, 1, 1, -1.0]))

    def test_overflowing_diffusion_norm_rejected(self):
        # finite entries whose Frobenius norm overflows leave the residual
        # contract unchecked
        with pytest.raises(NumericalError, match="overflows"):
            solve_lyapunov(-np.eye(6), 1e300 * np.eye(6))

    def test_infinite_diffusion_is_an_overflow(self):
        # thermal noise that overflows to inf in the model layer leaves inf
        # on the diagonal and NaN where two infinite terms cancel; it once
        # stopped in the eigensolver with a LinAlgError
        D = np.diag([np.inf, np.inf, np.inf, np.inf, 1.0, 1.0])
        D[0, 2] = D[2, 0] = D[1, 3] = D[3, 1] = np.nan
        with pytest.raises(NumericalError, match=r"\|\|D\|\|_F overflows "
                           r"\(diffusion entries up to inf\)"):
            solve_lyapunov(-np.eye(6), D)

    def test_nan_diffusion_is_named_not_an_overflow(self):
        D = np.eye(6)
        D[4, 5] = D[5, 4] = np.nan
        with pytest.raises(NumericalError,
                           match=r"^diffusion matrix has NaN entries$"):
            solve_lyapunov(-np.eye(6), D)

    def test_nan_diffusion_eigenvalue_fails_the_psd_check(self, monkeypatch):
        # a diffusion whose eigenvalues do not converge comes back NaN,
        # which must not pass as positive semidefinite
        monkeypatch.setattr(gaussian, "_lapack", SimpleNamespace(
            eigvalsh_lo=lambda a, signature: np.full(a.shape[:2], np.nan)))
        with pytest.raises(ParameterError, match="positive semidefinite"):
            solve_lyapunov(-np.eye(6), np.eye(6))

    def test_empty_stack(self):
        # a chunk whose points are all unstable hands the kernels nothing
        empty = np.zeros((0, 6, 6))
        assert solve_lyapunov_stacked(empty, empty).shape == (0, 6, 6)
        assert log_negativity_stacked(np.zeros((0, 4, 4))).shape == (0,)

    def test_non_finite_solution_rejected(self):
        # a subnormal decay rate: both solves overflow, and a NaN residual
        # must not pass the contract
        R = np.diag([-1e-310, -1.0, -1.0, -1.0, -1.0, -1.0])
        with pytest.raises(NumericalError, match="residual nan"):
            solve_lyapunov(R, np.eye(6))


class TestDenseFallback:
    """Drifts whose eigenbasis cannot carry the solve go to the dense system."""

    #: a 6x6 Jordan block: every eigenvalue -1, one eigenvector
    JORDAN = -np.eye(6) + np.diag(np.ones(5), 1)

    #: nearly defective 2x2 blocks, eigenvalues -0.2 +- 1e-3: the
    #: eigenbasis solve meets the residual contract (about 7e-11 ||D||),
    #: but the eigenvector matrix has a condition number of about 3e3
    NEAR_JORDAN = np.kron(np.eye(3), [[-0.2, 1.0], [1e-6, -0.2]])

    @pytest.mark.parametrize("R", [JORDAN, NEAR_JORDAN],
                             ids=["jordan", "near_jordan"])
    def test_defective_drift_takes_dense_solve(self, R, monkeypatch):
        calls = []
        dense = gaussian._solve_lyapunov_dense
        monkeypatch.setattr(gaussian, "_solve_lyapunov_dense",
                            lambda R, D: calls.append(R) or dense(R, D))
        D = np.eye(6)
        V = solve_lyapunov(R, D)
        assert len(calls) == 1
        assert np.array_equal(V, dense(R, D))
        assert np.linalg.norm(R @ V + V @ R.T + D) <= 1e-9 * np.linalg.norm(D)
        V_bs = sla.solve_continuous_lyapunov(R, -D)
        assert np.linalg.norm(V - V_bs) <= 1e-9 * np.linalg.norm(V_bs)

    def test_defective_row_leaves_other_rows_unchanged(self):
        R, D = random_stable_system(np.random.default_rng(4))
        V = solve_lyapunov_stacked(np.stack([R, self.JORDAN, R]),
                                   np.stack([D, np.eye(6), D]))
        assert np.array_equal(V[0], solve_lyapunov(R, D))
        assert np.array_equal(V[1], solve_lyapunov(self.JORDAN, np.eye(6)))
        assert np.array_equal(V[2], V[0])

    def test_singular_eigenvector_matrix_takes_dense_solve(self):
        R, D = random_stable_system(np.random.default_rng(8))
        lam, U = drift_spectra(np.stack([R, R]))
        U[1, :, 0] = 0.0  # singular: the inverse turns this row NaN
        V = solve_lyapunov_stacked(np.stack([R, R]), np.stack([D, D]), (lam, U))
        assert np.array_equal(V[0], solve_lyapunov(R, D))
        assert np.array_equal(V[1], gaussian._solve_lyapunov_dense(R, D))


# -- stacked kernels: properties over random inputs --------------------------

_PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                              derandomize=True, database=None)

_unit_matrices = arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0))


@st.composite
def stable_systems(draw):
    """Strictly stable drift and PSD diffusion, entries O(1).

    The shift makes R + R^T <= -2 margin, which bounds the condition of
    the Lyapunov operator, so agreement to 1e-9 tests the solver and
    not the problem; the eigenvectors of R stay unconstrained (Jordan
    blocks and near-coalescing eigenvalues are drawn too).
    """
    M = draw(_unit_matrices)
    margin = draw(st.floats(0.05, 2.0))
    R = M - (np.linalg.norm(M, 2) + margin) * np.eye(6)
    B = draw(_unit_matrices)
    return R, B @ B.T / 6.0


_system_stacks = st.lists(stable_systems(), min_size=1, max_size=4)


class TestStackedKernelProperties:
    @_PROPERTY_SETTINGS
    @given(_system_stacks)
    def test_residual_contract_and_kronecker_agreement(self, systems):
        Rs, Ds = (np.stack(m) for m in zip(*systems))
        Vs = solve_lyapunov_stacked(Rs, Ds)
        for R, D, V in zip(Rs, Ds, Vs):
            assert np.array_equal(V, V.T)
            assert np.linalg.norm(R @ V + V @ R.T + D) <= 1e-9 * np.linalg.norm(D)
            V_ref = lyapunov_oracle(R, D)
            assert np.linalg.norm(V - V_ref) <= 1e-9 * np.linalg.norm(V_ref)

    @_PROPERTY_SETTINGS
    @given(_system_stacks)
    def test_stacked_solve_equals_one_point_calls(self, systems):
        Rs, Ds = (np.stack(m) for m in zip(*systems))
        lam, _ = drift_spectra(Rs)
        Vs = solve_lyapunov_stacked(Rs, Ds)
        for R, D, V, row_lam in zip(Rs, Ds, Vs, lam):
            assert np.array_equal(V, solve_lyapunov(R, D))
            assert stability(R) == (True, row_lam.real.max())

    @_PROPERTY_SETTINGS
    @given(st.lists(arrays(np.float64, (6, 6), elements=st.floats(-1.0, 1.0)),
                    min_size=1, max_size=4))
    def test_stacked_negativities_equal_one_point_calls(self, factors):
        covs = np.stack([A @ A.T + 0.5 * np.eye(6) for A in factors])
        e_n = log_negativity_stacked(pair_blocks(covs).reshape(-1, 4, 4))
        expected = [log_negativity(reduce_two_mode(V, pair))
                    for V in covs for pair in PAIR_CHOICES]
        assert e_n.tolist() == expected

    @pytest.mark.parametrize("V, message", [
        (1e100 * np.eye(4), "covariance entries up to 1.000e+100 overflow"),
        (np.diag([0.5, 0.5, np.nan, 0.5]), "has non-finite entries"),
        (0.5 * np.eye(4) + np.triu(np.full((4, 4), 0.3), 1),
         "two-mode covariance matrix is not symmetric"),
        (np.array([[4.0, 2.0, -1.0, 1.0], [2.0, 0.0, 1.0, -2.0],
                   [-1.0, 1.0, -2.0, 2.0], [1.0, -2.0, 2.0, -6.0]]),
         "Sigma^2 - 4 det V = -32 < 0"),
        (np.diag([1.0, -1.0, 1.0, -1.0]), "covariance matrix has non-positive Sigma"),
        (np.array([[1.0, 0.0, 0.9, 0.0], [0.0, 1.0, 0.0, 0.0],
                   [0.9, 0.0, 0.01, 0.0], [0.0, 0.0, 0.0, 0.01]]),
         "non-positive symplectic eigenvalue (det V4 = -0.008)"),
    ], ids=["overflow", "nan", "asymmetric", "disc", "sigma", "eta"])
    def test_stacked_and_one_point_calls_fail_alike(self, V, message):
        # the failing matrix follows a valid one, so the stacked call
        # reports the row it meets first
        with pytest.raises(NumericalError) as one_point:
            log_negativity(V)
        with pytest.raises(NumericalError) as stacked:
            log_negativity_stacked(np.stack([0.5 * np.eye(4), V]))
        assert message in str(one_point.value)
        assert str(stacked.value) == str(one_point.value)


# -- LAPACK gufuncs against the np.linalg wrappers ---------------------------

class TestLapackGufuncs:
    """The kernels call numpy's LAPACK gufuncs, not the ``np.linalg``
    wrappers; the wrappers are the reference, bit for bit.  A numpy that
    renames the private gufunc module fails here."""

    @staticmethod
    def assert_same_bits(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("symmetric", [False, True], ids=["complex", "real"])
    def test_eig_matches_numpy(self, symmetric):
        # numpy's wrapper returns real arrays for a stack whose spectra are
        # all real; cast to complex they are the gufunc's complex output
        R = np.random.default_rng(21).standard_normal((16, 6, 6))
        if symmetric:
            R = R + R.swapaxes(1, 2)
        ref_lam, ref_U = np.linalg.eig(R)
        assert (ref_lam.dtype == float) == symmetric
        lam, U = drift_spectra(R)
        self.assert_same_bits(lam, ref_lam.astype(complex))
        self.assert_same_bits(U, ref_U.astype(complex))

    def test_inv_matches_numpy_and_a_singular_row_turns_nan_alone(self):
        rng = np.random.default_rng(23)
        U = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        U[2, :, 3] = 0.0
        with np.errstate(all="ignore"):
            U_inv = gaussian._lapack.inv(U, signature="D->D")
        assert np.isnan(U_inv[2]).all()
        regular = [0, 1, 3, 4]
        self.assert_same_bits(U_inv[regular], np.linalg.inv(U[regular]))

    def test_eigvalsh_matches_numpy(self):
        B = np.random.default_rng(24).standard_normal((16, 6, 6))
        D = B @ B.swapaxes(1, 2)
        self.assert_same_bits(gaussian._lapack.eigvalsh_lo(D, signature="d->d"),
                              np.linalg.eigvalsh(D))

    def test_non_converged_row_is_named(self, monkeypatch):
        # a row whose eigenvalues do not converge comes back NaN; the error
        # shows that row's matrix, not the first of the stack
        rng = np.random.default_rng(25)
        R = np.stack([random_stable_system(rng)[0] for _ in range(3)])
        eig = gaussian._lapack.eig

        def eig_failing_on_row_1(a, signature):
            lam, U = eig(a, signature=signature)
            lam[1] = U[1] = np.nan
            return lam, U

        monkeypatch.setattr(gaussian, "_lapack",
                            SimpleNamespace(eig=eig_failing_on_row_1))
        with pytest.raises(NumericalError, match="failed to converge") as info:
            drift_spectra(R)
        assert str(info.value).endswith(f":\n{R[1]!r}")


# -- stability ---------------------------------------------------------------

class TestStability:
    def test_diagonal_decay(self):
        rates = np.array([0.3, 0.3, 1.0, 1.0, 2.0, 2.0])
        stable, max_re = stability(-np.diag(rates))
        assert stable
        assert max_re == pytest.approx(-0.3, rel=1e-14)

    def test_non_finite_rejected(self):
        R = np.eye(6)
        R[0, 0] = np.nan
        with pytest.raises(ParameterError):
            stability(R)

    @pytest.mark.parametrize("drift", [np.ones((2, 3)), np.ones(3)],
                             ids=["2x3", "vector"])
    def test_non_square_rejected(self, drift):
        # once reported as an eigensolver that failed to converge
        with pytest.raises(ParameterError, match="drift matrix must be square"):
            stability(drift)

    def test_agrees_with_routh_hurwitz_on_randoms(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(300):
            R = rng.standard_normal((6, 6))
            stable, max_re = stability(R)
            if abs(max_re) < 1e-9:  # boundary band excluded by contract
                continue
            coeffs = characteristic_polynomial(R)
            assert routh_hurwitz_stable(coeffs) == stable
            checked += 1
        assert checked > 250

    def test_stability_sign_matches_ode_growth(self):
        rng = np.random.default_rng(5)
        n_checked = 0
        for _ in range(20):
            R = rng.standard_normal((6, 6)) - 0.4 * np.eye(6)
            stable, max_re = stability(R)
            if abs(max_re) < 1e-3:
                continue
            D = np.eye(6)
            t1 = 2.0 / abs(max_re)
            if stable:
                V_inf = solve_lyapunov(R, D)
                V1 = integrate_covariance(R, D, 0.5 * np.eye(6), t1)
                V2 = integrate_covariance(R, D, 0.5 * np.eye(6), 3 * t1)
                err1 = np.linalg.norm(V1 - V_inf)
                err2 = np.linalg.norm(V2 - V_inf)
                assert err2 < err1
            else:
                V1 = integrate_covariance(R, D, 0.5 * np.eye(6), t1,
                                          rtol=1e-8, atol=1e-10)
                V2 = integrate_covariance(R, D, 0.5 * np.eye(6), 2 * t1,
                                          rtol=1e-8, atol=1e-10)
                assert np.linalg.norm(V2) > 2.0 * np.linalg.norm(V1)
            n_checked += 1
        assert n_checked >= 15


class TestCharacteristicPolynomial:
    def test_matches_roots_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            R = rng.standard_normal((6, 6))
            coeffs = characteristic_polynomial(R)
            ref = np.poly(np.linalg.eigvals(R))
            assert np.allclose(coeffs, ref.real, rtol=1e-8, atol=1e-10)

    def test_known_companion(self):
        # companion matrix of s^2 - 3 s + 2
        M = np.array([[0.0, -2.0], [1.0, 3.0]])
        assert np.allclose(characteristic_polynomial(M), [1.0, -3.0, 2.0])


class TestRouthHurwitz:
    @pytest.mark.parametrize("roots,expect", [
        ([-1, -2, -3, -4, -5, -6], True),
        ([-1, -2, -3, -4, -5, 0.5], False),
        ([-1 + 2j, -1 - 2j, -0.1 + 1j, -0.1 - 1j, -3, -4], True),
        ([0.2 + 1j, 0.2 - 1j, -1, -2, -3, -4], False),
    ])
    def test_known_spectra(self, roots, expect):
        coeffs = np.poly(np.array(roots, dtype=complex)).real
        assert routh_hurwitz_stable(coeffs) is expect

    def test_boundary_reported_unstable(self):
        coeffs = np.poly([0.0, -1.0, -2.0, -3.0, -4.0, -5.0]).real
        assert routh_hurwitz_stable(coeffs) is False

    def test_rejects_nonpositive_leading_coefficient(self):
        with pytest.raises(ParameterError):
            routh_hurwitz_stable([-1.0, 1.0, 1.0])


# -- two-mode reduction ------------------------------------------------------

class TestReduceTwoMode:
    def test_diagonal_selection(self):
        V = np.diag([1.0, 2, 3, 4, 5, 6])
        assert np.array_equal(reduce_two_mode(V, "+-"),
                              np.diag([1.0, 2, 3, 4]))
        assert np.array_equal(reduce_two_mode(V, "-b"),
                              np.diag([3.0, 4, 5, 6]))
        assert np.array_equal(reduce_two_mode(V, "+b"),
                              np.diag([1.0, 2, 5, 6]))

    def test_vacuum_reduces_to_vacuum(self):
        assert np.array_equal(reduce_two_mode(0.5 * np.eye(6), "-b"),
                              0.5 * np.eye(4))

    def test_untouched_mode_permutation_commutes(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((6, 6))
        V = M + M.T
        perm = np.arange(6)
        perm[[4, 5]] = [5, 4]  # scramble the b quadratures
        V_perm = V[np.ix_(perm, perm)]
        assert np.array_equal(reduce_two_mode(V, "+-"),
                              reduce_two_mode(V_perm, "+-"))

    def test_bad_pair_rejected(self):
        with pytest.raises(ParameterError):
            reduce_two_mode(0.5 * np.eye(6), "b-")


# -- logarithmic negativity --------------------------------------------------

class TestLogNegativity:
    def test_vacuum_is_exactly_zero(self):
        assert log_negativity(0.5 * np.eye(4)) == 0.0

    def test_thermal_product_is_zero(self):
        assert log_negativity(2.7 * np.eye(4)) == 0.0

    def test_two_mode_squeezed_vacuum(self):
        # analytic smallest PT symplectic eigenvalue: eta = exp(-2r)/2
        r = 0.5
        assert log_negativity(tmsv_cm(r)) == pytest.approx(2 * r, abs=1e-9)

    def test_tmsv_against_symplectic_spectrum_route(self):
        r = 0.8
        V = tmsv_cm(r)
        nus = symplectic_eigenvalues(partial_transpose(V))
        assert nus.min() == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-10)
        assert log_negativity(V) == pytest.approx(
            -math.log(2 * nus.min()), rel=1e-9)

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            V = random_physical_cm(rng)
            S = random_local_symplectic(rng)
            before = log_negativity(V)
            after = log_negativity(S @ V @ S.T)
            assert after == pytest.approx(before, abs=1e-9)

    def test_monotone_under_thermal_noise(self):
        V = tmsv_cm(0.7)
        base = log_negativity(V)
        for t in (0.1, 1.0):
            assert log_negativity(V + t * np.eye(4)) <= base

    def test_random_product_states_separable(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            V = np.zeros((4, 4))
            V[:2, :2] = random_physical_cm(rng, n_modes=1)
            V[2:, 2:] = random_physical_cm(rng, n_modes=1)
            assert log_negativity(V) == 0.0

    def test_inconsistent_cm_rejected(self):
        V = np.diag([1.0, 1.0, 0.01, 0.01])
        V[0, 2] = V[2, 0] = 0.9  # det V < 0: no physical state has it
        with pytest.raises(NumericalError, match="non-positive symplectic eigenvalue"):
            log_negativity(V)

    def test_asymmetric_input_rejected(self):
        V = 0.5 * np.eye(4)
        V[0, 1] = 0.3
        with pytest.raises(NumericalError, match="two-mode covariance matrix is not symmetric"):
            log_negativity(V)

    def test_non_finite_input_rejected(self):
        V = 0.5 * np.eye(4)
        V[1, 1] = np.nan
        with pytest.raises(NumericalError, match="has non-finite entries"):
            log_negativity(V)

    def test_overflowing_determinants_rejected(self):
        # the 4x4 determinant is quartic in the entries
        with pytest.raises(NumericalError, match="overflow"):
            log_negativity(1e100 * np.eye(4))


class TestPhysicality:
    def test_vacuum_saturates(self):
        assert min_physicality_eig(0.5 * np.eye(6)) == pytest.approx(0.0, abs=1e-12)

    def test_random_physical_states(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            V = random_physical_cm(rng, n_modes=3)
            assert min_physicality_eig(V) >= -1e-8

    def test_squeezed_below_vacuum_detected(self):
        V = 0.5 * np.eye(6)
        V[0, 0] = 0.1  # x squeezed with no purity compensation
        assert min_physicality_eig(V) < -1e-3

    def test_symplectic_eigenvalues_of_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(0.5 * np.eye(6)), 0.5)


class TestGaussianState:
    def test_symmetry_enforced(self):
        V = 0.5 * np.eye(6)
        V[0, 1] = 1e-3
        with pytest.raises(NumericalError, match="covariance matrix is not symmetric"):
            GaussianState(V)

    def test_shape_enforced(self):
        with pytest.raises(ParameterError):
            GaussianState(np.eye(4))

    def test_physicality_helper(self):
        state = GaussianState(0.5 * np.eye(6))
        assert min_physicality_eig(state.cov) >= -1e-12
