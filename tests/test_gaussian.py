"""Gaussian-state linear algebra against independent oracles.

The Lyapunov solver is cross-checked three ways: an index-loop
construction of the vectorized system (no Kronecker products), scipy's
Bartels-Stewart solver, and direct time integration of the covariance
ODE.  The spectral stability test is cross-checked against the
Routh-Hurwitz criterion on the characteristic polynomial.
"""

import math
import random
import re
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
from entangle.experiments import SweepSpec, default_baseline, run_sweep
from entangle.gaussian import (
    PAIR_CHOICES,
    GaussianState,
    log_negativity,
    log_negativity_stacked,
    pair_blocks,
    reduce_two_mode,
    solve_lyapunov,
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


# -- the stacked cores -------------------------------------------------------

def core_spectra(R):
    """The kernel step's eigendecomposition of a stack of drifts."""
    with np.errstate(invalid="ignore"):
        return gaussian._spectra(np.asarray(R, dtype=float))


def core_solve(R, D):
    """The kernel step's Lyapunov solve of a stack of stable rows."""
    with np.errstate(all="ignore"):
        return gaussian._solve_stacked(R, D, gaussian._spectra(R))


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
        coup = steady_state_amplitudes(basis, drive)
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

    def test_unstable_drift_is_refused_before_the_diffusion_is_checked(self):
        # the kernel step's order: drift first, then diffusion
        D = np.eye(6)
        D[0, 1] = 0.5
        with pytest.raises(ParameterError, match="not strictly stable"):
            solve_lyapunov(np.diag([1.0, -1, -1, -1, -1, -1.0]), D)

    def test_asymmetric_diffusion_rejected(self):
        R = -np.eye(6)
        D = np.eye(6)
        D[0, 1] = 0.5
        with pytest.raises(ParameterError):
            solve_lyapunov(R, D)

    @pytest.mark.parametrize("entry, error", [
        (0.1 + 1e-12, None),
        (0.1 + 1e-6, (ParameterError, "diffusion matrix must be symmetric")),
        (np.nan, (NumericalError, "diffusion matrix has NaN entries")),
    ], ids=["within-tolerance", "1e-6", "nan"])
    def test_inexact_symmetry_takes_the_tolerance(self, entry, error):
        # D[0, 2] against D[2, 0] = 0.1: not exactly symmetric
        D = np.eye(6)
        D[0, 2], D[2, 0] = entry, 0.1
        if error is not None:
            with pytest.raises(error[0], match=f"^{error[1]}$"):
                solve_lyapunov(-np.eye(6), D)
            return
        V = solve_lyapunov(-np.eye(6), D)
        assert np.array_equal(V, V.T)
        assert V[0, 2] == pytest.approx(0.05, rel=1e-10)

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
            eig=gaussian._lapack.eig,
            eigvalsh_lo=lambda a, signature: np.full(a.shape[:2], np.nan)))
        with pytest.raises(ParameterError, match="positive semidefinite"):
            solve_lyapunov(-np.eye(6), np.eye(6))

    @pytest.mark.parametrize("drift, diffusion", [
        (-np.eye(6), np.eye(5)),
        (-np.ones((6, 5)), np.ones((6, 5))),
    ], ids=["sizes", "not-square"])
    def test_unequal_or_non_square_shapes_rejected(self, drift, diffusion):
        with pytest.raises(ParameterError,
                           match="^drift and diffusion must be square and equal-size$"):
            solve_lyapunov(drift, diffusion)

    def test_empty_stack(self):
        # a stack of no matrices gives no negativities
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

    def test_singular_vectorized_system_is_named(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        # kron(I, R) + kron(R, I) is -2 I for R = -I: condition number 1
        with pytest.raises(NumericalError, match=r"^vectorized Lyapunov system is "
                           r"singular \(condition estimate 1\.000e\+00\)$"):
            gaussian._solve_lyapunov_dense(-np.eye(6), np.eye(6))

    def test_defective_row_leaves_other_rows_unchanged(self):
        R, D = random_stable_system(np.random.default_rng(4))
        V = core_solve(np.stack([R, self.JORDAN, R]), np.stack([D, np.eye(6), D]))
        assert np.array_equal(V[0], solve_lyapunov(R, D))
        assert np.array_equal(V[1], solve_lyapunov(self.JORDAN, np.eye(6)))
        assert np.array_equal(V[2], V[0])

    def test_singular_eigenvector_matrix_takes_dense_solve(self):
        # the pipeline's core, which takes the spectra of stable rows
        R, D = random_stable_system(np.random.default_rng(8))
        lam, U = core_spectra(np.stack([R, R]))
        U[1, :, 0] = 0.0  # singular: the inverse turns this row NaN
        with np.errstate(all="ignore"):
            V = gaussian._solve_stacked(np.stack([R, R]), np.stack([D, D]), (lam, U))
        assert np.array_equal(V[0], solve_lyapunov(R, D))
        assert np.array_equal(V[1], gaussian._solve_lyapunov_dense(R, D))



# -- the eigenbasis gates ----------------------------------------------------

def point_api_draws(seed, grid=16):
    """The (theta, |G_-|) calls of the benchmark's ``point_api`` workload:
    one seeded draw in each cell of a grid x grid partition of the box."""
    rng = random.Random(seed)
    calls = [((0.26 + 0.23 * (i + rng.random()) / grid) * math.pi,
              2.0 * math.pi * 6e6 * (j + rng.random()) / grid)
             for i in range(grid) for j in range(grid)]
    rng.shuffle(calls)
    return calls


@pytest.fixture(scope="module")
def pipeline_stacks():
    """Every drift stack the pipeline's kernel step decomposes, and every
    ``(drifts, diffusions, spectra)`` of stable rows it solves, on the
    ``point_api`` box (seeds 1 and 7) and the default theta grid."""
    spectra_calls, solve_calls, covs = [], [], []
    spectra, solve = gaussian._spectra, gaussian._solve_stacked

    def recording_spectra(R):
        spectra_calls.append(R)
        return spectra(R)

    def recording_solve(R, D, pair):
        solve_calls.append((R, D, pair))
        covs.append(solve(R, D, pair))
        return covs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "_spectra", recording_spectra)
        mp.setattr(gaussian, "_solve_stacked", recording_solve)
        base = default_baseline()
        for seed in (1, 7):
            for theta, g_minus in point_api_draws(seed):
                base.evaluate(theta=theta, target_g_minus=g_minus)
        run_sweep(base, SweepSpec("theta"))
    assert len(spectra_calls) > 512 and len(solve_calls) > 256
    return SimpleNamespace(drifts=spectra_calls, solves=solve_calls,
                           covs=np.concatenate(covs))


def parent_accepted(R, D, lam, U):
    """Rows the eigenbasis solve keeps, by the gates' defining formulas:
    the residual with two products and both Frobenius norms of the
    condition number from ``np.linalg.norm``."""
    with np.errstate(all="ignore"):
        U_inv = gaussian._lapack.inv(U, signature="D->D")
        X = -(U_inv @ D @ U_inv.conj().swapaxes(1, 2))
        X /= lam[:, :, None] + lam.conj()[:, None, :]
        V = (U @ X @ U.conj().swapaxes(1, 2)).real
        V = 0.5 * (V + V.swapaxes(1, 2))
        resid = np.linalg.norm(R @ V + V @ R.swapaxes(1, 2) + D, axis=(1, 2))
        cond = (np.linalg.norm(U, axis=(1, 2))
                * np.linalg.norm(U_inv, axis=(1, 2)))
    return (resid <= 1e-9 * np.linalg.norm(D, axis=(1, 2))) & (cond <= 1e3)


def gate_cases():
    """The near-defective drifts of the dense-fallback tests, and a stack
    whose second eigenvector matrix is singular."""
    cases = []
    for R in (TestDenseFallback.JORDAN, TestDenseFallback.NEAR_JORDAN):
        cases.append((R[None], np.eye(6)[None], core_spectra(R[None])))
    R, D = random_stable_system(np.random.default_rng(8))
    lam, U = core_spectra(np.stack([R, R]))
    U[1, :, 0] = 0.0
    cases.append((np.stack([R, R]), np.stack([D, D]), (lam, U)))
    return cases


class TestExactSymmetry:
    """The fill builds every diffusion and the solve returns every
    covariance exactly symmetric, so the diffusion's symmetry check and
    the stacked negativity's settle on their equality tests, and a point's
    negativities need no symmetry check of their own.  A change that broke
    this would keep every verdict but send every stack down the tolerance
    path.  The kernel step is a point's one covariance check: what it
    returns is also finite and 6x6."""

    def test_pipeline_diffusions_are_exactly_symmetric(self, pipeline_stacks):
        for _, D, _ in pipeline_stacks.solves:
            assert np.array_equal(D, D.swapaxes(1, 2))

    def test_pipeline_covariances_are_exactly_symmetric(self, pipeline_stacks):
        covs = pipeline_stacks.covs
        assert len(covs) == 368 + 158  # stable point_api draws, stable theta rows
        assert np.array_equal(covs, covs.swapaxes(1, 2))
        assert covs.shape[1:] == (6, 6)
        assert np.isfinite(covs).all()


class TestEigenbasisGates:
    """The condition gate takes ``||U||_F = sqrt(n)`` from LAPACK's
    unit-norm eigenvectors, and the residual one product ``R V``; both
    must decide every row as the defining formulas do."""

    @staticmethod
    def assert_unit_eigenvectors(R):
        _, U = core_spectra(R)
        np.testing.assert_allclose(np.linalg.norm(U, axis=(1, 2)),
                                   math.sqrt(R.shape[1]), rtol=1e-12, atol=0.0)

    def test_pipeline_eigenvectors_have_unit_norm(self, pipeline_stacks):
        for R in pipeline_stacks.drifts:
            self.assert_unit_eigenvectors(R)

    @pytest.mark.parametrize("symmetric", [False, True],
                             ids=["complex_pairs", "all_real"])
    def test_random_eigenvectors_have_unit_norm(self, symmetric):
        R = np.random.default_rng(27).standard_normal((16, 6, 6))
        if symmetric:
            R = R + R.swapaxes(1, 2)
        lam, _ = core_spectra(R)
        assert (lam.imag == 0.0).all() == symmetric
        self.assert_unit_eigenvectors(R)

    def test_near_defective_eigenvectors_have_unit_norm(self):
        self.assert_unit_eigenvectors(np.stack([TestDenseFallback.JORDAN,
                                                TestDenseFallback.NEAR_JORDAN]))

    @staticmethod
    def kernel_accepted(R, D, spectra, monkeypatch):
        # a row the gates reject is one whose drift the dense solve is handed
        handed, dense = [], gaussian._solve_lyapunov_dense
        monkeypatch.setattr(gaussian, "_solve_lyapunov_dense",
                            lambda R, D: handed.append(R) or dense(R, D))
        with np.errstate(all="ignore"):
            gaussian._solve_stacked(R, D, spectra)
        return np.array([not any(np.shares_memory(row, h) for h in handed) for row in R])

    def test_pipeline_rows_decide_as_the_defining_formulas(
            self, pipeline_stacks, monkeypatch):
        for R, D, (lam, U) in pipeline_stacks.solves:
            assert np.array_equal(self.kernel_accepted(R, D, (lam, U), monkeypatch),
                                  parent_accepted(R, D, lam, U))

    def test_rejected_rows_decide_as_the_defining_formulas(self, monkeypatch):
        for R, D, (lam, U) in gate_cases():
            expected = parent_accepted(R, D, lam, U)
            assert not expected[-1]
            assert np.array_equal(self.kernel_accepted(R, D, (lam, U), monkeypatch),
                                  expected)


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
        Vs = core_solve(Rs, Ds)
        for R, D, V in zip(Rs, Ds, Vs):
            assert np.array_equal(V, V.T)
            assert np.linalg.norm(R @ V + V @ R.T + D) <= 1e-9 * np.linalg.norm(D)
            V_ref = lyapunov_oracle(R, D)
            assert np.linalg.norm(V - V_ref) <= 1e-9 * np.linalg.norm(V_ref)

    @_PROPERTY_SETTINGS
    @given(_system_stacks)
    def test_stacked_solve_equals_one_point_calls(self, systems):
        Rs, Ds = (np.stack(m) for m in zip(*systems))
        lam, _ = core_spectra(Rs)
        Vs = core_solve(Rs, Ds)
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
        (0.5 * np.eye(4) + np.diag([1e-6, 0.0], 2),
         "two-mode covariance matrix is not symmetric"),
        (0.5 * np.eye(4) + np.diag([np.nan, 0.0, 0.0], 1), "has non-finite entries"),
        (np.array([[4.0, 2.0, -1.0, 1.0], [2.0, 0.0, 1.0, -2.0],
                   [-1.0, 1.0, -2.0, 2.0], [1.0, -2.0, 2.0, -6.0]]),
         "Sigma^2 - 4 det V = -32 < 0"),
        (np.diag([1.0, -1.0, 1.0, -1.0]), "covariance matrix has non-positive Sigma"),
        (np.array([[1.0, 0.0, 0.9, 0.0], [0.0, 1.0, 0.0, 0.0],
                   [0.9, 0.0, 0.01, 0.0], [0.0, 0.0, 0.0, 0.01]]),
         "non-positive symplectic eigenvalue (det V4 = -0.008)"),
    ], ids=["overflow", "nan", "asymmetric", "asymmetric-1e-6", "nan-one-sided",
            "disc", "sigma", "eta"])
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
        lam, U = core_spectra(R)
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
            core_spectra(R)
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

    @pytest.mark.parametrize("shape", [(4, 4), (6, 5), (1, 6, 6)])
    def test_non_6x6_input_rejected(self, shape):
        with pytest.raises(ParameterError, match=re.escape(
                f"expected a 6x6 covariance matrix, got {shape}")):
            reduce_two_mode(np.zeros(shape), "+-")


# -- logarithmic negativity --------------------------------------------------

class TestLogNegativity:
    def test_vacuum_is_exactly_zero(self):
        assert log_negativity(0.5 * np.eye(4)) == 0.0

    def test_thermal_product_is_zero(self):
        assert log_negativity(2.7 * np.eye(4)) == 0.0

    @pytest.mark.parametrize("shape", [(6, 6), (4, 3), (1, 4, 4)])
    def test_non_4x4_input_rejected(self, shape):
        with pytest.raises(ParameterError, match=re.escape(
                f"expected a 4x4 covariance matrix, got {shape}")):
            log_negativity(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 6, 6), (2, 4, 3), (2, 16)])
    def test_non_4x4_stack_rejected(self, shape):
        with pytest.raises(ParameterError, match=re.escape(
                f"expected 4x4 covariance matrices, got {shape}")):
            log_negativity_stacked(np.zeros(shape))

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

    def test_asymmetry_within_the_tolerance_is_accepted(self):
        # V[0, 2] 1e-12 off its mirror: not exactly symmetric, but within
        # the tolerance (the fail-alike cases reject 1e-6 and a NaN)
        V = tmsv_cm(0.5)
        V[0, 2] += 1e-12
        assert log_negativity(V) == pytest.approx(1.0, rel=1e-9)  # E_N = 2r
        assert log_negativity_stacked(V[None]).tolist() == [log_negativity(V)]

    def test_non_finite_input_rejected(self):
        V = 0.5 * np.eye(4)
        V[1, 1] = np.nan
        with pytest.raises(NumericalError, match="has non-finite entries"):
            log_negativity(V)

    def test_infinite_mirrored_entries_beside_an_asymmetry_warn_nothing(self):
        # the symmetry check runs first and must not subtract the two equal
        # infinities (inf - inf warns); the negativity names the infinity
        V = 0.5 * np.eye(4)
        V[0, 1] = V[1, 0] = np.inf
        V[2, 3] = 1.0
        with pytest.raises(NumericalError, match="has non-finite entries"):
            log_negativity(V)
        with pytest.raises(NumericalError, match="has non-finite entries"):
            log_negativity_stacked(V[None])

    @pytest.mark.parametrize("delta, expected", [(5e-11, 0.0), (2e-10, 2e-10)])
    def test_clamp_boundary(self, delta, expected):
        # V4 = [[a I, c Z], [c Z, a I]] has 2 eta = 2 (a - c) = 1 - delta:
        # inside the 1e-10 clamp E_N is exactly 0, outside it -ln(1 - delta)
        c = 0.3
        a = c + 0.5 * (1.0 - delta)
        Z = np.diag([1.0, -1.0])
        V4 = np.block([[a * np.eye(2), c * Z], [c * Z, a * np.eye(2)]])
        e_n = log_negativity(V4)
        assert e_n == pytest.approx(expected, rel=1e-5, abs=0.0)  # 0.0 is exact
        assert log_negativity_stacked(V4[None]).tolist() == [e_n]

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
    def test_physicality_helper(self):
        state = GaussianState(0.5 * np.eye(6))
        assert min_physicality_eig(state.cov) >= -1e-12
