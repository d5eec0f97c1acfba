"""Drift/diffusion assembly and the full pipeline.

The drift matrix is cross-checked against the complex-amplitude
equations of motion: map quadratures to complex mean values, evaluate
the linearized right-hand side there, map back, and compare with R @ u.
"""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entangle import dynamics, gaussian
from entangle.dynamics import build_diffusion, build_drift, run_pipeline
from entangle.errors import NumericalError
from entangle.experiments import SweepSpec, default_baseline, run_sweep
from entangle.gaussian import log_negativity_stacked, pair_blocks, solve_lyapunov
from entangle.model import (
    TWO_PI,
    drive_for_target_g_minus,
    hybridize,
    steady_state_amplitudes,
)

from bare_mode_oracle import (
    KAPPA_B_LINE,
    bare_mode_covariance,
    symplectic_log_negativity,
)
from oracles import min_physicality_eig

SQRT2 = math.sqrt(2.0)


def reference_params(theta_pi=0.40, **overrides):
    return default_baseline(**overrides).params(theta=theta_pi * math.pi)


def assembled(theta_pi=0.40, target_hz=2e6, **overrides):
    p = reference_params(theta_pi, **overrides)
    basis = hybridize(p)
    drive = drive_for_target_g_minus(basis, TWO_PI * target_hz)
    coup = steady_state_amplitudes(basis, drive)
    return p, basis, coup


def meanfield_rhs(basis, coup, omega_b, kappa_b, u):
    """Linearized complex equations of motion evaluated at mean values."""
    ap = (u[0] + 1j * u[1]) / SQRT2
    am = (u[2] + 1j * u[3]) / SQRT2
    b = (u[4] + 1j * u[5]) / SQRT2
    xb = b + np.conj(b)
    gpb, gmb = coup.g_plus_b, coup.g_minus_b
    dap = (-(1j * basis.delta_plus + basis.kappa_plus) * ap
           - basis.delta_kappa * am - gpb * xb / 2.0)
    dam = (-(1j * basis.delta_minus + basis.kappa_minus) * am
           - basis.delta_kappa * ap - gmb * xb / 2.0)
    db = (-(1j * omega_b + kappa_b) * b
          - (gpb / 2.0 * np.conj(ap) + gmb / 2.0 * np.conj(am)
             - np.conj(gpb) / 2.0 * ap - np.conj(gmb) / 2.0 * am))
    return SQRT2 * np.array([dap.real, dap.imag, dam.real, dam.imag,
                             db.real, db.imag])


class TestBuildDrift:
    def test_uncoupled_limit_block_spectrum(self):
        p, basis, coup = assembled(target_hz=0.0)
        R = build_drift(basis, coup, p.omega_b, p.kappa_b)
        assert np.allclose(R[:4, 4:], 0.0)
        assert np.allclose(R[5, :4], 0.0)
        eigs = np.sort_complex(np.linalg.eigvals(R))
        expected = np.sort_complex(np.array([
            -basis.kappa_plus + 1j * basis.delta_plus,
            -basis.kappa_plus - 1j * basis.delta_plus,
            -basis.kappa_minus + 1j * basis.delta_minus,
            -basis.kappa_minus - 1j * basis.delta_minus,
            -p.kappa_b + 1j * p.omega_b,
            -p.kappa_b - 1j * p.omega_b,
        ]))
        assert np.allclose(eigs, expected, rtol=1e-9)

    def test_matches_meanfield_equations(self):
        p, basis, coup = assembled()
        R = build_drift(basis, coup, p.omega_b, p.kappa_b)
        rng = np.random.default_rng(17)
        scale = np.linalg.norm(R)
        for _ in range(10):
            u = rng.standard_normal(6)
            lhs = R @ u
            rhs = meanfield_rhs(basis, coup, p.omega_b, p.kappa_b, u)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale * np.linalg.norm(u)

    def test_meanfield_agreement_with_unbalanced_rates(self):
        p, basis, coup = assembled(theta_pi=0.35, kappa_a=TWO_PI * 0.5e6,
                                   kappa_c=TWO_PI * 2.5e6)
        R = build_drift(basis, coup, p.omega_b, p.kappa_b)
        rng = np.random.default_rng(18)
        scale = np.linalg.norm(R)
        for _ in range(10):
            u = rng.standard_normal(6)
            rhs = meanfield_rhs(basis, coup, p.omega_b, p.kappa_b, u)
            assert np.linalg.norm(R @ u - rhs) <= 1e-8 * scale * np.linalg.norm(u)

    def test_coupling_zero_pattern(self):
        # X_b is the only channel into the polariton rows, and row 5
        # carries no coupling at all
        p, basis, coup = assembled()
        R = build_drift(basis, coup, p.omega_b, p.kappa_b)
        assert np.all(R[:4, 5] == 0.0)
        assert np.array_equal(R[4], [0, 0, 0, 0, -p.kappa_b, p.omega_b])
        assert np.all(R[:4, 4] != 0.0)

    def test_only_dissipative_polariton_coupling(self):
        p, basis, coup = assembled(kappa_a=TWO_PI * 0.5e6,
                                   kappa_c=TWO_PI * 1.5e6)
        R = build_drift(basis, coup, p.omega_b, p.kappa_b)
        dk = basis.delta_kappa
        assert R[0, 2] == -dk and R[1, 3] == -dk
        assert R[2, 0] == -dk and R[3, 1] == -dk
        assert R[0, 3] == 0.0 and R[1, 2] == 0.0
        assert R[2, 1] == 0.0 and R[3, 0] == 0.0


class TestBuildDiffusion:
    def test_balanced_rates_diagonal(self):
        p, basis, _ = assembled()
        D = build_diffusion(basis, p.kappa_b, basis.n_b)
        assert np.array_equal(D, np.diag(np.diag(D)))
        assert D[0, 0] == D[1, 1]
        assert D[4, 4] == pytest.approx(p.kappa_b * (2 * basis.n_b + 1))

    @pytest.mark.parametrize("theta_pi", np.linspace(0.05, 0.49, 20))
    def test_cross_term_equals_tan2theta_form(self, theta_pi):
        p, basis, _ = assembled(theta_pi=theta_pi, kappa_a=TWO_PI * 0.5e6,
                                kappa_c=TWO_PI * 2.0e6, temperature=0.15)
        D = build_diffusion(basis, p.kappa_b, basis.n_b)
        mixed = (-basis.kappa_plus * (2 * basis.n_plus + 1)
                 + basis.kappa_minus * (2 * basis.n_minus + 1))
        expected = 0.5 * math.tan(2 * basis.theta) * mixed
        assert D[0, 2] == pytest.approx(expected, rel=1e-12)
        assert D[0, 2] == D[1, 3] == D[2, 0] == D[3, 1]

    def test_cross_term_finite_at_pi_over_4(self):
        p, basis, _ = assembled(theta_pi=0.25, kappa_a=TWO_PI * 0.5e6,
                                kappa_c=TWO_PI * 2.0e6, temperature=0.15)
        D = build_diffusion(basis, p.kappa_b, basis.n_b)
        assert np.isfinite(D).all()
        # continuity against the tan(2 theta) form just off the
        # singular angle
        eps = 1e-6
        for off in (-eps, eps):
            _, b2, _ = assembled(theta_pi=0.25 + off / math.pi,
                                 kappa_a=TWO_PI * 0.5e6,
                                 kappa_c=TWO_PI * 2.0e6, temperature=0.15)
            mixed = (-b2.kappa_plus * (2 * b2.n_plus + 1)
                     + b2.kappa_minus * (2 * b2.n_minus + 1))
            tan_form = 0.5 * math.tan(2 * b2.theta) * mixed
            assert tan_form == pytest.approx(D[0, 2], rel=1e-4)

    def test_vacuum_uncoupled_limit_gives_half_identity(self):
        p, basis, coup = assembled(target_hz=0.0, temperature=0.0)
        R = build_drift(basis, coup, p.omega_b, p.kappa_b) / p.omega_b
        D = build_diffusion(basis, p.kappa_b, 0.0) / p.omega_b
        V = solve_lyapunov(R, D)
        assert np.allclose(V, 0.5 * np.eye(6), rtol=0, atol=1e-12)


class TestFill:
    """One fill places the drift and the diffusion, each entry divided by
    omega_b before it is placed."""

    @staticmethod
    def two_fills_divided_afterwards(entries, size, omega_b):
        """The drift and the diffusion filled apart, then divided."""
        out = []
        for flat, values in ((dynamics._DRIFT_SLOTS, entries[:24]),
                             (dynamics._DIFFUSION_SLOTS, entries[24:])):
            matrices = np.zeros((size, 36))
            matrices[:, flat] = np.array(np.broadcast_arrays(*values)).T
            out.append(matrices.reshape(size, 6, 6)
                       / np.asarray(omega_b)[..., None, None])
        return out

    @pytest.mark.parametrize("kind, scale_column", [
        ("float", False), ("column", False), ("column", True),
        ("mixed", False), ("mixed", True),
    ])
    def test_fused_fill_gives_the_bits_of_two_fills(self, kind, scale_column):
        rng = np.random.default_rng(31)
        size = 1 if kind == "float" else 5
        entries = [-0.0, 0.0, 1e-300, -np.inf] + rng.standard_normal(30).tolist()
        if kind != "float":
            columns = range(34) if kind == "column" else range(0, 34, 3)
            for i in columns:
                entries[i] = entries[i] * rng.uniform(0.5, 2.0, size)
        omega_b = (rng.uniform(1e6, 1e8, size) if scale_column
                   else 2.0 * math.pi * 1e7)
        pairs = dynamics._fill(dynamics._PAIR_SLOTS, entries, size, omega_b)
        drifts, diffusions = pairs[:, 0], pairs[:, 1]
        expected = self.two_fills_divided_afterwards(entries, size, omega_b)
        assert drifts.tobytes() == expected[0].tobytes()
        assert diffusions.tobytes() == expected[1].tobytes()
        assert drifts.shape == diffusions.shape == (size, 6, 6)


class TestRunPipeline:
    def test_zero_drive_thermal_product_state(self):
        p = reference_params()
        res = run_pipeline(p)  # drive_strength defaults to 0
        assert res.stable
        assert res.e_n_pp == 0.0 and res.e_n_mb == 0.0 and res.e_n_pb == 0.0
        b = res.basis
        expected = np.diag([b.n_plus + 0.5, b.n_plus + 0.5,
                            b.n_minus + 0.5, b.n_minus + 0.5,
                            b.n_b + 0.5, b.n_b + 0.5])
        assert np.allclose(res.state.cov, expected, rtol=1e-10, atol=1e-12)

    def test_zero_drive_unbalanced_rates_still_separable(self):
        # with kappa_a != kappa_c the delta_kappa and cross-diffusion
        # terms perturb the thermal state but cannot entangle anything
        p = reference_params(0.35, kappa_a=TWO_PI * 0.4e6,
                             kappa_c=TWO_PI * 2.2e6, temperature=0.15)
        res = run_pipeline(p)
        assert res.stable
        assert res.e_n_pp == 0.0 and res.e_n_mb == 0.0 and res.e_n_pb == 0.0
        b = res.basis
        thermal = np.diag([b.n_plus + 0.5, b.n_plus + 0.5,
                           b.n_minus + 0.5, b.n_minus + 0.5,
                           b.n_b + 0.5, b.n_b + 0.5])
        # corrections enter at order delta_kappa / delta_pm
        bound = 5.0 * abs(b.delta_kappa) / abs(b.delta_plus) * np.abs(thermal).max()
        assert np.abs(res.state.cov - thermal).max() < bound
        assert np.abs(res.state.cov - thermal).max() > 0.0

    def test_optimal_angle_entangles_polaritons(self):
        res = run_pipeline(reference_params(0.40), target_g_minus=TWO_PI * 2e6)
        assert res.stable
        assert res.e_n_pp > 0.1

    def test_small_angle_routes_entanglement_to_b(self):
        res = run_pipeline(reference_params(0.30), target_g_minus=TWO_PI * 2e6)
        assert res.stable
        assert res.e_n_mb > res.e_n_pp

    def test_unstable_point_flagged_not_raised(self):
        res = run_pipeline(reference_params(0.20), target_g_minus=TWO_PI * 2e6)
        assert not res.stable
        assert res.max_re_eig >= 0.0
        assert res.state is None
        assert res.e_n_pp is None and res.e_n_mb is None and res.e_n_pb is None

    def test_deterministic(self):
        a = run_pipeline(reference_params(0.37), target_g_minus=TWO_PI * 2e6)
        b = run_pipeline(reference_params(0.37), target_g_minus=TWO_PI * 2e6)
        assert np.array_equal(a.state.cov, b.state.cov)
        assert a.e_n_pp == b.e_n_pp
        assert a.couplings == b.couplings

    def test_pinned_target_reached(self):
        res = run_pipeline(reference_params(0.40), target_g_minus=TWO_PI * 2e6)
        assert abs(res.couplings.g_minus) == pytest.approx(TWO_PI * 2e6, rel=1e-10)

    def test_direct_drive_pinning(self):
        pinned = run_pipeline(reference_params(0.40), target_g_minus=TWO_PI * 2e6)
        import dataclasses
        p = dataclasses.replace(reference_params(0.40),
                                drive_strength=pinned.drive_strength)
        direct = run_pipeline(p)
        assert direct.e_n_pp == pytest.approx(pinned.e_n_pp, rel=1e-12)

    def test_stable_points_physical(self):
        for theta_pi in (0.28, 0.33, 0.40, 0.43):
            res = run_pipeline(reference_params(theta_pi),
                               target_g_minus=TWO_PI * 2e6)
            assert res.stable
            assert min_physicality_eig(res.state.cov) >= -1e-8

    def test_continuity_in_theta(self):
        # guards index/sign bugs: no isolated jumps on a stable interval
        thetas = np.linspace(0.30, 0.44, 57)
        values = []
        for tp in thetas:
            res = run_pipeline(reference_params(tp), target_g_minus=TWO_PI * 2e6)
            assert res.stable
            values.append(res.e_n_pp)
        diffs = np.abs(np.diff(values))
        for i in range(1, len(diffs) - 1):
            local = 0.5 * (diffs[i - 1] + diffs[i + 1])
            assert diffs[i] <= 10.0 * local + 1e-6

    def test_calibrated_drive_computes_amplitudes_once(self, monkeypatch):
        # the drive calibration and the couplings share one evaluation of
        # the amplitudes per unit drive
        import entangle.dynamics as dyn
        import entangle.model as model_mod
        calls = []
        amplitudes = model_mod._amplitudes_per_unit_drive

        def counting(basis):
            calls.append(basis)
            return amplitudes(basis)

        for module in (dyn, model_mod):
            monkeypatch.setattr(module, "_amplitudes_per_unit_drive", counting,
                                raising=False)
        run_pipeline(reference_params(0.40), target_g_minus=TWO_PI * 2e6)
        assert len(calls) == 1

    def test_stage_context_in_errors(self, monkeypatch):
        import entangle.dynamics as dyn

        def boom(*args):
            raise NumericalError("denominator vanished")

        monkeypatch.setattr(dyn, "steady_state_amplitudes", boom)
        with pytest.raises(NumericalError,
                           match=r"^\[steady-state amplitudes\] denominator vanished$"):
            run_pipeline(reference_params(0.40), target_g_minus=TWO_PI * 2e6)

    def test_point_negativities_equal_the_stacked_kernel(self):
        # 64 seeded draws in the (theta, |G_-|) box of a single-point
        # caller: the float instance of the closed form gives the bits of
        # the column instance
        rng = random.Random(13)
        base = default_baseline()
        stable = 0
        for _ in range(64):
            theta = (0.26 + 0.23 * rng.random()) * math.pi
            res = run_pipeline(base.params(theta=theta),
                               target_g_minus=TWO_PI * 6e6 * rng.random())
            if res.stable:
                stable += 1
                stacked = log_negativity_stacked(pair_blocks(res.state.cov[None])[0])
                assert [res.e_n_pp, res.e_n_mb, res.e_n_pb] == stacked.tolist()
        assert stable >= 32

    @pytest.mark.parametrize("theta_pi, expected", [
        (0.40, {"eig": 1, "inv": 1, "eigvalsh_lo": 1, "errstate": 1}),
        (0.20, {"eig": 1, "errstate": 1}),
    ], ids=["stable", "unstable"])
    def test_linalg_calls_of_one_point(self, monkeypatch, theta_pi, expected):
        # one eigendecomposition decides stability and serves the solve;
        # the kernels call the LAPACK gufuncs directly, the residual
        # contract needs no np.linalg.norm, and the point enters one
        # np.errstate (run_pipeline's), stable point or not
        calls = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name,
                                    counting(f"np.linalg.{name}", fn))
        monkeypatch.setattr(gaussian, "_lapack", SimpleNamespace(**{
            name: counting(name, getattr(gaussian._lapack, name))
            for name in ("eig", "inv", "eigvalsh_lo")}))
        monkeypatch.setattr(np, "errstate", counting("errstate", np.errstate))
        res = default_baseline().evaluate(theta=theta_pi * math.pi)
        assert res.stable == (theta_pi == 0.40)
        assert calls == expected


class TestKernelStep:
    """``gaussian._steady_states`` runs the kernels' private cores in one
    pass under its caller's ``np.errstate`` and decides stability once; on the
    pipeline's own stacks it must give the bits of the public one-point
    kernels, row by row."""

    def test_kernel_step_equals_the_public_kernels(self, monkeypatch):
        steps = []
        step = gaussian._steady_states
        monkeypatch.setattr(gaussian, "_steady_states",
                            lambda R, D: steps.append((R, D, step(R, D))) or steps[-1][2])
        base = default_baseline()
        run_sweep(base, SweepSpec("theta"))  # the default grid: one 200-row slice
        rng = random.Random(13)
        for _ in range(64):  # the (theta, |G_-|) box of a single-point caller
            base.evaluate(theta=(0.26 + 0.23 * rng.random()) * math.pi,
                          target_g_minus=TWO_PI * 6e6 * rng.random())
        monkeypatch.undo()  # solve_lyapunov runs the step too: record no more
        assert [len(R) for R, _, _ in steps] == [200] + [1] * 64
        stable_rows = [0, 0]
        for i, (R, D, (max_re, stable, covs)) in enumerate(steps):
            verdicts = [gaussian.stability(r) for r in R]
            assert max_re.tobytes() == np.array([m for _, m in verdicts]).tobytes()
            assert np.array_equal(stable, np.flatnonzero(max_re < 0.0))
            if stable.size:
                stable_rows[i > 0] += stable.size
                public = np.stack([gaussian.solve_lyapunov(r, d)
                                   for r, d in zip(R[stable], D[stable])])
                assert covs.tobytes() == public.tobytes()
        assert stable_rows[0] == 158 and stable_rows[1] >= 32


class TestBareModeOracle:
    """run_pipeline against the bare-mode (a, c, b) construction."""

    TARGET = TWO_PI * 2e6

    def assert_agrees(self, params):
        res = run_pipeline(params, target_g_minus=self.TARGET)
        cov = bare_mode_covariance(params, self.TARGET)
        assert res.stable and cov is not None
        assert (np.linalg.norm(res.state.cov - cov)
                <= 1e-9 * np.linalg.norm(cov))
        e_n = symplectic_log_negativity(cov[:4, :4])
        assert abs(res.e_n_pp - e_n) <= 1e-9 * e_n

    def test_matches_on_10_mk_kappa_b_line(self):
        for kb in KAPPA_B_LINE.values():
            self.assert_agrees(reference_params(kappa_b=TWO_PI * kb))

    @pytest.mark.parametrize("kappa_a_hz, kappa_c_hz, temperature",
                             [(0.5e6, 2e6, 0.010), (2e6, 0.5e6, 0.150)])
    def test_matches_with_unbalanced_rates(self, kappa_a_hz, kappa_c_hz,
                                           temperature):
        self.assert_agrees(reference_params(
            kappa_a=TWO_PI * kappa_a_hz, kappa_c=TWO_PI * kappa_c_hz,
            temperature=temperature))

    @pytest.mark.parametrize("temperature", [0.5e-3, 0.1e-3])
    def test_matches_where_the_occupations_underflow(self, temperature):
        # hbar omega_a / k_B T is past 709, where math.expm1 overflows
        self.assert_agrees(reference_params(temperature=temperature))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(log_omega_b=st.floats(5.0, 8.0), log_ratio=st.floats(1.0, 4.0),
           log_kappas=st.tuples(*[st.floats(-3.0, math.log10(0.3))] * 2,
                                st.floats(-8.0, -2.0)),
           log_temperature=st.floats(-3.0, 0.0), target=st.floats(0.0, 0.6),
           theta_pi=st.floats(0.02, 0.48))
    def test_stability_flags_agree_over_the_feasible_box(
            self, log_omega_b, log_ratio, log_kappas, log_temperature, target,
            theta_pi):
        # log-uniform omega_b/2pi, omega_a/omega_b, rates (in units of
        # omega_b) and T; the target |G_-| reaches past the stability
        # boundary, so both flags are drawn
        omega_b = TWO_PI * 10.0 ** log_omega_b
        omega_a = omega_b * 10.0 ** log_ratio
        assume(omega_b <= omega_a / 10.0)  # SystemParams warns past it
        kappa_a, kappa_c, kappa_b = (omega_b * 10.0 ** x for x in log_kappas)
        params = default_baseline(
            omega_a=omega_a, omega_b=omega_b, kappa_a=kappa_a, kappa_c=kappa_c,
            kappa_b=kappa_b, temperature=10.0 ** log_temperature,
        ).params(theta=theta_pi * math.pi)
        target_g_minus = target * omega_b
        assert (run_pipeline(params, target_g_minus).stable
                == (bare_mode_covariance(params, target_g_minus) is not None))

    def test_10_mk_kappa_b_line_stays_entangled(self):
        # thermal noise entering through b alone cannot separate the
        # sideband-matched polaritons: E_N only shrinks with kappa_b
        for kb in KAPPA_B_LINE.values():
            res = run_pipeline(reference_params(kappa_b=TWO_PI * kb),
                               target_g_minus=self.TARGET)
            assert res.stable
            assert res.e_n_pp > 0.0
