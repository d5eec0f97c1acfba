"""Closed-form layer: hybridization, occupations, steady-state couplings."""

import math

import numpy as np
import pytest

from entangle.errors import (
    DegenerateHybridizationError,
    DriveSolveError,
    ParameterError,
)
from entangle.experiments import default_baseline
from entangle.model import (
    TWO_PI,
    SystemParams,
    drive_for_target_g_minus,
    hybridize,
    solve_g_omega_c_from_theta,
    steady_state_amplitudes,
    thermal_occupation,
)

# Bose occupation of a 10 MHz mode at 10 mK, evaluated independently with
# mpmath (50 digits) from the exact SI values h = 6.62607015e-34,
# k_B = 1.380649e-23:  n = 1/expm1(h f / k_B T)
N_B_10MHZ_10MK = 20.34061833903645


def make_params(**overrides):
    defaults = dict(
        omega_a=TWO_PI * 10e9,
        omega_c=TWO_PI * 10.0162e9,
        omega_b=TWO_PI * 10e6,
        g=TWO_PI * 5.88e6,
        kappa_a=TWO_PI * 1e6,
        kappa_c=TWO_PI * 1e6,
        kappa_b=TWO_PI * 100.0,
        temperature=0.010,
        omega_0=TWO_PI * 10.0081e9,
    )
    defaults.update(overrides)
    return SystemParams(**defaults)


class TestThermalOccupation:
    def test_megahertz_mode_at_ten_millikelvin(self):
        n = thermal_occupation(TWO_PI * 10e6, 0.010)
        assert n == pytest.approx(N_B_10MHZ_10MK, rel=1e-12)

    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(TWO_PI * 10e9, 0.0) == 0.0

    def test_deep_quantum_regime_underflows_to_zero(self):
        # 10 GHz at 1 uK: x ~ 5e5, far beyond expm1 overflow
        assert thermal_occupation(TWO_PI * 10e9, 1e-6) == 0.0

    def test_monotone_in_temperature(self):
        omega = TWO_PI * 10e6
        temps = np.linspace(0.001, 1.0, 40)
        ns = [thermal_occupation(omega, t) for t in temps]
        assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_classical_limit_at_crossover(self):
        # at k_B T = 10 hbar omega the occupation approaches the
        # equipartition value k_B T / (hbar omega) - 1/2 to well under 1%
        from scipy.constants import hbar, k as k_B
        omega = TWO_PI * 10e6
        t10 = 10.0 * hbar * omega / k_B
        x = 0.1
        n = thermal_occupation(omega, t10)
        assert abs(n - (1.0 / x - 0.5)) * x < 0.01

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            thermal_occupation(0.0, 0.01)
        with pytest.raises(ParameterError):
            thermal_occupation(TWO_PI * 1e6, -1.0)


class TestSystemParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            make_params(omega_a=math.nan)
        with pytest.raises(ParameterError):
            make_params(kappa_a=math.inf)

    def test_rejects_non_positive_rates(self):
        with pytest.raises(ParameterError):
            make_params(kappa_c=0.0)
        with pytest.raises(ParameterError):
            make_params(omega_b=-1.0)
        with pytest.raises(ParameterError):
            make_params(temperature=-0.01)

    def test_warns_outside_dispersive_regime(self):
        with pytest.warns(UserWarning):
            make_params(omega_b=TWO_PI * 2e9)


class TestHybridize:
    def test_symmetric_detuning(self):
        p = make_params(omega_c=TWO_PI * 10e9, g=TWO_PI * 5e6)
        basis = hybridize(p)
        assert basis.theta == pytest.approx(math.pi / 4, abs=1e-15)
        assert basis.omega_plus == pytest.approx(p.omega_a + p.g, rel=1e-14)
        assert basis.omega_minus == pytest.approx(p.omega_a - p.g, rel=1e-14)

    def test_reference_hybridization_point(self):
        # g/2pi = 5.88 MHz with omega_c/2pi = 10.0162 GHz gives the
        # optimal mixing angle and a splitting of two sideband spacings
        basis = hybridize(make_params())
        assert basis.theta / math.pi == pytest.approx(0.40, abs=0.005)
        splitting = basis.omega_plus - basis.omega_minus
        assert splitting == pytest.approx(2 * TWO_PI * 10e6, rel=2e-3)

    def test_theta_branch_covers_both_detuning_signs(self):
        above = hybridize(make_params(omega_c=TWO_PI * 9.99e9))
        below = hybridize(make_params(omega_c=TWO_PI * 10.01e9))
        assert 0.0 < above.theta < math.pi / 4
        assert math.pi / 4 < below.theta < math.pi / 2

    def test_decoupled_limit_is_bitwise_bare(self):
        p = make_params(g=0.0, omega_c=TWO_PI * 9.9e9,
                        kappa_a=TWO_PI * 1.3e6, kappa_c=TWO_PI * 0.4e6,
                        temperature=0.2)
        basis = hybridize(p)
        assert basis.theta == 0.0
        assert basis.kappa_plus == p.kappa_a
        assert basis.kappa_minus == p.kappa_c
        assert basis.n_plus == basis.n_a
        assert basis.n_minus == basis.n_c
        assert basis.delta_kappa == 0.0

    def test_dissipation_sum_conserved(self):
        p = make_params(kappa_a=TWO_PI * 0.7e6, kappa_c=TWO_PI * 2.3e6)
        basis = hybridize(p)
        assert basis.kappa_plus + basis.kappa_minus == pytest.approx(
            p.kappa_a + p.kappa_c, rel=1e-14)

    def test_delta_kappa_zero_for_balanced_rates(self):
        basis = hybridize(make_params())
        assert basis.delta_kappa == 0.0

    def test_energy_conservation(self):
        p = make_params()
        basis = hybridize(p)
        assert basis.omega_plus + basis.omega_minus == pytest.approx(
            p.omega_a + p.omega_c, rel=1e-12)

    def test_splitting_bounded_below_by_2g(self):
        p = make_params()
        assert hybridize(p).omega_plus - hybridize(p).omega_minus >= 2 * p.g

    def test_zero_temperature_occupations_exact(self):
        basis = hybridize(make_params(temperature=0.0))
        assert (basis.n_a, basis.n_c, basis.n_b) == (0.0, 0.0, 0.0)
        assert basis.n_plus == 0.0
        assert basis.n_minus == 0.0

    def test_weighted_occupation_conservation(self):
        # lower the mode frequencies so the GHz occupations are not
        # trivially zero, and unbalance the dissipation rates
        p = make_params(omega_a=TWO_PI * 1e9, omega_c=TWO_PI * 1.002e9,
                        g=TWO_PI * 4e6, omega_0=TWO_PI * 1.001e9,
                        kappa_a=TWO_PI * 0.5e6, kappa_c=TWO_PI * 2e6,
                        temperature=0.1)
        b = hybridize(p)
        lhs = (2 * b.n_plus + 1) * b.kappa_plus + (2 * b.n_minus + 1) * b.kappa_minus
        rhs = (2 * b.n_a + 1) * p.kappa_a + (2 * b.n_c + 1) * p.kappa_c
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shift_invariance(self):
        p = make_params(kappa_a=TWO_PI * 0.8e6, kappa_c=TWO_PI * 1.9e6)
        shift = TWO_PI * 3.7e9
        q = make_params(kappa_a=p.kappa_a, kappa_c=p.kappa_c,
                        omega_a=p.omega_a + shift, omega_c=p.omega_c + shift,
                        omega_0=p.omega_0 + shift)
        bp, bq = hybridize(p), hybridize(q)
        assert bq.theta == pytest.approx(bp.theta, rel=1e-11)
        assert bq.omega_plus - bq.omega_minus == pytest.approx(
            bp.omega_plus - bp.omega_minus, rel=1e-11)
        for name in ("delta_plus", "delta_minus", "kappa_plus",
                     "kappa_minus", "delta_kappa"):
            assert getattr(bq, name) == pytest.approx(
                getattr(bp, name), rel=1e-9, abs=1e-20)
        cp = steady_state_amplitudes(bp, p.omega_b, 1e9, p.g0)
        cq = steady_state_amplitudes(bq, q.omega_b, 1e9, q.g0)
        assert cq.g_plus == pytest.approx(cp.g_plus, rel=1e-9)
        assert cq.g_minus_b == pytest.approx(cp.g_minus_b, rel=1e-9)


class TestInverseHybridization:
    def test_optimal_angle_geometry(self):
        g, omega_c = solve_g_omega_c_from_theta(
            0.40 * math.pi, TWO_PI * 10e9, TWO_PI * 10e6)
        assert g / TWO_PI == pytest.approx(5.878e6, rel=1e-3)
        assert omega_c / TWO_PI == pytest.approx(10.01618e9, rel=1e-6)

    def test_balanced_angle(self):
        g, omega_c = solve_g_omega_c_from_theta(
            math.pi / 4, TWO_PI * 10e9, TWO_PI * 10e6)
        assert g == pytest.approx(TWO_PI * 10e6, rel=1e-15)
        assert omega_c == pytest.approx(TWO_PI * 10e9, rel=1e-15)

    @pytest.mark.parametrize("theta_pi", [0.05, 0.30, 0.40, 0.45, 0.499])
    def test_round_trip_recovers_theta(self, theta_pi):
        theta = theta_pi * math.pi
        g, omega_c = solve_g_omega_c_from_theta(
            theta, TWO_PI * 10e9, TWO_PI * 10e6)
        basis = hybridize(make_params(g=g, omega_c=omega_c))
        assert abs(basis.theta - theta) < 1e-12
        splitting = basis.omega_plus - basis.omega_minus
        assert splitting == pytest.approx(2 * TWO_PI * 10e6, rel=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 0.5 * math.pi, -0.1, 2.0])
    def test_degenerate_angles_rejected(self, theta):
        with pytest.raises(DegenerateHybridizationError):
            solve_g_omega_c_from_theta(theta, TWO_PI * 10e9, TWO_PI * 10e6)


class TestSteadyStateAmplitudes:
    def reference_basis(self, theta_pi=0.40, **overrides):
        p = default_baseline(**overrides).params(theta=theta_pi * math.pi)
        return p, hybridize(p)

    def test_zero_drive_all_zero(self):
        p, basis = self.reference_basis()
        c = steady_state_amplitudes(basis, p.omega_b, 0.0, p.g0)
        assert c.amp_plus == 0.0 and c.amp_minus == 0.0
        assert c.re_b == 0.0
        assert c.g_plus == 0.0 and c.g_minus == 0.0 and c.g_pm == 0.0

    def test_balanced_rates_reduce_to_single_pole(self):
        p, basis = self.reference_basis()
        omega = 2.5e9
        c = steady_state_amplitudes(basis, p.omega_b, omega, p.g0)
        s, co = math.sin(basis.theta), math.cos(basis.theta)
        expect_p = -1j * omega * s / (basis.delta_plus - 1j * basis.kappa_plus)
        expect_m = -1j * omega * co / (basis.delta_minus - 1j * basis.kappa_minus)
        assert c.amp_plus == pytest.approx(expect_p, rel=1e-12)
        assert c.amp_minus == pytest.approx(expect_m, rel=1e-12)

    def test_coupling_ratio_follows_tan_theta(self):
        p, basis = self.reference_basis()
        c = steady_state_amplitudes(basis, p.omega_b, 1e9, p.g0)
        ratio = abs(c.g_plus) / abs(c.g_minus)
        assert ratio == pytest.approx(math.tan(0.40 * math.pi), rel=0.01)

    def test_weight_identity(self):
        p, basis = self.reference_basis(kappa_a=TWO_PI * 0.6e6,
                                    kappa_c=TWO_PI * 1.7e6)
        c = steady_state_amplitudes(basis, p.omega_b, 3e8, p.g0)
        assert abs(c.g_plus_b) ** 2 + abs(c.g_minus_b) ** 2 == pytest.approx(
            abs(c.g_pm) ** 2, rel=1e-12)

    def test_re_b_sign_and_scale(self):
        p, basis = self.reference_basis()
        c = steady_state_amplitudes(basis, p.omega_b, 1e9, p.g0)
        s, co = math.sin(basis.theta), math.cos(basis.theta)
        expected = -(p.g0 / p.omega_b) * abs(c.amp_plus * s + c.amp_minus * co) ** 2
        assert c.re_b == pytest.approx(expected, rel=1e-12)
        assert c.re_b <= 0.0

    def test_rejects_negative_drive(self):
        p, basis = self.reference_basis()
        with pytest.raises(ParameterError):
            steady_state_amplitudes(basis, p.omega_b, -1.0, p.g0)


class TestDriveForTarget:
    def basis(self):
        p = default_baseline().params(theta=0.40 * math.pi)
        return p, hybridize(p)

    def test_zero_target(self):
        _, basis = self.basis()
        assert drive_for_target_g_minus(basis, 0.0) == 0.0

    def test_linearity(self):
        _, basis = self.basis()
        d1 = drive_for_target_g_minus(basis, TWO_PI * 1e6)
        d2 = drive_for_target_g_minus(basis, TWO_PI * 2e6)
        assert d2 == pytest.approx(2 * d1, rel=1e-12)

    def test_round_trip_hits_target(self):
        p, basis = self.basis()
        target = TWO_PI * 2e6
        drive = drive_for_target_g_minus(basis, target)
        c = steady_state_amplitudes(basis, p.omega_b, drive / p.g0, p.g0)
        assert abs(c.g_minus) == pytest.approx(target, rel=1e-6)

    def test_rejects_negative_target(self):
        _, basis = self.basis()
        with pytest.raises(ParameterError):
            drive_for_target_g_minus(basis, -1.0)

    def test_unreachable_target(self, monkeypatch):
        # an exactly vanishing A- response cannot pin |G_-|
        import entangle.model as model_mod
        _, basis = self.basis()
        monkeypatch.setattr(model_mod, "_amplitudes_per_unit_drive",
                            lambda b: (1.0 + 0j, 0j))
        with pytest.raises(DriveSolveError):
            drive_for_target_g_minus(basis, 1.0)
