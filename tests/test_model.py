"""Closed-form layer: hybridization, occupations, steady-state couplings."""

import math
import re

import numpy as np
import pytest

from entangle.errors import NumericalError, ParameterError
from entangle.experiments import default_baseline
from entangle.model import (
    TWO_PI,
    PolaritonBasis,
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

#: a millihertz-scale bare dispersive coupling G0 (rad/s), as in cavity
#: magnomechanics: the tests below quote a drive Omega and pass the
#: drive strength G0 * Omega
G0 = TWO_PI * 1e-3


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


def test_constants_are_scipy_bit_for_bit():
    # the package spells out the exact SI 2019 values; scipy holds the
    # same bits, so a typo or a change of definition fails here
    from scipy import constants

    from entangle import model
    assert model.hbar == constants.hbar
    assert model.k_B == constants.k


class TestThermalOccupation:
    def test_megahertz_mode_at_ten_millikelvin(self):
        n = thermal_occupation(TWO_PI * 10e6, 0.010)
        assert n == pytest.approx(N_B_10MHZ_10MK, rel=1e-12)

    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(TWO_PI * 10e9, 0.0) == 0.0

    def test_deep_quantum_regime_underflows_to_zero(self):
        # 10 GHz at 1 uK: x ~ 5e5, far beyond expm1 overflow
        assert thermal_occupation(TWO_PI * 10e9, 1e-6) == 0.0

    def test_underflowing_k_b_t_is_zero(self):
        # k_B T underflows to 0 below about 4e-301 K; the point path once
        # raised ZeroDivisionError there, the column path a numpy warning
        assert thermal_occupation(TWO_PI * 10e9, 1e-303) == 0.0
        columns = thermal_occupation(TWO_PI * 10e9, np.array([0.0, 1e-303, 0.01]))
        assert columns.tolist()[:2] == [0.0, 0.0]
        assert columns[2] == pytest.approx(thermal_occupation(TWO_PI * 10e9, 0.01))

    def test_cold_mode_of_any_frequency_is_zero(self):
        # hbar omega underflows to 0; a cold mode once divided by it anyway
        assert thermal_occupation(1e-300, 0.0) == 0.0
        assert thermal_occupation(np.array([1e-300, TWO_PI * 10e9]), 0.0).tolist() == [0.0, 0.0]

    def test_overflowing_occupation_is_a_parameter_error(self):
        # hbar omega / k_B T underflows to 0 at 10 mK: the point path once
        # raised ZeroDivisionError, the column path a numpy divide warning
        message = r"^omega = 1e-300 rad/s is too small at temperature 0.01 K: "
        with pytest.raises(ParameterError, match=message):
            thermal_occupation(1e-300, 0.01)
        with pytest.raises(ParameterError, match=message):
            thermal_occupation(np.array([TWO_PI * 10e6, 1e-300, 1e-310]), 0.01)

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
        with pytest.warns(UserWarning, match="omega_b is not small") as caught:
            make_params(omega_b=TWO_PI * 2e9)
        # the warning names the caller of SystemParams (make_params, in
        # this file), not the __init__ the dataclass generates
        assert [w.filename for w in caught] == [__file__]


#: domain -> (a check of that domain through a public function, a value
#: inside it)
DOMAIN_CHECKS = {
    "inside (0, pi/2)": (
        lambda v: solve_g_omega_c_from_theta(v, TWO_PI * 10e9, TWO_PI * 10e6),
        0.4 * math.pi),
    "positive": (lambda v: thermal_occupation(v, 0.01), TWO_PI * 10e6),
    "non-negative": (lambda v: thermal_occupation(TWO_PI * 10e6, v), 0.01),
}


class TestDomainMessages:
    """The exact text of the input checks, which the CLI prints on exit 3."""

    @pytest.mark.parametrize("domain, bad, message", [
        ("inside (0, pi/2)", 0.0, "theta must be inside (0, pi/2), got 0.0"),
        ("inside (0, pi/2)", math.inf, "theta must be finite, got inf"),
        ("inside (0, pi/2)", -math.inf, "theta must be finite, got -inf"),
        ("inside (0, pi/2)", math.nan, "theta must be finite, got nan"),
        ("positive", 0.0, "omega must be positive, got 0.0"),
        ("positive", math.inf, "omega must be finite, got inf"),
        ("positive", -math.inf, "omega must be finite, got -inf"),
        ("positive", math.nan, "omega must be finite, got nan"),
        ("non-negative", -1e-300, "temperature must be non-negative, got -1e-300"),
        ("non-negative", math.inf, "temperature must be finite, got inf"),
        ("non-negative", -math.inf, "temperature must be finite, got -inf"),
        ("non-negative", math.nan, "temperature must be finite, got nan"),
    ])
    @pytest.mark.parametrize("column", [False, True], ids=["float", "column"])
    def test_message(self, domain, bad, message, column):
        check, inside = DOMAIN_CHECKS[domain]
        # in a column, a second failing entry follows the first one
        second = math.inf if math.isnan(bad) else math.nan
        with pytest.raises(ParameterError) as caught:
            check(np.array([inside, bad, second]) if column else bad)
        assert str(caught.value) == message

    def test_signed_zeros_are_non_negative(self):
        check, _ = DOMAIN_CHECKS["non-negative"]
        assert check(0.0) == check(-0.0) == 0.0
        assert check(np.array([0.0, -0.0])).tolist() == [0.0, 0.0]
        make_params(g=-0.0, temperature=-0.0, drive_strength=-0.0)


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
        # omega_c below omega_a gives theta = 0 (a is the upper polariton),
        # above it theta = pi/2, where cos(theta)**2 is 3.7e-33, not 0
        cases = [(9.9, 0.0, "a", "c"), (10.1, 0.5 * math.pi, "c", "a")]
        for omega_c_ghz, theta, plus, minus in cases:
            # one point, and a column of 20 points
            points = [(0.0, 0.2), (np.zeros(20), np.geomspace(1e-3, 1.0, 20))]
            for g, temperature in points:
                p = make_params(g=g, omega_c=TWO_PI * omega_c_ghz * 1e9,
                                kappa_a=TWO_PI * 1.3e6, kappa_c=TWO_PI * 0.4e6,
                                temperature=temperature)
                basis = hybridize(p)
                assert np.all(basis.theta == theta)
                assert np.all(basis.kappa_plus == getattr(p, "kappa_" + plus))
                assert np.all(basis.kappa_minus == getattr(p, "kappa_" + minus))
                assert np.all(basis.n_plus == getattr(basis, "n_" + plus))
                assert np.all(basis.n_minus == getattr(basis, "n_" + minus))
                assert np.all(basis.delta_kappa == 0.0)

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
        cp = steady_state_amplitudes(bp, 1e9 * G0)
        cq = steady_state_amplitudes(bq, 1e9 * G0)
        assert cq.g_plus == pytest.approx(cp.g_plus, rel=1e-9)
        assert cq.g_minus_b == pytest.approx(cp.g_minus_b, rel=1e-9)


class TestCarriers:
    """The basis and the couplings of a point are immutable records that
    compare and print by their fields."""

    @pytest.mark.parametrize("part, field", [("basis", "theta"), ("couplings", "g_minus")])
    def test_fields_cannot_be_assigned(self, part, field):
        carrier = getattr(default_baseline().evaluate(), part)
        with pytest.raises(AttributeError):
            setattr(carrier, field, 0.0)

    def test_equal_by_fields_and_printed_by_name(self):
        p = make_params()
        assert hybridize(p) == hybridize(p)
        assert repr(hybridize(p)).startswith(f"PolaritonBasis(theta={hybridize(p).theta!r}, ")
        c = steady_state_amplitudes(hybridize(p), 1e9 * G0)
        assert repr(c).startswith(f"EffectiveCouplings(g_plus={c.g_plus!r}, ")


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
        # a non-finite theta: TestDomainMessages
        with pytest.raises(ParameterError) as caught:
            solve_g_omega_c_from_theta(theta, TWO_PI * 10e9, TWO_PI * 10e6)
        assert str(caught.value) == f"theta must be inside (0, pi/2), got {theta!r}"


class TestSteadyStateAmplitudes:
    def reference_basis(self, theta_pi=0.40, **overrides):
        p = default_baseline(**overrides).params(theta=theta_pi * math.pi)
        return p, hybridize(p)

    def test_zero_drive_all_zero(self):
        _, basis = self.reference_basis()
        c = steady_state_amplitudes(basis, 0.0 * G0)
        assert c.g_plus == 0.0 and c.g_minus == 0.0 and c.g_pm == 0.0

    def test_balanced_rates_reduce_to_single_pole(self):
        _, basis = self.reference_basis()
        drive = 2.5e9 * G0
        c = steady_state_amplitudes(basis, drive)
        s, co = math.sin(basis.theta), math.cos(basis.theta)
        # the amplitudes per unit Omega
        expect_p = -1j * s / (basis.delta_plus - 1j * basis.kappa_plus)
        expect_m = -1j * co / (basis.delta_minus - 1j * basis.kappa_minus)
        assert c.g_plus / (2j * drive) == pytest.approx(expect_p, rel=1e-12)
        assert c.g_minus / (2j * drive) == pytest.approx(expect_m, rel=1e-12)

    def test_coupling_ratio_follows_tan_theta(self):
        _, basis = self.reference_basis()
        c = steady_state_amplitudes(basis, 1e9 * G0)
        ratio = abs(c.g_plus) / abs(c.g_minus)
        assert ratio == pytest.approx(math.tan(0.40 * math.pi), rel=0.01)

    def test_weight_identity(self):
        _, basis = self.reference_basis(kappa_a=TWO_PI * 0.6e6,
                                    kappa_c=TWO_PI * 1.7e6)
        c = steady_state_amplitudes(basis, 3e8 * G0)
        assert abs(c.g_plus_b) ** 2 + abs(c.g_minus_b) ** 2 == pytest.approx(
            abs(c.g_pm) ** 2, rel=1e-12)

    def test_c_frequency_shift_sign_and_scale(self):
        # the static displacement of b shifts the frequency of c by
        # 2 G0 Re<b> = -|G_c|^2 / (2 omega_b), with G_c = g_pm: negative
        # and quadratic in the drive strength
        p, basis = self.reference_basis()
        shift = [-abs(steady_state_amplitudes(basis, omega * G0).g_pm) ** 2
                 / (2.0 * p.omega_b) for omega in (1e9, 3e9)]
        assert shift[0] < 0.0
        assert shift[1] == pytest.approx(9.0 * shift[0], rel=1e-12)

    def test_c_frequency_shift_at_the_default_point(self):
        # 2 G0 Re<b> of the calibrated default point, G0 = 1 mHz, where the
        # couplings still carried Re<b>: -1 377 984.817 Hz
        base = default_baseline()
        shift = -abs(base.evaluate().couplings.g_pm) ** 2 / (2.0 * base.omega_b)
        assert shift / TWO_PI == pytest.approx(-1377984.8169900558, rel=1e-12)

    def test_rejects_negative_drive(self):
        _, basis = self.reference_basis()
        with pytest.raises(ParameterError, match="drive_strength must be non-negative"):
            steady_state_amplitudes(basis, -1.0 * G0)

    def test_vanishing_denominator_is_named(self):
        # both polaritons on resonance with the drive, and delta_kappa equal
        # to their rates: (0 - i)(0 - i) + 1 = 0
        basis = PolaritonBasis._make([0.3 * math.pi] + [0.0] * 14)._replace(
            kappa_plus=1.0, kappa_minus=1.0, delta_kappa=1.0)
        with pytest.raises(NumericalError, match=re.escape(
                "steady-state denominator (dm - i km)(dp - i kp) + dk^2 vanishes")):
            steady_state_amplitudes(basis, 1.0 * G0)


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
        _, basis = self.basis()
        target = TWO_PI * 2e6
        drive = drive_for_target_g_minus(basis, target)
        c = steady_state_amplitudes(basis, drive)
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
        with pytest.raises(ParameterError, match=r"\|G_-\| cannot be set by the drive"):
            drive_for_target_g_minus(basis, 1.0)
