"""Sweep behaviors: optima, instability regions, robustness thresholds."""

import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle import dynamics, experiments, gaussian
from entangle.cli import emit_records
from entangle.config import parse_config
from entangle.errors import EntangleError, NumericalError, ParameterError
from entangle.experiments import (
    EN_THRESHOLD,
    SWEEPS,
    SweepAxis,
    SweepRecord,
    SweepSpec,
    default_baseline,
    grid,
    run_sweep,
)
from entangle.model import TWO_PI, solve_g_omega_c_from_theta

from bare_mode_oracle import KAPPA_B_LINE, bare_mode_kappa_b_crossing
from column_bounds import assert_record_close, assert_row_close, point_record


@pytest.fixture(scope="module")
def base():
    return default_baseline()


@pytest.fixture
def stack_sizes(monkeypatch):
    """Sizes of the stacks :func:`run_pipelines` evaluates, in call order."""
    sizes = []
    run_pipelines = experiments.run_pipelines

    def counting(*args):
        result = run_pipelines(*args)
        sizes.append(len(result.stable))
        return result

    monkeypatch.setattr(experiments, "run_pipelines", counting)
    return sizes


@pytest.fixture(scope="module")
def theta_sweep(base):
    return run_sweep(base, SweepSpec("theta"))


@pytest.fixture(scope="module")
def detuning_sweep(base):
    return run_sweep(base, SweepSpec("detuning"))


@pytest.fixture(scope="module")
def g_minus_sweep(base):
    return run_sweep(base, SweepSpec("g_minus"))


@pytest.fixture(scope="module")
def temp_sweep(base):
    return run_sweep(base, SweepSpec("temp_kappa_b", SweepAxis(1.0, 500.0, 40),
                                     SweepAxis(1e2, 1e6, 25, "log")))


class TestSweepAxis:
    def test_linear_values(self):
        axis = SweepAxis(1.0, 3.0, 5)
        assert np.allclose(axis.values(), [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_log_values(self):
        axis = SweepAxis(1.0, 100.0, 3, "log")
        assert np.allclose(axis.values(), [1.0, 10.0, 100.0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            SweepAxis(1.0, 3.0, 1)
        with pytest.raises(ParameterError):
            SweepAxis(3.0, 1.0, 5)
        with pytest.raises(ParameterError):
            SweepAxis(0.0, 1.0, 5, "log")
        with pytest.raises(ParameterError):
            SweepAxis(1.0, 2.0, 5, "cubic")

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0)],
                             ids=["fraction", "float", "numpy-float"])
    def test_non_integer_count_is_refused(self, count):
        # it once built, and run_sweep died with a raw TypeError
        assert experiments.axis_fault(0.3, 0.4, count, "linear") == (
            "count", f"axis count must be an integer, got {count!r}")
        with pytest.raises(ParameterError, match="axis count must be an integer"):
            SweepAxis(0.3, 0.4, count)

    def test_numpy_integer_count(self):
        axis = SweepAxis(0.3, 0.4, np.int64(3))
        assert axis.values().tolist() == SweepAxis(0.3, 0.4, 3).values().tolist()

    @pytest.mark.parametrize("start, stop, field", [
        (0.3, math.inf, "stop"), (-math.inf, 0.4, "start"),
        (math.nan, 0.4, "start"), (0.3, math.nan, "stop"),
    ])
    def test_non_finite_endpoint_names_its_field(self, start, stop, field):
        assert experiments.axis_fault(start, stop, 3, "linear") == (
            field, f"axis {field} must be finite, got {(start, stop)[field == 'stop']!r}")
        with pytest.raises(ParameterError, match=f"axis {field} must be finite"):
            run_sweep(default_baseline(), SweepSpec("theta", SweepAxis(start, stop, 3)))

    @pytest.mark.parametrize("start, stop, field", [
        ("a", 1.0, "start"), (0.3, None, "stop"), (0.3, 1j, "stop"),
    ], ids=["text-start", "none-stop", "complex-stop"])
    def test_endpoint_that_is_no_real_number_is_named(self, start, stop, field):
        # it once escaped as CPython's "must be real number, not str"
        value = (start, stop)[field == "stop"]
        message = f"axis {field} must be a real number, got {value!r}"
        assert experiments.axis_fault(start, stop, 3, "linear") == (field, message)
        with pytest.raises(ParameterError) as caught:
            SweepAxis(start, stop, 3)
        assert str(caught.value) == message


class TestThetaSweep:
    def test_record_count_and_monotone_axis(self, theta_sweep):
        assert len(theta_sweep.records) == 200
        axis = [r.axis[0] for r in theta_sweep.records]
        assert all(b > a for a, b in zip(axis, axis[1:]))

    def test_argmax_at_optimal_angle(self, theta_sweep):
        argmax = theta_sweep.summary["argmax"]
        assert abs(argmax["theta_pi"] - 0.40) <= 0.02

    def test_small_angles_unstable(self, base):
        sweep = run_sweep(base, SweepSpec("theta", SweepAxis(0.06, 0.49, 100)))
        for rec in sweep.records:
            if rec.axis[0] <= 0.25:
                assert not rec.stable, f"theta = {rec.axis[0]} pi"

    def test_high_theta_unstable_tail(self, theta_sweep):
        tail = theta_sweep.records[-5:]
        assert all(not rec.stable for rec in tail)

    def test_stability_flag_matches_spectrum(self, theta_sweep):
        for rec in theta_sweep.records:
            assert rec.stable == (rec.max_re_eig < 0.0)

    def test_pinned_coupling_constant_across_sweep(self, theta_sweep):
        for rec in theta_sweep.records:
            assert rec.abs_g_minus == pytest.approx(2e6, rel=1e-9)

    def test_detunings_sideband_matched(self, theta_sweep):
        for rec in theta_sweep.records[:20]:
            assert rec.delta_plus == pytest.approx(10e6, rel=1e-6)
            assert rec.delta_minus == pytest.approx(-10e6, rel=1e-6)

    def test_refinement_moves_argmax_at_most_one_coarse_step(self, base):
        coarse = run_sweep(base, SweepSpec("theta", SweepAxis(0.30, 0.46, 50)))
        fine = run_sweep(base, SweepSpec("theta", SweepAxis(0.30, 0.46, 99)))
        step = 0.16 / 49
        moved = abs(coarse.summary["argmax"]["theta_pi"]
                    - fine.summary["argmax"]["theta_pi"])
        assert moved <= step + 1e-12


class TestDetuningSweep:
    def test_argmax_on_sideband_within_one_step(self, detuning_sweep):
        axis = [r.axis[0] for r in detuning_sweep.records]
        step = axis[1] - axis[0]
        argmax = detuning_sweep.summary["argmax"]["delta_abs_hz"]
        assert abs(argmax - 10e6) <= step + 1e-9

    def test_monotone_decrease_around_peak(self, detuning_sweep):
        values = [r.e_n_pp for r in detuning_sweep.records]
        peak = int(np.argmax([v if v is not None else -1 for v in values]))
        for i in range(max(peak - 4, 0), peak):
            assert values[i] < values[i + 1]
        for i in range(peak, min(peak + 4, len(values) - 1)):
            assert values[i] > values[i + 1]

    def test_off_sideband_entanglement_reduced(self, detuning_sweep):
        # the low-detuning end of the default axis sits well below half
        # the peak value
        peak = detuning_sweep.summary["argmax"]["e_n_pp"]
        assert detuning_sweep.records[0].e_n_pp < 0.5 * peak

    def test_large_detuning_unstable_tail(self, base):
        wide = run_sweep(base, SweepSpec("detuning", SweepAxis(6e6, 35e6, 59)))
        assert not wide.records[-1].stable
        assert any(not rec.stable for rec in wide.records[-8:])

    def test_axis_below_splitting_floor_rejected(self, base):
        with pytest.raises(ParameterError):
            run_sweep(base, SweepSpec("detuning", SweepAxis(1e6, 14e6, 20)))

    def test_explicit_geometry_keeps_pinned_coupling(self, base):
        from dataclasses import replace
        from entangle.model import solve_g_omega_c_from_theta
        g, omega_c = solve_g_omega_c_from_theta(
            0.40 * math.pi, base.omega_a, base.omega_b)
        pinned = replace(base, g=g, omega_c=omega_c, theta=None)
        spec = SweepSpec("detuning", SweepAxis(9.5e6, 10.5e6, 5))
        sweep = run_sweep(pinned, spec)
        reference = run_sweep(base, spec)
        assert sweep.records == reference.records

    def test_symmetric_detunings(self, detuning_sweep):
        for rec in detuning_sweep.records[::8]:
            assert rec.delta_plus == pytest.approx(-rec.delta_minus, rel=1e-9)
            assert rec.delta_plus == pytest.approx(rec.axis[0], rel=1e-9)


class TestGMinusSweep:
    def test_zero_drive_zero_entanglement(self, g_minus_sweep):
        first = g_minus_sweep.records[0]
        assert first.axis[0] == 0.0
        assert first.stable
        assert first.e_n_pp == 0.0

    def test_initial_rise_monotone(self, g_minus_sweep):
        values = [r.e_n_pp for r in g_minus_sweep.records[:30]]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_maximum_strictly_inside_stable_region(self, g_minus_sweep):
        argmax = g_minus_sweep.summary["argmax"]["g_minus_hz"]
        first_unstable = g_minus_sweep.summary["first_unstable_g_minus_hz"]
        assert first_unstable is not None
        assert argmax < first_unstable

    def test_reduces_before_instability(self, g_minus_sweep):
        stable = [r for r in g_minus_sweep.records if r.stable]
        assert stable[-1].e_n_pp < g_minus_sweep.summary["argmax"]["e_n_pp"]


class TestKappaGridSweep:
    def test_balanced_point_reproduces_theta_optimum(self, base):
        # a kappa grid containing (1 MHz, 1 MHz) exactly, against the
        # theta sweep evaluated exactly at 0.40 pi
        kappa = SweepAxis(1e5, 1e7, 21, "log")
        grid = run_sweep(base, SweepSpec("kappa_grid", kappa, kappa))
        theta = run_sweep(base, SweepSpec("theta", SweepAxis(0.26, 0.49, 24)))
        at_balanced = [r for r in grid.records
                       if r.axis[0] == pytest.approx(1e6, rel=1e-12)
                       and r.axis[1] == pytest.approx(1e6, rel=1e-12)]
        assert len(at_balanced) == 1
        at_theta = [r for r in theta.records
                    if r.axis[0] == pytest.approx(0.40, rel=1e-12)]
        assert len(at_theta) == 1
        assert at_balanced[0].e_n_pp == pytest.approx(
            at_theta[0].e_n_pp, rel=1e-12)

    def test_wide_entangled_area(self, base):
        kappa = SweepAxis(1e5, 1e7, 12, "log")
        grid = run_sweep(base, SweepSpec("kappa_grid", kappa, kappa))
        assert grid.summary["entangled_area_fraction"] > 0.5
        assert len(grid.records) == 144

    def test_axes_not_symmetric(self, base):
        a = base.evaluate(kappa_a=TWO_PI * 3e5, kappa_c=TWO_PI * 3e6)
        b = base.evaluate(kappa_a=TWO_PI * 3e6, kappa_c=TWO_PI * 3e5)
        assert a.e_n_pp != pytest.approx(b.e_n_pp, rel=0.05)

    def test_extreme_dissipation_ratio_collapses(self, base):
        res = base.evaluate(kappa_a=TWO_PI * 1e6, kappa_c=TWO_PI * 1e8)
        assert res.stable
        assert res.e_n_pp < 1e-3


class TestTempKappaBSweep:
    def test_baseline_corner_entangled(self, temp_sweep):
        coldest = temp_sweep.records[0]
        assert coldest.axis == (1.0, 1e2)
        assert coldest.e_n_pp > 0.1

    def test_grid_shape_and_order(self, temp_sweep):
        assert len(temp_sweep.records) == 40 * 25
        temps = [r.axis[0] for r in temp_sweep.records]
        assert temps == sorted(temps)

    def test_temperature_threshold_in_reported_window(self, temp_sweep):
        t_crit = temp_sweep.summary["t_crit_mk"]
        assert t_crit is not None
        assert 165.0 <= t_crit <= 275.0

    def test_kappa_b_threshold_in_reported_window(self, base):
        # At 10 mK E_N falls smoothly with kappa_b/2pi: 0.292 at 1e2 Hz,
        # 0.0493 at 1e5, 0.0278 at 2e5, 7.65e-3 at 1e6, 7.9e-4 at 1e7,
        # and drops below EN_THRESHOLD only at 3.16e7 Hz (ten points a
        # decade); the bare-mode oracle reproduces these to 1e-9.  Thermal
        # noise entering through b cannot separate the sideband-matched
        # polaritons on its own ((n_b + 1/2)^2 - n_b (n_b + 1) = 1/4 > 0),
        # so no threshold lies in the reported [5e4, 2e5] Hz window: the
        # window is checked as a survival range, and the threshold on a
        # line long enough to reach it.
        sweep = run_sweep(base, SweepSpec("temp_kappa_b", SweepAxis(10.0, 500.0, 2),
                                          KAPPA_B_LINE))
        line = [r for r in sweep.records if r.axis[0] == 10.0]
        assert len(line) == KAPPA_B_LINE.count
        assert all(r.stable for r in line)
        assert all(r.e_n_pp >= EN_THRESHOLD for r in line if r.axis[1] <= 2e5)
        assert all(a.e_n_pp > b.e_n_pp for a, b in zip(line, line[1:]))
        kb_crit = sweep.summary["kappa_b_crit_hz"]
        assert kb_crit is not None
        assert kb_crit == bare_mode_kappa_b_crossing(base, KAPPA_B_LINE.values())

    def test_entanglement_monotone_in_temperature_at_low_kappa_b(self, temp_sweep):
        line = [r for r in temp_sweep.records if r.axis[1] == pytest.approx(1e2)]
        values = [r.e_n_pp if r.e_n_pp is not None else 0.0 for r in line]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @staticmethod
    def line_crossing(base, along, fixed, values):
        """The first crossing of a threshold line, point by point."""
        quantities = SWEEPS["temp_kappa_b"].axes
        for value in values:
            overrides = {quantities[along].field: quantities[along].angular(value),
                         quantities[1 - along].field: quantities[1 - along].angular(fixed)}
            e_n = base.evaluate(**overrides).e_n_pp
            if e_n is None or e_n < EN_THRESHOLD:
                return float(value)
        return None

    @pytest.mark.parametrize("axes", [
        SWEEPS["temp_kappa_b"].defaults,
        (SweepAxis(10.0, 400.0, 14), SweepAxis(1e2, 1e8, 13, "log")),  # both lines on the grid
        (SweepAxis(150.0, 350.0, 21), SweepAxis(1.5e2, 2e2, 2, "log")),  # neither
    ])
    def test_threshold_lines_match_point_evaluations(self, base, axes):
        summary = run_sweep(base, SweepSpec("temp_kappa_b", *axes)).summary
        temps, kappa_bs = (axis.values() for axis in axes)
        assert summary["t_crit_mk"] == self.line_crossing(base, 0, 100.0, temps)
        assert summary["kappa_b_crit_hz"] == self.line_crossing(base, 1, 10.0, kappa_bs)

    def test_default_run_evaluates_two_stacks(self, base, stack_sizes):
        # the 3600-point grid, then the 60-point 100 Hz line and the
        # 60-point 10 mK line as one stack, though the grid holds the first
        run_sweep(base, SweepSpec("temp_kappa_b"))
        assert stack_sizes == [3600, 120]

    def test_threshold_refinement_within_one_coarse_step(self, base):
        kb_axis = SweepAxis(1e2, 2e2, 2, "log")
        coarse = run_sweep(base, SweepSpec("temp_kappa_b",
                                           SweepAxis(150.0, 350.0, 21), kb_axis))
        fine = run_sweep(base, SweepSpec("temp_kappa_b",
                                         SweepAxis(150.0, 350.0, 41), kb_axis))
        step = 200.0 / 20
        assert abs(coarse.summary["t_crit_mk"]
                   - fine.summary["t_crit_mk"]) <= step + 1e-9


class TestGenericSweep:
    def test_matches_dedicated_kappa_b_line(self, base):
        axis = SweepAxis(1e2, 1e5, 7, "log")
        sweep = run_sweep(base, SweepSpec("generic", axis, param="kappa_b"))
        assert sweep.axis_names == ("kappa_b_hz",)
        for rec in sweep.records:
            direct = base.evaluate(kappa_b=TWO_PI * rec.axis[0])
            assert rec.e_n_pp == direct.e_n_pp

    def test_unknown_param_rejected(self, base):
        with pytest.raises(ParameterError):
            SweepSpec("generic", SweepAxis(1.0, 2.0, 3), param="lattice_constant")

    @pytest.mark.parametrize("key", ["g", "omega_c", "omega_0", "drive_strength"])
    def test_parameter_outside_the_generic_keys_rejected(self, key):
        with pytest.raises(ParameterError) as info:
            SweepSpec("generic", SweepAxis(1.0, 2.0, 3), param=key)
        assert str(info.value) == (
            f"cannot sweep {key!r}; choose from ['g_minus', 'kappa_a', 'kappa_b', "
            "'kappa_c', 'omega_a', 'omega_b', 'temperature', 'theta']")

    def test_generic_keys_in_listing_order(self):
        assert tuple(experiments.GENERIC_PARAMS) == (
            "omega_a", "omega_b", "theta", "kappa_a", "kappa_c", "kappa_b",
            "temperature", "g_minus")
        assert all(param is experiments.PARAMS[key]
                   for key, param in experiments.GENERIC_PARAMS.items())


#: one quoted value per [params] key and the detuning axis; for 3.3e6 Hz
#: (v * 2pi) / 2pi differs from v, so only the quoted value reads back
_QUOTED = {
    "omega_a": 10e9, "omega_b": 12345.678, "theta": 0.1 + 0.2, "g": 0.0,
    "omega_c": 9.98e9, "omega_0": 9.99e9, "kappa_a": 3.3e6, "kappa_c": 1e6,
    "kappa_b": 100.0, "temperature": 1 / 3, "g_minus": 2e6,
    "drive_strength": 1e14 / 7, "detuning": 3.3e6,
}


class TestQuantityText:
    """:meth:`Quantity.text` writes the text :meth:`Quantity.parse` reads."""

    @staticmethod
    def quantity(key):
        return SWEEPS["detuning"].axes[0] if key == "detuning" else experiments.PARAMS[key]

    @pytest.mark.parametrize("key", _QUOTED)
    def test_text_parses_back_to_the_same_bits(self, key):
        param, value = self.quantity(key), _QUOTED[key]
        assert param.parse(param.text(value)).hex() == value.hex()

    def test_every_quantity_and_unit_is_covered(self):
        assert _QUOTED.keys() == {*experiments.PARAMS, "detuning"}
        assert {self.quantity(key).unit for key in _QUOTED} == set(experiments.UNITS)
        assert (3.3e6 * TWO_PI) / TWO_PI != 3.3e6


@pytest.mark.parametrize("unit", list(experiments.UNITS))
def test_wrong_suffix_message_names_every_accepted_suffix(unit):
    param = next(p for p in experiments.PARAMS.values() if p.unit == unit)
    with pytest.raises(ParameterError) as caught:
        param.parse("1 THz")
    message = str(caught.value)
    assert message.endswith("'THz'")
    named = set(re.findall(r"[A-Za-z]+", message.removesuffix("'THz'")))
    assert {s for s in experiments.UNITS[unit].suffixes if s} - named == set()


class TestRunSweepDispatch:
    def test_point(self, base):
        result = run_sweep(base, SweepSpec(kind="point"))
        assert result.kind == "point"
        assert len(result.records) == 1
        assert result.records[0].axis == ()
        assert result.summary == {}  # no axes: no argmax

    def test_generic_requires_axis(self, base):
        with pytest.raises(ParameterError):
            run_sweep(base, SweepSpec(kind="generic", param="kappa_b"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(kind="volume")

    @pytest.mark.parametrize("kind, axis, axis2, param, extra", [
        ("theta", SweepAxis(0.3, 0.4, 3), SweepAxis(1, 2, 3), None, "axis2"),
        ("g_minus", None, SweepAxis(1, 2, 3), None, "axis2"),
        ("generic", SweepAxis(1, 2, 3), SweepAxis(1, 2, 3), "kappa_b", "axis2"),
        ("point", SweepAxis(0.3, 0.4, 3), None, None, "axis"),
        ("point", None, SweepAxis(0.3, 0.4, 3), None, "axis2"),
    ])
    def test_axis_beyond_the_kind_rejected(self, base, kind, axis, axis2,
                                           param, extra):
        with pytest.raises(ParameterError, match=f"'{extra}' does not apply"):
            run_sweep(base, SweepSpec(kind, axis, axis2, param=param))

    @pytest.mark.parametrize("kind, name", [
        ("theta", "axis"), ("kappa_grid", "axis2"), ("point", "axis"),
    ])
    def test_axis_that_is_no_sweep_axis_is_named(self, kind, name):
        # it was accepted, and run_sweep and echo_config then died with
        # AttributeError: 'tuple' object has no attribute 'values'
        with pytest.raises(ParameterError) as caught:
            SweepSpec(kind, **{name: (0.3, 0.4, 3)})
        assert str(caught.value) == (
            f"{name!r} must be a SweepAxis or None, got (0.3, 0.4, 3)")


class TestSweepSummary:
    """``summary["argmax"]``: the first record with the largest E_N(+,-),
    None when no point is stable; the kind's summary entries follow it."""

    @staticmethod
    def first_largest(result):
        stable = [rec for rec in result.records if rec.e_n_pp is not None]
        peak = max(rec.e_n_pp for rec in stable)
        best = next(rec for rec in stable if rec.e_n_pp == peak)
        return {**dict(zip(result.axis_names, best.axis)), "e_n_pp": peak}

    @pytest.mark.parametrize("sweep", ["theta_sweep", "detuning_sweep", "g_minus_sweep"])
    def test_argmax_names_the_first_record_with_the_largest_e_n(self, sweep, request):
        result = request.getfixturevalue(sweep)
        assert result.summary["argmax"] == self.first_largest(result)
        assert next(iter(result.summary)) == "argmax"

    def test_a_tie_goes_to_the_first_record(self, base):
        # undriven, every point is stable with E_N(+,-) = 0.0
        result = run_sweep(replace(base, target_g_minus=0.0),
                           SweepSpec("theta", SweepAxis(0.30, 0.45, 4)))
        assert {rec.e_n_pp for rec in result.records} == {0.0}
        assert result.summary == {"argmax": {"theta_pi": 0.30, "e_n_pp": 0.0}}

    def test_argmax_is_none_when_no_point_is_stable(self, base):
        result = run_sweep(base, SweepSpec("g_minus", SweepAxis(4.5e6, 6e6, 5)))
        assert not any(rec.stable for rec in result.records)
        assert result.summary == {"argmax": None, "first_unstable_g_minus_hz": 4.5e6}


class TestDeterminism:
    def test_records_independent_of_evaluation_order(self, base):
        spec = SweepSpec("theta", SweepAxis(0.30, 0.45, 40))
        first = run_sweep(base, spec)
        second = run_sweep(base, spec)
        assert first.records == second.records
        assert first.summary == second.summary

        # the same points backwards through the column path: the same bits
        overrides = SWEEPS["theta"].overrides(base, (spec.axis,))
        backwards = spec.axis.values()[::-1]
        records = SweepRecord.from_columns([(v,) for v in backwards.tolist()],
                                           base.evaluate_all(overrides((backwards,))))
        assert first.records == tuple(reversed(records))

        # point by point through Baseline.evaluate, to the column bound
        for rec in first.records:
            point = point_record(rec.axis, base.evaluate(**overrides(rec.axis)))
            assert_record_close(rec, point, base.omega_b)


#: small grids of every kind whose records depend on the stacked path;
#: theta and g_minus cross into instability
SMALL_GRIDS = {
    "theta": SweepSpec("theta", SweepAxis(0.26, 0.49, 23)),
    "g_minus": SweepSpec("g_minus", SweepAxis(0.0, 6e6, 19)),
    "kappa_grid": SweepSpec("kappa_grid", SweepAxis(1e5, 1e7, 5, "log"),
                            SweepAxis(1e5, 1e7, 4, "log")),
    "temp_kappa_b": SweepSpec("temp_kappa_b", SweepAxis(1.0, 500.0, 5),
                              SweepAxis(1e2, 1e6, 4, "log")),
}


#: numpy and Python carriers of one value other than the Python float
CARRIERS = [np.array, np.float64, np.float32, int]
CARRIER_IDS = ["0-d-array", "float64", "float32", "int"]


def one_value_draws(carry, count=12):
    """Seeded ``theta`` and ``kappa_b`` overrides, stable and unstable
    points, each value given by ``carry``; an int carries no angle."""
    rng = np.random.default_rng(19)
    for theta_pi, kappa_b_hz in zip(rng.uniform(0.05, 0.49, count).tolist(),
                                    rng.uniform(10.0, 1e4, count).tolist()):
        given = {"kappa_b": carry(TWO_PI * kappa_b_hz)}
        if carry is not int:
            given["theta"] = carry(theta_pi * math.pi)
        yield given


def point_bits(result):
    """The repr of every value of a point's result, covariance bytes included."""
    cov = result.state.cov.tobytes() if result.stable else None
    return repr((tuple(result.basis), tuple(result.couplings), result.drive_strength,
                 result.stable, result.max_re_eig, result.e_n_pp, result.e_n_mb,
                 result.e_n_pb, cov))


def stack_point_bits(stack):
    """:func:`point_bits` of the one point of a stack of one."""
    stable = stack.stable[0].item()
    e_n = [e[0].item() if stable else None
           for e in (stack.e_n_pp, stack.e_n_mb, stack.e_n_pb)]
    return repr((tuple(v[0].item() for v in stack.basis),
                 tuple(v[0].item() for v in stack.couplings), stack.drive_strength[0].item(),
                 stable, stack.max_re_eig[0].item(), *e_n,
                 stack.covs[0].tobytes() if stable else None))


class TestStackedEvaluation:
    @pytest.mark.parametrize("kind", SMALL_GRIDS)
    def test_records_csv_independent_of_chunk_size(self, base, kind, monkeypatch):
        spec = SMALL_GRIDS[kind]
        size = len(grid(spec.resolved_axes()))
        outputs = set()
        for chunk in (1, 7, size + 1):
            monkeypatch.setattr(dynamics, "CHUNK_SIZE", chunk)
            result = run_sweep(base, spec)
            outputs.add((emit_records(result), repr(result.summary)))
        assert len(outputs) == 1

    def test_one_fill_per_stack_whatever_the_chunk_size(self, base, monkeypatch):
        # the drift and diffusion of the whole stack are filled once, before
        # it is cut into slices; the kernels see at most CHUNK_SIZE rows
        spec = SMALL_GRIDS["g_minus"]
        size = len(grid(spec.resolved_axes()))
        fills, slices = [], []
        fill, spectra = dynamics._fill, gaussian._spectra
        monkeypatch.setattr(dynamics, "_fill",
                            lambda *args: fills.append(args[2]) or fill(*args))
        monkeypatch.setattr(gaussian, "_spectra",
                            lambda drifts: slices.append(len(drifts)) or spectra(drifts))
        for chunk in (1, 7, size + 1):
            monkeypatch.setattr(dynamics, "CHUNK_SIZE", chunk)
            fills.clear()
            slices.clear()
            run_sweep(base, spec)
            assert fills == [size], chunk
            assert sum(slices) == size and max(slices) <= chunk, chunk

    def test_shared_values_are_full_columns(self, base):
        # theta and the rates are shared on a g_minus line, and still every
        # model-layer field of the result is one entry per point
        axes = SweepSpec("g_minus").resolved_axes()
        columns = tuple(np.array(column) for column in zip(*grid(axes)))
        result = base.evaluate_all(SWEEPS["g_minus"].overrides(base, axes)(columns))
        size = axes[0].count
        assert len(result.stable) == size
        for part in (result.basis, result.couplings):
            for name, value in part._asdict().items():
                assert isinstance(value, np.ndarray) and value.shape == (size,), name
        assert isinstance(result.drive_strength, np.ndarray)
        assert result.drive_strength.shape == (size,)
        assert np.all(result.basis.theta == result.basis.theta[0])  # one shared value

    def test_sweep_records_equal_point_evaluations(self, base):
        spec = SMALL_GRIDS["g_minus"]
        sweep = run_sweep(base, spec)
        overrides = SWEEPS["g_minus"].overrides(base, spec.resolved_axes())
        assert any(not rec.stable for rec in sweep.records)
        for rec in sweep.records:
            point = base.evaluate(**overrides(rec.axis))
            assert_record_close(rec, point_record(rec.axis, point),
                                base.omega_b)

    def test_stacked_results_agree_with_point_results(self, base, monkeypatch):
        monkeypatch.setattr(dynamics, "CHUNK_SIZE", 4)
        theta = np.repeat([0.27, 0.33, 0.40, 0.46], 3) * math.pi
        g_minus = np.tile([0.0, 2e6, 5e6], 4) * TWO_PI
        stack = base.evaluate_all({"theta": theta, "target_g_minus": g_minus})
        assert len(stack.stable) == 12
        assert {bool(s) for s in stack.stable} == {True, False}
        for i, (t, g) in enumerate(zip(theta, g_minus)):
            point = base.evaluate(theta=t, target_g_minus=g)
            assert_row_close(stack, i, point, base.omega_b)

    @pytest.mark.parametrize("kind", ["theta", "g_minus", "detuning"])
    def test_default_line_is_one_stack(self, base, kind, stack_sizes):
        run_sweep(base, SweepSpec(kind))
        assert stack_sizes == [SWEEPS[kind].defaults[0].count]

    def test_default_theta_sweep_peak_memory(self, base):
        # dynamics.CHUNK_SIZE trades kernel calls for their temporaries;
        # one default theta sweep, a single 200-row slice, peaks near 0.92 MB
        run_sweep(base, SweepSpec("theta"))  # one-time allocations
        tracemalloc.start()
        try:
            run_sweep(base, SweepSpec("theta"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_shared_overrides_are_one_point(self, base):
        result = base.evaluate_all({"theta": 0.40 * math.pi})
        assert len(result.stable) == 1
        point = base.evaluate(theta=0.40 * math.pi)
        assert result.e_n_pp.tolist() == [point.e_n_pp]
        assert np.array_equal(result.covs[0], point.state.cov)

    def test_chunk_error_is_that_of_the_first_failing_point(self, base):
        # point 1 has a negative rate and point 2 a degenerate angle; the
        # columns resolve theta before they check the rates, so the stack
        # is re-evaluated point by point to report point 1
        overrides = {"theta": np.array([0.40, 0.40, 0.0]) * math.pi,
                     "kappa_b": np.array([1.0, -1.0, 1.0]) * TWO_PI}
        with pytest.raises(ParameterError, match="kappa_b must be positive"):
            base.evaluate(theta=0.40 * math.pi, kappa_b=-TWO_PI)
        with pytest.raises(ParameterError, match="kappa_b must be positive"):
            base.evaluate_all(overrides)

    def test_replay_reports_a_failing_point_before_the_checked_slice(self, base,
                                                                     monkeypatch):
        # with 2-row slices, point 3 (second slice) has noise that overflows
        # ||D||_F, which only the Lyapunov kernel sees, and point 4 (third
        # slice) a negative rate, which the column checks of the whole stack
        # see first; the replay walks the stack and reports point 3
        monkeypatch.setattr(dynamics, "CHUNK_SIZE", 2)
        temperature = np.array([0.01, 0.01, 0.01, 1e300, 0.01, 0.01])
        kappa_b = TWO_PI * np.array([100.0, 100.0, 100.0, 100.0, -100.0, 100.0])
        with pytest.raises(ParameterError, match="kappa_b must be positive"):
            dynamics.run_pipelines(base.params(temperature=temperature, kappa_b=kappa_b),
                                   base.target_g_minus)
        with pytest.raises(NumericalError) as point:
            base.evaluate(temperature=1e300, kappa_b=TWO_PI * 100.0)
        with pytest.raises(NumericalError) as stack:
            base.evaluate_all({"temperature": temperature, "kappa_b": kappa_b})
        assert str(stack.value) == str(point.value)
        assert "[Lyapunov solve]" in str(point.value)

    def test_replay_without_a_failing_point_re_raises_the_stack_error(
            self, base, monkeypatch):
        # a kernel that fails only on stacks of more than one row: every
        # point of the replay passes, so the stack's own error is raised
        solve = gaussian._solve_stacked
        replayed = []

        def stacks_only(R, D, spectra):
            if len(R) > 1:
                raise NumericalError("stacks only")
            replayed.append(len(R))
            return solve(R, D, spectra)

        monkeypatch.setattr(gaussian, "_solve_stacked", stacks_only)
        with pytest.raises(NumericalError, match=r"^\[Lyapunov solve\] stacks only$"):
            base.evaluate_all({"theta": np.array([0.35, 0.40]) * math.pi})
        assert replayed == [1, 1]

    def test_kernel_calls_of_the_default_temp_kappa_b_run_are_bounded(
            self, base, monkeypatch, stack_sizes):
        # the model layer sees each whole stack, every kernel at most
        # dynamics.CHUNK_SIZE points (three two-mode blocks per point)
        rows = {"_spectra": [], "_solve_stacked": [], "log_negativity_stacked": []}
        for name, calls in rows.items():
            def counting(matrices, *args, kernel=getattr(gaussian, name), calls=calls):
                calls.append(len(matrices))
                return kernel(matrices, *args)
            monkeypatch.setattr(gaussian, name, counting)
        run_sweep(base, SweepSpec("temp_kappa_b"))
        assert stack_sizes == [3600, 120]
        assert sum(rows["_spectra"]) == 3720
        assert len(rows["_spectra"]) == 15 + 1
        assert max(rows["_spectra"]) == dynamics.CHUNK_SIZE
        assert max(rows["_solve_stacked"]) <= dynamics.CHUNK_SIZE
        assert max(rows["log_negativity_stacked"]) <= 3 * dynamics.CHUNK_SIZE

    @pytest.mark.parametrize("overrides, named", [
        ({"theta": [0.3 * math.pi, 0.4 * math.pi], "kappa_b": [1e3, 2e3, 3e3]},
         "theta of shape (2,), kappa_b of shape (3,)"),
        ({"theta": np.full(3, 0.4 * math.pi), "kappa_b": [1e3]},
         "theta of shape (3,), kappa_b of shape (1,)"),
        ({"theta": [[0.3 * math.pi, 0.4 * math.pi]], "kappa_b": 1e3},
         "theta of shape (1, 2)"),
        # numpy's raw ValueError about an inhomogeneous shape, once
        ({"theta": [[0.4, 0.5], [0.3]], "kappa_b": [1e3, 2e3]}, "theta of ragged shape"),
        ({"theta": ([0.4], 0.5)}, "theta of ragged shape"),
    ], ids=["unequal", "length-1", "2-d", "ragged", "list-beside-number"])
    def test_bad_override_columns_are_named(self, base, overrides, named):
        with pytest.raises(ParameterError) as caught:
            base.evaluate_all(overrides)
        assert str(caught.value) == (
            "override columns must be 1-d and of one length, got " + named)

    @pytest.mark.parametrize("overrides, named", [
        ({"theta": np.full(2, 0.4 * math.pi), "kappa_b": np.array([1e3, 2e3, 3e3])},
         "theta of shape (2,), kappa_b of shape (3,)"),
        ({"theta": np.full(3, 0.4 * math.pi), "kappa_b": np.array([1e3])},
         "theta of shape (3,), kappa_b of shape (1,)"),
        ({"kappa_b": np.array([[1e3, 2e3]])}, "kappa_b of shape (1, 2)"),
        ({"theta": [0.3 * math.pi, 0.4 * math.pi], "kappa_b": (1e3, 2e3, 3e3)},
         "theta of shape (2,), kappa_b of shape (3,)"),
    ], ids=["unequal", "length-1", "2-d", "list-tuple"])
    def test_params_name_bad_columns(self, base, overrides, named):
        # checked where the columns meet, not first in the pipeline
        with pytest.raises(ParameterError) as caught:
            base.params(**overrides)
        assert str(caught.value) == (
            "override columns must be 1-d and of one length, got " + named)

    def test_params_make_lists_and_tuples_float_columns(self, base):
        # they once reached the model layer as given: a raw TypeError
        given = base.params(theta=[0.3 * math.pi, 0.4 * math.pi], kappa_b=(1000, 2000))
        expected = base.params(theta=np.array([0.3, 0.4]) * math.pi,
                               kappa_b=np.array([1e3, 2e3]))
        for name, value in vars(expected).items():
            assert np.array_equal(getattr(given, name), value), name
        assert given.kappa_b.dtype == np.float64

    @pytest.mark.parametrize("column", [
        [0.3 * math.pi, 0.4 * math.pi], (0.3 * math.pi,),
        np.array([0.3, 0.4]) * math.pi, np.array([0.4 * math.pi]),
    ], ids=["list", "tuple", "array", "length-1-array"])
    def test_evaluate_refuses_a_column(self, base, column):
        # a list once raised a raw TypeError, an array numpy's shape
        # mismatch, and a length-1 array gave a result of columns
        with pytest.raises(ParameterError) as caught:
            base.evaluate(kappa_b=TWO_PI * 100.0, theta=column)
        assert str(caught.value) == (
            "evaluate() takes one point, but override 'theta' is a column; "
            "evaluate_all() evaluates a stack")

    @pytest.mark.parametrize("value", [np.float64(0.4 * math.pi), np.array(0.4 * math.pi)],
                             ids=["numpy-scalar", "0-d-array"])
    def test_evaluate_takes_one_numpy_value(self, base, value):
        point, floats = base.evaluate(theta=value), base.evaluate(theta=0.4 * math.pi)
        assert isinstance(point.basis.theta, float)
        assert point.e_n_pp == floats.e_n_pp
        assert point_bits(point) == point_bits(floats)  # no 0-d array in the basis

    @pytest.mark.parametrize("carry", CARRIERS, ids=CARRIER_IDS)
    def test_one_value_gives_the_bits_of_its_float(self, base, carry):
        # a 0-d array once took numpy's column arithmetic, and a float32
        # stayed single precision against the Python floats it met
        for given in one_value_draws(carry):
            floats = {name: float(value) for name, value in given.items()}
            assert point_bits(base.evaluate(**given)) == \
                point_bits(base.evaluate(**floats)), given

    @pytest.mark.parametrize("carry", [float, *CARRIERS], ids=["float", *CARRIER_IDS])
    def test_stack_of_one_values_gives_the_bits_of_evaluate(self, base, carry):
        for given in one_value_draws(carry):
            floats = {name: float(value) for name, value in given.items()}
            stack = base.evaluate_all(given)
            assert len(stack.stable) == 1
            assert stack_point_bits(stack) == point_bits(base.evaluate(**floats)), given

    @pytest.mark.parametrize("text", ["0.4", np.array("0.4")], ids=["str", "0-d-str"])
    def test_string_override_is_refused(self, base, text):
        # not parsed into the number it spells
        with pytest.raises(TypeError):
            base.evaluate(theta=text)
        with pytest.raises(TypeError):
            base.evaluate_all({"theta": text})

    @pytest.mark.parametrize("column", [
        ["0.4", "0.5"], (b"0.4",), np.array(["0.4", "0.5"]),
        [Fraction(2, 5), "0.5"], np.array([0.4, "0.5"], dtype=object),
    ], ids=["str-list", "bytes-tuple", "str-array", "mixed-list", "object-array"])
    def test_text_column_is_refused(self, base, column):
        # it was parsed into a stack of the numbers it spells
        with pytest.raises(TypeError) as caught:
            base.evaluate_all({"theta": column})
        assert str(caught.value) == "override 'theta' is a column with text; give numbers"

    @pytest.mark.parametrize("evaluate, named, got", [
        (lambda base: base.evaluate_all({"theta": [None, 0.4 * math.pi]}), "theta", "None"),
        (lambda base: base.evaluate_all({"theta": [1j, 0.5]}), "theta", "1j"),
        (lambda base: base.evaluate(theta=1j), "theta", "1j"),
        (lambda base: base.evaluate(theta=None), "theta", "None"),
        (lambda base: base.evaluate(kappa_b=None), "kappa_b", "None"),
        (lambda base: base.evaluate(temperature=None), "temperature", "None"),
        (lambda base: base.params(omega_a=None), "omega_a", "None"),
    ], ids=["none-entry", "complex-entry", "complex", "none-theta", "none-kappa_b",
            "none-temperature", "none-omega_a"])
    def test_non_real_override_is_named(self, base, evaluate, named, got):
        # a None entry once became a NaN the caller never gave, and the rest
        # raised numpy's or CPython's TypeError naming no override
        with pytest.raises(TypeError) as caught:
            evaluate(base)
        assert str(caught.value) == f"override {named!r} takes real numbers, got {got}"

    def test_none_unsets_only_the_optional_fields(self, base):
        pinned = base.evaluate(g=None, omega_c=None, omega_0=None)
        assert point_bits(pinned) == point_bits(base.evaluate())
        drive = base.evaluate(target_g_minus=None, drive_strength=1e30)
        assert drive.drive_strength == 1e30

    def test_real_number_entries_make_a_column(self, base):
        given = base.params(kappa_b=[Fraction(1, 2), 2, True, np.float64(0.25), np.int32(3)])
        assert given.kappa_b.tolist() == [0.5, 2.0, 1.0, 0.25, 3.0]

    def test_empty_columns_are_an_empty_stack(self, base):
        stack = base.evaluate_all({"theta": np.array([]), "kappa_b": []})
        assert len(stack.stable) == 0
        assert stack.covs.shape == (0, 6, 6)
        assert stack.stable.shape == stack.max_re_eig.shape == stack.e_n_pb.shape == (0,)
        assert SweepRecord.from_columns([], stack) == []
        direct = dynamics.run_pipelines(base.params(theta=np.array([])),
                                        base.target_g_minus)
        assert len(direct.stable) == 0 and direct.covs.shape == (0, 6, 6)


#: a (g, omega_c) override pair other than the baseline's geometry
PAIR_G, PAIR_OMEGA_C = TWO_PI * 3e6, TWO_PI * 10.01e9


class TestGeometryOverrides:
    """Overrides obey the config's geometry rules, so none is dropped."""

    @pytest.mark.parametrize("overrides, message", [
        ({"g": PAIR_G}, "give both g and omega_c, or neither"),
        ({"omega_c": PAIR_OMEGA_C}, "give both g and omega_c, or neither"),
        ({"theta": 0.35 * math.pi, "g": PAIR_G},
         "give both g and omega_c, or neither"),
        ({"theta": 0.35 * math.pi, "g": PAIR_G, "omega_c": PAIR_OMEGA_C},
         "give either theta or the pair (g, omega_c)"),
    ], ids=["g", "omega_c", "theta-g", "theta-pair"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["theta_base", "pinned_base"])
    def test_override_that_would_be_dropped_raises(self, base, overrides,
                                                   message, pinned):
        if pinned:
            base = replace(base, theta=None, g=TWO_PI * 5e6, omega_c=TWO_PI * 10.01e9)
        with pytest.raises(ParameterError) as caught:
            base.evaluate(**overrides)
        assert str(caught.value) == message
        with pytest.raises(ParameterError) as caught:
            base.evaluate_all(overrides)
        assert str(caught.value) == message

    @pytest.mark.parametrize("overrides", [
        {"g": None, "omega_c": PAIR_OMEGA_C},
        {"g": PAIR_G, "omega_c": None},
        {"g": None, "omega_c": [PAIR_OMEGA_C, 1.001 * PAIR_OMEGA_C]},
    ], ids=["g-unset", "omega_c-unset", "g-unset-omega_c-column"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["theta_base", "pinned_base"])
    def test_a_pair_with_one_member_unset_raises(self, base, overrides, pinned):
        # the given member was once dropped: on the theta baseline the
        # point kept the default point's bits
        if pinned:
            base = replace(base, theta=None, g=TWO_PI * 5e6, omega_c=TWO_PI * 10.01e9)
        calls = [lambda: base.evaluate_all(overrides), lambda: base.params(**overrides)]
        if not any(isinstance(v, list) for v in overrides.values()):
            calls.append(lambda: base.evaluate(**overrides))
        for call in calls:
            with pytest.raises(ParameterError) as caught:
                call()
            assert str(caught.value) == "give both g and omega_c, or neither"

    @pytest.mark.parametrize("overrides, message", [
        ({"g": TWO_PI * 1e6}, "give both g and omega_c, or neither"),
        ({"omega_c": PAIR_OMEGA_C}, "give both g and omega_c, or neither"),
        ({"theta": 0.3 * math.pi, "g": PAIR_G, "omega_c": PAIR_OMEGA_C},
         "give either theta or the pair (g, omega_c)"),
    ], ids=["g", "omega_c", "theta-pair"])
    def test_default_baseline_refuses_an_override_it_would_drop(self, overrides,
                                                                message):
        # it once copied each: the lone value gave the default point's
        # bits, and theta beside the pair gave a point at 0.375 pi
        with pytest.raises(ParameterError) as caught:
            default_baseline(**overrides)
        assert str(caught.value) == message

    @pytest.mark.parametrize("pinned, fields", [
        (False, {"g": TWO_PI * 1e6}), (False, {"omega_c": PAIR_OMEGA_C}),
        (True, {"g": None}), (True, {"omega_c": None}),
    ], ids=["g", "omega_c", "pinned-unset-g", "pinned-unset-omega_c"])
    def test_a_copy_with_one_pair_member_raises(self, base, pinned, fields):
        # a copy once took it: the lone value gave the default point's bits
        if pinned:
            base = default_baseline(g=PAIR_G, omega_c=PAIR_OMEGA_C)
        with pytest.raises(ParameterError) as caught:
            replace(base, **fields)
        assert str(caught.value) == "give both g and omega_c, or neither"

    def test_default_baseline_takes_the_full_pair(self, base):
        pinned = default_baseline(g=PAIR_G, omega_c=PAIR_OMEGA_C)
        assert pinned.evaluate().e_n_pp == base.evaluate(
            g=PAIR_G, omega_c=PAIR_OMEGA_C).e_n_pp

    def test_unknown_override_raises_type_error(self, base):
        with pytest.raises(TypeError, match="unexpected keyword argument 'thet'"):
            base.evaluate(thet=0.35 * math.pi)
        with pytest.raises(TypeError, match="unexpected keyword argument 'omega'"):
            base.params(omega=1.0, theta=0.35 * math.pi)

    def test_full_pair_evaluates_its_geometry(self, base):
        g, omega_c = solve_g_omega_c_from_theta(
            0.35 * math.pi, base.omega_a, base.omega_b)
        pair = base.evaluate(g=g, omega_c=omega_c)
        assert pair.e_n_pp == base.evaluate(theta=0.35 * math.pi).e_n_pp
        assert pair.e_n_pp != base.evaluate().e_n_pp
        stack = base.evaluate_all({"g": np.array([g, PAIR_G]),
                                   "omega_c": np.array([omega_c, PAIR_OMEGA_C])})
        assert stack.e_n_pp[0] == pytest.approx(pair.e_n_pp, rel=1e-11)
        assert stack.e_n_pp[1] == pytest.approx(
            base.evaluate(g=PAIR_G, omega_c=PAIR_OMEGA_C).e_n_pp, rel=1e-11)


class TestDriveOverrides:
    """A ``drive_strength`` override beside a target |G_-| would be dropped
    for the calibrated drive, so it raises; with the target cleared it
    sets the drive."""

    MESSAGE = ("give either target_g_minus or drive_strength "
               "(target_g_minus=None pins the drive)")

    @pytest.mark.parametrize("overrides", [
        {"drive_strength": 1e20},
        {"drive_strength": 1e20, "target_g_minus": TWO_PI * 1e6},
    ], ids=["baseline-target", "overriding-target"])
    def test_beside_a_target_raises(self, base, overrides):
        with pytest.raises(ParameterError) as caught:
            base.evaluate(**overrides)
        assert str(caught.value) == self.MESSAGE
        columns = {name: np.full(3, value) for name, value in overrides.items()}
        with pytest.raises(ParameterError) as caught:
            base.evaluate_all(columns)
        assert str(caught.value) == self.MESSAGE

    def test_with_the_target_cleared_sets_the_drive(self, base):
        calibrated = base.evaluate()
        drive = 0.5 * calibrated.drive_strength
        point = base.evaluate(drive_strength=drive, target_g_minus=None)
        assert point.drive_strength == drive
        assert point.e_n_pp != calibrated.e_n_pp
        stack = base.evaluate_all({"drive_strength": np.array([drive, drive]),
                                   "target_g_minus": None})
        assert stack.e_n_pp.tolist() == pytest.approx([point.e_n_pp] * 2, rel=1e-11)
        pinned = replace(base, target_g_minus=None)
        assert pinned.evaluate(drive_strength=drive).e_n_pp == point.e_n_pp

    @pytest.mark.parametrize("overrides", [
        {"drive_strength": 1e20},
        {"drive_strength": 1e20, "target_g_minus": TWO_PI * 1e6},
    ], ids=["default-target", "overriding-target"])
    def test_default_baseline_refuses_a_drive_beside_a_target(self, overrides):
        # it once copied the drive, and the default target won over it
        with pytest.raises(ParameterError) as caught:
            default_baseline(**overrides)
        assert str(caught.value) == self.MESSAGE

    def test_a_copy_with_a_drive_beside_a_target_raises(self, base):
        # a copy once kept the drive, and the target won over it
        with pytest.raises(ParameterError) as caught:
            replace(base, drive_strength=1e20)
        assert str(caught.value) == self.MESSAGE
        pinned = replace(base, drive_strength=1e20, target_g_minus=None)
        with pytest.raises(ParameterError) as caught:
            replace(pinned, target_g_minus=TWO_PI * 1e6)
        assert str(caught.value) == self.MESSAGE
        assert replace(pinned, drive_strength=None, target_g_minus=TWO_PI * 1e6)

    def test_default_baseline_with_the_target_cleared_sets_the_drive(self, base):
        drive = 0.5 * base.evaluate().drive_strength
        point = default_baseline(drive_strength=drive, target_g_minus=None).evaluate()
        assert point.drive_strength == drive
        assert point.e_n_pp == base.evaluate(drive_strength=drive,
                                             target_g_minus=None).e_n_pp

    def test_params_beside_a_target_raises(self, base):
        # params once returned the drive, which run_pipeline with the
        # baseline's target then dropped for the calibrated one
        with pytest.raises(ParameterError) as caught:
            base.params(drive_strength=1e12)
        assert str(caught.value) == self.MESSAGE
        assert base.params(drive_strength=1e12, target_g_minus=None).drive_strength == 1e12
        pinned = replace(base, target_g_minus=None)
        assert pinned.params(drive_strength=1e12).drive_strength == 1e12


class TestPerCallRules:
    """:meth:`Baseline.params`, :meth:`Baseline.evaluate` and
    :meth:`Baseline.evaluate_all` check one set of per-call rules, so each
    refuses an override as the others do."""

    @pytest.mark.parametrize("pinned, overrides, error, message", [
        (False, {"g": PAIR_G}, ParameterError, "give both g and omega_c, or neither"),
        (False, {"theta": 0.35 * math.pi, "g": PAIR_G, "omega_c": PAIR_OMEGA_C},
         ParameterError, "give either theta or the pair (g, omega_c)"),
        (False, {"g": None, "omega_c": PAIR_OMEGA_C},
         ParameterError, "give both g and omega_c, or neither"),
        (True, {"g": None, "omega_c": None},
         ParameterError, "give theta or the pair (g, omega_c)"),
        (False, {"drive_strength": 1e12}, ParameterError,
         "give either target_g_minus or drive_strength "
         "(target_g_minus=None pins the drive)"),
        (False, {"thet": 0.35 * math.pi}, TypeError,
         "Baseline.params() got an unexpected keyword argument 'thet'"),
    ], ids=["lone-g", "theta-beside-pair", "pair-member-unset", "no-geometry",
            "drive-beside-target", "unknown-field"])
    def test_every_entry_raises_alike(self, base, pinned, overrides, error, message):
        if pinned:
            base = default_baseline(g=PAIR_G, omega_c=PAIR_OMEGA_C)
        for call in (lambda: base.params(**overrides),
                     lambda: base.evaluate(**overrides),
                     lambda: base.evaluate_all(overrides)):
            with pytest.raises(Exception) as caught:
                call()
            assert type(caught.value) is error
            assert str(caught.value) == message


#: a config that pins the pair (g, omega_c), so its theta is not given
PINNED_CONFIG = "[params]\ng = 5 MHz\nomega_c = 10.01 GHz\n"


class TestGivenInputsOnly:
    """A baseline holds None in exactly the either-or fields nobody gave,
    so no copy or override can drop a given value or use an invented one."""

    NO_GEOMETRY = "give theta or the pair (g, omega_c)"

    @pytest.fixture(scope="class")
    def pinned(self):
        return parse_config(PINNED_CONFIG).baseline()

    def test_an_explicit_zero_drive_beside_a_target_raises(self, base):
        # a copy once kept 0.0, which read as no drive, and the target won
        with pytest.raises(ParameterError) as caught:
            replace(base, drive_strength=0.0)
        assert str(caught.value) == TestDriveOverrides.MESSAGE

    def test_theta_beside_a_pinned_pair_raises(self, pinned):
        # a copy once took it and evaluated at the pair's 0.375 pi
        with pytest.raises(ParameterError) as caught:
            replace(pinned, theta=0.3 * math.pi)
        assert str(caught.value) == "give either theta or the pair (g, omega_c)"

    @pytest.mark.parametrize("attempt", [
        lambda base: base.evaluate(g=None, omega_c=None),
        lambda base: base.evaluate_all({"g": None, "omega_c": None}),
        lambda base: base.params(g=None, omega_c=None),
        lambda base: replace(base, g=None, omega_c=None),
    ], ids=["evaluate", "evaluate_all", "params", "replace"])
    def test_unsetting_the_pinned_pair_raises(self, pinned, attempt):
        # each once evaluated at a stand-in theta of 0.25 pi
        with pytest.raises(ParameterError) as caught:
            attempt(pinned)
        assert str(caught.value) == self.NO_GEOMETRY

    def test_unsetting_theta_raises(self, base):
        with pytest.raises(ParameterError) as caught:
            replace(base, theta=None)
        assert str(caught.value) == self.NO_GEOMETRY

    def test_default_baseline_with_the_pair_clears_theta(self):
        pinned = default_baseline(g=PAIR_G, omega_c=PAIR_OMEGA_C)
        assert (pinned.theta, pinned.g, pinned.omega_c) == (None, PAIR_G, PAIR_OMEGA_C)
        assert default_baseline(g=None, omega_c=None) == default_baseline()

    @pytest.mark.parametrize("text, unset, e_n", [
        ("", {"g", "omega_c", "drive_strength"},
         (0.2923147965322678, 0.13661763551506287, 0.0)),
        (PINNED_CONFIG, {"theta", "drive_strength"},
         (0.22888304160182646, 0.113986530595702, 0.0)),
        ("[params]\ndrive_strength = 2e13\n", {"g", "omega_c", "target_g_minus"},
         (0.20234231418810653, 0.3216423834932923, 0.0)),
        (PINNED_CONFIG + "drive_strength = 2e13\n", {"theta", "target_g_minus"},
         (0.248734976815832, 0.09880461377572644, 0.0)),
    ], ids=["theta-g_minus", "pair-g_minus", "theta-drive", "pair-drive"])
    def test_a_config_baseline_holds_only_what_the_config_gave(self, text, unset, e_n):
        baseline = parse_config(text).baseline()
        partners = ("theta", "g", "omega_c", "target_g_minus", "drive_strength")
        assert {name for name in partners if getattr(baseline, name) is None} == unset
        point = baseline.evaluate()
        assert (point.e_n_pp, point.e_n_mb, point.e_n_pb) == e_n


def _feasible_or_not(finite_values):
    """Mostly feasible draws, sometimes a value outside the domain."""
    return st.one_of(finite_values, finite_values, finite_values,
                     st.sampled_from([0.0, -1.0]))


#: one random point of override columns (quoted units)
_POINTS = st.fixed_dictionaries({
    "theta": _feasible_or_not(st.floats(0.02, 0.49)),
    "target_g_minus": st.floats(0.0, 6e6),
    "kappa_a": st.floats(5.0, 7.0),
    "kappa_c": st.floats(5.0, 7.0),
    "kappa_b": _feasible_or_not(st.floats(2.0, 6.0)),
    "temperature": st.floats(0.0, 500.0),
})


class TestColumnProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(_POINTS, min_size=1, max_size=6))
    def test_columns_agree_with_point_evaluations(self, base, points):
        # log10 rates and mK temperatures -> angular units; a drawn 0 or
        # -1 rate stays out of its domain
        def angular(point):
            out = {"theta": point["theta"] * math.pi,
                   "target_g_minus": TWO_PI * point["target_g_minus"],
                   "temperature": 1e-3 * point["temperature"]}
            for name in ("kappa_a", "kappa_c", "kappa_b"):
                out[name] = TWO_PI * (10.0 ** point[name] if point[name] > 0 else point[name])
            return out

        per_point = [angular(p) for p in points]
        columns = {name: np.array([p[name] for p in per_point]) for name in per_point[0]}
        results, error = [], None
        for overrides in per_point:
            try:
                results.append(base.evaluate(**overrides))
            except EntangleError as exc:
                error = exc
                break
        if error is not None:
            with pytest.raises(type(error)):
                base.evaluate_all(columns)
            return
        stack = base.evaluate_all(columns)
        for row, point in enumerate(results):
            assert_row_close(stack, row, point, base.omega_b, e_n_rtol=None)


class TestPlatformInvariance:
    """The abstract's "applicable to a variety of bosonic systems": scaling
    every frequency, rate, coupling and the temperature by one factor
    leaves every negativity and stability flag unchanged, and scales the
    largest drift eigenvalue real part by the factor and the calibrated
    drive by its square."""

    SCALES = (1e-3, 0.37, 10.0, 1e3)

    @staticmethod
    def scaled(base, factor):
        return replace(base, **{name: factor * getattr(base, name) for name in (
            "omega_a", "omega_b", "kappa_a", "kappa_c", "kappa_b",
            "temperature", "target_g_minus")})

    @pytest.mark.parametrize("factor", SCALES)
    def test_point_negativities_invariant(self, base, factor):
        reference = base.evaluate(theta=0.37 * math.pi)
        scaled = self.scaled(base, factor).evaluate(theta=0.37 * math.pi)
        for name in ("e_n_pp", "e_n_mb", "e_n_pb"):
            assert getattr(scaled, name) == pytest.approx(
                getattr(reference, name), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta_pi, temperature", [
        (0.37, None), (0.45, None), (0.37, 0.2),
    ], ids=["stable", "unstable", "200mK"])
    @pytest.mark.parametrize("factor", SCALES)
    def test_point_scales_with_the_frequency_unit(self, base, factor, theta_pi,
                                                  temperature):
        # max Re(lambda) is a rate and scales by the factor, the drive
        # G0 * Omega by its square; the stable flag and the negativities
        # do not move, also for an unstable angle and a hot bath
        if temperature is not None:
            base = replace(base, temperature=temperature)
        reference = base.evaluate(theta=theta_pi * math.pi)
        scaled = self.scaled(base, factor).evaluate(theta=theta_pi * math.pi)
        assert scaled.stable == reference.stable == (theta_pi < 0.4)
        assert scaled.max_re_eig == pytest.approx(
            factor * reference.max_re_eig, rel=1e-12, abs=0.0)
        assert scaled.drive_strength == pytest.approx(
            factor ** 2 * reference.drive_strength, rel=1e-12, abs=0.0)
        negativities = ("e_n_pp", "e_n_mb", "e_n_pb")
        if not reference.stable:
            assert [getattr(scaled, name) for name in negativities] == [None] * 3
            return
        scale = max(getattr(reference, name) for name in negativities)
        for name in negativities:
            assert abs(getattr(scaled, name) - getattr(reference, name)) <= 1e-12 * scale

    @pytest.mark.parametrize("factor", SCALES)
    def test_theta_sweep_negativities_invariant(self, base, factor):
        # the three negativities of a point share one covariance, so their
        # rounding is measured against the point's largest one
        spec = SweepSpec("theta", SweepAxis(0.30, 0.47, 12))
        reference = run_sweep(base, spec).records
        scaled = run_sweep(self.scaled(base, factor), spec).records
        assert [r.stable for r in scaled] == [r.stable for r in reference]
        for rec, ref in zip(scaled, reference):
            if ref.stable:
                scale = max(ref.e_n_pp, ref.e_n_mb, ref.e_n_pb)
                for name in ("e_n_pp", "e_n_mb", "e_n_pb"):
                    assert abs(getattr(rec, name) - getattr(ref, name)) <= 1e-12 * scale


OVERFLOWING_DENOMINATOR = ("[drive calibration] steady-state denominator (dm - i km)"
                           "(dp - i kp) + dk^2 overflows: the rates and detunings "
                           "are too large")


class TestOverflowingNoise:
    @pytest.mark.parametrize("temperature, stage", [(1e300, "Lyapunov solve"),
                                                    (1e120, "log-negativity")])
    def test_stable_point_with_overflowing_noise_raises(self, base, temperature, stage):
        # a stable drift whose noise overflows the residual norm or the
        # block determinants has no finite negativities to report
        with pytest.raises(NumericalError, match=rf"\[{stage}\].*overflow"):
            base.evaluate(temperature=temperature)
        with pytest.raises(NumericalError, match=rf"\[{stage}\].*overflow"):
            base.evaluate_all({"temperature": [0.01, temperature]})

    @pytest.mark.parametrize("temperature", [1e301, 1e303, 1e304])
    def test_noise_overflowing_to_inf_names_the_overflow(self, base, temperature):
        # the polariton noise kappa (2n + 1) overflows to inf while n is
        # still finite; it once stopped with numpy's LinAlgError
        with pytest.raises(NumericalError, match=r"^\[Lyapunov solve\] .*"
                           r"\|\|D\|\|_F overflows \(diffusion entries up to inf\)$"):
            base.evaluate(temperature=temperature, theta=0.4 * math.pi)

    def test_non_finite_drift_names_the_stage(self, base):
        # the drift's own check runs inside the kernel step, so the
        # pipeline names the stage; the one-point kernel does not.  The
        # fill's overflowing division by omega_b warns nothing: warnings
        # are errors here
        message = "[Lyapunov solve] drift matrix has non-finite entries"
        with pytest.raises(ParameterError) as caught:
            base.evaluate(omega_b=1e-303, temperature=0.0)
        assert str(caught.value) == message
        R = -np.eye(6)
        R[0, 0] = np.inf
        with pytest.raises(ParameterError) as caught:
            gaussian.solve_lyapunov(R, np.eye(6))
        assert str(caught.value) == "drift matrix has non-finite entries"

    def test_column_noise_overflowing_to_inf_names_the_overflow(self, base):
        # the column model layer once warned on the overflow, unlike the
        # float one; warnings are errors here
        with pytest.raises(NumericalError, match=r"\|\|D\|\|_F overflows"):
            base.evaluate_all({"temperature": [0.01, 1e303]})

    @pytest.mark.parametrize("overrides, message", [
        ({"omega_b": 1e-303, "temperature": 0.0},
         "[Lyapunov solve] drift matrix has non-finite entries"),
        ({"omega_b": [1e-303] * 2, "temperature": 0.0},
         "[Lyapunov solve] drift matrix has non-finite entries"),
        ({"target_g_minus": [1e300] * 2},
         "[Lyapunov solve] drift matrix has non-finite entries"),
        ({"kappa_a": [1e300] * 2}, OVERFLOWING_DENOMINATOR),
        ({"omega_a": [1.7e308] * 2}, "omega_0 must be finite, got inf"),
        # the drive calibration's denominator overflows to NaN or inf
        ({"kappa_a": 1e300}, OVERFLOWING_DENOMINATOR),
        ({"omega_0": 1e300}, OVERFLOWING_DENOMINATOR),
        ({"omega_0": 1e160}, OVERFLOWING_DENOMINATOR),
        ({"omega_0": [1e300] * 2}, OVERFLOWING_DENOMINATOR),
    ], ids=["omega_b-point", "omega_b-stack", "target-stack", "kappa_a-stack",
            "omega_a-stack", "kappa_a-point", "omega_0-point", "omega_0-1e160-point",
            "omega_0-stack"])
    def test_overflow_raises_the_check_without_a_warning(self, base, overrides, message):
        # each evaluation runs under one np.errstate, so a value that
        # overflows reaches the check that names it and numpy warns
        # nothing (warnings are errors here); a case with a list is a stack
        with pytest.raises(ParameterError) as caught:
            if any(isinstance(value, list) for value in overrides.values()):
                base.evaluate_all(overrides)
            else:
                base.evaluate(**overrides)
        assert str(caught.value) == message
