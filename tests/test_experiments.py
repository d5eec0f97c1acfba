"""Sweep behaviors: optima, instability regions, robustness thresholds."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle import dynamics, experiments, gaussian
from entangle.cli import emit_records
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
        sizes.append(result.size)
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

    @pytest.mark.parametrize("start, stop, field", [
        (0.3, math.inf, "stop"), (-math.inf, 0.4, "start"),
        (math.nan, 0.4, "start"), (0.3, math.nan, "stop"),
    ])
    def test_non_finite_endpoint_names_its_field(self, start, stop, field):
        assert experiments.axis_fault(start, stop, 3, "linear") == (
            field, f"axis {field} must be finite, got {(start, stop)[field == 'stop']!r}")
        with pytest.raises(ParameterError, match=f"axis {field} must be finite"):
            run_sweep(default_baseline(), SweepSpec("theta", SweepAxis(start, stop, 3)))


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
        pinned = replace(base, g=g, omega_c=omega_c, theta=0.1)
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

    def test_default_grid_reads_the_100_hz_line_from_the_grid(self, base, stack_sizes):
        # the default kappa_b axis starts at exactly 100 Hz: 3600 grid
        # points plus the 60-point 10 mK line, not a second 100 Hz line
        run_sweep(base, SweepSpec("temp_kappa_b"))
        assert sum(stack_sizes) == 3660

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


class TestRunSweepDispatch:
    def test_point(self, base):
        result = run_sweep(base, SweepSpec(kind="point"))
        assert result.kind == "point"
        assert len(result.records) == 1
        assert result.records[0].axis == ()

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
        assert stack.size == 12
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
        # one default theta sweep, a single 200-row slice, peaks near 0.75 MB
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
        assert result.size == 1
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

    def test_kernel_calls_of_the_default_temp_kappa_b_run_are_bounded(
            self, base, monkeypatch, stack_sizes):
        # the model layer sees each whole stack, every kernel at most
        # dynamics.CHUNK_SIZE points (three two-mode blocks per point)
        rows = {"drift_spectra": [], "solve_lyapunov_stacked": [],
                "log_negativity_stacked": []}
        for name, calls in rows.items():
            def counting(matrices, *args, kernel=getattr(gaussian, name), calls=calls):
                calls.append(len(matrices))
                return kernel(matrices, *args)
            monkeypatch.setattr(gaussian, name, counting)
        run_sweep(base, SweepSpec("temp_kappa_b"))
        assert stack_sizes == [3600, 60]
        assert sum(rows["drift_spectra"]) == 3660
        assert len(rows["drift_spectra"]) == 15 + 1
        assert max(rows["drift_spectra"]) == dynamics.CHUNK_SIZE
        assert max(rows["solve_lyapunov_stacked"]) <= dynamics.CHUNK_SIZE
        assert max(rows["log_negativity_stacked"]) <= 3 * dynamics.CHUNK_SIZE

    @pytest.mark.parametrize("overrides, named", [
        ({"theta": [0.3 * math.pi, 0.4 * math.pi], "kappa_b": [1e3, 2e3, 3e3]},
         "theta of shape (2,), kappa_b of shape (3,)"),
        ({"theta": np.full(3, 0.4 * math.pi), "kappa_b": [1e3]},
         "theta of shape (3,), kappa_b of shape (1,)"),
        ({"theta": [[0.3 * math.pi, 0.4 * math.pi]], "kappa_b": 1e3},
         "theta of shape (1, 2)"),
    ], ids=["unequal", "length-1", "2-d"])
    def test_bad_override_columns_are_named(self, base, overrides, named):
        with pytest.raises(ParameterError) as caught:
            base.evaluate_all(overrides)
        assert str(caught.value) == (
            "override columns must be 1-d and of one length, got " + named)

    def test_empty_columns_are_an_empty_stack(self, base):
        stack = base.evaluate_all({"theta": np.array([]), "kappa_b": []})
        assert stack.size == 0
        assert stack.covs.shape == (0, 6, 6)
        assert stack.stable.shape == stack.max_re_eig.shape == stack.e_n_pb.shape == (0,)
        assert SweepRecord.from_columns([], stack) == []
        direct = dynamics.run_pipelines(base.params(theta=np.array([])),
                                        base.target_g_minus)
        assert direct.size == 0 and direct.covs.shape == (0, 6, 6)


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
            base = replace(base, g=TWO_PI * 5e6, omega_c=TWO_PI * 10.01e9)
        with pytest.raises(ParameterError) as caught:
            base.evaluate(**overrides)
        assert str(caught.value) == message
        with pytest.raises(ParameterError) as caught:
            base.evaluate_all(overrides)
        assert str(caught.value) == message

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
    every frequency, rate, coupling, g0 and the temperature by one factor
    leaves every negativity unchanged."""

    SCALES = (1e-3, 0.37, 10.0, 1e3)

    @staticmethod
    def scaled(base, factor):
        return replace(base, **{name: factor * getattr(base, name) for name in (
            "omega_a", "omega_b", "kappa_a", "kappa_c", "kappa_b",
            "temperature", "target_g_minus", "g0")})

    @pytest.mark.parametrize("factor", SCALES)
    def test_point_negativities_invariant(self, base, factor):
        reference = base.evaluate(theta=0.37 * math.pi)
        scaled = self.scaled(base, factor).evaluate(theta=0.37 * math.pi)
        for name in ("e_n_pp", "e_n_mb", "e_n_pb"):
            assert getattr(scaled, name) == pytest.approx(
                getattr(reference, name), rel=1e-12, abs=0.0)

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

    def test_column_noise_overflowing_to_inf_names_the_overflow(self, base):
        # the column model layer once warned on the overflow, unlike the
        # float one; warnings are errors here
        with pytest.raises(NumericalError, match=r"\|\|D\|\|_F overflows"):
            base.evaluate_all({"temperature": [0.01, 1e303]})
