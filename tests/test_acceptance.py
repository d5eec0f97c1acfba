"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines as they are produced.  Tolerances are pinned here, not deferred.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from entangle.cli import emit_records, main
from entangle.experiments import (
    EN_THRESHOLD,
    SWEEPS,
    SweepAxis,
    SweepRecord,
    SweepResult,
    SweepSpec,
    default_baseline,
    grid,
    run_sweep,
)
from entangle.gaussian import log_negativity, solve_lyapunov, stability
from entangle.model import TWO_PI, solve_g_omega_c_from_theta

from bare_mode_oracle import KAPPA_B_LINE, bare_mode_kappa_b_crossing
from column_bounds import assert_record_close, point_record
from oracles import (
    characteristic_polynomial,
    min_physicality_eig,
    routh_hurwitz_stable,
    symplectic_form,
)

# Golden peak E_N of the mixing-angle sweep (200-point default grid),
# captured from this implementation after the solver-oracle criterion
# passed.  Not a literature value; recorded to pin regressions.
GOLDEN_PEAK_E_N = 0.2923056137240373


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def base():
    return default_baseline()


@pytest.fixture(scope="module")
def theta_sweep_timed(base):
    start = time.perf_counter()
    # default grid: 200 points on [0.26, 0.49] pi
    sweep = run_sweep(base, SweepSpec("theta"))
    return sweep, time.perf_counter() - start


@pytest.fixture(scope="module")
def wide_theta_sweep(base):
    return run_sweep(base, SweepSpec("theta", SweepAxis(0.06, 0.49, 100)))


@pytest.fixture(scope="module")
def detuning_sweep(base):
    # default grid: 33 points on [6, 14] MHz
    return run_sweep(base, SweepSpec("detuning"))


@pytest.fixture(scope="module")
def g_minus_sweep(base):
    # default grid: 200 points on [0, 6] MHz
    return run_sweep(base, SweepSpec("g_minus"))


@pytest.fixture(scope="module")
def temp_sweep(base):
    return run_sweep(base, SweepSpec("temp_kappa_b"))  # default 60 x 60 grid


@pytest.fixture(scope="module")
def kappa_b_line_sweep(base):
    # the temperature axis starts at 10 mK, so the first grid row is the
    # kappa_b line that kappa_b_crit_hz searches, here run to 1e8 Hz
    return run_sweep(base, SweepSpec("temp_kappa_b", SweepAxis(10.0, 500.0, 2),
                                     KAPPA_B_LINE))


def test_criterion_1_theta_optimum(theta_sweep_timed):
    sweep, elapsed = theta_sweep_timed
    argmax = sweep.summary["argmax"]
    theta_ok = abs(argmax["theta_pi"] - 0.40) <= 0.02
    # derived pair quoted at the optimal angle rounded to its stated
    # precision (0.40 pi)
    g, omega_c = solve_g_omega_c_from_theta(
        round(argmax["theta_pi"], 2) * math.pi, TWO_PI * 10e9, TWO_PI * 10e6)
    g_ok = abs(g / TWO_PI - 5.88e6) <= 0.005e6
    omega_c_ok = abs(omega_c / TWO_PI - 10.0162e9) <= 0.00005e9
    runtime_ok = elapsed < 10.0
    golden_ok = argmax["e_n_pp"] == pytest.approx(GOLDEN_PEAK_E_N, rel=1e-6)
    ok = theta_ok and g_ok and omega_c_ok and runtime_ok and golden_ok
    report(1, "theta-sweep optimum and derived geometry", ok,
           f"argmax {argmax['theta_pi']:.4f} pi, peak E_N {argmax['e_n_pp']:.6f}, "
           f"g/2pi {g / TWO_PI / 1e6:.4f} MHz, "
           f"omega_c/2pi {omega_c / TWO_PI / 1e9:.6f} GHz, {elapsed:.2f} s")
    assert theta_ok and g_ok and omega_c_ok and runtime_ok and golden_ok


def test_criterion_2_instability_regions(wide_theta_sweep, theta_sweep_timed):
    sweep = wide_theta_sweep
    low = [rec for rec in sweep.records if rec.axis[0] <= 0.25]
    low_ok = len(low) > 10 and all(not rec.stable for rec in low)
    default_sweep, _ = theta_sweep_timed
    tail_ok = all(not rec.stable for rec in default_sweep.records[-3:])
    flags_ok = all(rec.stable == (rec.max_re_eig < 0.0)
                   for rec in sweep.records + default_sweep.records)
    ok = low_ok and tail_ok and flags_ok
    report(2, "instability regions", ok,
           f"{len(low)} low-angle points all unstable: {low_ok}, "
           f"high-theta tail unstable: {tail_ok}, flags consistent: {flags_ok}")
    assert low_ok and tail_ok and flags_ok


def test_criterion_3_detuning_optimum(detuning_sweep):
    axis = [rec.axis[0] for rec in detuning_sweep.records]
    step = axis[1] - axis[0]
    argmax = detuning_sweep.summary["argmax"]["delta_abs_hz"]
    on_sideband = abs(argmax - 10e6) <= step + 1e-9
    values = [rec.e_n_pp for rec in detuning_sweep.records]
    peak = int(np.argmax([v if v is not None else -1.0 for v in values]))
    rising = all(values[i] < values[i + 1]
                 for i in range(max(peak - 4, 0), peak))
    falling = all(values[i] > values[i + 1]
                  for i in range(peak, min(peak + 4, len(values) - 1)))
    ok = on_sideband and rising and falling
    report(3, "detuning optimum at the sideband", ok,
           f"argmax {argmax / 1e6:.3f} MHz vs omega_b/2pi = 10 MHz "
           f"(one step = {step / 1e6:.3f} MHz), monotone flanks: "
           f"{rising and falling}")
    assert on_sideband and rising and falling


def test_criterion_4_coupling_maximum_inside_stable_region(g_minus_sweep):
    zero_rec = g_minus_sweep.records[0]
    zero_ok = zero_rec.axis[0] == 0.0 and zero_rec.e_n_pp == 0.0
    argmax = g_minus_sweep.summary["argmax"]["g_minus_hz"]
    first_unstable = g_minus_sweep.summary["first_unstable_g_minus_hz"]
    interior_ok = first_unstable is not None and argmax < first_unstable
    ok = zero_ok and interior_ok
    report(4, "coupling sweep maximum strictly inside stable region", ok,
           f"argmax {argmax / 1e6:.3f} MHz < first unstable "
           f"{(first_unstable or float('nan')) / 1e6:.3f} MHz, E_N(0) = "
           f"{zero_rec.e_n_pp}")
    assert zero_ok and interior_ok


def test_criterion_5_robustness_thresholds(base, temp_sweep, kappa_b_line_sweep):
    t_crit = temp_sweep.summary["t_crit_mk"]
    t_ok = t_crit is not None and 165.0 <= t_crit <= 275.0

    # At 10 mK the polaritons stay entangled through the reported
    # [5e4, 2e5] Hz kappa_b window and E_N only shrinks with kappa_b; the
    # E_N < EN_THRESHOLD crossing lies far above the window and is pinned
    # to the bare-mode oracle on the same axis.
    line = [rec for rec in kappa_b_line_sweep.records if rec.axis[0] == 10.0]
    window = [rec for rec in line if rec.axis[1] <= 2e5]
    survival_ok = all(rec.stable and rec.e_n_pp >= EN_THRESHOLD for rec in window)
    decreasing_ok = (all(rec.stable for rec in line)
                     and all(a.e_n_pp > b.e_n_pp for a, b in zip(line, line[1:])))
    kb_crit = kappa_b_line_sweep.summary["kappa_b_crit_hz"]
    oracle_crit = bare_mode_kappa_b_crossing(base, KAPPA_B_LINE.values())
    kb_ok = kb_crit is not None and kb_crit == oracle_crit
    edge = window[-1]
    ok = t_ok and survival_ok and decreasing_ok and kb_ok
    report(5, "temperature and mechanical-damping thresholds", ok,
           f"T_crit = {t_crit} mK (window [165, 275]); at 10 mK E_N = "
           f"{edge.e_n_pp:.4g} at kappa_b = {edge.axis[1]:.4g} Hz, "
           f">= {EN_THRESHOLD} through the [5e4, 2e5] Hz window: "
           f"{survival_ok}, strictly decreasing: {decreasing_ok}; "
           f"kappa_b_crit = {kb_crit} Hz, bare-mode oracle {oracle_crit} Hz")
    assert t_ok, f"T_crit {t_crit} outside [165, 275] mK"
    assert survival_ok, f"E_N < {EN_THRESHOLD} inside the kappa_b window at 10 mK"
    assert decreasing_ok, "E_N not strictly decreasing in kappa_b at 10 mK"
    assert kb_ok, f"kappa_b_crit {kb_crit} Hz differs from the oracle's {oracle_crit} Hz"


def test_criterion_6_entanglement_routing(base):
    low = base.evaluate(theta=0.30 * math.pi)
    opt = base.evaluate(theta=0.40 * math.pi)
    routing_ok = low.e_n_mb > low.e_n_pp
    transfer_ok = opt.e_n_pp > low.e_n_pp
    ok = routing_ok and transfer_ok
    report(6, "entanglement routing between pairs", ok,
           f"at 0.30 pi: E_N(-,b) = {low.e_n_mb:.4f} > E_N(+,-) = "
           f"{low.e_n_pp:.4f}; at 0.40 pi: E_N(+,-) = {opt.e_n_pp:.4f}")
    assert routing_ok and transfer_ok


def _loop_lyapunov(R, D):
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
    V = np.linalg.solve(A, -D.reshape(-1)).reshape(n, n)
    return 0.5 * (V + V.T)


def test_criterion_7_solver_oracles():
    rng = np.random.default_rng(1234)

    # 7a: 100 random stable instances against the vectorized oracle
    worst_rel = 0.0
    for _ in range(100):
        R = rng.standard_normal((6, 6))
        R -= (np.linalg.eigvals(R).real.max() + 0.05) * np.eye(6)
        B = rng.standard_normal((6, 6))
        D = B @ B.T / 6.0
        V = solve_lyapunov(R, D)
        V_ref = _loop_lyapunov(R, D)
        worst_rel = max(worst_rel,
                        np.linalg.norm(V - V_ref) / np.linalg.norm(V_ref))
    vec_ok = worst_rel < 1e-9

    # 7b: 20 mildly stiff instances against time integration
    worst_ode = 0.0
    for _ in range(20):
        R = rng.standard_normal((6, 6)) - np.diag(
            np.exp(rng.uniform(np.log(0.1), np.log(10.0), 6)))
        shift = np.linalg.eigvals(R).real.max()
        if shift > -0.05:
            R -= (shift + 0.05) * np.eye(6)
        B = rng.standard_normal((6, 6))
        D = B @ B.T / 6.0
        V = solve_lyapunov(R, D)
        t_end = 40.0 / abs(np.linalg.eigvals(R).real.max())

        def rhs(_, v):
            M = v.reshape(6, 6)
            return (R @ M + M @ R.T + D).reshape(-1)

        sol = solve_ivp(rhs, [0.0, t_end], (0.5 * np.eye(6)).reshape(-1),
                        rtol=1e-10, atol=1e-12, method="LSODA")
        V_ode = sol.y[:, -1].reshape(6, 6)
        worst_ode = max(worst_ode,
                        np.linalg.norm(V - V_ode) / np.linalg.norm(V))
    ode_ok = worst_ode < 1e-6

    # 7c: stability vs Routh-Hurwitz on 1000 random matrices, excluding
    # the 1e-9 boundary band (units of the reference frequency)
    mismatches = 0
    tested = 0
    for _ in range(1000):
        R = rng.standard_normal((6, 6))
        stable, max_re = stability(R)
        if abs(max_re) < 1e-9:
            continue
        tested += 1
        if routh_hurwitz_stable(characteristic_polynomial(R)) != stable:
            mismatches += 1
    rh_ok = mismatches == 0 and tested >= 990

    ok = vec_ok and ode_ok and rh_ok
    report(7, "solver oracles", ok,
           f"vectorized worst rel {worst_rel:.2e} < 1e-9: {vec_ok}, "
           f"ODE worst rel {worst_ode:.2e} < 1e-6: {ode_ok}, "
           f"Routh-Hurwitz mismatches {mismatches}/{tested}: {rh_ok}")
    assert vec_ok and ode_ok and rh_ok


def _random_symplectic(rng, n_modes):
    # moderate generator norm keeps squeezing within a numerically
    # trustworthy range for absolute 1e-9 comparisons
    H = 0.3 * rng.standard_normal((2 * n_modes, 2 * n_modes))
    H = 0.5 * (H + H.T)
    from scipy.linalg import expm
    return expm(symplectic_form(n_modes) @ H)


def test_criterion_8_entanglement_measure_suite(
        base, theta_sweep_timed, wide_theta_sweep, detuning_sweep,
        g_minus_sweep, temp_sweep):
    vacuum_ok = log_negativity(0.5 * np.eye(4)) == 0.0

    r = 0.5
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    tmsv = np.block([[ch * np.eye(2), sh * np.diag([1.0, -1.0])],
                     [sh * np.diag([1.0, -1.0]), ch * np.eye(2)]])
    tmsv_ok = abs(log_negativity(tmsv) - 1.0) < 1e-9

    rng = np.random.default_rng(77)
    worst_dev = 0.0
    for _ in range(100):
        nu = 0.5 + 2.5 * rng.random(2)
        S0 = _random_symplectic(rng, 2)
        V = S0 @ np.diag(np.repeat(nu, 2)) @ S0.T
        V = 0.5 * (V + V.T)
        S = np.zeros((4, 4))
        S[:2, :2] = _random_symplectic(rng, 1)
        S[2:, 2:] = _random_symplectic(rng, 1)
        worst_dev = max(worst_dev,
                        abs(log_negativity(S @ V @ S.T) - log_negativity(V)))
    invariance_ok = worst_dev < 1e-9

    # physicality of every stable point of every acceptance sweep,
    # re-evaluated through the point map of its registry kind (of these
    # maps only the detuning one reads its axes, for the splitting floor)
    worst_phys = 0.0
    checked = 0
    for sweep in (theta_sweep_timed[0], wide_theta_sweep, detuning_sweep,
                  g_minus_sweep, temp_sweep):
        kind = SWEEPS[sweep.kind]
        overrides = kind.overrides(base, kind.defaults)
        for rec in sweep.records:
            if rec.stable:
                res = base.evaluate(**overrides(rec.axis))
                worst_phys = min(worst_phys, min_physicality_eig(res.state.cov))
                checked += 1
    phys_ok = worst_phys >= -1e-8

    ok = vacuum_ok and tmsv_ok and invariance_ok and phys_ok
    report(8, "entanglement-measure unit suite", ok,
           f"vacuum exact 0: {vacuum_ok}, TMSV(r=0.5) dev "
           f"{abs(log_negativity(tmsv) - 1.0):.1e}, invariance worst dev "
           f"{worst_dev:.1e}, physicality min eig {worst_phys:.1e} over "
           f"{checked} stable points")
    assert vacuum_ok and tmsv_ok and invariance_ok and phys_ok


def test_criterion_9_evaluation_order_determinism(base, tmp_path):
    args = ["run", "/dev/null", "--set", "sweep.kind=theta"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    rec_a = (tmp_path / "a" / "records.csv").read_bytes()
    rec_b = (tmp_path / "b" / "records.csv").read_bytes()

    # the same grid evaluated in reverse order, as columns: the same bytes
    theta = SWEEPS["theta"]
    overrides = theta.overrides(base, theta.defaults)
    backwards = theta.defaults[0].values()[::-1]
    records = SweepRecord.from_columns([(v,) for v in backwards.tolist()],
                                       base.evaluate_all(overrides((backwards,))))
    names = tuple(line.column for line in theta.axes)
    result = SweepResult("theta", names, tuple(reversed(records)), {})
    rec_rev = emit_records(result).encode()

    # and point by point through Baseline.evaluate, to the column bound
    # (the point path runs the model layer on math instead of numpy)
    points = grid(theta.defaults)
    for point, rec in zip(points, result.records):
        reference = point_record(point, base.evaluate(**overrides(point)))
        assert_record_close(rec, reference, base.omega_b)

    ok = rec_a == rec_b == rec_rev
    report(9, "byte-identical records across runs and evaluation order", ok,
           f"{len(rec_a)} bytes; point evaluations within the column bound")
    assert ok
