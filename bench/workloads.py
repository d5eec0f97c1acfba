"""The benchmark's workloads: seeded inputs, run units and correctness gates.

Imported only inside a worker process, after ``src/`` is on ``sys.path``.
Each workload object runs one *run unit* per :meth:`run_unit` call and
returns ``(points attempted, points failed)`` for it; a point that
raises is counted, never propagated, so a broken point or sweep cannot
abort the benchmark.  :meth:`check` runs after timing and returns the
list of correctness violations (empty when the outputs are right).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from entangle import cli, dynamics, experiments, gaussian
from entangle.model import TWO_PI

#: point_api draws one call in each cell of a GRID x GRID partition of
#: (theta, |G_-|): the share of unstable calls, and with it the unit's
#: cost, then barely depends on the seed.  256 calls take about 0.1 s,
#: short enough that the machine's speed is nearly constant in a unit.
POINT_GRID = 16

#: records per CLI run, and three times as many point_api calls (about
#: 70% of them stable), cross-checked against scipy's Lyapunov solver
SCIPY_SAMPLE = 12

#: relative tolerance of that cross-check (covariance and E_N)
SCIPY_RTOL = 1e-9

#: first few failure tracebacks kept for the report
MAX_ERRORS = 5


def result_violation(result):
    """Why a pipeline result breaks the stable <=> negativities contract."""
    values = (result.e_n_pp, result.e_n_mb, result.e_n_pb)
    if not result.stable:
        if any(v is not None for v in values):
            return "unstable point carries negativities"
        return None
    if any(v is None or not math.isfinite(v) or v < 0.0 for v in values):
        return f"stable point has negativities {values}"
    return None


def scipy_mismatch(base, overrides, recorded_e_n_pp=None):
    """Re-solve one point with scipy's Bartels-Stewart solver.

    Returns a message when the package's covariance (or a recorded
    E_N(+,-)) disagrees with the scipy solution beyond
    :data:`SCIPY_RTOL`, or when re-evaluating the point raises, else
    None.  Unstable points return None.
    """
    try:
        return _scipy_mismatch(base, overrides, recorded_e_n_pp)
    except Exception as exc:
        return f"scipy cross-check raised {exc!r} at {overrides}"


def _scipy_mismatch(base, overrides, recorded_e_n_pp):
    from scipy.linalg import solve_continuous_lyapunov

    params = base.params(**overrides)
    result = base.evaluate(**overrides)
    if not result.stable:
        return None
    wb = params.omega_b
    drift = dynamics.build_drift(result.basis, result.couplings, wb,
                                 params.kappa_b) / wb
    diffusion = dynamics.build_diffusion(result.basis, params.kappa_b,
                                         result.basis.n_b) / wb
    ref = solve_continuous_lyapunov(drift, -diffusion)
    err = np.linalg.norm(result.state.cov - ref) / np.linalg.norm(ref)
    if err > SCIPY_RTOL:
        return f"covariance differs from scipy by {err:.3e} (rel) at {overrides}"
    if recorded_e_n_pp is not None:
        e_n = gaussian.log_negativity(gaussian.reduce_two_mode(ref, "+-"))
        if abs(recorded_e_n_pp - e_n) > SCIPY_RTOL * max(abs(e_n), 1e-3):
            return (f"recorded E_N {recorded_e_n_pp!r} differs from scipy's "
                    f"{e_n!r} at {overrides}")
    return None


class Workload:
    """Shared failure bookkeeping of the three workloads."""

    name = ""
    #: points attempted by one run unit
    points = 0

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.base = experiments.default_baseline()
        self.errors: list[str] = []
        self.violations: list[str] = []
        #: seconds per successful call of the last unit, where calls are timed
        self.latencies: list[float] | None = None

    def _record_error(self, text):
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(text)

    def _check_rng(self):
        return random.Random(f"{self.name}-check-{self.seed}")

    def bytes_written(self):
        return 0


class PointApi(Workload):
    """Closed loop: one caller, one ``Baseline.evaluate`` call at a time."""

    name = "point_api"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        grid = POINT_GRID
        self.calls = [((0.26 + 0.23 * (i + rng.random()) / grid) * math.pi,
                       TWO_PI * 6e6 * (j + rng.random()) / grid)
                      for i in range(grid) for j in range(grid)]
        rng.shuffle(self.calls)
        self.points = len(self.calls)

    def run_unit(self):
        failed = 0
        base = self.base
        latencies = self.latencies = []
        clock = perf_counter
        for theta, g_minus in self.calls:
            start = clock()
            try:
                result = base.evaluate(theta=theta, target_g_minus=g_minus)
            except Exception:
                failed += 1
                self._record_error(traceback.format_exc())
                continue
            latencies.append(clock() - start)
            violation = result_violation(result)
            if violation and len(self.violations) < MAX_ERRORS:
                self.violations.append(f"theta={theta!r}: {violation}")
        return self.points, failed

    def check(self):
        problems = list(self.violations)
        rng = self._check_rng()
        for theta, g_minus in rng.sample(self.calls, min(len(self.calls),
                                                         3 * SCIPY_SAMPLE)):
            msg = scipy_mismatch(self.base,
                                 {"theta": theta, "target_g_minus": g_minus})
            if msg:
                problems.append(msg)
        return problems


class CliSweep(Workload):
    """In-process ``entangle run <cfg> --out <dir>``: config text to files.

    Subclasses give the config, the record axis columns, ``overrides``
    (the baseline overrides the sweep applies at one record's axis
    values) and ``check_grid`` (the figure's known results).
    """

    config_text = ""
    axis_names: tuple[str, ...] = ()

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.work_dir / f"{self.name}.cfg"
        self.cfg_path.write_text(self.config_text)
        self.out_dir = self.work_dir / f"{self.name}-out"

    def run_unit(self):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main(["run", str(self.cfg_path),
                                 "--out", str(self.out_dir)])
        except Exception:
            self._record_error(traceback.format_exc())
            return self.points, self.points
        if code != 0:
            self._record_error(f"exit code {code}: {sink.getvalue()}")
            return self.points, self.points
        return self.points, 0

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out_dir.iterdir())

    def records(self):
        with open(self.out_dir / "records.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def summary_value(self, key):
        for line in (self.out_dir / "metadata.txt").read_text().splitlines():
            if line.startswith(f"{key}: "):
                return line.partition(": ")[2]
        return None

    def check(self):
        problems = []
        for name in ("records.csv", "metadata.txt", "resolved_config.cfg",
                     f"plot_{self.kind}.dat"):
            path = self.out_dir / name
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"missing or empty output {name}")
        if problems:
            return problems
        rows = self.records()
        stable_rows = []
        for row in rows:
            stable = row["stable"] == "true"
            values = [row[k] for k in ("e_n_pp", "e_n_mb", "e_n_pb")]
            if stable:
                nums = [float(v) if v else math.nan for v in values]
                if not all(math.isfinite(v) and v >= 0.0 for v in nums):
                    problems.append(f"stable row has negativities {values}")
                stable_rows.append(row)
            elif any(values):
                problems.append(f"unstable row carries negativities {values}")
        problems += self.check_grid(rows, stable_rows)
        rng = self._check_rng()
        for row in rng.sample(stable_rows, min(len(stable_rows), SCIPY_SAMPLE)):
            axis = tuple(float(row[k]) for k in self.axis_names)
            msg = scipy_mismatch(self.base, self.overrides(axis),
                                 float(row["e_n_pp"]))
            if msg:
                problems.append(msg)
        return problems[:MAX_ERRORS * 4]


class ThetaCli(CliSweep):
    """The paper's headline figure: E_N versus mixing angle, 200 points."""

    name = "theta_cli"
    kind = "theta"
    points = 200
    axis_names = ("theta_pi",)
    config_text = "[sweep]\nkind = theta\n\n[output]\nformats = csv,meta,dat\n"

    def overrides(self, axis):
        return {"theta": axis[0] * math.pi}

    def check_grid(self, rows, stable_rows):
        problems = []
        if (len(rows), len(stable_rows)) != (200, 158):
            problems.append(f"expected 158/200 stable rows, got "
                            f"{len(stable_rows)}/{len(rows)}")
        if not stable_rows:
            return problems
        best = max(stable_rows, key=lambda r: float(r["e_n_pp"]))
        peak, theta_pi = float(best["e_n_pp"]), float(best["theta_pi"])
        if abs(peak / 0.2923056 - 1.0) > 1e-6:
            problems.append(f"peak E_N {peak!r} is not 0.2923056 (rel 1e-6)")
        # one step of the 200-point axis over [0.26, 0.49]
        if abs(theta_pi - 0.401) > 0.23 / 199:
            problems.append(f"peak at theta/pi = {theta_pi!r}, expected ~0.401")
        return problems


class TempKappaBCli(CliSweep):
    """The robustness map: 60x60 (T, kappa_b) grid plus two threshold lines."""

    name = "temp_kappa_b_cli"
    kind = "temp_kappa_b"
    # 3600 grid points plus the 60-point T line and 60-point kappa_b line
    points = 3720
    axis_names = ("temperature_mk", "kappa_b_hz")
    config_text = ("[sweep]\nkind = temp_kappa_b\n\n"
                   "[output]\nformats = csv,meta,dat\n")

    def overrides(self, axis):
        return {"temperature": axis[0] * 1e-3, "kappa_b": TWO_PI * axis[1]}

    def check_grid(self, rows, stable_rows):
        problems = []
        if (len(rows), len(stable_rows)) != (3600, 3600):
            problems.append(f"expected 3600/3600 stable rows, got "
                            f"{len(stable_rows)}/{len(rows)}")
        raw = self.summary_value("t_crit_mk")
        t_crit = float(raw) if raw not in (None, "None") else None
        # within one step of the 60-point temperature axis over [1, 500] mK
        if t_crit is None or abs(t_crit - 244.1) > 499.0 / 59:
            problems.append(f"t_crit_mk {raw} is not about 244.1 mK")
        return problems


WORKLOADS = {cls.name: cls for cls in (PointApi, ThetaCli, TempKappaBCli)}

