"""What the benchmark under ``bench/`` uses of the package still exists.

The benchmark wraps package functions by name and re-solves sampled
points with scipy through the package's one-point API.  A refactor that
renames or drops one of them fails here, in the test suite, instead of
in a benchmark run.  These tests only read ``bench/``.
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402
from entangle import experiments  # noqa: E402
from entangle.experiments import SweepSpec, default_baseline, run_sweep  # noqa: E402
from entangle.model import TWO_PI  # noqa: E402


TARGETS = worker.trace_targets()


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_every_traced_function_resolves(owner, attr):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("theta_pi, g_minus_hz", [
    (0.40, 2e6),  # the theta optimum
    (0.30, 4e6),  # entanglement routed to b
    (0.35, 1e6),  # a weak drive
])
def test_scipy_cross_check_passes(theta_pi, g_minus_hz):
    overrides = {"theta": theta_pi * math.pi, "target_g_minus": TWO_PI * g_minus_hz}
    base = default_baseline()
    assert base.evaluate(**overrides).stable
    assert workloads.scipy_mismatch(base, overrides) is None


@pytest.mark.parametrize("workload", [workloads.ThetaCli, workloads.TempKappaBCli],
                         ids=lambda cls: cls.__name__)
def test_cli_workload_counts_the_points_a_default_run_evaluates(workload, monkeypatch):
    # per-point latency is run time over ``points``: every row run_pipelines
    # evaluates, the threshold lines of temp_kappa_b included
    rows = []
    run_pipelines = experiments.run_pipelines

    def counting(*args):
        result = run_pipelines(*args)
        rows.append(len(result.stable))
        return result

    monkeypatch.setattr(experiments, "run_pipelines", counting)
    run_sweep(default_baseline(), SweepSpec(workload.kind))
    assert sum(rows) == workload.points
