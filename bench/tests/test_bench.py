"""Self-tests of the benchmark: exact counts, failure accounting, gates.

    python3 -m pytest -q bench/tests
"""

import argparse
import dataclasses
import json

import pytest

import run
import tracer as tracer_mod
import worker
from entangle import experiments
from entangle.errors import NumericalError
from workloads import POINT_GRID, PointApi, ThetaCli

CALLS = POINT_GRID ** 2


def traced_counts(workload, tmp_path):
    _, _, metrics, problems = worker.run_traced(workload, 0.0,
                                                tmp_path / "spans.jsonl")
    assert problems == []
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}


def stable_count(workload):
    return sum(workload.base.evaluate(theta=t, target_g_minus=g).stable
               for t, g in workload.calls)


def test_traced_call_counts_repeat_exactly(tmp_path):
    first = traced_counts(PointApi(7, tmp_path), tmp_path)
    second = traced_counts(PointApi(7, tmp_path), tmp_path)
    assert first == second
    stable = stable_count(PointApi(7, tmp_path))
    assert CALLS == 256
    assert 0 < stable < CALLS
    assert first["gaussian.solve_lyapunov.calls"] == stable
    assert first["gaussian.stability.calls"] == CALLS + stable
    assert first["gaussian.log_negativity.calls"] == 3 * stable
    assert first["experiments.Baseline.evaluate.calls"] == CALLS
    assert first["cli.main.calls"] == 0


def test_theta_cli_traced_counts(tmp_path):
    counts = traced_counts(ThetaCli(1, tmp_path / "work"), tmp_path)
    assert counts["dynamics.run_pipeline.calls"] == 200
    assert counts["gaussian.solve_lyapunov.calls"] == 158
    assert counts["config.parse_config.calls"] == 1
    assert counts["config.echo_config.calls"] == 2
    for name in ("main", "write_outputs", "emit_records", "emit_metadata",
                 "emit_plot_data"):
        assert counts[f"cli.{name}.calls"] == 1
    assert counts["cli.bytes_written"] > 0


def test_spans_are_written_with_parents(tmp_path):
    worker.run_traced(PointApi(1, tmp_path), 0.0, tmp_path / "spans.jsonl")
    spans = [json.loads(line)
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["experiments.Baseline.evaluate"] * CALLS
    assert all(s["end"] >= s["start"] for s in spans)


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: next(ticks))
    t = tracer_mod.Tracer()
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: (inner(), inner()))
    outer()  # outer 0..5, inner 1..2 and 3..4
    summary = t.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 3, "total_s": 5}
    assert summary["inner"] == {"calls": 2, "self_s": 2, "total_s": 2}


def test_tracer_restores_wrapped_attributes():
    original = experiments.run_pipeline
    with tracer_mod.Tracer() as t:
        t.install([(experiments, "run_pipeline")])
        assert experiments.run_pipeline is not original
    assert experiments.run_pipeline is original


def flaky_pipeline(workload, monkeypatch):
    """Make every third call of ``workload`` raise; return how many do."""
    bad = {g_minus for _, g_minus in workload.calls[::3]}
    real = experiments.run_pipeline

    def flaky(params, target_g_minus=None):
        if target_g_minus in bad:
            raise NumericalError("stub failure")
        return real(params, target_g_minus)

    monkeypatch.setattr(experiments, "run_pipeline", flaky)
    return len(bad)


def test_raising_point_is_counted_not_propagated(tmp_path, monkeypatch):
    workload = PointApi(3, tmp_path)
    n_bad = flaky_pipeline(workload, monkeypatch)
    assert workload.run_unit() == (CALLS, n_bad)
    assert len(workload.latencies) == CALLS - n_bad
    assert "stub failure" in workload.errors[0]


def test_failed_points_fail_the_gate(tmp_path, monkeypatch):
    workload = PointApi(3, tmp_path)
    n_bad = flaky_pipeline(workload, monkeypatch)
    args = argparse.Namespace(workload="point_api", seed=3, seconds=0.0,
                              trace=0)
    report = worker.measure(workload, args, tmp_path)
    assert report["failed"] == n_bad
    assert f"{n_bad} of {CALLS} points failed" in report["problems"]
    # sampled cross-checks that hit the stub are reported, not raised
    assert any("scipy cross-check raised" in p for p in report["problems"])


def test_aborting_sweep_counts_every_point(tmp_path, monkeypatch):
    def abort(base, spec):
        raise NumericalError("stub abort")

    monkeypatch.setattr(experiments, "run_sweep", abort)
    workload = ThetaCli(1, tmp_path)
    assert workload.run_unit() == (200, 200)
    assert "exit code 3" in workload.errors[0]

    def crash(base, spec):
        raise RuntimeError("stub crash")

    monkeypatch.setattr(experiments, "run_sweep", crash)
    assert workload.run_unit() == (200, 200)
    assert "stub crash" in workload.errors[1]


def test_gate_flags_broken_negativities(tmp_path, monkeypatch):
    real = experiments.run_pipeline

    def broken(params, target_g_minus=None):
        result = real(params, target_g_minus)
        return dataclasses.replace(result, e_n_pp=None)

    monkeypatch.setattr(experiments, "run_pipeline", broken)
    workload = PointApi(2, tmp_path)
    workload.run_unit()
    assert any("negativities" in p for p in workload.check())


def test_gate_passes_on_correct_program(tmp_path):
    workload = PointApi(2, tmp_path)
    workload.run_unit()
    assert workload.check() == []


def test_run_goes_on_after_a_failed_workload(tmp_path, monkeypatch, capsys):
    started, setups = [], []

    def fake_worker(name, seed, seconds, trace, env):
        started.append(name)
        if name == "point_api":
            return run.crashed(name, "stub crash")
        metrics = {m: {"value": 1.5, "unit": "s"}
                   for m in run.declared(0)[1] if m != "setup_s"}
        return {"workload": name, "attempted": 10, "failed": 2,
                "problems": [], "errors": [], "metrics": metrics, "extra": {}}

    monkeypatch.setattr(run, "run_worker", fake_worker)
    monkeypatch.setattr(run, "measure_setup",
                        lambda env: setups.append(env) or (0.25, 0.3))
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "all", "--seconds", "1"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    # "all" is the declared workloads; set-up is measured once per pass
    assert started == ["point_api", "theta_cli"]
    assert len(setups) == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (11, 3)
    assert "theta_cli.run_s" in result["metrics"]
    assert result["metrics"]["point_api.setup_s"]["value"] == 0.25
    assert result["metrics"]["theta_cli.setup_s"]["value"] == 0.25
    assert not any(k.startswith("temp_kappa_b_cli") for k in result["metrics"])


def test_refuses_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "theta_cli"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("q, expected", [(0.0, 1.0), (0.5, 2.5), (0.9, 3.7),
                                         (1.0, 4.0)])
def test_quantile_interpolates(q, expected):
    assert worker.quantile([4.0, 1.0, 3.0, 2.0], q) == pytest.approx(expected)
