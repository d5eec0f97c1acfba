"""The summary ``tools/bench_pairs.py`` writes for one metric over paired
runs: wins with ties for neither side, quartiles, the gap against the
base's interquartile range, and the regression bound; the metric keys it
reads from the declared workloads or from one named workload; and the
trees its sides name."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import (  # noqa: E402
    bench_command, checkout, run_bench, summarize, summarize_workloads)


def test_lower_is_better():
    summary = summarize([10.0, 11.0, 12.0, 13.0], [9.0, 11.0, 10.0, 14.0], "lower", 0.25)
    assert (summary["head_wins"], summary["ties"]) == (2, 1)
    assert (summary["base"]["q1"], summary["base"]["median"], summary["base"]["q3"]) == (
        10.75, 11.5, 12.25)
    assert summary["head"]["median"] == 10.5
    assert summary["median_change"] == pytest.approx(-1.0 / 11.5)
    assert summary["base_iqr"] == 1.5
    assert not summary["gap_exceeds_base_iqr"]
    assert summary["within_bound"]


def test_higher_is_better_counts_the_other_way():
    summary = summarize([10.0, 11.0, 12.0], [11.0, 12.0, 11.0], "higher", 0.1)
    assert summary["head_wins"] == 2


@pytest.mark.parametrize("head, within", [(12.5, True), (12.6, False)])
def test_bound_is_relative_to_the_base_median(head, within):
    summary = summarize([10.0] * 4, [head] * 4, "lower", 0.25)
    assert summary["within_bound"] == within
    assert summary["gap_exceeds_base_iqr"]
    assert summary["head_wins"] == 0


@pytest.mark.parametrize("stdout, last", [
    ("", ""),
    ("progress\nTraceback (most recent call last):\n", "Traceback (most recent call last):"),
    ('{"partial": 1,\n', '{"partial": 1,'),
    ("42\n", "42"),
], ids=["empty", "text", "cut-json", "not-an-object"])
def test_run_without_a_result_line_reports_exit_and_stderr(tmp_path, stdout, last):
    # a last line that was not a result once died with a bare JSONDecodeError
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        f"sys.stdout.write({stdout!r})\n"
        "sys.stderr.write('worker died\\n')\n"
        "sys.exit(3)\n")
    with pytest.raises(RuntimeError) as caught:
        run_bench(tmp_path, 1)
    assert str(caught.value) == (
        f"bench/run.py ended without a result line (exit 3; last line {last!r}):\n"
        "worker died\n")


METRICS = [{"name": "point_latency_p50_us", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def fake_runs(prefix, p50s, rss=40.0):
    """Result lines of paired runs, base first, with ``prefix`` on each key."""
    return {side: [{"metrics": {
        f"{prefix}point_latency_p50_us": {"value": value, "unit": "us"},
        f"{prefix}peak_rss_mb": {"value": rss, "unit": "MB"}}} for value in values]
        for side, values in zip(("base", "head"), p50s)}


def test_single_workload_reads_unprefixed_keys():
    # bench/run.py prints a lone workload's metrics without its name
    runs = fake_runs("", ([160.0, 161.0, 162.0], [152.0, 153.0, 162.0]))
    summary = summarize_workloads(runs, ["temp_kappa_b_cli"], METRICS)
    assert list(summary) == ["temp_kappa_b_cli"]
    p50 = summary["temp_kappa_b_cli"]["point_latency_p50_us"]
    assert p50["base"]["runs"] == [160.0, 161.0, 162.0]
    assert (p50["head_wins"], p50["ties"]) == (2, 1)
    assert summary["temp_kappa_b_cli"]["peak_rss_mb"]["ties"] == 3


def test_declared_workloads_read_prefixed_keys():
    runs = fake_runs("point_api.", ([160.0, 161.0], [150.0, 151.0]))
    for side in runs.values():
        for run, value in zip(side, (7.0, 8.0)):
            run["metrics"]["theta_cli.point_latency_p50_us"] = {"value": value}
            run["metrics"]["theta_cli.peak_rss_mb"] = {"value": 41.0}
    summary = summarize_workloads(runs, ["point_api", "theta_cli"], METRICS)
    assert summary["point_api"]["point_latency_p50_us"]["head_wins"] == 2
    assert summary["theta_cli"]["point_latency_p50_us"]["head"]["runs"] == [7.0, 8.0]


def test_a_named_workload_is_passed_on(tmp_path):
    assert bench_command(29) == ["bench/run.py", "--seed", "29"]
    assert bench_command(29, "temp_kappa_b_cli") == [
        "bench/run.py", "--seed", "29", "--workload", "temp_kappa_b_cli"]
    # a stand-in run.py that reports the arguments it was given
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, pathlib, sys\n"
        "out = pathlib.Path('.bench_out')\n"
        "out.mkdir()\n"
        "(out / 'result-temp_kappa_b_cli-seed3-trace0.json').write_text(\n"
        "    json.dumps({'environment': {'python': 'x'}}))\n"
        "print(json.dumps({'argv': sys.argv[1:]}))\n")
    result = run_bench(tmp_path, 3, "temp_kappa_b_cli")
    assert result == {"argv": ["--seed", "3", "--workload", "temp_kappa_b_cli"],
                      "environment": {"python": "x"}}


def test_a_directory_is_a_tree_as_it_stands(tmp_path, monkeypatch):
    # a working tree pairs against a revision before it is committed
    monkeypatch.setattr(bench_pairs, "extract", lambda *args: pytest.fail("extracted"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "work").mkdir()
    for spec in ("work", str(tmp_path / "work"), "work/"):
        tree, record = checkout(spec, tmp_path / "side")
        assert tree == tmp_path / "work"
        assert record == {"directory": str(tmp_path / "work")}
    assert not (tmp_path / "side").exists()


def test_a_revision_is_extracted(tmp_path, monkeypatch):
    extracted = []

    def extract(rev, directory):
        extracted.append((rev, directory))
        return {"rev": "0" * 40, "subject": "a commit"}

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.chdir(tmp_path)
    tree, record = checkout("HEAD~1", tmp_path / "base")
    assert tree == tmp_path / "base"
    assert record == {"rev": "0" * 40, "subject": "a commit"}
    assert extracted == [("HEAD~1", tmp_path / "base")]
