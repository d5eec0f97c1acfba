"""The summary ``tools/bench_pairs.py`` writes for one metric over paired
runs: wins with ties for neither side, quartiles, the gap against the
base's interquartile range, and the regression bound."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import run_bench, summarize  # noqa: E402


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
