"""What ``tools/digest.py`` reports between two sets of outputs: equal
files, the size of an E_N change, flag changes and summary changes; and
the fixed formats it hashes."""

import hashlib
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from digest import (  # noqa: E402
    NON_DEFAULT_RUNS, compare, compare_csv, compare_metadata, digests,
    normalize_metadata, point_api_header, point_api_row, render, runs)

from entangle.config import parse_config  # noqa: E402
from entangle.experiments import SWEEPS, SweepAxis, SweepSpec, default_baseline  # noqa: E402

HEADER = "theta_pi,e_n_pp,e_n_mb,e_n_pb,stable,max_re_eig"
ROWS = ["0.3,0.25,0.0,0.0,true,-1.5",
        "0.4,0.2923147965322678,0.0004,0.0,true,-2.5",
        "0.45,,,,false,3.0"]


def records(rows=ROWS):
    return "\n".join([HEADER, *rows]) + "\n"


def with_cell(row, column, value):
    """``ROWS`` with one cell replaced."""
    rows = [line.split(",") for line in ROWS]
    rows[row][HEADER.split(",").index(column)] = value
    return [",".join(line) for line in rows]


def test_equal_outputs_report_nothing():
    outputs = {"theta/records.csv": records(), "theta/plot_theta.dat": "0.3 0.25\n"}
    report = compare(outputs, dict(outputs))
    assert report == {"theta/plot_theta.dat": [], "theta/records.csv": []}
    assert render(report) == ["theta/plot_theta.dat  equal",
                              "theta/records.csv     equal"]


def test_one_ulp_in_one_e_n_cell_is_reported_with_its_size():
    value = 0.2923147965322678
    bumped = math.nextafter(value, 1.0)
    findings = compare_csv(records(), records(with_cell(1, "e_n_pp", repr(bumped))))
    # one ulp of 0.29 is 2**-54, so the change is 2**-54 / 0.29
    assert findings == ["max |dE_N|/max(|E_N|, 0.001) = 1.899e-16 (e_n_pp, row 1)"]


def test_a_small_e_n_is_measured_against_the_floor():
    findings = compare_csv(records(), records(with_cell(1, "e_n_mb", "0.0005")))
    assert findings == ["max |dE_N|/max(|E_N|, 0.001) = 1.000e-01 (e_n_mb, row 1)"]


def test_flag_changes_and_other_cells_are_reported():
    rows = with_cell(2, "stable", "true")
    rows[2] = "0.45,0.1,0.0,0.0,true,3.5"
    findings = compare_csv(records(), records(rows))
    assert findings == ["stable flag changed on 1 rows (first: row 2)",
                        "3 E_N cells appeared or went missing",
                        "other cells changed in max_re_eig"]


@pytest.mark.parametrize("head, finding", [
    (HEADER.replace("max_re_eig", "re") + "\n" + "\n".join(ROWS) + "\n",
     f"header {HEADER} -> {HEADER.replace('max_re_eig', 're')}"),
    (records(ROWS[:2]), "rows 3 -> 2"),
], ids=["header", "rows"])
def test_a_different_shape_is_reported_alone(head, finding):
    assert compare_csv(records(), head) == [finding]


METADATA = """entangle 0.1.0
sweep kind: theta
records: 200
stable points: 158 / 200
argmax: {'theta_pi': 0.401, 'e_n_pp': 0.2923}
elapsed seconds: 0.074
timestamp: 2026-01-01T00:00:00+0000

# resolved configuration
[params]
omega_a = 10000000000.0 Hz
"""


def test_metadata_drops_only_the_lines_of_one_run():
    normalized = normalize_metadata(METADATA)
    assert "elapsed" not in normalized and "timestamp" not in normalized
    assert normalized.splitlines() == [line for line in METADATA.splitlines()
                                       if not line.startswith(("elapsed", "timestamp"))]
    later = METADATA.replace("0.074", "0.081").replace("00:00:00", "00:00:07")
    assert normalize_metadata(later) == normalized


def test_summary_changes_are_named_by_key():
    base = normalize_metadata(METADATA)
    head = (base.replace("0.2923}", "0.2924}")
            .replace("stable points: 158", "stable points: 157")
            .replace("argmax:", "t_crit_mk: None\nargmax:"))
    assert compare_metadata(base, head) == [
        "stable points: 158 / 200 -> 157 / 200",
        "argmax: {'theta_pi': 0.401, 'e_n_pp': 0.2923} -> "
        "{'theta_pi': 0.401, 'e_n_pp': 0.2924}",
        "t_crit_mk: appeared (None)"]
    assert "t_crit_mk: went missing" in compare_metadata(head, base)
    assert compare_metadata(base, base.replace("10000000000.0", "1e10")) == [
        "resolved configuration differs"]


def test_an_output_of_one_side_only_is_reported():
    report = compare({"a.dat": "x"}, {"b.dat": "x"})
    assert report == {"a.dat": ["only in base"], "b.dat": ["only in head"]}


def test_digests_are_sha256_lines_and_their_total():
    lines = digests({"b.dat": "2\n", "a.dat": "1\n"})
    sha = [hashlib.sha256(text.encode()).hexdigest() for text in ("1\n", "2\n")]
    assert lines[:2] == [f"{sha[0]}  a.dat", f"{sha[1]}  b.dat"]
    total = hashlib.sha256("\n".join(lines[:2]).encode()).hexdigest()
    assert lines[2] == f"{total}  total"


@pytest.mark.parametrize("theta_pi", [0.4, 0.48], ids=["stable", "unstable"])
def test_a_point_api_row_holds_every_field_of_its_result(theta_pi):
    result = default_baseline().evaluate(theta=theta_pi * math.pi)
    assert result.stable == (theta_pi == 0.4)
    header = point_api_header(result).split(",")
    row = point_api_row(7, theta_pi * math.pi, 1.5, result).split(",")
    assert len(row) == len(header) == 9 + len(result.basis) + len(result.couplings) + 1
    cells = dict(zip(header, row))
    assert len(set(header)) == len(header)
    assert cells["seed"] == "7" and cells["call_target_g_minus"] == "1.5"
    assert cells["call_theta"] == repr(theta_pi * math.pi)
    assert cells["stable"] == ("true" if result.stable else "false")
    assert cells["e_n_pp"] == ("" if result.e_n_pp is None else repr(result.e_n_pp))
    assert cells["theta"] == repr(result.basis.theta)
    if result.stable:
        cov = [float(v) for v in cells["cov"].split(" ")]
        assert cov == result.state.cov.ravel().tolist()
    else:
        assert cells["cov"] == ""


def test_runs_are_every_default_kind_the_point_and_five_off_the_defaults():
    table = runs(list(SWEEPS))
    assert table == {"point": None,
                     **{kind: f"[sweep]\nkind = {kind}\n"
                        for kind in SWEEPS if kind not in ("point", "generic")},
                     **NON_DEFAULT_RUNS}


def test_the_runs_off_the_defaults_parse_to_what_they_name():
    parsed = {name: parse_config(text) for name, text in NON_DEFAULT_RUNS.items()}
    assert {name: (cfg.sweep, cfg.output.precision) for name, cfg in parsed.items()} == {
        "theta-precision-3": (SweepSpec("theta"), 3),
        "kappa_grid-precision-5": (SweepSpec("kappa_grid"), 5),
        "temp_kappa_b-precision-0": (SweepSpec("temp_kappa_b"), 0),
        "g_minus-precision-12": (SweepSpec("g_minus"), 12),
        "generic-kappa_b-log": (SweepSpec("generic", SweepAxis(100.0, 1e6, 41, "log"),
                                          param="kappa_b"), None),
    }
    assert all(cfg.baseline() == default_baseline() for cfg in parsed.values())
