"""Config ingestion, output emission, and CLI exit behavior."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle import cli, experiments
from entangle.cli import (
    emit_metadata,
    emit_plot_data,
    emit_records,
    main,
    write_outputs,
)
from entangle.config import (
    OutputBlock,
    ParamsConfig,
    RunConfig,
    echo_config,
    parse_config,
)
from entangle.errors import ConfigError, ParameterError
from entangle.experiments import (
    GENERIC_PARAMS,
    PARAMS,
    SWEEPS,
    SweepAxis,
    SweepResult,
    SweepSpec,
    UNITS,
    default_baseline,
    run_sweep,
)
from entangle.model import TWO_PI, drive_for_target_g_minus, hybridize

ROOT = Path(__file__).resolve().parent.parent

GOLDEN_HEADER = ("theta_pi,e_n_pp,e_n_mb,e_n_pb,stable,max_re_eig,"
                 "abs_g_plus,abs_g_minus,theta,delta_plus,delta_minus")


class TestParseConfig:
    def test_empty_config_gives_feasible_defaults(self):
        cfg = parse_config("")
        p = cfg.params
        assert p.omega_a_hz == 10e9
        assert p.omega_b_hz == 10e6
        assert p.kappa_a_hz == 1e6 and p.kappa_c_hz == 1e6
        assert p.kappa_b_hz == 100.0
        assert p.temperature_mk == 10.0
        assert p.g_minus_hz == 2e6
        assert p.theta_pi == 0.40
        assert cfg.sweep.kind == "theta"
        assert cfg.baseline() == default_baseline()

    def test_unit_suffixes(self):
        cfg = parse_config(
            "[params]\n"
            "omega_a = 9.5 GHz\n"
            "kappa_a = 750 kHz\n"
            "kappa_b = 120\n"
            "temperature = 0.05 K\n"
            "kappa_c = 2 mHz\n")
        assert cfg.params.omega_a_hz == 9.5e9
        assert cfg.params.kappa_a_hz == 750e3
        assert cfg.params.kappa_b_hz == 120.0
        assert cfg.params.temperature_mk == 50.0
        assert cfg.params.kappa_c_hz == 0.002

    def test_pi_sugar(self):
        cfg = parse_config("[params]\ntheta = 0.35pi\n")
        assert cfg.params.theta_pi == 0.35
        cfg = parse_config("[params]\ntheta = 0.35 pi\n")
        assert cfg.params.theta_pi == 0.35

    def test_bare_angle_is_radians(self):
        cfg = parse_config("[params]\ntheta = 1.1\n")
        assert cfg.params.theta_pi == 1.1 / math.pi

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[params]\nkappa_a = -1MHz\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[params]\nkappa_a = 1 MHz\nchirality = 4\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config("[plotting]\ncolor = red\n")

    def test_unit_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="temperature|mK"):
            parse_config("[params]\ntemperature = 10 MHz\n")

    def test_malformed_number_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[params]\nkappa_a = fast\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("kappa_a = 1 MHz\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# full line comment\n"
            "\n"
            "[params]\n"
            "kappa_a = 2 MHz  # trailing comment\n")
        assert cfg.params.kappa_a_hz == 2e6

    def test_geometry_pair_must_be_complete(self):
        with pytest.raises(ConfigError, match="both g and omega_c"):
            parse_config("[params]\ng = 5 MHz\n")

    def test_explicit_geometry_replaces_theta(self):
        cfg = parse_config("[params]\ng = 5.878 MHz\nomega_c = 10.01618 GHz\n")
        assert cfg.params.theta_pi is None
        assert cfg.params.g_hz == 5.878e6

    def test_theta_and_geometry_conflict(self):
        with pytest.raises(ConfigError, match="either theta or"):
            parse_config(
                "[params]\ntheta = 0.4 pi\ng = 5 MHz\nomega_c = 10 GHz\n")

    def test_drive_and_g_minus_conflict(self):
        with pytest.raises(ConfigError, match="either g_minus or"):
            parse_config("[params]\ng_minus = 2 MHz\ndrive_strength = 3e4\n")

    def test_drive_pinning_clears_g_minus(self):
        cfg = parse_config("[params]\ndrive_strength = 3e4\n")
        assert cfg.params.g_minus_hz is None
        assert cfg.baseline().target_g_minus is None
        assert cfg.baseline().drive_strength == pytest.approx(
            3e4 * (2 * math.pi) ** 2)

    def test_sweep_axis_units_follow_kind(self):
        cfg = parse_config(
            "[sweep]\nkind = detuning\nstart = 7 MHz\nstop = 13 MHz\ncount = 25\n")
        spec = cfg.sweep
        assert spec.axis.start == 7e6 and spec.axis.stop == 13e6

    def test_theta_axis_in_pi_units(self):
        cfg = parse_config(
            "[sweep]\nkind = theta\nstart = 0.3 pi\nstop = 0.45 pi\ncount = 10\n")
        assert cfg.sweep.axis.start == 0.3

    def test_point_kind_takes_no_axis(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config("[sweep]\nkind = point\nstart = 1\nstop = 2\ncount = 3\n")

    def test_partial_axis_rejected(self):
        with pytest.raises(ConfigError,
                           match="^line 3: an axis needs all of start, stop, and count$"):
            parse_config("[sweep]\nkind = theta\nstart = 0.3 pi\n")

    @pytest.mark.parametrize("kind,key", [
        ("g_minus", "scale"), ("kappa_grid", "scale"), ("kappa_grid", "scale2"),
    ])
    def test_lone_scale_rejected(self, kind, key):
        # the kind's default axis would run while the echo states the scale
        message = "an axis needs all of start, stop, and count$"
        with pytest.raises(ConfigError, match=f"^line 3: {message}"):
            parse_config(f"[sweep]\nkind = {kind}\n{key} = linear\n")
        with pytest.raises(ConfigError, match=f"^override sweep.{key}: {message}"):
            parse_config("", [("sweep.kind", kind), (f"sweep.{key}", "linear")])

    def test_partial_axis_names_its_first_key(self):
        with pytest.raises(ConfigError, match="^line 3: an axis needs"):
            parse_config("[sweep]\nkind = theta\nstop = 0.4 pi\nstart = 0.3 pi\n")
        with pytest.raises(ConfigError, match="^override sweep.count2: an axis needs"):
            parse_config("", [("sweep.kind", "temp_kappa_b"), ("sweep.count2", "5"),
                              ("sweep.start2", "1 kHz")])

    def test_generic_needs_valid_param(self):
        with pytest.raises(ConfigError, match="cannot sweep"):
            parse_config("[sweep]\nkind = generic\nparam = hubble\n")

    @pytest.mark.parametrize("param", ["kappa_b", "omega_a", "omega_b"])
    def test_generic_axis_validated_like_its_param(self, param):
        with pytest.raises(ConfigError, match="line 4.*must be positive"):
            parse_config(f"[sweep]\nkind = generic\nparam = {param}\n"
                         "start = 0 Hz\nstop = 1 MHz\ncount = 3\n")

    @pytest.mark.parametrize("kind,key", [
        ("theta", "count2"), ("theta", "scale2"), ("g_minus", "start2"),
        ("detuning", "stop2"), ("point", "count"), ("point", "scale"),
    ])
    def test_axis_key_of_missing_axis_rejected(self, kind, key):
        value = "log" if key.startswith("scale") else "3"
        with pytest.raises(ConfigError, match="line 3.*does not apply"):
            parse_config(f"[sweep]\nkind = {kind}\n{key} = {value}\n")

    @pytest.mark.parametrize("key", list(PARAMS))
    def test_non_finite_param_rejected_with_line(self, key):
        with pytest.raises(ConfigError, match="line 3.*must be finite"):
            parse_config(f"[params]\n\n{key} = 1e400\n")

    def test_negative_precision_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*precision"):
            parse_config("[output]\nprecision = -1\n")

    @pytest.mark.parametrize("value, message", [
        ("", "empty value for 'dir'"),
        ("  ", "empty value for 'dir'"),
        ("runs/#3", "value for 'dir' must be one line without '#', got 'runs/#3'"),
        ("runs\n3", r"value for 'dir' must be one line without '#', got 'runs\n3'"),
    ], ids=["empty", "blank", "hash", "newline"])
    def test_override_value_obeys_the_file_rules(self, value, message):
        # such a value once reached the run, echoed as an entry that does
        # not parse back to it
        with pytest.raises(ConfigError) as caught:
            parse_config("", [("output.dir", value)])
        assert caught.value.location == "output.dir"
        assert str(caught.value) == f"override output.dir: {message}"

    def test_overrides_win_over_file(self):
        cfg = parse_config("[params]\nkappa_a = 1 MHz\n",
                           overrides=[("params.kappa_a", "3 MHz")])
        assert cfg.params.kappa_a_hz == 3e6

    @pytest.mark.parametrize("text, message", [
        ("[sweep]\nkind = theta\nkind = g_minus\n",
         "line 3: 'kind' is already given on line 2"),
        ("[params]\nkappa_a = 1 MHz\n[sweep]\nkind = theta\n[params]\n"
         "kappa_a = 2 MHz\n", "line 6: 'kappa_a' is already given on line 2"),
    ], ids=["same-section", "reopened-section"])
    def test_key_given_twice_rejected_with_both_lines(self, text, message):
        # the last value once won silently: the first text ran g_minus
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("overrides", [
        [("sweep.kind", "g_minus"), ("sweep.kind", "detuning")],
        [("sweep.kind", "g_minus"), (" sweep . kind ", "detuning")],
    ], ids=["same-spelling", "spaced"])
    def test_override_given_twice_rejected(self, overrides):
        # the last one once won silently: this ran detuning
        with pytest.raises(ConfigError) as caught:
            parse_config("[sweep]\nkind = theta\n", overrides)
        assert caught.value.location == "sweep.kind"
        assert str(caught.value) == ("override sweep.kind: 'kind' is already "
                                     "given by an earlier override")

    def test_override_replaces_a_file_entry_given_once(self):
        cfg = parse_config("[sweep]\nkind = theta\n", [("sweep.kind", "g_minus")])
        assert cfg.sweep.kind == "g_minus"

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("", overrides=[("params.kappa_a", "-2 MHz")])

    @pytest.mark.parametrize("text, line, message", [
        ("[sweep]\nkind = theta\nstart = 0.3 pi\nstop = 0.4 pi\ncount = 1\n", 5,
         "axis needs at least 2 points, got 1"),
        ("[sweep]\nkind = theta\nstart = 0.4 pi\nstop = 0.3 pi\ncount = 5\n", 4,
         r"axis start must be below stop, got \[0.4, 0.3\]"),
        ("[sweep]\nkind = g_minus\nscale = log\nstart = 0 Hz\nstop = 1 MHz\n"
         "count = 3\n", 4, "log-scaled axis requires positive endpoints"),
    ])
    def test_invalid_axis_rejected_with_line(self, text, line, message):
        with pytest.raises(ConfigError, match=rf"^line {line}: {message}"):
            parse_config(text)

    @pytest.mark.parametrize("entries, key, message", [
        # the kind's default axis: the kind entry is named
        ([("sweep", "kind", "generic"), ("sweep", "param", "kappa_b")], "kind",
         "generic sweeps need an explicit axis"),
        ([("params", "g", "7 MHz"), ("params", "omega_c", "10.01 GHz"),
          ("sweep", "kind", "detuning")], "kind",
         r"detuning axis starts below the splitting floor g/2pi = 7e\+06 Hz"),
        # a given axis: its start entry is named
        ([("sweep", "kind", "detuning"), ("sweep", "stop", "14 MHz"),
          ("sweep", "start", "1 MHz"), ("sweep", "count", "5")], "start",
         r"detuning axis starts below the splitting floor g/2pi = 5.87785e\+06 Hz"),
    ], ids=["generic-without-axis", "detuning-default-axis", "detuning-axis"])
    def test_unrealizable_grid_rejected_at_parse_time(self, entries, key, message):
        text, line = "", None
        for section in ("params", "sweep"):
            text += f"[{section}]\n"
            for entry_section, entry_key, value in entries:
                if entry_section == section:
                    text += f"{entry_key} = {value}\n"
                    if (section, entry_key) == ("sweep", key):
                        line = text.count("\n")
        message = f"invalid sweep block: {message}$"
        with pytest.raises(ConfigError, match=f"^line {line}: {message}"):
            parse_config(text)
        overrides = [(f"{section}.{k}", v) for section, k, v in entries]
        with pytest.raises(ConfigError, match=f"^override sweep.{key}: {message}"):
            parse_config("", overrides)


#: per [params] key: its entry with a non-default value, the echo of that
#: entry, its Baseline field and the field's value by an explicit formula
NON_DEFAULT = {
    "omega_a": ("9.5 GHz", "9500000000.0 Hz", "omega_a", TWO_PI * 9.5e9),
    "omega_b": ("12.5 MHz", "12500000.0 Hz", "omega_b", TWO_PI * 12.5e6),
    "theta": ("0.385 pi", "0.385 pi", "theta", math.pi * 0.385),
    "g": ("5.878 MHz", "5878000.0 Hz", "g", TWO_PI * 5.878e6),
    "omega_c": ("10.01618 GHz", "10016180000.0 Hz", "omega_c",
                TWO_PI * 10.01618e9),
    "omega_0": ("10.0031 GHz", "10003100000.0 Hz", "omega_0",
                TWO_PI * 10.0031e9),
    "kappa_a": ("750 kHz", "750000.0 Hz", "kappa_a", TWO_PI * 750e3),
    "kappa_c": ("2 mHz", "0.002 Hz", "kappa_c", TWO_PI * 0.002),
    "kappa_b": ("120", "120.0 Hz", "kappa_b", TWO_PI * 120.0),
    "temperature": ("0.05 K", "50.0 mK", "temperature", 1e-3 * 50.0),
    "g_minus": ("1.5 MHz", "1500000.0 Hz", "target_g_minus", TWO_PI * 1.5e6),
    "drive_strength": ("1.25e4", "12500.0", "drive_strength",
                       12500.0 * TWO_PI * TWO_PI),
}


class TestEchoRoundTrip:
    def test_default_round_trip(self):
        cfg = parse_config("")
        assert parse_config(echo_config(cfg)) == cfg

    @pytest.mark.parametrize("block, absent", [
        ("omega_0 = 10.005 GHz\n", {"g", "omega_c", "drive_strength"}),
        ("g = 5.878 MHz\nomega_c = 10.01618 GHz\nomega_0 = 10.005 GHz\n"
         "drive_strength = 1.25e4\n", {"theta", "g_minus"}),
    ], ids=["theta-g_minus", "pair-drive"])
    def test_a_parsed_block_is_parsed_once(self, monkeypatch, block, absent):
        # the parser settles its [params] block; the block's own check
        # once parsed every value of it a second time
        full = echo_config(parse_config("[params]\n" + block)).split("\n\n")[0] + "\n"
        entries = full.count(" = ")
        assert entries == len(PARAMS) - len(absent)  # all but the partners
        parsed = []
        parse = experiments.Quantity.parse
        monkeypatch.setattr(experiments.Quantity, "parse",
                            lambda self, raw: parsed.append(raw) or parse(self, raw))
        cfg = parse_config(full)
        assert len(parsed) == entries
        # a block built through the API keeps the check, and is equal
        assert ParamsConfig(**vars(cfg.params)) == cfg.params
        assert len(parsed) == 2 * entries
        assert parse_config(echo_config(cfg)) == cfg

    def test_modified_round_trip(self):
        text = (
            "[params]\n"
            "omega_a = 9.7 GHz\n"
            "kappa_c = 1.3 MHz\n"
            "temperature = 37 mK\n"
            "theta = 0.385 pi\n"
            "[sweep]\n"
            "kind = g_minus\n"
            "start = 0 Hz\n"
            "stop = 5 MHz\n"
            "count = 50\n"
            "[output]\n"
            "dir = results\n"
            "formats = csv,meta\n"
            "precision = 9\n")
        cfg = parse_config(text)
        assert parse_config(echo_config(cfg)) == cfg

    def test_drive_pinned_round_trip(self):
        cfg = parse_config("[params]\ndrive_strength = 1.25e4\n")
        assert parse_config(echo_config(cfg)) == cfg

    def test_explicit_geometry_round_trip(self):
        cfg = parse_config("[params]\ng = 5.878 MHz\nomega_c = 10.01618 GHz\n")
        assert parse_config(echo_config(cfg)) == cfg

    @pytest.mark.parametrize("key", list(PARAMS))
    def test_every_key_round_trip(self, key):
        # g and omega_c are only given together
        keys = {"g": ("g", "omega_c"), "omega_c": ("g", "omega_c")}.get(key, (key,))
        cfg = parse_config("[params]\n" + "".join(
            f"{k} = {NON_DEFAULT[k][0]}\n" for k in keys))
        _, echoed, field, expected = NON_DEFAULT[key]
        assert getattr(cfg.params, PARAMS[key].column) != PARAMS[key].default
        assert f"{key} = {echoed}" in echo_config(cfg).splitlines()
        assert parse_config(echo_config(cfg)) == cfg
        assert getattr(cfg.baseline(), field) == expected

    @pytest.mark.parametrize("axis, key", [
        ("kind = theta\nstart = 0.3 pi\nstop = 0.4 pi\ncount = 3\n", "scale"),
        ("kind = temp_kappa_b\nstart2 = 100 Hz\nstop2 = 1 MHz\ncount2 = 3\n",
         "scale2"),
    ], ids=["scale", "scale2"])
    def test_only_a_log_scale_is_echoed(self, axis, key):
        text = "[sweep]\n" + axis
        implicit = parse_config(text)
        explicit = parse_config(text + f"{key} = linear\n")
        logged = parse_config(text + f"{key} = log\n")
        assert explicit == implicit
        assert echo_config(explicit) == echo_config(implicit)
        assert f"{key} =" not in echo_config(explicit)
        assert f"{key} = log" in echo_config(logged).splitlines()
        assert parse_config(echo_config(logged)) == logged

    def test_two_axis_round_trip(self):
        cfg = parse_config(
            "[sweep]\nkind = temp_kappa_b\n"
            "start = 1 mK\nstop = 400 mK\ncount = 30\n"
            "start2 = 100 Hz\nstop2 = 1 MHz\ncount2 = 20\nscale2 = log\n")
        assert parse_config(echo_config(cfg)) == cfg

    @pytest.mark.parametrize("output", [
        OutputBlock(directory="runs/θ sweep 1", formats=("dat",), precision=0),
        OutputBlock(formats=("meta", "csv", "csv"), precision=12),
    ], ids=["dir-and-precision", "repeated-format"])
    def test_api_output_block_round_trip(self, output):
        cfg = RunConfig(output=output)
        assert parse_config(echo_config(cfg)) == cfg

    @pytest.mark.parametrize("fields, message", [
        ({"directory": "a#b"}, "value for 'dir' must be one line without '#'"),
        ({"directory": ""}, "empty value for 'dir'"),
        ({"directory": "a\nb"}, "value for 'dir' must be one line without '#'"),
        ({"directory": " a"}, "dir =  a does not read back as ' a'"),
        ({"formats": ()}, "empty value for 'formats'"),
        ({"formats": ("csv", "png")}, "unknown output format 'png'"),
        ({"formats": ("csv,dat",)}, "does not read back as ('csv,dat',)"),
        ({"precision": -1}, "precision must be non-negative"),
        ({"precision": 2.0}, "expected an integer, got '2.0'"),
    ], ids=["hash", "empty-dir", "two-lines", "blank-edge", "no-format",
            "unknown-format", "comma-format", "negative-precision",
            "float-precision"])
    def test_api_output_block_obeys_the_entry_rules(self, fields, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            OutputBlock(**fields)

    @pytest.mark.parametrize("fields, text", [
        ({"drive_strength_hz2": 1.25e4, "g_minus_hz": None},
         "[params]\ndrive_strength = 1.25e4\n"),
        ({"theta_pi": None, "g_hz": 5.878e6, "omega_c_hz": 10.01618e9},
         "[params]\ng = 5.878 MHz\nomega_c = 10.01618 GHz\n"),
    ], ids=["drive-pinned", "explicit-geometry"])
    def test_api_params_block_equals_the_parsed_one(self, fields, text):
        cfg = RunConfig(params=ParamsConfig(**fields))
        assert cfg == parse_config(text)
        assert parse_config(echo_config(cfg)) == cfg

    @pytest.mark.parametrize("fields, message", [
        # the drive was dropped: the baseline kept the default g_minus target
        ({"drive_strength_hz2": 1e12}, "give either g_minus or drive_strength"),
        # the echo kept theta beside the pair, and failed to parse back
        ({"g_hz": 1e6, "omega_c_hz": 9.99e9},
         "give either theta or the pair (g, omega_c)"),
        ({"g_hz": 1e6, "theta_pi": None}, "give both g and omega_c, or neither"),
        # an unset key the echo leaves out reads back as its default
        ({"theta_pi": None}, "theta = None reads back as 0.4"),
        ({"g_minus_hz": None}, "g_minus = None reads back as 2000000.0"),
        ({"kappa_b_hz": None}, "kappa_b = None reads back as 100.0"),
        ({"kappa_a_hz": -1.0}, "kappa_a: value must be positive, got '-1.0 Hz'"),
        ({"theta_pi": 0.5}, "theta: value must be inside (0, pi/2), got '0.5 pi'"),
        ({"omega_b_hz": math.inf}, "omega_b: malformed number 'inf Hz'"),
        ({"kappa_a_hz": 10**17 + 1},
         "kappa_a = 100000000000000001 reads back as 1e+17"),
    ], ids=["drive-beside-g_minus", "pair-beside-theta", "lone-g", "no-geometry",
            "no-drive", "unset-rate", "negative-rate", "theta-out-of-domain",
            "infinite", "inexact-int"])
    def test_api_params_block_obeys_the_config_rules(self, fields, message):
        with pytest.raises(ConfigError) as caught:
            ParamsConfig(**fields)
        assert str(caught.value) == message


def _registry_cases():
    for kind in SWEEPS:
        if kind != "generic":
            yield kind, None
    for param in GENERIC_PARAMS:
        yield "generic", param


@pytest.mark.parametrize("kind,param", [case for case in _registry_cases()
                                        if case[0] != "point"])
def test_non_finite_axis_endpoint_rejected_with_line(kind, param):
    head = f"[sweep]\nkind = {kind}\nparam = {param}\n" if param else \
        f"[sweep]\nkind = {kind}\n"
    n_axes = len(SweepSpec(kind, param=param).sweep_kind().axes)
    for suffix in ("", "2")[:n_axes]:
        line = head.count("\n") + 1
        with pytest.raises(ConfigError, match=f"line {line}.*must be finite"):
            parse_config(head + f"stop{suffix} = 1e400\n")


#: sample axis endpoints per reporting unit
_ENDPOINTS = {"pi": (0.3, 0.45), "Hz": (2e5, 3e6), "mK": (5.0, 250.0)}


@pytest.mark.parametrize("kind,param", list(_registry_cases()))
def test_registry_round_trip(kind, param):
    text = f"[sweep]\nkind = {kind}\n" + (f"param = {param}\n" if param else "")
    expected = []
    for line, suffix in zip(SweepSpec(kind, param=param).sweep_kind().axes,
                            ("", "2")):
        start, stop = _ENDPOINTS[line.unit]
        if kind == "detuning":  # above the splitting floor g/2pi = 5.88 MHz
            start, stop = 7e6, 13e6
        text += (f"start{suffix} = {start} {line.unit}\n"
                 f"stop{suffix} = {stop} {line.unit}\n"
                 f"count{suffix} = 7\nscale{suffix} = log\n")
        expected.append(f"start{suffix} = {start!r} {line.unit}")
    cfg = parse_config(text)
    echoed = echo_config(cfg)
    assert parse_config(echoed) == cfg
    assert all(entry in echoed.splitlines() for entry in expected)
    assert len(cfg.sweep.sweep_kind().axes) == len(expected)


#: (unit, suffix) -> a [params] key in that unit, its entry and the
#: value it parses to, as the product the conversion computes (which is
#: not always the decimal: 1.003 kHz is 1002.9999999999999 Hz)
SUFFIXES = {
    ("Hz", ""): ("kappa_b", "120", 120.0),
    ("Hz", "Hz"): ("kappa_c", "1.3 Hz", 1.3),
    ("Hz", "kHz"): ("kappa_a", "1.003 kHz", 1.003 * 1e3),
    ("Hz", "MHz"): ("omega_b", "1.007 MHz", 1.007 * 1e6),
    ("Hz", "GHz"): ("omega_a", "0.267 GHz", 0.267 * 1e9),
    ("Hz", "mHz"): ("kappa_c", "1.3 mHz", 1.3 * 1e-3),
    ("mK", ""): ("temperature", "37.1", 37.1),
    ("mK", "mK"): ("temperature", "37.1 mK", 37.1),
    ("mK", "K"): ("temperature", "1.009 K", 1.009 * 1e3),
    ("pi", "pi"): ("theta", "0.385 pi", 0.385),
    # radians: 1.2 / pi is one bit away from 1.2 * (1 / pi)
    ("pi", ""): ("theta", "1.2", 1.2 / math.pi),
    ("Hz^2", ""): ("drive_strength", "1.25e4", 1.25e4),
}


def test_every_unit_suffix_has_a_case():
    assert set(SUFFIXES) == {(name, suffix) for name, unit in UNITS.items()
                             for suffix in unit.suffixes}


@pytest.mark.parametrize("unit, suffix", list(SUFFIXES))
def test_every_suffix_parses_and_echoes_to_the_same_bits(unit, suffix):
    key, entry, expected = SUFFIXES[unit, suffix]
    assert PARAMS[key].unit == unit
    cfg = parse_config(f"[params]\n{key} = {entry}\n")
    value = getattr(cfg.params, PARAMS[key].column)
    assert value.hex() == expected.hex()
    echoed = getattr(parse_config(echo_config(cfg)).params, PARAMS[key].column)
    assert echoed.hex() == expected.hex()


#: domain -> quoted values at its edges, each with whether it is inside;
#: -1e-300 rather than a subnormal, which underflows to -0.0 K from mK
#: (test_value_is_checked_in_angular_and_quoted_units holds that case)
_DOMAIN_EDGES = {"positive": [("1e-300", True), ("0", False)],
                 "non-negative": [("0", True), ("-1e-300", False)],
                 "inside (0, pi/2)": [("1e-300", True), ("0", False),
                                      (repr(0.5 - 2**-54), True), ("0.5", False)]}

#: (g, omega_c) are given as a pair: the quoted partner of each
_PARTNERS = {"g": ("omega_c", 10.0162e9), "omega_c": ("g", 5.88e6)}


def _api_check(field, value, partner):
    """Give one angular value to the function that declares its domain."""
    base = default_baseline()
    if field == "target_g_minus":
        drive_for_target_g_minus(hybridize(base.params()), value)
    else:
        if field == "drive_strength":  # a given drive replaces the |G_-| target
            partner = {**partner, "target_g_minus": None}
        with warnings.catch_warnings():  # a tiny omega_a leaves omega_b >> omega_a
            warnings.simplefilter("ignore")
            base.params(**{field: value}, **partner)


@pytest.mark.parametrize("key, quoted, inside", [
    (key, quoted, inside) for key, param in PARAMS.items()
    for quoted, inside in _DOMAIN_EDGES[param.domain]])
def test_config_and_api_agree_on_domain(key, quoted, inside):
    param = PARAMS[key]
    unit = {"Hz^2": ""}.get(param.unit, " " + param.unit)
    text = f"[params]\n{key} = {quoted}{unit}\n"
    partner = {}
    if key in _PARTNERS:
        other, value = _PARTNERS[key]
        text += f"{other} = {value!r} Hz\n"
        partner = {other: PARAMS[other].angular(value)}
    angular = param.angular(float(quoted))
    if inside:
        parse_config(text)
        _api_check(param.field, angular, partner)
    else:
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert caught.value.location == 2
        assert f"value must be {param.domain}" in str(caught.value)
        with pytest.raises(ParameterError, match=re.escape(f"must be {param.domain}")):
            _api_check(param.field, angular, partner)


@pytest.mark.parametrize("entry, message", [
    # -1e-325 K underflows to -0.0, which only the quoted value shows negative
    ("temperature = -1e-322 mK", "value must be non-negative, got '-1e-322 mK'"),
    # float(pi/2) in bare radians is 0.5 pi in quoted units too
    ("theta = 1.5707963267948966", "value must be inside (0, pi/2), got '1.5707963267948966'"),
    # finite quoted values that overflow in angular units
    ("omega_b = -1e308 Hz", "value must be finite, got '-1e308 Hz'"),
    ("omega_b = 1e307 GHz", "value must be finite, got '1e307 GHz'"),
], ids=["subnormal-temperature", "radian-theta", "negative-overflow", "suffix-overflow"])
def test_value_is_checked_in_angular_and_quoted_units(entry, message):
    with pytest.raises(ConfigError) as caught:
        parse_config(f"[params]\n{entry}\n")
    assert str(caught.value) == "line 2: " + message


def test_largest_radian_theta_below_pi_over_2_is_accepted():
    cfg = parse_config("[params]\ntheta = 1.5707963267948963\n")
    assert cfg.baseline().theta == 1.5707963267948963


def test_readme_config_example_parses_and_round_trips():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```ini\n", readme.index("### Config format")) + 7
    example = readme[start:readme.index("```", start)]
    cfg = parse_config(example)
    assert cfg.sweep == SweepSpec("theta", SweepAxis(0.26, 0.49, 200))
    assert cfg.output.precision == 9
    assert parse_config(echo_config(cfg)) == cfg
    assert cfg.baseline() == default_baseline()  # the documented defaults


class TestEmission:
    def test_golden_header_frozen(self, tmp_path):
        code = main(["run", "/dev/null", "--out", str(tmp_path),
                     "--set", "sweep.kind=theta",
                     "--set", "sweep.start=0.38pi",
                     "--set", "sweep.stop=0.42pi",
                     "--set", "sweep.count=5"])
        assert code == 0
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == GOLDEN_HEADER
        assert len(lines) == 6

    def test_point_run_single_row(self, tmp_path, capsys):
        code = main(["point", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == 2
        header = lines[0]
        assert header.startswith("e_n_pp,")
        out = capsys.readouterr().out
        assert "E_N(+,-)" in out

    def test_unstable_rows_have_empty_negativities(self, tmp_path):
        code = main(["run", "/dev/null", "--out", str(tmp_path),
                     "--set", "sweep.start=0.10pi",
                     "--set", "sweep.stop=0.20pi",
                     "--set", "sweep.count=3"])
        assert code == 0
        rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[1] == "" and cells[2] == "" and cells[3] == ""
            assert cells[4] == "false"

    def test_shortest_round_trip_floats(self, tmp_path):
        main(["run", "/dev/null", "--out", str(tmp_path),
              "--set", "sweep.start=0.38pi", "--set", "sweep.stop=0.42pi",
              "--set", "sweep.count=5"])
        rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
        for row in rows:
            for cell in row.split(","):
                if cell in ("", "true", "false"):
                    continue
                assert repr(float(cell)) == cell

    def test_run_twice_byte_identical(self, tmp_path):
        args = ["run", "/dev/null", "--set", "sweep.count=12",
                "--set", "sweep.start=0.3pi", "--set", "sweep.stop=0.44pi"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        rec_a = (tmp_path / "a" / "records.csv").read_bytes()
        rec_b = (tmp_path / "b" / "records.csv").read_bytes()
        assert rec_a == rec_b

    def test_resolved_config_echo_parses_back(self, tmp_path):
        main(["run", "/dev/null", "--out", str(tmp_path),
              "--set", "sweep.count=5", "--set", "sweep.start=0.38pi",
              "--set", "sweep.stop=0.42pi", "--set", "params.kappa_a=2MHz"])
        echoed = (tmp_path / "resolved_config.cfg").read_text()
        cfg = parse_config(echoed)
        assert cfg.params.kappa_a_hz == 2e6
        # directory was overridden by --out and echoed accordingly
        assert cfg.output.directory == str(tmp_path)

    def test_out_wins_over_output_dir_override(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        code = main(["point", "--set", f"output.dir={a}", "--out", str(b)])
        assert code == 0
        assert not a.exists()
        assert (b / "records.csv").is_file()
        assert f"dir = {b}" in (b / "resolved_config.cfg").read_text().splitlines()

    def test_default_run_shape_and_metadata(self, tmp_path):
        main(["run", "/dev/null", "--out", str(tmp_path)])
        rows = (tmp_path / "records.csv").read_text().splitlines()
        assert len(rows) == 201  # header + default 200-point grid
        meta = (tmp_path / "metadata.txt").read_text()
        assert "argmax" in meta
        assert "0.40" in meta  # optimum near 0.40 pi

    def test_plot_data_blocks_one_dimensional(self, tmp_path):
        main(["run", "/dev/null", "--out", str(tmp_path),
              "--set", "sweep.start=0.2pi", "--set", "sweep.stop=0.44pi",
              "--set", "sweep.count=7"])
        dat = (tmp_path / "plot_theta.dat").read_text()
        blocks = dat.split("\n\n\n")
        assert len(blocks) == 3
        assert "nan" in blocks[0]  # unstable low-theta points masked
        first_rows = [ln for ln in blocks[0].splitlines()
                      if ln and not ln.startswith("#")]
        assert len(first_rows) == 7
        assert float(first_rows[0].split()[0]) == pytest.approx(0.2)

    def test_plot_data_matrix_two_dimensional(self):
        grid = run_sweep(default_baseline(),
                         SweepSpec("kappa_grid", SweepAxis(5e5, 2e6, 3, "log"),
                                   SweepAxis(5e5, 2e6, 4, "log")))
        dat = emit_plot_data(grid)
        block = dat.split("\n\n\n")[0].splitlines()
        header = block[1].split()
        assert header[0] == "4"  # column count cell
        assert len(block) == 2 + 3  # comment + axis row + 3 data rows

    def test_precision_applies_to_plot_data(self):
        sweep = run_sweep(default_baseline(),
                          SweepSpec("theta", SweepAxis(0.38, 0.42, 3)))
        dat = emit_plot_data(sweep, precision=3)
        row = [ln for ln in dat.splitlines() if ln and not ln.startswith("#")][0]
        for token in row.split():
            assert len(token.replace("-", "").replace(".", "")
                       .replace("e", "")) <= 6


class TestWriteOutputs:
    """``write_outputs`` renders each record's numbers once for all files;
    the files are what the standalone emitters give."""

    @pytest.mark.parametrize("entries", [
        # 1-D: the low angles are unstable
        [("sweep.start", "0.1pi"), ("sweep.stop", "0.44pi"), ("sweep.count", "9")],
        # 2-D: a strong drive leaves part of the grid unstable
        [("sweep.kind", "kappa_grid"), ("params.g_minus", "4.5MHz"),
         ("sweep.start", "0.1MHz"), ("sweep.stop", "10MHz"), ("sweep.count", "3"),
         ("sweep.start2", "0.1MHz"), ("sweep.stop2", "10MHz"), ("sweep.count2", "4")],
    ], ids=["1d", "2d"])
    @pytest.mark.parametrize("precision", [None, 3])
    def test_files_equal_standalone_emitters(self, tmp_path, entries, precision):
        if precision is not None:
            entries = entries + [("output.precision", str(precision))]
        cfg = parse_config("", entries + [("output.dir", str(tmp_path))])
        result = run_sweep(cfg.baseline(), cfg.sweep)
        assert set(result.columns["stable"].tolist()) == {True, False}
        write_outputs(result, cfg)
        files = {
            "records.csv": emit_records(result),
            f"plot_{result.kind}.dat": emit_plot_data(result, precision),
            "metadata.txt": emit_metadata(result, cfg),
            "resolved_config.cfg": echo_config(cfg),
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        for name, text in files.items():
            assert (tmp_path / name).read_bytes() == text.encode(), name

    @pytest.mark.parametrize("kind", ["theta", "kappa_grid"])
    def test_a_column_beyond_the_record_columns_reaches_no_file(self, kind):
        # a diagnostic column is one more entry of a result's columns; the
        # files name their columns, so it changes no byte of them
        axes = {"theta": (SweepAxis(0.1, 0.44, 9),),
                "kappa_grid": (SweepAxis(1e5, 1e7, 3, "log"), SweepAxis(1e5, 1e7, 4, "log"))}
        result = run_sweep(default_baseline(target_g_minus=TWO_PI * 4.5e6),
                           SweepSpec(kind, *axes[kind]))
        rows = len(result.columns["stable"])
        wider = result._replace(columns={**result.columns,
                                         "residual": np.linspace(-1.0, 1.0, rows)})
        assert set(result.columns["stable"].tolist()) == {True, False}
        assert emit_records(wider) == emit_records(result)
        for precision in (None, 3):
            assert emit_plot_data(wider, precision) == emit_plot_data(result, precision)
        cfg = parse_config("", [("sweep.kind", kind)])
        assert emit_metadata(wider, cfg) == emit_metadata(result, cfg)

    def test_files_land_where_the_echoed_config_says(self, tmp_path, monkeypatch):
        # an API caller once passed a directory beside the config's own
        monkeypatch.chdir(tmp_path)
        cfg = parse_config("", [("sweep.kind", "point"), ("output.dir", "run/a")])
        write_outputs(run_sweep(cfg.baseline(), cfg.sweep), cfg)
        echoed = parse_config((tmp_path / "run/a/resolved_config.cfg").read_text())
        assert echoed.output.directory == "run/a"
        assert sorted(p.name for p in (tmp_path / "run/a").iterdir()) == [
            "metadata.txt", "plot_point.dat", "records.csv", "resolved_config.cfg"]
        assert [p.name for p in tmp_path.iterdir()] == ["run"]


def _cell(name, value, stable, num=repr):
    """One output cell as a per-cell renderer gives it: the oracle of the
    column renderer."""
    if name == "stable":
        return "true" if value else "false"
    return "" if name in cli.CURVES and not stable else num(value)


def _oracle_rows(result, precision):
    """Each row's texts, its axis values first, one render per cell; with
    ``precision``, the plot data's axis and curve texts."""
    names = result.axis_names + cli.RECORD_COLUMNS
    num = repr
    if precision is not None:
        names, num = names[:len(result.axis_names) + 3], lambda v: f"{v:.{precision}g}"
    stable = result.columns["stable"].tolist()
    return [[_cell(name, result.columns[name][row].item(), ok, num) for name in names]
            for row, ok in enumerate(stable)]


def _oracle_records(result):
    lines = [",".join(result.axis_names + cli.RECORD_COLUMNS)]
    lines += [",".join(row) for row in _oracle_rows(result, None)]
    return "\n".join(lines) + "\n"


def _oracle_plot_data(result, precision):
    n, rows_of = len(result.axis_names), _oracle_rows(result, precision)
    num = repr if precision is None else (lambda v: f"{v:.{precision}g}")
    blocks = []
    if n <= 1:
        labels = [" ".join(row[:n]) or "0" for row in rows_of]
        for i, curve in enumerate(cli.CURVES, n):
            rows = [f"# {result.kind}: {curve} vs {', '.join(result.axis_names) or 'point'}"]
            rows += [f"{label} {row[i] or 'nan'}" for label, row in zip(labels, rows_of)]
            blocks.append("\n".join(rows))
    else:
        axis = list(zip(*(result.columns[name].tolist() for name in result.axis_names)))
        xs = sorted({x for x, _ in axis})
        ys = sorted({y for _, y in axis})
        row_at = dict(zip(axis, rows_of))
        for i, curve in enumerate(cli.CURVES, n):
            rows = [f"# {result.kind}: {curve} matrix "
                    f"({result.axis_names[0]} down, {result.axis_names[1]} across)",
                    " ".join([str(len(ys))] + [num(float(y)) for y in ys])]
            for x in xs:
                rows.append(" ".join([num(float(x))]
                                     + [row_at[x, y][i] or "nan" for y in ys]))
            blocks.append("\n".join(rows))
    return "\n\n\n".join(blocks) + "\n"


#: column values a value-keyed memo could mix up: repeated values, both
#: zeros, NaN and the infinities
_NUMBERS = st.one_of(
    st.sampled_from([0.1, -2.5, 1.0, 0.0, -0.0, 1e-300, 3e8]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


def _increasing(values):
    """The distinct non-NaN ``values`` in increasing order (one of the
    equal zeros), as the axis of a grid."""
    return sorted({v for v in values if v == v})


@st.composite
def _results(draw):
    """A sweep result of 0, 1 or 2 axes: float columns that mix every kind
    of value, a ``stable`` mask unrelated to them, and for 2-D a full grid
    of strictly increasing axes, as every run's grid is."""
    n = draw(st.integers(0, 2))
    if n == 0:
        axes = ()
    elif n == 1:
        axes = (draw(st.lists(_NUMBERS, max_size=12)),)
    else:
        xs, ys = (_increasing(draw(st.lists(_NUMBERS, min_size=1, max_size=4)))
                  for _ in range(2))
        xs, ys = xs or [0.0], ys or [1.0]
        axes = ([x for x in xs for _ in ys], [y for _ in xs for y in ys])
    rows = len(axes[0]) if axes else 1
    columns = {name: np.array(axis, dtype=float) for name, axis in zip("xy", axes)}
    for name in cli.RECORD_COLUMNS:
        values = st.booleans() if name == "stable" else _NUMBERS
        columns[name] = np.array(draw(st.lists(values, min_size=rows, max_size=rows)),
                                 dtype=bool if name == "stable" else float)
    return SweepResult("made", ("x", "y")[:n], columns, {})


class TestColumnRendering:
    """Each output column renders each distinct value once, and its bytes
    are those of one render per cell."""

    @given(_results())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_texts_equal_one_render_per_cell(self, result):
        assert emit_records(result) == _oracle_records(result)
        for precision in (None, 3):
            assert emit_plot_data(result, precision) == _oracle_plot_data(result, precision)
        cells = cli._cells(result)
        assert emit_plot_data(result, None, cells) == _oracle_plot_data(result, None)

    def test_a_default_theta_run_renders_each_distinct_float_once(self, tmp_path,
                                                                  monkeypatch):
        cfg = parse_config("")
        result = run_sweep(cfg.baseline(), cfg.sweep)
        distinct = sum(len({v for v in column.tolist() if type(v) is float and v and v == v})
                       for column in result.columns.values())
        rendered = []
        cells = cli._cells
        monkeypatch.setattr(cli, "_cells", lambda result, text=repr, width=None: cells(
            result, lambda v: rendered.append(v) or text(v), width))
        assert main(["run", "/dev/null", "--out", str(tmp_path)]) == 0
        floats = [v for v in rendered if type(v) is float and v]
        # one per cell would be about 1.5 times as many
        assert 0 < len(floats) <= distinct


class TestExitCodes:
    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[params]\nkappa_a = -1MHz\n")
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "/no/such/file.cfg"]) == 2

    def test_bad_override_exits_2(self, capsys):
        assert main(["point", "--set", "params.kappa_a=-1MHz"]) == 2

    def test_bare_coupling_exits_2_naming_its_location(self, tmp_path, capsys):
        # the drive is the one knob drive_strength = G0 * Omega
        cfg = tmp_path / "g0.cfg"
        cfg.write_text("[params]\ng0 = 1 mHz\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: line 2: unknown key 'g0' in [params]\n")
        assert main(["point", "--set", "params.g0=1mHz"]) == 2
        assert capsys.readouterr().err == (
            "config error: override params.g0: unknown key 'g0' in [params]\n")
        assert not (tmp_path / "out").exists()

    def test_bad_override_names_its_key(self, capsys):
        code = main(["point", "--set", "params.kappa_a=1MHz",
                     "--set", "params.kappa_b=1e400Hz"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: override params.kappa_b: value must be finite, "
            "got '1e400Hz'\n")

    def test_invalid_axis_file_entry_exits_2_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nkind = theta\nstart = 0.4 pi\nstop = 0.3 pi\n"
                       "count = 5\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: line 4: ")
        assert not (tmp_path / "out").exists()

    def test_axis_values_that_repeat_exit_2_naming_the_count(self, tmp_path, capsys):
        # four kappa_a values within two float steps once wrote 12 records,
        # two of them with one kappa_a, and a plot matrix of 3 rows
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nkind = kappa_grid\nstart = 1000000 Hz\n"
                       "stop = 1000000.0000000002 Hz\ncount = 4\nstart2 = 1e5 Hz\n"
                       "stop2 = 1e6 Hz\ncount2 = 3\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: line 5: axis of 4 points over "
            "[1000000.0, 1000000.0000000002] repeats a value\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_noise_exits_3_naming_the_overflow(self, tmp_path, capsys):
        # a stable point whose thermal noise overflows ||D||_F once
        # wrote nan negativities with exit 0
        out = tmp_path / "out"
        code = main(["point", "--set", "params.temperature=1e300K", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: [Lyapunov solve]")
        assert "||D||_F overflows" in err
        assert not (out / "records.csv").exists()

    def test_noise_overflowing_to_inf_exits_3(self, tmp_path, capsys):
        # at 1e303 K the polariton noise overflows to inf: once a
        # LinAlgError traceback with exit 1
        cfg = tmp_path / "point.cfg"
        cfg.write_text("[sweep]\nkind = point\n[params]\ntemperature = 1e303 K\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical error: [Lyapunov solve] the residual contract cannot be "
            "checked: ||D||_F overflows (diffusion entries up to inf)\n")
        assert not (out / "records.csv").exists()

    def test_sweep_noise_overflowing_to_inf_prints_one_error_line(
            self, tmp_path, capsys):
        # the column model layer once printed seven RuntimeWarning lines
        # before the error; pytest turns any warning into an exception
        out = tmp_path / "out"
        code = main(["run", "/dev/null", "--set", "sweep.kind=generic",
                     "--set", "sweep.param=temperature",
                     "--set", "sweep.start=1e302 K", "--set", "sweep.stop=1e303 K",
                     "--set", "sweep.count=3", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical error: [Lyapunov solve] the residual contract cannot be "
            "checked: ||D||_F overflows (diffusion entries up to inf)\n")
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("args", [
        ["point", "--set", "params.omega_b=1e-303 Hz", "--set", "params.temperature=0 mK"],
        ["run", "/dev/null", "--set", "sweep.kind=generic", "--set", "sweep.param=kappa_a",
         "--set", "sweep.start=1 MHz", "--set", "sweep.stop=1e299 Hz",
         "--set", "sweep.count=3", "--set", "sweep.scale=log"],
        ["run", "/dev/null", "--set", "sweep.kind=generic", "--set", "sweep.param=omega_a",
         "--set", "sweep.start=10 GHz", "--set", "sweep.stop=2.7e307 Hz",
         "--set", "sweep.count=3", "--set", "sweep.scale=log"],
        ["run", "/dev/null", "--set", "sweep.kind=detuning", "--set", "sweep.start=6 MHz",
         "--set", "sweep.stop=1e200 Hz", "--set", "sweep.count=3", "--set", "sweep.scale=log"],
    ], ids=["tiny-omega_b", "kappa_a-sweep", "omega_a-sweep", "detuning-sweep"])
    def test_overflow_prints_one_error_line(self, args, tmp_path, capsys):
        # a value that overflows inside an evaluation (the fill's division
        # by omega_b, the drive calibration, omega_0, the detuning map)
        # once printed numpy's RuntimeWarning lines before the error;
        # pytest turns any warning into an exception
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert not (out / "records.csv").exists()

    def test_overflowing_occupation_exits_3(self, tmp_path, capsys):
        # hbar omega_a / k_B T underflows to 0 at 10 mK: once a
        # ZeroDivisionError traceback with exit 1
        cfg = tmp_path / "point.cfg"
        cfg.write_text("[sweep]\nkind = point\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="omega_b is not small"):
            code = main(["run", str(cfg), "--set", "params.omega_a=1e-300",
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: [hybridize] omega = ")
        assert "the thermal occupation k_B T / (hbar omega) overflows" in err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("entry", ["params.kappa_b=1e400Hz",
                                       "params.kappa_c=1.7e308Hz",
                                       "output.precision=-1"])
    def test_bad_value_exits_2_writing_nothing(self, entry, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["point", "--set", entry, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_zero_rate_generic_axis_exits_2(self, capsys):
        code = main(["run", "/dev/null", "--set", "sweep.kind=generic",
                     "--set", "sweep.param=kappa_b", "--set", "sweep.start=0Hz"])
        assert code == 2
        assert "value must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["1MHz", "-7MHz"])
    def test_detuning_axis_below_floor_exits_2(self, start, tmp_path, capsys):
        code = main(["run", "/dev/null", "--out", str(tmp_path),
                     "--set", "sweep.kind=detuning", "--set", f"sweep.start={start}",
                     "--set", "sweep.stop=14MHz", "--set", "sweep.count=5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "splitting floor" in err
        assert not (tmp_path / "records.csv").exists()

    def test_generic_sweep_without_axis_exits_2_naming_the_kind(self, capsys):
        code = main(["run", "/dev/null", "--set", "sweep.kind=generic",
                     "--set", "sweep.param=kappa_b"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: override sweep.kind: invalid sweep block: "
            "generic sweeps need an explicit axis\n")

    @pytest.mark.parametrize("args, message", [
        (["--set", "output.dir="], "empty value for 'dir'"),
        (["--out", ""], "empty value for 'dir'"),
        (["--set", "output.dir=runs/#3"],
         "value for 'dir' must be one line without '#', got 'runs/#3'"),
    ], ids=["set-empty", "out-empty", "set-hash"])
    def test_bad_output_dir_exits_2_writing_nothing(self, args, message, tmp_path,
                                                    monkeypatch, capsys):
        # the empty directory once wrote every file into the working
        # directory, and the '#' one echoed a dir that parses as 'runs/'
        monkeypatch.chdir(tmp_path)
        assert main(["point"] + args) == 2
        assert capsys.readouterr().err == (
            f"config error: override output.dir: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, args, message", [
        ("", ["--set", "theta"], "--set expects section.key=value, got 'theta'"),
        ("", ["--set", "theta=0.4"], "override must look like section.key, got 'theta'"),
        ("", ["--set", "foo.bar=1"], "override foo.bar: unknown section [foo]"),
        ("[params]\ntheta 0.4 pi\n", [],
         "line 2: expected 'key = value', got 'theta 0.4 pi'"),
        ("[output]\nformats = ,\n", [],
         "line 2: formats must name at least one of csv, meta, dat"),
        ("[sweep]\nkind = point\nparam = kappa_b\n", [],
         "line 3: 'param' is only valid for generic sweeps"),
        ("", ["--set", "sweep.param=kappa_b"],
         "override sweep.param: 'param' is only valid for generic sweeps"),
        # it once named no location
        ("", ["--set", "sweep.kind=generic"],
         "override sweep.kind: generic sweeps need a param name"),
        # it once ran the last one, detuning
        ("[sweep]\nkind = theta\n",
         ["--set", "sweep.kind=g_minus", "--set", "sweep.kind=detuning"],
         "override sweep.kind: 'kind' is already given by an earlier override"),
    ], ids=["set-without-value", "set-without-section", "unknown-section",
            "line-without-equals", "no-format", "param-of-point", "param-of-theta",
            "generic-without-param", "set-twice"])
    def test_config_error_exits_2_writing_nothing(self, text, args, message, tmp_path,
                                                  monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        work = tmp_path / "work"  # the default output directory is ./out
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["run", str(cfg)] + args) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("spec", ["sweep.kind", "sweep . kind"])
    def test_point_refuses_a_sweep_kind_override(self, spec, tmp_path, capsys):
        # it once ran one point and exited 0, dropping the override
        out = tmp_path / "out"
        assert main(["point", "--set", f"{spec}=theta", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: override sweep.kind: point evaluates a single point "
            "and takes no sweep kind\n")
        assert not out.exists()

    def test_numerical_error_exits_3(self, tmp_path, monkeypatch, capsys):
        import entangle.cli as cli_mod
        from entangle.errors import NumericalError

        def boom(base, spec):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_mod.experiments, "run_sweep", boom)
        assert main(["point", "--out", str(tmp_path)]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["point", "--out", str(blocker / "sub")])
        assert code == 4

    def test_list_sweeps(self, capsys):
        assert main(["list-sweeps"]) == 0
        out = capsys.readouterr().out
        for kind in ("theta", "detuning", "g_minus", "kappa_grid",
                     "temp_kappa_b", "point", "generic"):
            assert kind in out


class TestEmitRecordsUnits:
    def test_point_units_consistent(self):
        result = run_sweep(default_baseline(), SweepSpec("point"))
        text = emit_records(result)
        header, row = text.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["abs_g_minus"]) == pytest.approx(2e6, rel=1e-9)
        assert float(cells["delta_plus"]) == pytest.approx(10e6, rel=1e-9)
        assert float(cells["theta"]) == pytest.approx(0.4 * math.pi, rel=1e-12)
        assert cells["stable"] == "true"


class TestScaledConfig:
    """The abstract's "applicable to a variety of bosonic systems" through the
    command line: a config whose quoted frequencies, rates, |G_-|,
    temperature and axis endpoints are all scaled by one factor writes the
    same stability flags and, to 1e-10 of max(E_N, 1e-3), the same
    negativities.  The API holds 1e-12 (``TestPlatformInvariance`` in
    ``test_experiments.py``); here the quoted values are scaled before their
    conversion to rad/s, which rounds differently."""

    SCALES = (1e-3, 0.37, 10.0, 1e3)

    @staticmethod
    def records(tmp_path, kind, factor):
        """``records.csv`` of a run of ``kind`` (the default axes, 12 x 12 for
        a grid) with every quoted rate and temperature scaled by ``factor``."""
        def quoted(value, unit):
            return f"{value if unit == 'pi' else factor * value!r}{UNITS[unit].echo}"

        lines = ["[params]"] + [
            f"{key} = {quoted(param.default, param.unit)}"
            for key, param in PARAMS.items()
            if param.default is not None and param.unit in ("Hz", "mK")]
        lines += ["[sweep]", f"kind = {kind}"]
        sweep = SWEEPS[kind]
        for suffix, line, axis in zip(("", "2"), sweep.axes, sweep.defaults):
            lines += [f"start{suffix} = {quoted(axis.start, line.unit)}",
                      f"stop{suffix} = {quoted(axis.stop, line.unit)}",
                      f"count{suffix} = {12 if len(sweep.axes) == 2 else axis.count}",
                      f"scale{suffix} = {axis.scale}"]
        out = tmp_path / f"{kind}-{factor!r}"
        cfg = tmp_path / f"{kind}-{factor!r}.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["run", str(cfg), "--out", str(out), "--set", "output.formats=csv"]) == 0
        header, *rows = (out / "records.csv").read_text().splitlines()
        return [dict(zip(header.split(","), row.split(","))) for row in rows]

    @pytest.mark.parametrize("factor", SCALES)
    @pytest.mark.parametrize("kind", ["theta", "detuning", "g_minus", "kappa_grid",
                                      "temp_kappa_b"])
    def test_records_invariant(self, tmp_path, kind, factor):
        # measured worst |dE_N| / max(E_N, 1e-3): 3.3e-11 (g_minus), 6.9e-12 (theta)
        reference = self.records(tmp_path, kind, 1.0)
        scaled = self.records(tmp_path, kind, factor)
        assert [row["stable"] for row in scaled] == [row["stable"] for row in reference]
        for row, ref in zip(scaled, reference):
            for name in ("e_n_pp", "e_n_mb", "e_n_pb"):
                if ref[name]:
                    value, expected = float(row[name]), float(ref[name])
                    assert abs(value - expected) <= 1e-10 * max(expected, 1e-3)
