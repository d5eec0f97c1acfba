"""Config ingestion, output emission, and CLI exit behavior."""

import math

import numpy as np
import pytest

from entangle.cli import emit_plot_data, emit_records, main
from entangle.config import (
    OutputBlock,
    ParamsConfig,
    RunConfig,
    SweepBlock,
    echo_config,
    parse_config,
)
from entangle.errors import ConfigError
from entangle.experiments import (
    GENERIC_PARAMS,
    PARAMS,
    SWEEPS,
    SweepAxis,
    SweepSpec,
    default_baseline,
    run_sweep,
)
from entangle.model import TWO_PI

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
            "g0 = 2 mHz\n")
        assert cfg.params.omega_a_hz == 9.5e9
        assert cfg.params.kappa_a_hz == 750e3
        assert cfg.params.kappa_b_hz == 120.0
        assert cfg.params.temperature_mk == 50.0
        assert cfg.params.g0_hz == 0.002

    def test_pi_sugar(self):
        cfg = parse_config("[params]\ntheta = 0.35pi\n")
        assert cfg.params.theta_pi == 0.35
        cfg = parse_config("[params]\ntheta = 0.35 pi\n")
        assert cfg.params.theta_pi == 0.35

    def test_bare_angle_is_radians(self):
        cfg = parse_config("[params]\ntheta = 1.1\n")
        assert cfg.params.theta_pi == pytest.approx(1.1 / math.pi)

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
        spec = cfg.sweep_spec()
        assert spec.axis.start == 7e6 and spec.axis.stop == 13e6

    def test_theta_axis_in_pi_units(self):
        cfg = parse_config(
            "[sweep]\nkind = theta\nstart = 0.3 pi\nstop = 0.45 pi\ncount = 10\n")
        assert cfg.sweep_spec().axis.start == 0.3

    def test_point_kind_takes_no_axis(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config("[sweep]\nkind = point\nstart = 1\nstop = 2\ncount = 3\n")

    def test_partial_axis_rejected(self):
        cfg = parse_config("[sweep]\nkind = theta\nstart = 0.3 pi\n")
        with pytest.raises(ConfigError, match="start, stop, and count"):
            cfg.sweep_spec()

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

    def test_overrides_win_over_file(self):
        cfg = parse_config("[params]\nkappa_a = 1 MHz\n",
                           overrides=[("params.kappa_a", "3 MHz")])
        assert cfg.params.kappa_a_hz == 3e6

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("", overrides=[("params.kappa_a", "-2 MHz")])


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
    "kappa_c": ("1.3 MHz", "1300000.0 Hz", "kappa_c", TWO_PI * 1.3e6),
    "kappa_b": ("120", "120.0 Hz", "kappa_b", TWO_PI * 120.0),
    "temperature": ("0.05 K", "50.0 mK", "temperature", 1e-3 * 50.0),
    "g_minus": ("1.5 MHz", "1500000.0 Hz", "target_g_minus", TWO_PI * 1.5e6),
    "drive_strength": ("1.25e4", "12500.0", "drive_strength",
                       12500.0 * TWO_PI * TWO_PI),
    "g0": ("2 mHz", "0.002 Hz", "g0", TWO_PI * 0.002),
}


class TestEchoRoundTrip:
    def test_default_round_trip(self):
        cfg = parse_config("")
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

    def test_two_axis_round_trip(self):
        cfg = parse_config(
            "[sweep]\nkind = temp_kappa_b\n"
            "start = 1 mK\nstop = 400 mK\ncount = 30\n"
            "start2 = 100 Hz\nstop2 = 1 MHz\ncount2 = 20\nscale2 = log\n")
        assert parse_config(echo_config(cfg)) == cfg


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
        text += (f"start{suffix} = {start} {line.unit}\n"
                 f"stop{suffix} = {stop} {line.unit}\n"
                 f"count{suffix} = 7\nscale{suffix} = log\n")
        expected.append(f"start{suffix} = {start!r} {line.unit}")
    cfg = parse_config(text)
    echoed = echo_config(cfg)
    assert parse_config(echoed) == cfg
    assert all(entry in echoed.splitlines() for entry in expected)
    assert len(cfg.sweep_spec().sweep_kind().axes) == len(expected)


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

    @pytest.mark.parametrize("entry", ["params.kappa_b=1e400Hz",
                                       "params.g0=1.7e308Hz",
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
