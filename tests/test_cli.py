"""Command-line interface: exit codes, determinism, output contracts."""

import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hanlesim.cli as cli
import hanlesim.dynamics as dynamics
import hanlesim.spectral as spectral
from hanlesim import (TransientTrace, absorption, build_liouvillian, list_presets, load_trace, save_trace,
                      steady_state, transit_time)
from hanlesim.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main
from hanlesim.spectral import intensity_sweep

from support import B1, count_assemblies, eia_spec, eit_spec, record_shapes, subprocess_env

TRANSIENT_PRESETS = [name for name, command, _ in list_presets() if command == "transient"]


def run(argv):
    return main(argv)


def table_columns(path):
    """{name: cells} of a CSV table, its ``#`` metadata skipped."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("#")]
    return dict(zip(header, zip(*rows)))


def steady_scan_meta(path):
    """Metadata of a steady scan, read by load_trace with the field column as its clock."""
    renamed = path.with_name(path.name + ".as-trace.csv")
    renamed.write_text(path.read_text().replace("\nb,w\n", "\ntime,w\n", 1))
    return load_trace(renamed).meta


class TestExitCodes:
    def test_unknown_preset(self, tmp_path, capsys):
        code = run(["transient", "--preset", "fig99z", "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_for_other_command(self, tmp_path, capsys):
        # fig7a is a spectrum preset; transient must refuse it
        code = run(["transient", "--preset", "fig7a", "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamm": 0.002}))
        code = run(["transient", "--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE
        assert "gamm" in capsys.readouterr().err

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = run(["transient", "--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE

    def test_config_that_is_not_utf8_exits_2_and_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"gamma": 0.002}')
        out = tmp_path / "o.csv"
        assert run(["transient", "--config", str(cfg), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"hanlesim: invalid JSON in {cfg}: ")
        assert not out.exists()

    def test_negative_f_is_named_as_given(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run(["transient", "--fg", "-1", "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "hanlesim: F must be non-negative, got -1\n"
        assert not out.exists()

    def test_config_with_a_byte_order_mark_is_read(self, tmp_path):
        cfg, plain = tmp_path / "cfg.json", tmp_path / "plain.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"fg": 1, "fe": 0, "samples_per_period": 40}')
        plain.write_bytes(cfg.read_bytes()[3:])
        outputs = [tmp_path / "bom.csv", tmp_path / "plain.csv"]
        for config, out in zip((cfg, plain), outputs):
            assert run(["transient", "--config", str(config), "--output", str(out)]) == EXIT_OK
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_config_nested_too_deep_exits_2_and_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"fg": ' + "[" * 100000 + "]" * 100000 + "}")
        out = tmp_path / "o.csv"
        assert run(["steady", "--config", str(cfg), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[0].startswith(
            f"hanlesim: invalid JSON in {cfg}: ")
        assert not out.exists()

    # main alone maps an exception to an exit code, whichever command raised it:
    # LinAlgError, though a ValueError, is a numerical failure
    @pytest.mark.parametrize("name, argv", [
        ("switched_transient", ["transient"]),
        ("_sector_steady", ["steady", "--scan-b-points", "3"]),
        ("intensity_sweep", ["spectrum", "--intensities", "0.1"]),
    ], ids=["transient", "steady", "spectrum"])
    @pytest.mark.parametrize("error, code, line", [
        (ValueError("boom"), EXIT_USAGE, "hanlesim: boom"),
        (np.linalg.LinAlgError("boom"), EXIT_NUMERICAL, "hanlesim: numerical failure: boom"),
    ], ids=["value-error", "linalg-error"])
    def test_library_error_is_mapped_by_main(self, monkeypatch, tmp_path, capsys, name, argv,
                                             error, code, line):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, name, failing)
        out = tmp_path / "o.csv"
        assert run(argv + ["--output", str(out)]) == code
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    # the phase starts overflow to inf, or the subnormal sample grid collapses
    @pytest.mark.parametrize("argv", [
        ["--period", "1e308", "--n-periods", "3", "--samples-per-period", "4"],
        ["--period", "1e-320", "--samples-per-period", "4000"],
    ], ids=["period-1e308", "period-1e-320"])
    def test_times_that_do_not_increase_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert run(["transient", *argv, "--output", str(out)]) == EXIT_USAGE
        first = capsys.readouterr().err.splitlines()[0]
        assert first == "hanlesim: times must be strictly increasing"
        assert not out.exists()

    def test_negative_transit_diameter(self, tmp_path, capsys):
        code = run(["transit", "--diameter-m", "-0.01", "--temperature-k", "330",
                    "--output", str(tmp_path / "o.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--diameter-m", "--temperature-k", "--mass-amu"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_transit_input(self, tmp_path, flag, bad):
        values = {"--diameter-m": "0.01", "--temperature-k": "330", "--mass-amu": "87"}
        values[flag] = bad
        out = tmp_path / "t.json"
        argv = ["transit", "--output", str(out)] + [arg for pair in values.items() for arg in pair]
        assert run(argv) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--diameter-m", "1e308", "--temperature-k", "1e-308"],
        ["--diameter-m", "1e308", "--temperature-k", "1e-300"],
        ["--diameter-m", "0.01", "--temperature-k", "1e308", "--mass-amu", "1e-270"],
    ], ids=["speed-0", "time-inf", "time-0"])
    def test_transit_time_outside_the_float_range_exits_3(self, tmp_path, capsys, extra):
        out = tmp_path / "t.json"
        assert run(["transit", *extra, "--output", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("hanlesim: numerical failure: ")
        assert not out.exists()

    def test_unwritable_second_output_writes_neither(self, tmp_path, capsys):
        code = run(["transient", "--preset", "fig5b", "--output", str(tmp_path / "ok.csv"),
                    "--fit-output", str(tmp_path / "nodir" / "x.json")])
        assert code == EXIT_USAGE
        assert "cannot write output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_trace_file(self, tmp_path, capsys):
        code = run(["fit", "--trace", str(tmp_path / "absent.csv"),
                    "--output", str(tmp_path / "o.json")])
        assert code == EXIT_USAGE

    def test_empty_intensity_list(self, tmp_path, capsys):
        code = run(["spectrum", "--intensities", "", "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE

    def test_non_finite_flag(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = run(["transient", "--gamma", "nan", "--output", str(out)])
        assert code == EXIT_USAGE
        assert "gamma" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": "abc"}))
        out = tmp_path / "o.csv"
        code = run(["transient", "--config", str(cfg), "--output", str(out)])
        assert code == EXIT_USAGE
        assert "gamma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        ("spectrum", {"intensities": "25"}),
        ("spectrum", {"intensities": [0.3, True]}),
        ("transient", {"drop_exp_term": "false"}),
        ("transient", {"drop_exp_term": 1}),
        ("transient", {"samples_per_period": 40.9}),
        ("transient", {"n_periods": True}),
        ("spectrum", {"sweep_points": True}),
        ("transient", {"gamma": True}),
        ("transient", {"fg": "1"}),
        ("transient", {"samples_per_period": "400"}),
        ("transient", {"gamma": "0.002"}),
        ("transient", {"period": "1e3"}),
        ("spectrum", {"intensities": ["0.5"]}),
        ("spectrum", {"b1": "0.01"}),
        ("transient", {"polarization": None}),
        ("transient", {"polarization": 1}),
        ("steady", {"polarization": [1, 0, 0]}),
        ("transient", {"polarization": ["1", "0", "0"]}),
        ("spectrum", {"polarization": {"a": 1}}),
        ("transient", {"gamma": 10**400}),
        ("spectrum", {"intensities": [0.3, 10**400]}),
    ], ids=["intensities-string", "intensities-bool", "drop-string", "drop-int", "int-fraction",
            "int-bool", "sweep-points-bool", "float-bool", "fg-string", "int-string",
            "gamma-string", "period-string", "intensity-string", "b1-string", "pol-null",
            "pol-number", "pol-numbers", "pol-strings", "pol-dict", "gamma-huge-int",
            "intensity-huge-int"])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--config", str(cfg), "--output", str(out / "o.csv")]
        if command == "transient":
            argv += ["--with-fit", "--fit-output", str(out / "f.json")]
        assert run(argv) == EXIT_USAGE
        assert f"config key {next(iter(config))!r}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, extra, config", [
        ("transient", ["--duty", "1"], None),
        ("transient", ["--duty", "0"], None),
        ("transient", ["--b0", "0.03", "--b1", "0.03"], None),
        ("transient", ["--samples-per-period", "4"], None),
        ("transient", ["--fg", "1", "--fe", "0", "--samples-per-period", "2"], None),
        ("transient", [], {"fit_model": "bogus"}),
        ("fit", [], {"fit_model": "bogus"}),
    ], ids=["duty-1", "duty-0", "equal-fields", "too-few-samples", "one-constant-sample",
            "bad-model", "fit-bad-model"])
    def test_fit_failure_exits_2_and_writes_nothing(self, tmp_path, capsys, command, extra,
                                                    config):
        trace = tmp_path / "in" / "t.csv"
        trace.parent.mkdir()
        assert run(["transient", "--samples-per-period", "400", "--output", str(trace)]) == EXIT_OK
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--output", str(out / "o.csv")] + extra
        if command == "transient":
            argv += ["--with-fit", "--fit-output", str(out / "f.json")]
        else:
            argv += ["--trace", str(trace)]
        if config is not None:
            cfg = tmp_path / "in" / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("hanlesim: ")
        assert list(out.iterdir()) == []

    # an integer beyond the float range is as unusable as a tuple
    @pytest.mark.parametrize("meta", ["# phase_b=(1,)", "# fe=2\n# fg=(1,)\n# phase_b=0.03",
                                      "# phase_b=1" + "0" * 400,
                                      "# fe=2\n# fg=1" + "0" * 400 + "\n# phase_b=0.03"],
                             ids=["phase_b-tuple", "fg-tuple", "phase_b-huge-int", "fg-huge-int"])
    def test_fit_rejects_non_numeric_trace_metadata(self, tmp_path, capsys, meta):
        times = np.linspace(0.0, 2000.0, 300).tolist()
        rows = "".join(f"{t!r},{float(np.exp(-t / 300))!r}\n" for t in times)
        trace = tmp_path / "t.csv"
        trace.write_text(f"{meta}\ntime,w\n{rows}")
        out = tmp_path / "f.json"
        assert run(["fit", "--trace", str(trace), "--output", str(out)]) == EXIT_USAGE
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "o.csv"
        run(["transient", "--preset", "fig99z", "--output", str(out)])
        assert not out.exists()

    # each count asks for a float array of hundreds of PiB, more than any address
    # space, so the allocation fails at once; never use sizes that fit in memory
    @pytest.mark.parametrize("argv", [
        ["transient", "--samples-per-period", str(10**17)],
        ["steady", "--scan-b-points", str(10**17)],
        ["spectrum", "--sweep-points", str(10**17)],
    ], ids=["samples", "scan-points", "sweep-points"])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert run(argv + ["--output", str(out)]) == EXIT_NUMERICAL
        assert "out of memory" in capsys.readouterr().err
        assert not out.exists()

    # fields and detunings this large overflow the generator, its exponential or the
    # steady residual to inf or NaN; no NaN sample may be written
    @pytest.mark.parametrize("argv", [
        ["transient", "--fg", "1", "--fe", "0", "--samples-per-period", "40", "--b1", "1e308"],
        ["transient", "--fg", "1", "--fe", "0", "--samples-per-period", "40", "--b1", "1e200"],
        ["transient", "--fg", "1", "--fe", "0", "--samples-per-period", "40",
         "--detuning", "1e300"],
        ["steady", "--scan-b-min=1e307", "--scan-b-max=1e308"],
        ["transient", "--b1", "1e200", "--with-fit"],
        ["transient", "--fg", "1", "--fe", "0", "--samples-per-period", "40", "--b0", "1e308"],
    ], ids=["b1-1e308", "b1-1e200", "detuning-1e300", "steady-scan", "with-fit", "b0-1e308"])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_result_exits_3(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        out.mkdir()
        if "--with-fit" in argv:
            argv = argv + ["--fit-output", str(out / "f.json")]
        assert run(argv + ["--output", str(out / "o.csv")]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # a finite trace this large overflows the fit's cost (1e200) or only its J^T J (1e154)
    @pytest.mark.parametrize("scale", [1e200, 1e154])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_fit_that_overflows_exits_3(self, tmp_path, capsys, scale):
        times = np.linspace(0.0, 1000.0, 200)
        trace = tmp_path / "t.csv"
        save_trace(TransientTrace(times, scale * (np.exp(-0.004 * times) + 0.2),
                                  np.zeros_like(times), {}), trace)
        out = tmp_path / "out"
        out.mkdir()
        assert run(["fit", "--trace", str(trace), "--model", "single_exp",
                    "--output", str(out / "f.json")]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # the same overflows, with numpy's warnings let through: they follow the failure line
    @pytest.mark.parametrize("argv", [
        ["transient", "--fg", "1", "--fe", "0", "--samples-per-period", "40", "--b1", "1e200"],
        ["steady", "--scan-b-min=1e307", "--scan-b-max=1e308"],
    ], ids=["b1-1e200", "steady-scan"])
    def test_numerical_failure_leads_stderr_and_warnings_follow(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        out.mkdir()
        assert run(argv + ["--output", str(out / "o.csv")]) == EXIT_NUMERICAL
        first, *rest = capsys.readouterr().err.splitlines()
        assert first.startswith("hanlesim: numerical failure")
        assert rest and all(line.startswith("hanlesim: warning: ") for line in rest)
        assert list(out.iterdir()) == []

    def test_warnings_of_a_successful_run_are_raised_unchanged(self, tmp_path, capsys):
        argv = ["transient", "--gamma", "0.2", "--samples-per-period", "40"]
        with pytest.warns(UserWarning, match=r"^gamma=0\.2 is not small compared to the decay rate"):
            assert run(argv + ["--output", str(tmp_path / "o.csv")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_gamma_warning_is_raised_once_per_run(self, tmp_path):
        # under the default filters, every spec the run builds warns from one line outside hanlesim
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert run(["transient", "--gamma", "0.2", "--samples-per-period", "40",
                        "--output", str(tmp_path / "o.csv")]) == EXIT_OK
        assert [warning.category for warning in caught] == [UserWarning]
        assert caught[0].filename == __file__

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv, config", [
        (["transient", "--samples-per-period", str(10**20)], None),
        (["steady", "--scan-b-points", str(2**63)], None),
        (["transient", "--fg", "1e300", "--fe", "1e300"], None),
        (["transient", "--fg", "1e6", "--fe", "1e6"], None),
        (["transient"], {"samples_per_period": 1e20}),
        (["transient"], {"n_periods": float("inf")}),
        (["steady", "--fg", "0", "--fe", "0"], None),
        (["transient", "--fg", "0", "--fe", "0", "--samples-per-period", "4"], None),
    ], ids=["samples", "scan-points", "fg-1e300", "fg-1e6", "config-samples", "config-inf",
            "steady-0-0", "transient-0-0"])
    def test_sizes_numpy_cannot_index_exit_2(self, tmp_path, capsys, argv, config):
        out = tmp_path / "o.csv"
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        assert run(argv + ["--output", str(out)]) == EXIT_USAGE
        assert "hanlesim: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--preset", "fig7a", "--b0", "0.5"],
        ["steady", "--b0", "0.5"],
        ["steady", "--b1", "0.7"],
    ], ids=["spectrum-b0", "steady-b0", "steady-b1"])
    def test_flag_the_command_ignores_is_unknown(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--output", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    # 10**17 periods pass the index bound but ask for a record of hundreds of PiB,
    # more than any address space; twice that exceeds the bound.  A subprocess
    # with a timeout, because a record stepped before it is allocated runs for hours.
    @pytest.mark.parametrize("n_periods, code",
                             [(10**17, EXIT_NUMERICAL), (2 * 10**17, EXIT_USAGE)],
                             ids=["too-large-for-memory", "too-large-to-index"])
    def test_record_size_fails_at_once(self, tmp_path, n_periods, code):
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "hanlesim", "transient", "--n-periods", str(n_periods),
             "--samples-per-period", "4", "--output", str(out)],
            capture_output=True, text=True, timeout=60, env=subprocess_env(),
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("hanlesim: ")
        assert not out.exists()


class TestOutputFiles:
    TRANSIT = ["transit", "--diameter-m", "0.01", "--temperature-k", "330", "--mass-amu", "87"]

    def test_symlink_target_is_written_and_link_kept(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert run(self.TRANSIT + ["--output", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert json.loads(target.read_text())["transit_time_s"] > 0

    def test_device_output_is_left_in_place(self):
        before = os.stat(os.devnull)
        assert stat.S_ISCHR(before.st_mode)
        assert run(self.TRANSIT + ["--output", os.devnull]) == EXIT_OK
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode)
        assert (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)

    FIT = ["transient", "--preset", "fig5a", "--samples-per-period", "400", "--output"]

    @pytest.mark.parametrize("second", ["f.csv", "link.csv", "absent.csv"])
    def test_two_outputs_naming_one_file_exit_2_and_write_nothing(self, tmp_path, capsys, second):
        target = tmp_path / "f.csv"
        target.write_text("old\n")
        (tmp_path / "link.csv").symlink_to(target)
        first = target if second != "absent.csv" else tmp_path / second
        argv = self.FIT + [str(first), "--fit-output", str(tmp_path / second)]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"hanlesim: two outputs name the same file {tmp_path / second}\n")
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "link.csv"]

    def test_one_device_may_take_both_outputs(self):
        assert run(self.FIT + [os.devnull, "--fit-output", os.devnull]) == EXIT_OK

    def test_replaced_file_keeps_its_permissions(self, tmp_path):
        out = tmp_path / "t.json"
        out.write_text("old\n")
        out.chmod(0o640)
        assert run(self.TRANSIT + ["--output", str(out)]) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert json.loads(out.read_text())["transit_time_s"] > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


class TestTransient:
    def test_preset_run_writes_trace(self, tmp_path):
        out = tmp_path / "fig5a.csv"
        assert run(["transient", "--preset", "fig5a", "--output", str(out)]) == EXIT_OK
        trace = load_trace(out)
        assert trace.times.size == 4000
        assert set(np.round(np.unique(trace.b), 12)) == {0.0, 0.03}
        assert trace.meta["fg"] == 1 and trace.meta["fe"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["transient", "--preset", "fig5a", "--output"]
        assert run(argv + [str(a)]) == EXIT_OK
        assert run(argv + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"intensity": 0.002, "samples_per_period": 100}))
        out = tmp_path / "o.csv"
        assert run(["transient", "--preset", "fig5a", "--config", str(cfg),
                    "--intensity", "0.06", "--output", str(out)]) == EXIT_OK
        trace = load_trace(out)
        assert trace.meta["intensity"] == pytest.approx(0.06)  # flag wins
        assert trace.times.size == 100                         # file beat preset

    def test_a_fit_whose_trial_points_overflow_warns_nothing(self, tmp_path, capsys):
        # the fit converges, and the overflow of a rejected trial point is not reported
        fit_out = tmp_path / "f.json"
        assert run(["transient", "--fg", "1", "--fe", "0", "--intensity", "0.006", "--samples-per-period",
                    "2000", "--with-fit", "--output", str(tmp_path / "o.csv"),
                    "--fit-output", str(fit_out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(fit_out.read_text())["converged"]

    def test_with_fit_writes_both(self, tmp_path):
        out, fit_out = tmp_path / "o.csv", tmp_path / "f.json"
        assert run(["transient", "--preset", "fig5b", "--output", str(out),
                    "--with-fit", "--fit-output", str(fit_out)]) == EXIT_OK
        payload = json.loads(fit_out.read_text())
        assert payload["converged"]
        assert payload["params"]["freq"] == pytest.approx(0.06, rel=0.05)


@pytest.mark.parametrize("preset", TRANSIENT_PRESETS)
def test_every_transient_preset_fits(tmp_path, preset):
    fit_out = tmp_path / "f.json"
    assert run(["transient", "--preset", preset, "--with-fit",
                "--output", str(tmp_path / "o.csv"), "--fit-output", str(fit_out)]) == EXIT_OK
    assert isinstance(json.loads(fit_out.read_text())["converged"], bool)


class TestSteady:
    def test_symmetry_about_zero_field(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["steady", "--fg", "1", "--fe", "0", "--intensity", "0.02",
                    "--scan-b-min", "-0.05", "--scan-b-max", "0.05",
                    "--scan-b-points", "21", "--output", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        b = np.array([float(r[0]) for r in rows])
        w = np.array([float(r[1]) for r in rows])
        assert b.size == 21
        np.testing.assert_allclose(w, w[::-1], atol=1e-10)

    def test_metadata_matches_transient(self, tmp_path):
        flags = ["--fg", "1", "--fe", "2", "--intensity", "0.02", "--dipole-scale", "2.5"]
        steady, transient = tmp_path / "s.csv", tmp_path / "t.csv"
        assert run(["steady", *flags, "--scan-b-points", "3", "--output", str(steady)]) == EXIT_OK
        assert run(["transient", *flags, "--samples-per-period", "100",
                    "--output", str(transient)]) == EXIT_OK
        steady_meta = steady_scan_meta(steady)
        transient_meta = load_trace(transient).meta
        shared = set(steady_meta) & set(transient_meta)
        assert {"intensity", "pol", "dipole_scale", "fg", "fe", "gamma"} <= shared
        assert {key: steady_meta[key] for key in shared} == {
            key: transient_meta[key] for key in shared}
        assert steady_meta["intensity"] == pytest.approx(0.02)

    def test_matches_per_point_assembly(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["steady", "--fg", "1", "--fe", "2", "--intensity", "0.3",
                    "--scan-b-min", "-0.15", "--scan-b-max", "0.15",
                    "--scan-b-points", "41", "--output", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        spec = eia_spec(0.3)
        expected = []
        for b in np.linspace(-0.15, 0.15, 41):
            liouv = build_liouvillian(spec.with_field(float(b)))
            expected.append(absorption(np.linalg.solve(liouv.matrix, -liouv.pump), spec))
        np.testing.assert_allclose([float(row[1]) for row in rows], expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("make_spec, fg, fe", [(eit_spec, "1", "0"), (eia_spec, "1", "2")])
    def test_stacked_scan_matches_the_per_point_steady_state(self, tmp_path, make_spec, fg, fe):
        out = tmp_path / "scan.csv"
        assert run(["steady", "--fg", fg, "--fe", fe, "--intensity", "0.3", "--scan-b-points", "201",
                    "--output", str(out)]) == EXIT_OK
        columns = table_columns(out)
        spec = make_spec(0.3)
        expected = np.array([absorption(steady_state(build_liouvillian(spec.with_field(float(b)))), spec)
                             for b in columns["b"]])
        w = np.array(columns["w"], dtype=float)
        assert w.size == 201
        assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_a_scan_longer_than_a_stack_gives_the_same_bytes(self, monkeypatch, tmp_path):
        argv = ["steady", "--fg", "1", "--fe", "2", "--intensity", "0.06", "--scan-b-points", "11",
                "--output"]
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        assert dynamics.STACK_CHUNK >= 11
        assert run(argv + [str(whole)]) == EXIT_OK
        monkeypatch.setattr(dynamics, "STACK_CHUNK", 4)
        shapes = record_shapes(monkeypatch, "solve")
        assert run(argv + [str(chunked)]) == EXIT_OK
        assert shapes == [(4, 21, 21), (4, 21, 21), (3, 21, 21)]
        assert chunked.read_bytes() == whole.read_bytes()

    def test_an_interior_point_that_fails_a_check_exits_3_and_is_named(self, monkeypatch, tmp_path,
                                                                        capsys):
        # the full-size field part of a writable copy of the served family breaks after the
        # copy's sector is formed from it: the residual then refuses every point with a field,
        # and the scan starts at zero field
        make = cli.affine_liouvillian

        def broken(spec):
            served = make(spec)
            affine = dataclasses.replace(served, field=served.field.copy())
            affine.sector
            affine.field[:] *= 1.5
            return affine

        monkeypatch.setattr(cli, "affine_liouvillian", broken)
        out = tmp_path / "scan.csv"
        assert run(["steady", "--fg", "1", "--fe", "2", "--intensity", "0.3", "--scan-b-min", "0",
                    "--scan-b-max", "0.02", "--scan-b-points", "5", "--output", str(out)]) == EXIT_NUMERICAL
        assert re.fullmatch(r"hanlesim: numerical failure: steady-state residual \S+ exceeds 1e-10 "
                            r"at intensity 0\.3, field 0\.005", capsys.readouterr().err.splitlines()[0])
        assert not out.exists()

    @pytest.mark.parametrize("points", [3, 201])
    def test_assembles_at_most_three_times(self, monkeypatch, tmp_path, points):
        calls = count_assemblies(monkeypatch)
        assert run(["steady", "--fg", "1", "--fe", "2", "--scan-b-points", str(points),
                    "--output", str(tmp_path / "scan.csv")]) == EXIT_OK
        assert len(calls) <= 3

    def test_solves_on_the_pump_block(self, monkeypatch, tmp_path):
        # 1 -> 2 linear light: the pump block holds 34 of the 64 Liouville indices, and its
        # Theta-even sector 21 real coordinates
        shapes = record_shapes(monkeypatch, "solve")
        assert run(["steady", "--fg", "1", "--fe", "2", "--scan-b-points", "5",
                    "--output", str(tmp_path / "scan.csv")]) == EXIT_OK
        assert shapes == [(5, 21, 21)]  # one stacked solve for the scan

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["steady", "--fg", "1", "--fe", "2", "--intensity", "0.06",
                "--scan-b-min", "-0.02", "--scan-b-max", "0.02",
                "--scan-b-points", "11", "--output"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv + [str(a)]) == EXIT_OK
        assert run(argv + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestSpectrum:
    ARGV = ["spectrum", "--fg", "1", "--fe", "2"]

    def test_intensity_flag_matches_config_and_library(self, tmp_path):
        flagged, configured, cfg = tmp_path / "f.csv", tmp_path / "c.csv", tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"intensities": [0.1, 0.2]}))
        assert run(self.ARGV + ["--intensities", "0.1,0.2", "--output", str(flagged)]) == EXIT_OK
        assert run(self.ARGV + ["--config", str(cfg), "--output", str(configured)]) == EXIT_OK
        assert flagged.read_bytes() == configured.read_bytes()
        table = table_columns(flagged)
        expected = intensity_sweep(eia_spec(), [0.1, 0.2], b1=B1)
        assert list(table) == list(expected)
        for name, values in expected.items():
            parse = str if isinstance(values[0], str) else float
            assert [parse(cell) for cell in table[name]] == values, name

    @pytest.mark.parametrize("grid", [["--intensities=-0.1"], ["--intensities", "0"]],
                             ids=["negative", "zero"])
    def test_intensity_that_is_not_positive_exits_2(self, tmp_path, capsys, grid):
        out = tmp_path / "o.csv"
        assert run(self.ARGV + grid + ["--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "hanlesim: intensity grid must be nonempty and positive\n"
        assert not out.exists()

    def test_an_interior_point_that_fails_a_check_exits_3_and_is_named(self, monkeypatch, tmp_path,
                                                                        capsys):
        # eigenvalues off by 1e-3 at the second point of the stack, (0.1, B1), fail its eigen
        # residual
        decompose = spectral._decompose

        def broken(subs, row):
            lam, vecs, weights = decompose(subs, row)
            lam[1] += 1e-3
            return lam, vecs, weights

        monkeypatch.setattr(spectral, "_decompose", broken)
        out = tmp_path / "o.csv"
        assert run(self.ARGV + ["--intensities", "0.1,0.2,0.3", "--output", str(out)]) == EXIT_NUMERICAL
        assert re.fullmatch(r"hanlesim: numerical failure: eigen residual \S+ exceeds 1e-9 \(matrix "
                            r"condition number \S+\) at intensity 0\.1, field 0\.03",
                            capsys.readouterr().err.splitlines()[0])
        assert not out.exists()


def test_polarization_flag_reaches_every_physics_command(tmp_path):
    flags = ["--fg", "1", "--fe", "2", "--polarization", "sigma+"]
    transient, steady, spectrum = tmp_path / "t.csv", tmp_path / "s.csv", tmp_path / "m.csv"
    assert run(["transient", *flags, "--samples-per-period", "40",
                "--output", str(transient)]) == EXIT_OK
    assert run(["steady", *flags, "--scan-b-points", "3", "--output", str(steady)]) == EXIT_OK
    assert run(["spectrum", *flags, "--intensities", "0.1", "--output", str(spectrum)]) == EXIT_OK
    assert load_trace(transient).meta["pol"] == (0, 0, 1)
    assert steady_scan_meta(steady)["pol"] == (0, 0, 1)
    expected = intensity_sweep(eia_spec(pol="sigma+"), [0.1], b1=B1)
    assert [float(v) for v in table_columns(spectrum)["re_lambda"]] == expected["re_lambda"]


class TestFitCommand:
    def test_auto_model_from_trace_meta(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        fit_path = tmp_path / "f.json"
        assert run(["transient", "--preset", "fig5b", "--output", str(trace_path)]) == EXIT_OK
        assert run(["fit", "--trace", str(trace_path), "--fit-phase", "on",
                    "--output", str(fit_path)]) == EXIT_OK
        payload = json.loads(fit_path.read_text())
        assert payload["model"] == "exp_plus_damped_sine"
        assert payload["params"]["freq"] == pytest.approx(0.06, rel=0.05)

    def test_off_phase_single_exp(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        fit_path = tmp_path / "f.json"
        assert run(["transient", "--preset", "fig5b", "--output", str(trace_path)]) == EXIT_OK
        assert run(["fit", "--trace", str(trace_path), "--fit-phase", "off",
                    "--output", str(fit_path)]) == EXIT_OK
        payload = json.loads(fit_path.read_text())
        assert payload["model"] == "single_exp"
        assert payload["converged"]

    def test_trace_that_is_not_utf8_exits_2_and_names_the_file(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        trace_path.write_bytes(b"\xff\xfetime,w\n0.0,1.0\n")
        out = tmp_path / "f.json"
        assert run(["fit", "--trace", str(trace_path), "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"hanlesim: {trace_path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte"]
        assert not out.exists()

    def test_trace_with_a_byte_order_mark_fits_as_without_it(self, tmp_path):
        trace_path, bom_path = tmp_path / "t.csv", tmp_path / "bom.csv"
        assert run(["transient", "--preset", "fig5c", "--output", str(trace_path)]) == EXIT_OK
        bom_path.write_bytes(b"\xef\xbb\xbf" + trace_path.read_bytes())
        fits = [tmp_path / "f.json", tmp_path / "bom.json"]
        for trace, out in zip((trace_path, bom_path), fits):
            assert run(["fit", "--trace", str(trace), "--fit-phase", "off",
                        "--output", str(out)]) == EXIT_OK
        assert fits[0].read_bytes() == fits[1].read_bytes()

    def test_deeply_nested_meta_value_fits_as_without_it(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        assert run(["transient", "--preset", "fig5c", "--output", str(trace_path)]) == EXIT_OK
        fits = []
        for minuses in (0, 3000, 100000):
            deep = tmp_path / f"deep{minuses}.csv"
            extra = f"# x={'-' * minuses}1\n" if minuses else ""
            deep.write_text(extra + trace_path.read_text())
            out = tmp_path / f"f{minuses}.json"
            assert run(["fit", "--trace", str(deep), "--fit-phase", "off",
                        "--output", str(out)]) == EXIT_OK
            fits.append(out.read_bytes())
        assert fits[1] == fits[0] and fits[2] == fits[0]

    @pytest.mark.parametrize("preset, phase", [("fig5c", "off"), ("fig5c", "on"), ("fig6c", "on")])
    def test_same_json_as_transient_with_fit(self, tmp_path, preset, phase):
        # b0 = 0.01: the off phase oscillates too, and both commands pick its
        # model by its field, not by its name
        trace, with_fit, fitted = tmp_path / "t.csv", tmp_path / "w.json", tmp_path / "f.json"
        assert run(["transient", "--preset", preset, "--b0", "0.01", "--samples-per-period",
                    "1000", "--with-fit", "--fit-phase", phase, "--output", str(trace),
                    "--fit-output", str(with_fit)]) == EXIT_OK
        assert run(["fit", "--trace", str(trace), "--fit-phase", phase,
                    "--output", str(fitted)]) == EXIT_OK
        assert with_fit.read_bytes() == fitted.read_bytes()
        assert json.loads(fitted.read_text())["model"] == "exp_plus_damped_sine"


class TestTransit:
    def test_matches_library_value(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["transit", "--diameter-m", "0.01", "--temperature-k", "330",
                    "--output", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["transit_time_s"] == pytest.approx(
            transit_time(0.01, 330.0, payload["mass_kg"]), rel=1e-12)
        assert payload["mass_amu"] == pytest.approx(86.909180531)

    def test_isotope_and_mass_override(self, tmp_path):
        out85 = tmp_path / "rb85.json"
        assert run(["transit", "--diameter-m", "0.01", "--temperature-k", "330",
                    "--isotope", "Rb85", "--output", str(out85)]) == EXIT_OK
        assert json.loads(out85.read_text())["mass_amu"] == pytest.approx(84.911789738)

        out_custom = tmp_path / "custom.json"
        assert run(["transit", "--diameter-m", "0.01", "--temperature-k", "330",
                    "--mass-amu", "100", "--output", str(out_custom)]) == EXIT_OK
        assert json.loads(out_custom.read_text())["mass_amu"] == pytest.approx(100.0)


class TestPresets:
    def test_listing_names_all_presets(self, capsys):
        assert run(["presets"]) == EXIT_OK
        text = capsys.readouterr().out
        for name in [f"fig5{c}" for c in "abcde"] + [f"fig6{c}" for c in "abcde"]:
            assert name in text
        assert "fig7a" in text and "fig7b" in text


class TestSubprocess:
    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hanlesim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hanlesim", "transit", "--diameter-m", "0.01",
             "--temperature-k", "330", "--output", str(out)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(out.read_text())["transit_time_s"] == pytest.approx(3.97964e-05, rel=1e-4)
