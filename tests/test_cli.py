"""Command-line interface: exit codes, determinism, output contracts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hanlesim import list_presets, load_trace, transit_time
from hanlesim.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main

TRANSIENT_PRESETS = [name for name, command, _ in list_presets() if command == "transient"]


def run(argv):
    return main(argv)


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

    def test_negative_transit_diameter(self, tmp_path, capsys):
        code = run(["transit", "--diameter-m", "-0.01", "--temperature-k", "330",
                    "--output", str(tmp_path / "o.json")])
        assert code == EXIT_USAGE

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

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "o.csv"
        run(["transient", "--preset", "fig99z", "--output", str(out)])
        assert not out.exists()


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

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["steady", "--fg", "1", "--fe", "2", "--intensity", "0.06",
                "--scan-b-min", "-0.02", "--scan-b-max", "0.02",
                "--scan-b-points", "11", "--output"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv + [str(a)]) == EXIT_OK
        assert run(argv + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


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
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hanlesim", "transit", "--diameter-m", "0.01",
             "--temperature-k", "330", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(out.read_text())["transit_time_s"] == pytest.approx(3.97964e-05, rel=1e-4)
