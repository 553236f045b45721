"""CSV/JSON serialization: round trips, determinism, error reporting."""

import json

import numpy as np
import pytest

from hanlesim import FitModel, fit, load_trace, save_fit, save_trace
from hanlesim.dynamics import TransientTrace
from hanlesim.fit import evaluate_model
from hanlesim.cli import _transition_spec, build_config
from hanlesim.spectral import SWEEP_COLUMNS, intensity_sweep
from hanlesim.traceio import _format_cell, render_fit, render_table, render_trace


def sample_trace():
    times = np.linspace(0.0, 10.0, 11)
    w = np.cos(times) * 1e-3
    b = np.where(times < 5.0, 0.0, 0.03)
    meta = {
        "gamma": 0.002, "n_periods": 1, "polarization": "linear-y",
        "modal_fallback": False, "rabi": (0.1414, 0.0),
    }
    return TransientTrace(times, w, b, meta)


class TestTraceRoundTrip:
    def test_exact_values_and_meta(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.times, trace.times)
        np.testing.assert_array_equal(loaded.w, trace.w)
        np.testing.assert_array_equal(loaded.b, trace.b)
        assert loaded.meta == trace.meta
        assert isinstance(loaded.meta["n_periods"], int)
        assert isinstance(loaded.meta["modal_fallback"], bool)
        assert loaded.meta["rabi"] == (0.1414, 0.0)

    def test_save_over_existing_file_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("old\n")
        save_trace(sample_trace(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
        assert path.read_text() == render_trace(sample_trace())

    def test_failed_save_raises_and_leaves_nothing(self, tmp_path):
        with pytest.raises(OSError):
            save_trace(sample_trace(), tmp_path / "nodir" / "trace.csv")
        assert list(tmp_path.iterdir()) == []

    def test_byte_determinism(self):
        trace = sample_trace()
        assert render_trace(trace) == render_trace(trace)

    def test_lf_endings_and_trailing_newline(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(sample_trace(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_meta_lines_sorted(self):
        text = render_trace(sample_trace())
        keys = [line[2:].split("=")[0] for line in text.splitlines() if line.startswith("#")]
        assert keys == sorted(keys)

    def test_signal_column_alias(self, tmp_path):
        path = tmp_path / "alias.csv"
        path.write_text("time,signal\n0.0,1.0\n1.0,0.5\n")
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.w, [1.0, 0.5])

    def test_missing_b_column_fills_zeros(self, tmp_path):
        path = tmp_path / "nob.csv"
        path.write_text("time,w\n0.0,1.0\n1.0,0.5\n")
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.b, [0.0, 0.0])


class TestLoadErrors:
    def write(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        return path

    def test_non_increasing_time(self, tmp_path):
        path = self.write(tmp_path, "time,w\n0.0,1.0\n0.0,0.5\n")
        with pytest.raises(ValueError, match=r":3:"):
            load_trace(path)

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "time,w\n0.0,1.0\n1.0,oops\n")
        with pytest.raises(ValueError, match=r":3:"):
            load_trace(path)

    def test_non_finite_cell(self, tmp_path):
        path = self.write(tmp_path, "time,w\n0.0,nan\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_trace(path)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "time,w\n0.0,1.0,9.9\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_trace(path)

    def test_missing_required_column(self, tmp_path):
        path = self.write(tmp_path, "time,other\n0.0,1.0\n")
        with pytest.raises(ValueError, match="column"):
            load_trace(path)

    def test_no_data_rows(self, tmp_path):
        path = self.write(tmp_path, "time,w\n")
        with pytest.raises(ValueError):
            load_trace(path)


def sweep_csv(columns):
    """The spectrum command's table of ``intensity_sweep`` columns."""
    return render_table(list(columns), list(columns.values()))


class TestSweepRendering:
    def columns(self):
        return intensity_sweep(_transition_spec(build_config("fig7a", None, {}, "spectrum")),
                               (0.02,), 0.03)

    def test_column_order_and_bare_strings(self):
        text = sweep_csv(self.columns())
        lines = text.splitlines()
        assert lines[0] == "intensity,b_case,re_lambda,im_lambda,group,observable,w_mode"
        assert "'B0'" not in text and "B0" in text

    def test_deterministic(self):
        columns = self.columns()
        assert sweep_csv(columns) == sweep_csv(columns)

    def test_column_formatting_matches_per_cell_formatting(self):
        config = build_config("fig7a", None, {}, "spectrum")
        grid = np.geomspace(config.sweep_min, config.sweep_max, config.sweep_points)
        columns = intensity_sweep(_transition_spec(config), grid, config.b1)
        per_cell = [",".join(SWEEP_COLUMNS)] + [
            ",".join(_format_cell(cell) for cell in row)
            for row in zip(*(columns[name] for name in SWEEP_COLUMNS))]
        assert sweep_csv(columns) == "\n".join(per_cell) + "\n"

    def test_mixed_and_numpy_columns_format_per_cell(self):
        rows = [(1, 2.5, "a", np.float64(0.1), True, (1, 2)),
                (2.0, 3, "b", 7, np.int64(4), "x")]
        names = ("a", "b", "c", "d", "e", "f")
        expected = [",".join(names)] + [",".join(_format_cell(cell) for cell in row) for row in rows]
        assert render_table(names, list(zip(*rows))) == "\n".join(expected) + "\n"
        assert expected[1] == "1,2.5,a,0.1,True,(1, 2)"

    def test_columns_of_unequal_length_are_refused(self):
        for columns in ([(1.0, 2.0), (3.0,)], [(1.0,), (2.0, 3.0)]):
            with pytest.raises(ValueError):
                render_table(("a", "b"), columns)


class TestFitRendering:
    def result(self):
        times = np.linspace(0.0, 2000.0, 1500)
        model = FitModel("single_exp")
        y = evaluate_model(model, {"amp": 1.0, "rate": 0.004, "offset": 0.2}, times)
        return fit(TransientTrace(times, y, np.zeros_like(times), {}), model)

    def test_json_key_order_and_parse_back(self, tmp_path):
        result = self.result()
        text = render_fit(result)
        assert list(json.loads(text)) == [
            "model", "params", "uncertainties", "rms", "converged",
            "iterations", "seeds", "degenerate",
        ]
        payload = json.loads(text)
        assert payload["params"]["rate"] == pytest.approx(0.004, rel=1e-8)
        assert list(payload["params"]) == sorted(payload["params"])

        path = tmp_path / "fit.json"
        save_fit(result, path)
        assert json.loads(path.read_text()) == payload
