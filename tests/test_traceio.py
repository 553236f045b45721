"""CSV/JSON serialization: round trips, determinism, error reporting."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hanlesim.traceio as traceio
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

    def test_lines_above_the_header_are_read_by_their_stripped_text(self, tmp_path):
        path = tmp_path / "indented.csv"
        path.write_text("  # note\n\t# a = (1, 2) \n   \n  time,w\n0.0,1.0\n  # b=3\n1.0,0.5\n")
        loaded = load_trace(path)
        assert loaded.meta == {"a": (1, 2)}
        np.testing.assert_array_equal(loaded.w, [1.0, 0.5])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + render_trace(trace).encode())
        loaded = load_trace(path)
        assert loaded.meta == trace.meta
        assert render_trace(loaded) == render_trace(trace)

    def test_numpy_strings_in_meta_load_back_as_strings(self, tmp_path):
        trace = sample_trace()
        trace.meta = {"label": np.str_("run-a"), "pair": (np.str_("x"), "y")}
        path = tmp_path / "labels.csv"
        save_trace(trace, path)
        assert "# label='run-a'\n" in path.read_text()
        assert load_trace(path).meta == {"label": "run-a", "pair": ("x", "y")}

    def test_numpy_string_cells_are_written_bare(self):
        assert _format_cell(np.str_("run-a")) == "run-a"
        text = render_table(("s",), [[np.str_("run-a"), "b"]])
        assert text == "s\nrun-a\nb\n"


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

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfetime,w\n0.0,1.0\n")
        with pytest.raises(ValueError, match="utf-8") as info:
            load_trace(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("minuses", [3000, 100000])
    def test_deeply_nested_meta_value_is_kept_as_text(self, tmp_path, minuses):
        path = tmp_path / "deep.csv"
        value = "-" * minuses + "1"
        path.write_text(f"# x={value}\ntime,w\n0.0,1.0\n")
        assert load_trace(path).meta == {"x": value}


def loop_load(path):
    """(times, w, b) or the refusal message, by the per-line loop alone.

    A copy of how ``load_trace`` read the data rows before it parsed them in
    one pass; the header of every file given to it is well formed.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header_index = next(i for i, line in enumerate(lines)
                        if line.strip() and not line.startswith("#"))
    header = [name.strip().lower() for name in lines[header_index].split(",")]
    time_col = header.index("time")
    signal_col = header.index("w" if "w" in header else "signal")
    b_col = header.index("b") if "b" in header else None
    times, w, b = [], [], []
    for index in range(header_index + 1, len(lines)):
        line = lines[index].strip()
        lineno = index + 1
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            return f"{path}:{lineno}: non-numeric value"
        if any(not math.isfinite(value) for value in row):
            return f"{path}:{lineno}: non-finite value"
        if times and row[time_col] <= times[-1]:
            return f"{path}:{lineno}: time values must be strictly increasing"
        times.append(row[time_col])
        w.append(row[signal_col])
        b.append(row[b_col] if b_col is not None else 0.0)
    if not times:
        return f"{path}: no data rows"
    return np.array(times), np.array(w), np.array(b)


# (body, the line the loop names, or None when it accepts the file)
DATA_ROW_CASES = {
    "blank-line-then-non-numeric": ("time,w\n0.0,1.0\n\n1.0,x\n", 4),
    "hash-line-then-non-increasing": ("time,w\n0.0,1.0\n# note\n0.0,2.0\n", 4),
    "non-finite-before-wrong-width": ("time,w\n0.0,inf\n1.0,2.0,3.0\n", 2),
    "wrong-width-before-non-finite": ("time,w\n0.0,1.0,3.0\n1.0,nan\n", 2),
    "right-total-wrong-rows": ("time,w,b\n1,2\n3,4,5,6\n", 2),
    "non-numeric": ("time,w\n0.0,1.0\n1.0,oops\n", 3),
    "empty-cell": ("time,w\n0.0,1.0\n1.0,\n", 3),
    "nan-time": ("time,w\nnan,1.0\n", 2),
    "non-increasing": ("time,w\n0.0,1.0\n2.0,1.0\n1.0,1.0\n", 4),
    "equal-signed-zero-times": ("time,w\n0.0,1.0\n-0.0,1.0\n", 3),
    "meta-only-after-header": ("time,w\n# a=1\n\n", None),
    "meta-above-header": ("# a=1\n\ntime,w\n0.0,1.0\n", None),
    "blank-and-hash-lines-inside": ("time,w\n0.0,1.0\n\n# a,b\n  \n1.0,2.0\n\n", None),
    "spaces-around-cells": ("time , w\n 0.0 , 1e-3 \n1_0.5,\t2\n", None),
    "signal-alias": ("time,signal\n0.0,1.0\n1.0,0.5\n", None),
    "no-b-column": ("w,time\n1.0,0.0\n0.5,1.0\n", None),
    "crlf": ("time,w,b\r\n0.0,1.0,0.0\r\n1.0,0.5,0.03\r\n", None),
}


class TestOnePassParse:
    @pytest.mark.parametrize("name", DATA_ROW_CASES)
    def test_same_result_as_the_line_loop(self, tmp_path, name):
        body, lineno = DATA_ROW_CASES[name]
        path = tmp_path / "t.csv"
        path.write_bytes(body.encode())
        expected = loop_load(path)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                load_trace(path)
            assert str(info.value) == expected
            assert lineno is None or expected.startswith(f"{path}:{lineno}: ")
        else:
            loaded = load_trace(path)
            for got, want in zip((loaded.times, loaded.w, loaded.b), expected):
                np.testing.assert_array_equal(got, want)
            assert lineno is None

    def test_crlf_values(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(DATA_ROW_CASES["crlf"][0].encode())
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.w, [1.0, 0.5])
        np.testing.assert_array_equal(loaded.b, [0.0, 0.03])

    @pytest.mark.parametrize("skipped", [False, True], ids=["plain", "blank-and-hash-rows"])
    def test_rows_are_converted_in_one_call(self, tmp_path, monkeypatch, skipped):
        times = np.linspace(0.0, 2000.0, 4000)
        trace = TransientTrace(times, np.sin(times) * 1e-3, np.where(times < 1000.0, 0.0, 0.03),
                               {"gamma": 0.002})
        lines = render_trace(trace).splitlines()
        if skipped:
            lines[1000:1000] = ["", "# note", "  # a=1", "   "]
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")

        calls, floats = [], traceio._floats
        monkeypatch.setattr(traceio, "_floats",
                            lambda rows, width: calls.append(len(rows)) or floats(rows, width))
        loaded = load_trace(path)
        assert render_trace(loaded) == render_trace(trace)
        assert calls == [4000]


# (body, the message after the path)
@pytest.mark.parametrize("body, message", [
    ("", ": no header row found"),
    ("# a=1\n\n  # b=2\n", ": no header row found"),
    ("# a=1\nt,w\n0.0,1.0\n", ":2: missing 'time' column"),
], ids=["empty", "metadata-only", "no-time-column"])
def test_a_file_without_a_usable_header_is_refused(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text(body)
    with pytest.raises(ValueError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}{message}"


CELLS = st.one_of(st.sampled_from(["nan", "-inf", "x", "", " 1 ", "-0.0", "1e400"]),
                  *[st.integers(0, 99).map(str) for _ in range(4)])


@st.composite
def csv_bodies(draw):
    """A header and rows of its width, now and then a blank, ``#`` or other-width row."""
    header = draw(st.sampled_from(["time,w", "time,w,b", "w,b,time"]))
    width = header.count(",") + 1
    # one_of draws each branch alike, so three branches give full-width rows
    full = [st.lists(CELLS, min_size=width, max_size=width).map(",".join) for _ in range(3)]
    row = st.one_of(*full, st.lists(CELLS, min_size=1, max_size=4).map(",".join),
                    st.sampled_from(["", "  ", "# a=1", "# a,b"]))
    return "\n".join([header, *draw(st.lists(row, max_size=6))]) + "\n"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(csv_bodies())
def test_any_rows_give_the_line_loop_result(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    path.write_text(body)
    expected = loop_load(path)
    try:
        loaded = load_trace(path)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert not isinstance(expected, str)
        for got, want in zip((loaded.times, loaded.w, loaded.b), expected):
            np.testing.assert_array_equal(got, want)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.30000000000000004, 1.2345678901234567e-5)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def traces(draw):
    times = sorted(draw(st.lists(floats, min_size=1, max_size=30, unique=True)))
    w = draw(st.lists(floats, min_size=len(times), max_size=len(times)))
    b = draw(st.lists(floats, min_size=len(times), max_size=len(times)))
    meta = {"gamma": draw(floats), "n_periods": draw(st.integers(0, 10**6)), "polarization": "linear-y"}
    return TransientTrace(np.array(times), np.array(w), np.array(b), meta)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(traces())
def test_render_load_render_is_byte_exact(tmp_path_factory, trace):
    path = tmp_path_factory.getbasetemp() / "render-load-render.csv"
    text = render_trace(trace)
    path.write_text(text)
    assert render_trace(load_trace(path)) == text


#: NaNs with two different payloads, the infinities and subnormals, beside the edge floats
NAN_PAYLOADS = tuple(np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(float).tolist())
SPECIAL_FLOATS = EDGE_FLOATS + NAN_PAYLOADS + (math.inf, -math.inf, 1e-310, -4e-320)


def pools(values, size=5):
    return st.lists(values, min_size=1, max_size=size)


def repeating(small_pools):
    """Lists of up to 40 cells drawn from one small pool, so that most cells repeat a value."""
    return small_pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40))


plain_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
#: float pools closed under negation, so that 0.0 meets -0.0 and each NaN its sign-flipped payload
float_lists = repeating(pools(plain_floats, 3).map(lambda pool: pool + [-value for value in pool]))
columns = st.one_of(
    float_lists,
    float_lists.map(lambda cells: np.array(cells, dtype=float)),
    repeating(pools(st.integers())),
    repeating(pools(st.booleans())),
    repeating(pools(st.text(max_size=3))),
    repeating(pools(st.one_of(plain_floats, st.integers(-3, 3), st.booleans(), st.text(max_size=2)))),
)
numpy_columns = st.one_of(
    repeating(pools(st.floats(width=32))).map(lambda cells: np.array(cells, dtype=np.float32)),
    repeating(pools(st.integers(-2**63, 2**63 - 1))).map(lambda cells: np.array(cells, dtype=np.int64)),
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(columns)
@example([0.0, -0.0, *NAN_PAYLOADS, -0.0, 0.0])
@example(np.array([0.0, -0.0, *NAN_PAYLOADS, -0.0, 0.0]))
def test_a_column_formats_as_its_cells(cells):
    assert traceio._format_column(cells) == [_format_cell(cell) for cell in cells]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(numpy_columns)
def test_a_numpy_column_formats_as_its_list(cells):
    assert traceio._format_column(cells) == [_format_cell(cell) for cell in cells.tolist()]


#: arrays of every integer width and sign, bool, str and mixed objects, each formatted against its own cells
typed_columns = st.one_of(
    *(repeating(pools(st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))))
      .map(lambda cells, dtype=dtype: np.array(cells, dtype=dtype))
      for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)),
    repeating(pools(st.booleans())).map(lambda cells: np.array(cells, dtype=bool)),
    repeating(pools(st.text(max_size=3))).map(lambda cells: np.array(cells, dtype=object)),
    repeating(pools(st.one_of(plain_floats, st.integers(-3, 3), st.booleans(), st.text(max_size=2))))
    .map(lambda cells: np.array(cells, dtype=object)),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(typed_columns)
@example(np.array([0, -128, 127, 0, -1], dtype=np.int8))
@example(np.array([2**64 - 1, 0, 2**63], dtype=np.uint64))
def test_a_typed_array_renders_the_bytes_of_its_cells(cells):
    per_cell = [_format_cell(cell) for cell in cells]
    assert traceio._format_column(cells) == per_cell
    assert render_table(("c",), [cells]) == "\n".join(["c", *per_cell]) + "\n"


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

    @pytest.mark.parametrize("preset", ["fig7a", "fig7b"])
    def test_column_formatting_matches_per_cell_formatting(self, preset):
        config = build_config(preset, None, {}, "spectrum")
        grid = np.geomspace(config.sweep_min, config.sweep_max, config.sweep_points)
        columns = intensity_sweep(_transition_spec(config), grid, config.b1)
        # the same table as lists of Python cells: arrays and lists must render alike
        lists = {name: column.tolist() for name, column in columns.items()}
        per_cell = [",".join(SWEEP_COLUMNS)] + [
            ",".join(_format_cell(cell) for cell in row) for row in zip(*lists.values())]
        assert sweep_csv(columns) == sweep_csv(lists) == "\n".join(per_cell) + "\n"

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
