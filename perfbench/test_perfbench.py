"""Tests of the benchmark itself: seeded inputs, metric names, and that checks catch bad output.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_repeat_for_a_seed(name):
    assert inputs.make_inputs(name, 7) == inputs.make_inputs(name, 7)


@pytest.mark.parametrize("name", ["ladder", "spectra", "oracle"])
def test_inputs_follow_the_seed(name):
    assert inputs.make_inputs(name, 7) != inputs.make_inputs(name, 8)


def test_ladder_draws_one_input_from_each_slice_of_the_ranges():
    ops = inputs.make_inputs("ladder", 7)
    n = inputs.LADDER_DRAWS
    log_edges = np.linspace(*np.log(inputs.INTENSITY_RANGE), n + 1)
    field_edges = np.linspace(*inputs.FIELD_RANGE, n + 1)
    for fg, fe in inputs.LADDER:
        draws = [op for op in ops if (op["fg"], op["fe"]) == (fg, fe)]
        slices = np.searchsorted(log_edges, np.log([op["intensity"] for op in draws]))
        assert sorted(slices) == list(range(1, n + 1))
        slices = np.searchsorted(field_edges, [op["b1"] for op in draws])
        assert sorted(slices) == list(range(1, n + 1))


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, capsys, monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: [0.5])
    code = run.main(["--workload", "oracle", "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    result = _last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[key]}


def _perturb_csv(path, column, row=0, factor=1.0 + 1e-4):
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) * factor + 1e-12)
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _run_and_check(workload, op):
    ctx = workload.prepare(op)
    out = workload.run(op, ctx)
    assert workload.check(op, ctx, out) <= 1.0
    return ctx, out


def test_presets_check_catches_changed_trace_and_fit(tmp_path):
    presets = workloads.Presets(tmp_path)
    op = {"preset": "fig5c"}
    ctx, out = _run_and_check(presets, op)
    _perturb_csv(presets.trace, "w", row=20)
    with pytest.raises(CheckFailed):
        presets.check(op, ctx, out)

    _run_and_check(presets, op)
    payload = json.loads(presets.fit_on.read_text())
    payload["params"]["freq"] *= 1.0 + 1e-4
    presets.fit_on.write_text(json.dumps(payload))
    with pytest.raises(CheckFailed):
        presets.check(op, ctx, out)


class _Synthetic:
    """A workload whose ops raise, return a wrong answer, or succeed."""

    def prepare(self, op):
        return None

    def run(self, op, ctx):
        if op == "raises":
            raise TypeError("synthetic")
        return op

    def check(self, op, ctx, out):
        if out == "wrong":
            raise CheckFailed("synthetic")
        return 0.5


def test_runner_counts_raising_and_incorrect_ops_as_failed():
    runner = run.Runner(_Synthetic(), ["ok", "raises", "wrong", "ok"])
    times = runner.run_passes(n_passes=3)
    assert [len(repeats) for repeats in times] == [3, 3, 3, 3]
    assert (runner.attempted, runner.failed, runner.incorrect) == (12, 6, 3)
    assert runner.max_dev_share == 0.5


def test_durations_are_scaled_by_the_calibration_of_nearby_ops():
    runner = run.Runner(_Synthetic(), ["ok"])
    runner.attempted = 1
    # the host runs at reference speed for the first ops, then at half speed
    times = [[1.0] * 8 + [2.0] * 12]
    cal_s = [run.CAL_REF_S] * 8 + [2 * run.CAL_REF_S] * 12
    values, info = run.end_to_end("oracle", runner, times, cal_s, setup=[0.5])
    assert values["op_s.p50"] == pytest.approx(1.0)
    assert values["ops_per_s"] == pytest.approx(1.0)
    assert info["raw_op_s.p50"] == 2.0


def test_ladder_check_catches_changed_trace(tmp_path):
    ladder = workloads.Ladder(tmp_path)
    op = {"fg": 2, "fe": 3, "intensity": 0.05, "b1": 0.02}
    ctx, trace = _run_and_check(ladder, op)
    trace.w[1000] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        ladder.check(op, ctx, trace)


@pytest.mark.parametrize("op, column", [
    ({"kind": "spectrum", "preset": "fig7a"}, "re_lambda"),
    ({"kind": "steady", "fg": 1, "fe": 0, "intensity": 0.03}, "w"),
])
def test_spectra_check_catches_changed_output(tmp_path, op, column):
    spectra = workloads.Spectra(tmp_path)
    ctx, out = _run_and_check(spectra, op)
    _perturb_csv(spectra.output, column, row=5)
    with pytest.raises(CheckFailed):
        spectra.check(op, ctx, out)


def test_oracle_check_catches_changed_trace(tmp_path):
    oracle = workloads.Oracle(tmp_path)
    op = {"intensity": 0.1}
    ctx, trace = _run_and_check(oracle, op)
    trace.w[-1] += 1e-7
    with pytest.raises(CheckFailed):
        oracle.check(op, ctx, trace)
