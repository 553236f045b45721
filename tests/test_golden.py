"""The paper's transient presets against the stored reference the benchmark checks them with.

Each preset runs in-process as the CLI runs it (``transient --with-fit``, then
``fit --fit-phase off``), and its trace and both fits are compared with
``perfbench/reference_presets.json`` by perfbench's own check: a trace to 1e-9 of
its largest |w|, a fit parameter to 1e-5 of its value plus 1e-3 of its
uncertainty.  Within those tolerances, not bytes, so that another CPU or numpy
build passes.  The spectrum presets run as ``spectrum --preset``, and perfbench's
spectra check holds each point's eigenvalues to those of the assembled M, within
1e-9 of the largest |lambda|; their group and observability flags are not compared.
"""

import json
import sys
from pathlib import Path

import pytest

from hanlesim import cli, list_presets

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from workloads import CheckFailed, check_presets_outputs  # noqa: E402

REFERENCE = json.loads(workloads.REFERENCE_PRESETS.read_text(encoding="utf-8"))
TRANSIENT_PRESETS = [name for name, command, _ in list_presets() if command == "transient"]
SPECTRUM_PRESETS = [name for name, command, _ in list_presets() if command == "spectrum"]


def run_preset(name, directory):
    """(trace, on-phase fit, off-phase fit) paths of one preset run through ``cli.main``."""
    trace, fit_on, fit_off = (directory / f"{name}{suffix}" for suffix in (".csv", "_on.json", "_off.json"))
    assert cli.main(["transient", "--preset", name, "--with-fit",
                     "--output", str(trace), "--fit-output", str(fit_on)]) == 0
    assert cli.main(["fit", "--trace", str(trace), "--fit-phase", "off", "--output", str(fit_off)]) == 0
    return trace, fit_on, fit_off


def run_spectrum(name, directory):
    """(header, rows) of one spectrum preset's table, run through ``cli.main``."""
    table = directory / f"{name}.csv"
    assert cli.main(["spectrum", "--preset", name, "--output", str(table)]) == 0
    return workloads._csv_rows(table)


def test_the_reference_holds_every_transient_preset():
    assert sorted(REFERENCE) == sorted(TRANSIENT_PRESETS)


@pytest.mark.parametrize("name", TRANSIENT_PRESETS)
def test_preset_matches_the_reference(name, tmp_path):
    assert check_presets_outputs(REFERENCE[name], *run_preset(name, tmp_path), name) <= 1.0


def test_the_check_catches_a_changed_trace_sample_or_fit_parameter(tmp_path):
    name = "fig5e"
    paths = run_preset(name, tmp_path)
    trace, fit_on, fit_off = paths
    original = {path: path.read_text() for path in paths}

    # one w sample the reference keeps (every W_STRIDE-th row), moved by 1e-4 relative
    lines = original[trace].splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    column = lines[header].split(",").index("w")
    row = header + 1 + 3 * workloads.W_STRIDE
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-4))
    trace.write_text("\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n")
    with pytest.raises(CheckFailed, match="trace w"):
        check_presets_outputs(REFERENCE[name], *paths, name)

    # one fitted parameter of either phase, moved by 1e-4 relative
    for path, parameter in ((fit_on, "rate_exp"), (fit_off, "rate")):
        for restored in paths:
            restored.write_text(original[restored])
        payload = json.loads(original[path])
        payload["params"][parameter] *= 1.0 + 1e-4
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckFailed, match="fit"):
            check_presets_outputs(REFERENCE[name], *paths, name)


@pytest.mark.parametrize("name", SPECTRUM_PRESETS)
def test_spectrum_preset_matches_the_eigenvalues_of_the_assembled_matrix(name, tmp_path):
    header, rows = run_spectrum(name, tmp_path)
    assert workloads.Spectra(tmp_path)._check_spectrum(name, header, rows) <= 1.0


@pytest.mark.parametrize("name", SPECTRUM_PRESETS)
def test_the_check_catches_a_moved_eigenvalue(name, tmp_path):
    # the re_lambda cell of the first point's largest-|lambda| row, moved by 1e-6 relative
    header, rows = run_spectrum(name, tmp_path)
    intensity, case, re, im = (header.index(column)
                               for column in ("intensity", "b_case", "re_lambda", "im_lambda"))
    point = [row for row in rows if (row[intensity], row[case]) == (rows[0][intensity], rows[0][case])]
    largest = max(point, key=lambda row: abs(complex(float(row[re]), float(row[im]))))
    largest[re] = repr(float(largest[re]) * (1.0 + 1e-6))
    with pytest.raises(CheckFailed, match="eigenvalues vs eigvals"):
        workloads.Spectra(tmp_path)._check_spectrum(name, header, rows)
