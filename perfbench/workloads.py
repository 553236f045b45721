"""Timed operations and correctness checks of the four workloads.

Each workload's *pass* is a fixed list of op descriptions (plain dicts)
drawn from the seed by ``inputs.make_inputs``.  A run repeats the pass until
its time is up, so every op runs many times on the same input.  Every
workload object has three methods:

``prepare(op)``   untimed: builds what the op takes as given and clears old outputs
``run(op, ctx)``  timed: the op itself, through ``hanlesim.cli.main`` or the library
``check(op, ctx, out)``  untimed: compares the op's output with an independent
                  reference and returns the largest deviation as a share of
                  its tolerance; raises ``CheckFailed`` when that exceeds 1

References are cached per input, so after the first pass a check costs a
lookup and a comparison.  Ops call the program through
module attributes (``cli.main``, ``dynamics.switched_transient``) so that the
tracer's rebinding of those attributes sees them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from hanlesim import cli, dynamics
from hanlesim.dynamics import SwitchSchedule, propagate_modal
from hanlesim.liouvillian import (
    TransitionSpec,
    absorption,
    build_liouvillian,
    coupling_absorption,
    devectorize,
)
from hanlesim.presets import BASE, get_preset

HERE = Path(__file__).resolve().parent
REFERENCE_PRESETS = HERE / "reference_presets.json"

#: steady scans sample the CLI's default field range at this many points
SCAN_POINTS = 201
#: the oracle integrates the first ORACLE_T_END time units (2000 steps) of the
#: 2500-long field-on phase, so a 24 s run holds over 100 ops for its percentiles
ORACLE_DT = 0.05
ORACLE_T_END = 100.0

#: trace samples kept in the presets reference (every W_STRIDE-th)
W_STRIDE = 20
#: relative tolerance on traces, spectra and scans (against the largest value)
REL_TOL = 1e-9
#: fit parameters may move by this share of their value plus FIT_SIGMA_TOL of
#: their reported uncertainty
FIT_RTOL = 1e-5
FIT_SIGMA_TOL = 1e-3
#: criterion 03's bound on |w_rk4 - w_modal|
ORACLE_ABS_TOL = 1e-8
#: sample indices of a ladder transient checked against the expm propagator
LADDER_SAMPLES = (0, 1, 1000, 1999, 2000, 2001, 3000, 3999)


class CheckFailed(AssertionError):
    """An op produced output that disagrees with its reference."""


class OpFailed(RuntimeError):
    """A CLI op returned a nonzero exit code."""


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"hanlesim {argv[0]} exited with code {code}")


def _key(op: dict) -> tuple:
    return tuple(sorted(op.items()))


def preset_spec(fg, fe, intensity, **overrides) -> TransitionSpec:
    """The spec ``cli`` builds from the preset baseline plus ``overrides``."""
    config = dict(BASE, **overrides)
    return TransitionSpec(
        fg=fg, fe=fe, rabi=0.0, gamma=config["gamma"], detuning=config["detuning"],
        zeeman_g=config["zeeman_g"], zeeman_e=config["zeeman_e"],
        pol=config["polarization"], dipole_scale=config["dipole_scale"],
    ).with_intensity(intensity)


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _rel_dev(values, reference) -> float:
    values, reference = np.asarray(values), np.asarray(reference)
    if values.shape != reference.shape:
        raise CheckFailed(f"shape {values.shape} != reference {reference.shape}")
    scale = max(float(np.abs(reference).max()), np.finfo(float).tiny)
    return float(np.abs(values - reference).max()) / scale


def _require(dev: float, tol: float, what: str) -> float:
    """``dev`` as a share of ``tol``; raises when the share exceeds 1 (or is NaN)."""
    if not dev <= tol:
        raise CheckFailed(f"{what}: deviation {dev:.3e} exceeds {tol:.1e}")
    return dev / tol


def _once(verdicts: dict, op: dict, paths, check) -> float:
    """``check()`` for output files whose bytes were not yet verified for this op.

    Repeats of an op usually write byte-identical files; their verdict is
    reused so that parsing does not dominate a run's wall time.
    """
    digest = hashlib.sha256(b"\0".join(path.read_bytes() for path in paths)).digest()
    key = (_key(op), digest)
    if key not in verdicts:
        verdicts[key] = check()
    return verdicts[key]


def compare_fit(payload: dict, reference: dict, what: str) -> float:
    """Largest fit-parameter deviation in units of its allowed band; fails above 1."""
    params, ref = payload["params"], reference["params"]
    if set(params) != set(ref):
        raise CheckFailed(f"{what}: parameters {sorted(params)} != {sorted(ref)}")
    worst = 0.0
    for name, value in ref.items():
        band = FIT_RTOL * abs(value) + FIT_SIGMA_TOL * reference["uncertainties"][name]
        worst = max(worst, abs(params[name] - value) / max(band, np.finfo(float).tiny))
    return _require(worst, 1.0, what)


class Presets:
    """Paper transient presets through the CLI: transient + on-phase fit, then off-phase fit."""

    def __init__(self, out_dir: Path):
        self.trace = out_dir / "trace.csv"
        self.fit_on = out_dir / "fit_on.json"
        self.fit_off = out_dir / "fit_off.json"
        self.reference = json.loads(REFERENCE_PRESETS.read_text(encoding="utf-8"))
        self.verdicts = {}

    def prepare(self, op):
        for path in (self.trace, self.fit_on, self.fit_off):
            path.unlink(missing_ok=True)

    def run(self, op, ctx):
        _cli(["transient", "--preset", op["preset"], "--with-fit",
              "--output", str(self.trace), "--fit-output", str(self.fit_on)])
        _cli(["fit", "--trace", str(self.trace), "--fit-phase", "off",
              "--output", str(self.fit_off)])

    def check(self, op, ctx, out):
        return _once(self.verdicts, op, (self.trace, self.fit_on, self.fit_off),
                     lambda: check_presets_outputs(self.reference[op["preset"]], self.trace,
                                                   self.fit_on, self.fit_off, op["preset"]))


def check_presets_outputs(ref: dict, trace: Path, fit_on: Path, fit_off: Path, what: str) -> float:
    header, rows = _csv_rows(trace)
    w = np.array([float(row[header.index("w")]) for row in rows])
    if w.size != ref["n"]:
        raise CheckFailed(f"{what}: {w.size} trace samples, reference has {ref['n']}")
    return max(
        _require(_rel_dev(w[::W_STRIDE], ref["w"]), REL_TOL, f"{what} trace w"),
        compare_fit(json.loads(fit_on.read_text()), ref["fit_on"], f"{what} on-phase fit"),
        compare_fit(json.loads(fit_off.read_text()), ref["fit_off"], f"{what} off-phase fit"),
    )


def expm_samples(spec: TransitionSpec, schedule: SwitchSchedule, indices) -> np.ndarray:
    """Absorption at sample ``indices`` of a one-period switched transient.

    Steps the augmented affine system d/dt [y; 1] = [[M, p0], [0, 0]] [y; 1]
    exactly with ``scipy.linalg.expm``, phase by phase, from the steady state
    of the phase that precedes the record.  Uses no eigendecomposition.
    """
    def augmented(b):
        liouv = build_liouvillian(spec.with_field(b))
        size = liouv.pump.size
        a = np.zeros((size + 1, size + 1), dtype=complex)
        a[:size, :size] = liouv.matrix
        a[:size, size] = liouv.pump
        return liouv, a

    (b0, d0, n0), (b1, d1, n1) = schedule.phases()
    liouv0, a0 = augmented(b0)
    liouv1, a1 = augmented(b1)
    y_start = np.append(scipy.linalg.solve(liouv1.matrix, -liouv1.pump), 1.0)
    y_switch = scipy.linalg.expm(a0 * d0) @ y_start
    out = []
    for index in indices:
        if index < n0:
            liouv, a, y, t = liouv0, a0, y_start, index * d0 / n0
        else:
            liouv, a, y, t = liouv1, a1, y_switch, (index - n0) * d1 / n1
        y_t = scipy.linalg.expm(a * t) @ y
        out.append(coupling_absorption(devectorize(y_t[:-1]), liouv.coupling).real)
    return np.array(out)


class Ladder:
    """``switched_transient`` through the library for Fg -> Fe = 2->3, 3->3, 3->4."""

    def __init__(self, out_dir: Path):
        self.refs = {}

    def prepare(self, op):
        spec = preset_spec(op["fg"], op["fe"], op["intensity"])
        return spec, SwitchSchedule(b1=op["b1"], b0=BASE["b0"], period=BASE["period"],
                                    duty=BASE["duty"], n_periods=BASE["n_periods"],
                                    samples_per_period=BASE["samples_per_period"])

    def run(self, op, ctx):
        return dynamics.switched_transient(*ctx)

    def check(self, op, ctx, trace):
        key = _key(op)
        if key not in self.refs:
            self.refs[key] = expm_samples(*ctx, LADDER_SAMPLES)
        if trace.w.size != BASE["samples_per_period"]:
            raise CheckFailed(f"ladder {op}: {trace.w.size} samples")
        return _require(_rel_dev(trace.w[list(LADDER_SAMPLES)], self.refs[key]), REL_TOL,
                        f"ladder {op['fg']}->{op['fe']} vs expm")


def matched_distance(values, reference) -> float:
    """Largest distance between two complex multisets under the best pairing."""
    values, reference = np.asarray(values), np.asarray(reference)
    if values.size != reference.size:
        raise CheckFailed(f"{values.size} eigenvalues, reference has {reference.size}")
    cost = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


class Spectra:
    """fig7a / fig7b mode spectra and 201-point steady Hanle scans through the CLI."""

    def __init__(self, out_dir: Path):
        self.output = out_dir / "spectra.csv"
        self.refs = {}
        self.verdicts = {}

    def prepare(self, op):
        self.output.unlink(missing_ok=True)

    def run(self, op, ctx):
        if op["kind"] == "spectrum":
            argv = ["spectrum", "--preset", op["preset"]]
        else:
            argv = ["steady", "--fg", str(op["fg"]), "--fe", str(op["fe"]),
                    "--intensity", repr(op["intensity"]),
                    "--scan-b-points", str(SCAN_POINTS)]
        _cli(argv + ["--output", str(self.output)])

    def check(self, op, ctx, out):
        return _once(self.verdicts, op, (self.output,), lambda: self._check(op))

    def _check(self, op):
        header, rows = _csv_rows(self.output)
        if op["kind"] == "spectrum":
            return self._check_spectrum(op["preset"], header, rows)
        return self._check_steady(op, header, rows)

    def _check_spectrum(self, preset, header, rows):
        config = get_preset(preset)["config"]
        grid = np.geomspace(config["sweep_min"], config["sweep_max"], config["sweep_points"])
        col = {name: header.index(name) for name in ("intensity", "b_case", "re_lambda", "im_lambda")}
        groups = {}
        for row in rows:
            key = (float(row[col["intensity"]]), row[col["b_case"]])
            groups.setdefault(key, []).append(
                complex(float(row[col["re_lambda"]]), float(row[col["im_lambda"]])))
        expected = {(float(i), case) for i in grid for case in ("B0", "B1")}
        if set(groups) != expected:
            raise CheckFailed(f"{preset}: sweep grid differs from the preset's")
        worst = 0.0
        for (intensity, case), values in groups.items():
            key = (preset, intensity, case)
            if key not in self.refs:
                spec = preset_spec(config["fg"], config["fe"], intensity,
                             dipole_scale=config["dipole_scale"])
                b = 0.0 if case == "B0" else config["b1"]
                self.refs[key] = np.linalg.eigvals(build_liouvillian(spec.with_field(b)).matrix)
            ref = self.refs[key]
            worst = max(worst, matched_distance(values, ref) / np.abs(ref).max())
        return _require(worst, REL_TOL, f"{preset} eigenvalues vs eigvals")

    def _check_steady(self, op, header, rows):
        key = _key(op)
        defaults = cli.RunConfig()
        grid = np.linspace(defaults.scan_b_min, defaults.scan_b_max, SCAN_POINTS)
        if key not in self.refs:
            spec = preset_spec(op["fg"], op["fe"], op["intensity"], gamma=defaults.gamma)
            ref = []
            for b in grid:
                liouv = build_liouvillian(spec.with_field(float(b)))
                ref.append(absorption(scipy.linalg.solve(liouv.matrix, -liouv.pump), spec))
            self.refs[key] = np.array(ref)
        b_col, w_col = header.index("b"), header.index("w")
        b = np.array([float(row[b_col]) for row in rows])
        w = np.array([float(row[w_col]) for row in rows])
        if b.shape != grid.shape or np.any(b != grid):
            raise CheckFailed(f"steady {op['fg']}->{op['fe']}: field grid differs")
        return _require(_rel_dev(w, self.refs[key]), REL_TOL,
                        f"steady {op['fg']}->{op['fe']} vs scipy solve")


class Oracle:
    """Fixed-step RK4 ``propagate_integrated`` of a 1->2 field-on phase."""

    def __init__(self, out_dir: Path):
        self.cache = {}

    def prepare(self, op):
        key = _key(op)
        if key not in self.cache:
            spec = preset_spec(1, 2, op["intensity"])
            off = build_liouvillian(spec.with_field(BASE["b0"]))
            on = build_liouvillian(spec.with_field(BASE["b1"]))
            y0 = scipy.linalg.solve(off.matrix, -off.pump)
            self.cache[key] = {"liouv": on, "y0": y0, "ref": None}
        return self.cache[key]

    def run(self, op, ctx):
        return dynamics.propagate_integrated(ctx["liouv"], ctx["y0"], ORACLE_DT, ORACLE_T_END)

    def check(self, op, ctx, trace):
        if ctx["ref"] is None:
            ctx["ref"] = propagate_modal(ctx["liouv"], ctx["y0"], trace.times).w
        if trace.w.shape != ctx["ref"].shape:
            raise CheckFailed(f"oracle: {trace.w.size} samples, modal has {ctx['ref'].size}")
        dev = float(np.abs(trace.w - ctx["ref"]).max())
        return _require(dev, ORACLE_ABS_TOL, "oracle RK4 vs propagate_modal")


WORKLOADS = {"presets": Presets, "ladder": Ladder, "spectra": Spectra, "oracle": Oracle}
