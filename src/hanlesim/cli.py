"""Command-line interface.

Subcommands
-----------
transient   simulate a switched-field absorption transient (CSV; optional fit)
spectrum    relaxation-mode table over an intensity grid (CSV)
fit         fit a trace CSV with one of the trace models (JSON)
steady      steady-state absorption vs static field (CSV)
transit     mean transit time of thermal atoms across the beam (JSON)
presets     list the named parameter sets

Configuration hierarchy, lowest to highest precedence: built-in defaults,
``--preset``, ``--config`` JSON file, explicit command-line flags.  Exit
codes: 0 success, 2 usage/configuration error, 3 numerical failure or out
of memory.  Output files are only written after the computation has fully
succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cache

import numpy as np

from . import traceio
from .dynamics import SwitchSchedule, _sector_steady, split_phases, switched_transient, transit_time
from .fit import fit as fit_trace, model_for_phase
from .liouvillian import TransitionSpec, affine_liouvillian, spec_meta
from .presets import get_preset, list_presets
from .spectral import intensity_sweep
from .traceio import load_trace, write_outputs

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: atomic masses in unified atomic mass units
ISOTOPE_MASS_AMU = {"Rb85": 84.911789738, "Rb87": 86.909180531}
#: the unified atomic mass unit in kg (CODATA 2022)
_ATOMIC_MASS_KG = 1.66053906892e-27


class ConfigError(ValueError):
    """Invalid configuration or command usage (exit code 2)."""


@dataclass
class RunConfig:
    """Flat run configuration; every key may appear in a ``--config`` file."""

    fg: float = 1.0
    fe: float = 0.0
    intensity: float = 0.02
    gamma: float = 0.002
    detuning: float = 0.0
    zeeman_g: float = 1.0
    zeeman_e: float = 0.0
    dipole_scale: float = 1.0
    polarization: str = "linear-y"
    b0: float = 0.0
    b1: float = 0.03
    period: float = 5000.0
    duty: float = 0.5
    n_periods: int = 1
    samples_per_period: int = 4000
    sweep_min: float = 1e-3
    sweep_max: float = 4.0
    sweep_points: int = 40
    intensities: tuple | None = None
    scan_b_min: float = -0.15
    scan_b_max: float = 0.15
    scan_b_points: int = 121
    fit_model: str = "auto"
    drop_exp_term: bool | None = None
    fit_phase: str = "on"


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}
_INT_FIELDS = {f.name for f in fields(RunConfig) if f.type == "int"}
_FLOAT_FIELDS = {f.name for f in fields(RunConfig) if f.type == "float"}
#: largest count of complex numbers numpy can index (the byte size must fit intp), and
#: largest (2Fg+1) + (2Fe+1) for which it can index the Liouville matrix, of that^4 entries
_MAX_COUNT = np.iinfo(np.intp).max // 16
_MAX_DIM = int(_MAX_COUNT ** 0.25)
#: the values a config may give each of these keys, as their flags do
_CHOICES = {"fit_phase": ("off", "on"), "fit_model": ("auto", "single_exp", "exp_plus_damped_sine")}


def build_config(preset_name=None, config_path=None, overrides=None,
                 expected_command=None) -> RunConfig:
    """Merge defaults, preset, config file and flag overrides into a RunConfig."""
    merged = asdict(RunConfig())
    if preset_name is not None:
        try:
            preset = get_preset(preset_name)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        if expected_command is not None and preset["command"] != expected_command:
            raise ConfigError(
                f"preset {preset_name!r} belongs to the {preset['command']!r} command"
            )
        merged.update(preset["config"])
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8-sig") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # too deep
            raise ConfigError(f"invalid JSON in {config_path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: config must be a JSON object")
        unknown = set(loaded) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})

    for name in _INT_FIELDS:
        value = merged[name]
        try:
            if isinstance(value, bool) or int(value) != value:  # a fraction, or a string like "4"
                raise ValueError
            merged[name] = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config key {name!r} must be an integer") from None
        if merged[name] > _MAX_COUNT:
            raise ConfigError(f"config key {name!r} exceeds {_MAX_COUNT}, more than numpy can index")
    if merged["n_periods"] * merged["samples_per_period"] > _MAX_COUNT:
        raise ConfigError(f"n_periods * samples_per_period exceeds {_MAX_COUNT}, more than "
                          "numpy can index")
    for name in _FLOAT_FIELDS:
        merged[name] = _finite(merged[name], f"config key {name!r} must be a finite number")
    if 2.0 * (merged["fg"] + merged["fe"]) + 2.0 > _MAX_DIM:
        raise ConfigError("fg and fe give a Liouville matrix larger than numpy can index")
    if merged["intensities"] is not None:
        message = "config key 'intensities' must be a list of finite numbers"
        if not isinstance(merged["intensities"], (list, tuple)):
            raise ConfigError(message)
        merged["intensities"] = tuple(_finite(v, message) for v in merged["intensities"])
    if not (merged["drop_exp_term"] is None or isinstance(merged["drop_exp_term"], bool)):
        raise ConfigError("config key 'drop_exp_term' must be true, false or null")
    if not isinstance(merged["polarization"], str):
        raise ConfigError("config key 'polarization' must be a string")
    for name, allowed in _CHOICES.items():
        if merged[name] not in allowed:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, allowed))}")
    return RunConfig(**merged)


def _finite(value, message: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(message) from None
    if isinstance(value, (bool, str)) or not math.isfinite(number):
        raise ConfigError(message)
    return number


def _transition_spec(config: RunConfig) -> TransitionSpec:
    base = TransitionSpec(
        fg=config.fg,
        fe=config.fe,
        rabi=0.0,
        gamma=config.gamma,
        detuning=config.detuning,
        zeeman_g=config.zeeman_g,
        zeeman_e=config.zeeman_e,
        pol=config.polarization,
        dipole_scale=config.dipole_scale,
    )
    return base.with_intensity(config.intensity)


def _schedule(config: RunConfig) -> SwitchSchedule:
    return SwitchSchedule(
        b1=config.b1,
        b0=config.b0,
        period=config.period,
        duty=config.duty,
        n_periods=config.n_periods,
        samples_per_period=config.samples_per_period,
    )


def _fit_json(trace, config: RunConfig, switched: bool) -> str:
    """Fit one field phase of ``trace`` as ``config`` asks; the fit as JSON text.

    A ``switched`` trace (a ``transient`` record) must hold both field
    phases; any other trace is cut only when its field changes.  The model
    comes from :func:`hanlesim.fit.model_for_phase`.  A fit that cannot be
    made raises ValueError.
    """
    if switched or np.ptp(trace.b) > 0:
        phases = split_phases(trace)
        if len(phases) < 2:
            raise ConfigError(f"trace holds fewer than two field phases; no {config.fit_phase!r} "
                              "phase to fit")
        trace = phases[0] if config.fit_phase == "off" else phases[1]
    model = model_for_phase(trace.meta, config.fit_model, config.drop_exp_term)
    return traceio.render_fit(fit_trace(trace, model))


def cmd_transient(args) -> int:
    config = build_config(args.preset, args.config, _flag_overrides(args), "transient")
    spec = _transition_spec(config)
    schedule = _schedule(config)
    trace = switched_transient(spec, schedule)
    csv_text = traceio.render_trace(trace)

    outputs = [(csv_text, args.output)]
    if args.with_fit or args.fit_output is not None:
        outputs.append((_fit_json(trace, config, switched=True), args.fit_output))
    write_outputs(*outputs)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    config = build_config(args.preset, args.config, _flag_overrides(args), "spectrum")
    spec = _transition_spec(config)
    if config.intensities is not None:
        intensities = np.array(config.intensities, dtype=float)
    else:
        if config.sweep_points < 1:
            raise ConfigError("sweep_points must be at least 1")
        if config.sweep_min <= 0 or config.sweep_max <= 0:
            raise ConfigError("sweep bounds must be positive for a geometric grid")
        intensities = np.geomspace(config.sweep_min, config.sweep_max, config.sweep_points)
    if intensities.size == 0 or np.any(intensities <= 0):
        raise ConfigError("intensity grid must be nonempty and positive")
    columns = intensity_sweep(spec, intensities, b1=config.b1)
    write_outputs((traceio.render_table(list(columns), list(columns.values())), args.output))
    return EXIT_OK


def cmd_fit(args) -> int:
    config = build_config(None, args.config, _flag_overrides(args), None)
    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        raise ConfigError(f"cannot read trace: {exc}") from None

    write_outputs((_fit_json(trace, config, switched=False), args.output))
    return EXIT_OK


def cmd_steady(args) -> int:
    config = build_config(args.preset, args.config, _flag_overrides(args), None)
    spec = _transition_spec(config)
    if config.scan_b_points < 1:
        raise ConfigError("scan_b_points must be at least 1")
    grid = np.linspace(config.scan_b_min, config.scan_b_max, config.scan_b_points)
    affine = affine_liouvillian(spec)
    w = _sector_steady(affine, spec.rabi, grid) @ affine.sector.weights
    write_outputs((traceio.render_table(("b", "w"), (grid, w), spec_meta(spec)), args.output))
    return EXIT_OK


def cmd_transit(args) -> int:
    if args.mass_amu is not None:
        mass_amu = args.mass_amu
    else:
        mass_amu = ISOTOPE_MASS_AMU[args.isotope]
    mass_kg = mass_amu * _ATOMIC_MASS_KG
    tau = transit_time(args.diameter_m, args.temperature_k, mass_kg)
    payload = {
        "diameter_m": args.diameter_m,
        "temperature_k": args.temperature_k,
        "mass_amu": mass_amu,
        "mass_kg": mass_kg,
        "transit_time_s": tau,
    }
    write_outputs((json.dumps(payload, indent=2) + "\n", args.output))
    return EXIT_OK


def cmd_presets(args) -> int:
    lines = [f"{name:8s}  {command:9s}  {description}"
             for name, command, description in list_presets()]
    write_outputs(("\n".join(lines) + "\n", None))
    return EXIT_OK


_FLAG_FIELDS = sorted(_CONFIG_FIELDS - {"intensities"})


def _flag_overrides(args) -> dict:
    overrides = {name: getattr(args, name, None) for name in _FLAG_FIELDS}
    raw = getattr(args, "intensities", None)
    if raw is not None:
        try:
            overrides["intensities"] = tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"cannot parse intensity list {raw!r}") from None
        if not overrides["intensities"]:
            raise ConfigError("intensity list is empty")
    return overrides


def _add_common(parser, with_preset=True):
    if with_preset:
        parser.add_argument("--preset", help="named parameter set (see 'presets')")
    parser.add_argument("--config", help="JSON file with configuration keys")
    parser.add_argument("--output", help="output file path (default: stdout)")


def _add_physics_flags(parser):
    parser.add_argument("--fg", type=float, help="ground-state angular momentum F")
    parser.add_argument("--fe", type=float, help="excited-state angular momentum F")
    parser.add_argument("--intensity", type=float, help="squared Rabi frequency")
    parser.add_argument("--gamma", type=float, help="ground-state relaxation rate")
    parser.add_argument("--detuning", type=float, help="optical detuning")
    parser.add_argument("--zeeman-g", type=float, dest="zeeman_g",
                        help="ground-state Zeeman shift per unit field")
    parser.add_argument("--zeeman-e", type=float, dest="zeeman_e",
                        help="excited-state Zeeman shift per unit field")
    parser.add_argument("--dipole-scale", type=float, dest="dipole_scale",
                        help="relative transition strength factor")
    parser.add_argument("--polarization", help="linear-x, linear-y, sigma+ or sigma-")


def _add_fit_flags(parser):
    parser.add_argument("--fit-phase", dest="fit_phase", choices=_CHOICES["fit_phase"],
                        help="switching phase to fit when the record holds both (default: on)")
    parser.add_argument("--model", dest="fit_model", choices=_CHOICES["fit_model"],
                        help="trace model (default: auto, single_exp at zero field)")
    parser.add_argument("--drop-exp-term", dest="drop_exp_term",
                        action=argparse.BooleanOptionalAction, default=None,
                        help="drop the non-oscillating term (default: when Fe = Fg + 1)")


@cache  # built once; parse_args returns a fresh namespace per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanlesim",
        description="transient response of degenerate two-level atoms to a switched field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transient", help="simulate a switched-field transient")
    _add_common(p)
    _add_physics_flags(p)
    p.add_argument("--b1", type=float, help="switched-on magnetic field")
    p.add_argument("--b0", type=float, help="switched-off magnetic field")
    p.add_argument("--period", type=float, help="switching period")
    p.add_argument("--duty", type=float, help="fraction of the period at b0")
    p.add_argument("--n-periods", type=int, dest="n_periods", help="number of periods")
    p.add_argument("--samples-per-period", type=int, dest="samples_per_period",
                   help="output samples per period")
    p.add_argument("--with-fit", action="store_true", help="also fit one phase")
    p.add_argument("--fit-output", dest="fit_output",
                   help="fit JSON path (default: stdout; implies --with-fit)")
    _add_fit_flags(p)
    p.set_defaults(handler=cmd_transient)

    p = sub.add_parser("spectrum", help="relaxation modes over an intensity grid")
    _add_common(p)
    _add_physics_flags(p)
    p.add_argument("--b1", type=float, help="field of the B1 case")
    p.add_argument("--sweep-min", type=float, dest="sweep_min",
                   help="smallest intensity of the geometric grid")
    p.add_argument("--sweep-max", type=float, dest="sweep_max",
                   help="largest intensity of the geometric grid")
    p.add_argument("--sweep-points", type=int, dest="sweep_points",
                   help="number of grid points")
    p.add_argument("--intensities", help="explicit comma-separated intensity list")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("fit", help="fit a trace CSV")
    _add_common(p, with_preset=False)
    p.add_argument("--trace", required=True, help="input trace CSV")
    _add_fit_flags(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("steady", help="steady-state absorption vs static field")
    _add_common(p)
    _add_physics_flags(p)
    p.add_argument("--scan-b-min", type=float, dest="scan_b_min", help="scan start")
    p.add_argument("--scan-b-max", type=float, dest="scan_b_max", help="scan end")
    p.add_argument("--scan-b-points", type=int, dest="scan_b_points",
                   help="number of scan points")
    p.set_defaults(handler=cmd_steady)

    p = sub.add_parser("transit", help="thermal transit time across the beam")
    p.add_argument("--diameter-m", type=float, dest="diameter_m", required=True,
                   help="beam diameter in meters")
    p.add_argument("--temperature-k", type=float, dest="temperature_k", required=True,
                   help="vapor temperature in kelvin")
    p.add_argument("--isotope", choices=sorted(ISOTOPE_MASS_AMU), default="Rb87",
                   help="atom species (default: Rb87)")
    p.add_argument("--mass-amu", type=float, dest="mass_amu",
                   help="explicit atomic mass in u (overrides --isotope)")
    p.add_argument("--output", help="output file path (default: stdout)")
    p.set_defaults(handler=cmd_transit)

    p = sub.add_parser("presets", help="list the named parameter sets")
    p.set_defaults(handler=cmd_presets)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place that turns its failure into an exit code.

    On a failure its ``hanlesim:`` line leads stderr, then the warnings raised.
    """
    args = build_parser().parse_args(argv)
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.handler(args)
        except (np.linalg.LinAlgError, ArithmeticError) as exc:  # overflow, division by zero
            code, failure = EXIT_NUMERICAL, f"hanlesim: numerical failure: {exc}"
        except ValueError as exc:  # ConfigError, bad JSON and the library's checks of its inputs
            code, failure = EXIT_USAGE, f"hanlesim: {exc}"
        except OSError as exc:  # every input is read under its own handler
            code, failure = EXIT_USAGE, f"hanlesim: cannot write output: {exc}"
        except MemoryError as exc:
            code, failure = EXIT_NUMERICAL, f"hanlesim: out of memory: {exc}"
    if failure is not None:
        print(failure, *(f"hanlesim: warning: {warning.message}" for warning in caught),
              sep="\n", file=sys.stderr)
        return code
    for warning in caught:  # re-emitted as they were raised
        warnings.showwarning(warning.message, warning.category, warning.filename, warning.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
