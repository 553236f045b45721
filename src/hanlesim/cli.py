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
codes: 0 success, 2 usage/configuration error, 3 numerical failure.  Output
files are only written after the computation has fully succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.constants import atomic_mass

from . import traceio
from .dynamics import (
    SwitchSchedule,
    split_phases,
    steady_state,
    switched_transient,
    transit_time,
)
from .fit import FitModel, fit as fit_trace
from .liouvillian import TransitionSpec, absorption, build_liouvillian
from .presets import get_preset, list_presets
from .spectral import intensity_sweep
from .traceio import load_trace

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: atomic masses in unified atomic mass units
ISOTOPE_MASS_AMU = {"Rb85": 84.911789738, "Rb87": 86.909180531}


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
_INT_FIELDS = {"n_periods", "samples_per_period", "sweep_points", "scan_b_points"}
_FLOAT_FIELDS = {
    "fg", "fe", "intensity", "gamma", "detuning", "zeeman_g", "zeeman_e", "dipole_scale",
    "b0", "b1", "period", "duty", "sweep_min", "sweep_max", "scan_b_min", "scan_b_max",
}


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
            with open(config_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
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
        try:
            merged[name] = int(merged[name])
        except (TypeError, ValueError):
            raise ConfigError(f"config key {name!r} must be an integer") from None
    for name in _FLOAT_FIELDS:
        merged[name] = _finite(merged[name], f"config key {name!r} must be a finite number")
    if merged["intensities"] is not None:
        message = "config key 'intensities' must be a list of finite numbers"
        try:
            merged["intensities"] = tuple(_finite(v, message) for v in merged["intensities"])
        except TypeError:
            raise ConfigError(message) from None
    return RunConfig(**merged)


def _finite(value, message: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(message) from None
    if not math.isfinite(number):
        raise ConfigError(message)
    return number


def _transition_spec(config: RunConfig) -> TransitionSpec:
    try:
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
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _schedule(config: RunConfig) -> SwitchSchedule:
    try:
        return SwitchSchedule(
            b1=config.b1,
            b0=config.b0,
            period=config.period,
            duty=config.duty,
            n_periods=config.n_periods,
            samples_per_period=config.samples_per_period,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_text(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _fit_model_for(config: RunConfig, phase: str) -> FitModel:
    kind = config.fit_model
    if kind == "auto":
        kind = "single_exp" if phase == "off" else "exp_plus_damped_sine"
    if kind == "single_exp":
        return FitModel(kind)
    drop = config.drop_exp_term
    if drop is None:
        drop = float(config.fe) == float(config.fg) + 1.0
    return FitModel(kind, drop_exp_term=bool(drop))


def cmd_transient(args) -> int:
    config = build_config(args.preset, args.config, _flag_overrides(args), "transient")
    spec = _transition_spec(config)
    schedule = _schedule(config)
    trace = switched_transient(spec, schedule)
    csv_text = traceio.render_trace(trace)

    fit_text = None
    if args.with_fit or args.fit_output is not None:
        if config.fit_phase not in ("off", "on"):
            raise ConfigError("fit_phase must be 'off' or 'on'")
        phases = split_phases(trace)
        segment = phases[0] if config.fit_phase == "off" else phases[1]
        model = _fit_model_for(config, config.fit_phase)
        result = fit_trace(segment, model)
        fit_text = traceio.render_fit(result)

    _write_text(csv_text, args.output)
    if fit_text is not None:
        _write_text(fit_text, args.fit_output)
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
    rows = intensity_sweep(spec, intensities, b1=config.b1)
    _write_text(traceio.render_sweep(rows), args.output)
    return EXIT_OK


def cmd_fit(args) -> int:
    config = build_config(None, args.config, _flag_overrides(args), None)
    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        raise ConfigError(f"cannot read trace: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    # a trace holding a full switching cycle is cut down to one phase
    if np.ptp(trace.b) > 0:
        if config.fit_phase not in ("off", "on"):
            raise ConfigError("fit_phase must be 'off' or 'on'")
        phases = split_phases(trace)
        trace = phases[0] if config.fit_phase == "off" else phases[1]

    kind = config.fit_model
    if kind == "auto":
        phase_b = trace.meta.get("phase_b")
        if phase_b is None:
            raise ConfigError(
                "trace has no phase_b metadata; choose a model with --model"
            )
        kind = "single_exp" if float(phase_b) == 0.0 else "exp_plus_damped_sine"
    if kind == "single_exp":
        model = FitModel(kind)
    else:
        drop = config.drop_exp_term
        if drop is None:
            fg, fe = trace.meta.get("fg"), trace.meta.get("fe")
            drop = fg is not None and fe is not None and float(fe) == float(fg) + 1.0
        model = FitModel(kind, drop_exp_term=bool(drop))
    try:
        result = fit_trace(trace, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write_text(traceio.render_fit(result), args.output)
    return EXIT_OK


def cmd_steady(args) -> int:
    config = build_config(args.preset, args.config, _flag_overrides(args), None)
    spec = _transition_spec(config)
    if config.scan_b_points < 1:
        raise ConfigError("scan_b_points must be at least 1")
    grid = np.linspace(config.scan_b_min, config.scan_b_max, config.scan_b_points)
    rows = []
    for b in grid:
        sigma = steady_state(build_liouvillian(spec.with_field(float(b))))
        rows.append((float(b), absorption(sigma, spec)))
    meta = {
        "fg": spec.fg.f, "fe": spec.fe.f, "intensity": spec.intensity,
        "gamma": spec.gamma, "detuning": spec.detuning,
        "zeeman_g": spec.zeeman_g, "zeeman_e": spec.zeeman_e,
        "dipole_scale": spec.dipole_scale, "polarization": spec.pol,
    }
    _write_text(traceio.render_table(("b", "w"), rows, meta), args.output)
    return EXIT_OK


def cmd_transit(args) -> int:
    if args.diameter_m is None or args.temperature_k is None:
        raise ConfigError("transit requires --diameter-m and --temperature-k")
    if args.mass_amu is not None:
        mass_amu = args.mass_amu
    else:
        mass_amu = ISOTOPE_MASS_AMU[args.isotope]
    if mass_amu <= 0:
        raise ConfigError("mass must be positive")
    mass_kg = mass_amu * atomic_mass
    try:
        tau = transit_time(args.diameter_m, args.temperature_k, mass_kg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    payload = {
        "diameter_m": args.diameter_m,
        "temperature_k": args.temperature_k,
        "mass_amu": mass_amu,
        "mass_kg": mass_kg,
        "transit_time_s": tau,
    }
    _write_text(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_presets(args) -> int:
    lines = [f"{name:8s}  {command:9s}  {description}"
             for name, command, description in list_presets()]
    _write_text("\n".join(lines) + "\n", None)
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
    parser.add_argument("--b1", type=float, help="switched-on magnetic field")
    parser.add_argument("--b0", type=float, help="switched-off magnetic field")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanlesim",
        description="transient response of degenerate two-level atoms to a switched field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transient", help="simulate a switched-field transient")
    _add_common(p)
    _add_physics_flags(p)
    p.add_argument("--period", type=float, help="switching period")
    p.add_argument("--duty", type=float, help="fraction of the period at b0")
    p.add_argument("--n-periods", type=int, dest="n_periods", help="number of periods")
    p.add_argument("--samples-per-period", type=int, dest="samples_per_period",
                   help="output samples per period")
    p.add_argument("--with-fit", action="store_true", help="also fit one phase")
    p.add_argument("--fit-output", dest="fit_output",
                   help="fit JSON path (default: stdout; implies --with-fit)")
    p.add_argument("--fit-phase", dest="fit_phase", choices=("off", "on"),
                   help="which switching phase to fit (default: on)")
    p.add_argument("--model", dest="fit_model",
                   choices=("auto", "single_exp", "exp_plus_damped_sine"),
                   help="trace model for the fit")
    p.add_argument("--drop-exp-term", dest="drop_exp_term",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="drop the non-oscillating term (default: auto by transition)")
    p.set_defaults(handler=cmd_transient)

    p = sub.add_parser("spectrum", help="relaxation modes over an intensity grid")
    _add_common(p)
    _add_physics_flags(p)
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
    p.add_argument("--fit-phase", dest="fit_phase", choices=("off", "on"),
                   help="phase to fit when the trace holds a full cycle (default: on)")
    p.add_argument("--model", dest="fit_model",
                   choices=("auto", "single_exp", "exp_plus_damped_sine"),
                   help="trace model (default: auto from trace metadata)")
    p.add_argument("--drop-exp-term", dest="drop_exp_term",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="drop the non-oscillating term (default: auto)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"hanlesim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:
        print(f"hanlesim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FloatingPointError, OverflowError) as exc:
        print(f"hanlesim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
