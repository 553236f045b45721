"""Least-squares fitting of switched-field absorption transients.

Two trace models are supported, matching what the transients actually look
like: the field-off phase relaxes as a single exponential,

    single_exp:            y(t) = amp * exp(-rate * t) + offset,

and the field-on phase combines a slow non-oscillating recovery with a
damped oscillation at twice the ground-state Zeeman frequency,

    exp_plus_damped_sine:  y(t) = amp_exp * exp(-rate_exp * t)
                                  + amp_osc * exp(-rate_osc * t) * sin(freq * t + phase)
                                  + offset.

On enhanced-absorption transitions the non-oscillating term is absent and
can be forced to zero (``drop_exp_term``).  :func:`model_for_phase` is the
one rule that picks the model of a phase from its field and transition.

The optimizer is a damped Gauss-Newton iteration with a Levenberg-style
damping schedule (x10 on a rejected step, /10 on an accepted one), analytic
Jacobians built from the prediction's own terms at accepted points only (a
rejected trial step costs one residual), at most 200 trial steps and a
relative gradient tolerance of 1e-10.  Rates and the frequency are optimized
in log space, which enforces positivity without constraints.  Seeding is
deterministic: the frequency from the dominant discrete-Fourier bin of the
mean-subtracted trace, envelope rates from log-linear fits, the slow
amplitude from a moving-average split of the signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import atan2, isfinite, pi

import numpy as np

from .dynamics import SwitchSchedule, TransientTrace, split_phases, switched_transient
from .liouvillian import TransitionSpec

__all__ = [
    "FitModel",
    "FitResult",
    "fit",
    "model_for_phase",
    "rate_vs_intensity",
]

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10

_PARAM_NAMES = {
    ("single_exp", False): ("amp", "rate", "offset"),
    ("exp_plus_damped_sine", False): (
        "amp_exp", "rate_exp", "amp_osc", "rate_osc", "freq", "phase", "offset",
    ),
    ("exp_plus_damped_sine", True): ("amp_osc", "rate_osc", "freq", "phase", "offset"),
}

#: parameters optimized as logarithms (kept positive without constraints)
_LOG_PARAMS = frozenset({"rate", "rate_exp", "rate_osc", "freq"})


@dataclass(frozen=True)
class FitModel:
    """Which trace model to fit.

    ``kind`` is ``"single_exp"`` or ``"exp_plus_damped_sine"``;
    ``drop_exp_term`` removes the non-oscillating exponential term from the
    latter (enhanced-absorption transients have none).
    """

    kind: str
    drop_exp_term: bool = False

    def __post_init__(self):
        if self.kind not in ("single_exp", "exp_plus_damped_sine"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "single_exp" and self.drop_exp_term:
            raise ValueError("drop_exp_term only applies to exp_plus_damped_sine")

    @property
    def param_names(self) -> tuple:
        return _PARAM_NAMES[(self.kind, self.drop_exp_term)]


@dataclass
class FitResult:
    """Fitted parameters with diagnostics.

    ``params`` and ``uncertainties`` are keyed by the model's parameter
    names; uncertainties come from the residual covariance at the optimum.
    ``iterations`` counts optimizer trial steps (accepted and rejected);
    ``converged`` means the relative gradient tolerance was met.
    """

    kind: str
    params: dict
    uncertainties: dict
    rms: float
    iterations: int
    converged: bool
    seeds: dict = field(default_factory=dict)
    degenerate: bool = False


def evaluate_model(model: FitModel, params: dict, times: np.ndarray) -> np.ndarray:
    """Model prediction at the given times (external parameterization)."""
    return _predict(model, params, np.asarray(times, dtype=float))[0]


def _predict(model: FitModel, params: dict, t: np.ndarray):
    """(prediction, its exponentials and its oscillation's argument and sine)."""
    if model.kind == "single_exp":
        decay = np.exp(-params["rate"] * t)
        return params["amp"] * decay + params["offset"], (decay,)
    env = np.exp(-params["rate_osc"] * t)
    arg = params["freq"] * t
    arg += params["phase"]
    sin_a = np.sin(arg)
    prediction = params["amp_osc"] * env
    prediction *= sin_a
    prediction += params["offset"]
    if model.drop_exp_term:
        return prediction, (env, arg, sin_a)
    decay = np.exp(-params["rate_exp"] * t)
    prediction += params["amp_exp"] * decay
    return prediction, (env, arg, sin_a, decay)


def model_for_phase(meta: dict, kind: str = "auto", drop_exp_term: bool | None = None) -> FitModel:
    """The model to fit to one field phase, from the phase's metadata.

    ``kind="auto"`` picks ``single_exp`` when the phase's field
    ``meta["phase_b"]`` is zero and ``exp_plus_damped_sine`` otherwise.
    ``drop_exp_term=None`` drops the non-oscillating term exactly when
    ``meta`` records Fe = Fg + 1 (enhanced-absorption transitions show none).
    Raises ValueError when ``auto`` finds no ``phase_b``, when a metadata
    value it reads is not a finite number, or when ``kind`` is not a model.
    """
    if kind == "auto":
        if "phase_b" not in meta:
            raise ValueError("trace has no phase_b metadata; choose a model kind")
        kind = "single_exp" if _meta_number(meta, "phase_b") == 0.0 else "exp_plus_damped_sine"
    if kind == "single_exp":
        return FitModel(kind)
    if drop_exp_term is None:
        drop_exp_term = "fg" in meta and "fe" in meta and (
            _meta_number(meta, "fe") == _meta_number(meta, "fg") + 1.0)
    return FitModel(kind, drop_exp_term=bool(drop_exp_term))


def _meta_number(meta: dict, key: str) -> float:
    try:
        number = float(meta[key])
    except (TypeError, ValueError, OverflowError):
        number = float("nan")
    if not isfinite(number):
        raise ValueError(f"trace metadata {key!r} must be a finite number")
    return number


def _to_internal(model: FitModel, params: dict) -> np.ndarray:
    return np.array([np.log(max(params[name], 1e-300)) if name in _LOG_PARAMS else params[name]
                     for name in model.param_names], dtype=float)


def _to_external(model: FitModel, theta: np.ndarray) -> dict:
    return {name: float(np.exp(value)) if name in _LOG_PARAMS else float(value)
            for name, value in zip(model.param_names, theta)}


def _external_slope(model: FitModel, params: dict) -> np.ndarray:
    """d(external)/d(internal) per parameter: the value itself for a log parameter, else 1."""
    return np.array([params[name] if name in _LOG_PARAMS else 1.0 for name in model.param_names])


def _residual(model: FitModel, theta: np.ndarray, t: np.ndarray, y: np.ndarray):
    """(residual, external params, prediction terms) at internal parameters ``theta``."""
    params = _to_external(model, theta)
    prediction, terms = _predict(model, params, t)
    return np.subtract(prediction, y, out=prediction), params, terms


def _linearize(model: FitModel, params: dict, t: np.ndarray, terms: tuple, residual: np.ndarray):
    """(J, J^T r, J^T J, damping diagonal) from one point's :func:`_predict` terms.  J is a
    new (N, p) array in C order; J^T r from a (p, N) one rounds differently."""
    if model.kind == "single_exp":
        cols = [terms[0], -params["amp"] * t * terms[0]]
    else:
        env, arg, sin_a = terms[:3]
        cos_a = np.cos(arg)
        cols = [env * sin_a, -params["amp_osc"] * t * env * sin_a,
                params["amp_osc"] * t * env * cos_a, params["amp_osc"] * env * cos_a]
        if not model.drop_exp_term:
            cols = [terms[3], -params["amp_exp"] * t * terms[3]] + cols
    slope = _external_slope(model, params)
    jac = np.ones((t.size, slope.size))  # the last column, the offset's, stays 1
    for k, col in enumerate(cols):
        np.multiply(col, slope[k], out=jac[:, k])
    normal = jac.T @ jac
    diag = np.diag(normal)
    diag = np.maximum(diag, 1e-14 * max(diag.max(), np.finfo(float).tiny))
    return jac, jac.T @ residual, normal, diag


def _levenberg(model: FitModel, theta0: np.ndarray, t: np.ndarray, y: np.ndarray):
    """Damped Gauss-Newton steps until the gradient is small, the damping exceeds
    1e15, an accepted step moves theta by less than 1e-15 relative, or
    ``MAX_ITERATIONS`` trial steps; ``converged`` is the gradient test at the end.
    A trial step evaluates the residual only: J, J^T r and J^T J are formed at the
    start and at accepted points, and a rejected step repeats only the damped solve."""
    theta = theta0.copy()
    residual, params, terms = _residual(model, theta, t, y)
    cost = residual @ residual
    jac, gradient, normal, diag = _linearize(model, params, t, terms, residual)
    largest = np.abs(gradient).max()
    tolerance = GRADIENT_TOL * max(1.0, largest)
    damping = 1e-3
    iterations = 0
    # a trial point may overflow, giving a NaN or inf cost, which the test below rejects;
    # `not largest <= tolerance` keeps stepping at a NaN gradient, as at a large one
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < MAX_ITERATIONS and damping <= 1e15 and not largest <= tolerance:
            iterations += 1
            try:
                step = np.linalg.solve(normal + damping * np.diag(diag), -gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = theta + step
            trial_residual, params, terms = _residual(model, trial, t, y)
            trial_cost = trial_residual @ trial_residual
            if trial_cost < cost:
                relative_move = np.abs(step).max() / (1.0 + np.abs(theta).max())
                theta, residual, cost = trial, trial_residual, trial_cost
                jac, gradient, normal, diag = _linearize(model, params, t, terms, residual)
                largest = np.abs(gradient).max()
                damping = max(damping / 10.0, 1e-15)
                if relative_move < 1e-15:
                    break
            else:
                damping *= 10.0
    return theta, residual, jac, normal, cost, iterations, bool(largest <= tolerance)


def _moving_average(y: np.ndarray, width: int) -> np.ndarray:
    width = int(max(1, min(width, y.size)))
    kernel = np.ones(width)
    return np.convolve(y, kernel, "same") / np.convolve(np.ones_like(y), kernel, "same")


def _log_linear_rate(t: np.ndarray, values: np.ndarray, fallback: float) -> float:
    """Decay rate from a straight-line fit of log(values); clipped positive."""
    mask = values > 1e-2 * values.max() if values.size and values.max() > 0 else None
    if mask is None or mask.sum() < 3:
        return fallback
    slope = np.polyfit(t[mask], np.log(values[mask]), 1)[0]
    return max(-slope, 1e-3 * fallback)


def _envelope_rate(t: np.ndarray, oscillating: np.ndarray, fallback: float) -> float:
    """Decay rate of an oscillation from a log-linear fit through its peaks."""
    magnitude = np.abs(oscillating)
    if magnitude.size < 3 or magnitude.max() <= 0:
        return fallback
    interior = magnitude[1:-1]
    is_peak = (interior >= magnitude[:-2]) & (interior >= magnitude[2:]) & (
        interior > 1e-3 * magnitude.max()
    )
    peaks = np.flatnonzero(is_peak) + 1
    if peaks.size < 3:
        return fallback
    slope = np.polyfit(t[peaks], np.log(magnitude[peaks]), 1)[0]
    return max(-slope, 1e-3 * fallback)


def _seed_single_exp(t: np.ndarray, y: np.ndarray) -> dict:
    span = t[-1] - t[0] if t.size > 1 else 1.0
    offset = float(np.mean(y[-max(5, y.size // 20):]))
    amp = float(y[0] - offset)
    magnitude = np.abs(y - offset)
    rate = _log_linear_rate(t, magnitude, fallback=1.0 / span) if amp != 0 else 1.0 / span
    return {"amp": amp, "rate": float(rate), "offset": offset}


def _seed_damped_sine(t: np.ndarray, y: np.ndarray, drop_exp_term: bool) -> dict:
    n = y.size
    span = t[-1] - t[0] if n > 1 else 1.0
    dt = t[1] - t[0] if n > 1 else 1.0
    offset = float(np.mean(y[-max(5, n // 20):]))

    # frequency: detrend with a wide moving average first so the slow
    # exponential does not dominate the low-frequency bins, then take the
    # strongest nonzero bin of the residual's spectrum
    detrended = y - _moving_average(y, max(5, n // 20))
    spectrum = np.abs(np.fft.rfft(detrended))
    freq = 2.0 * pi / (span / 4.0)
    if spectrum.size > 1 and spectrum[1:].max() > 0:
        k = int(np.argmax(spectrum[1:])) + 1
        freq = 2.0 * pi * k / (n * dt)

    # split slow component from oscillation with a one-period moving average
    period_samples = max(3, int(round(2.0 * pi / freq / dt))) if freq > 0 else n
    slow = _moving_average(y, min(period_samples, n))
    oscillating = y - slow

    amp_osc = float(np.abs(oscillating).max())
    rate_osc = _envelope_rate(t, oscillating, fallback=2.0 / span)
    if amp_osc == 0.0:
        amp_osc = 1e-6 * max(np.abs(y - offset).max(), 1.0)

    derivative = (oscillating[1] - oscillating[0]) / dt if n > 1 else 0.0
    phase = atan2(freq * oscillating[0], derivative) if freq > 0 else 0.0

    seeds = {
        "amp_osc": amp_osc,
        "rate_osc": float(rate_osc),
        "freq": float(freq),
        "phase": float(phase),
        "offset": offset,
    }
    if not drop_exp_term:
        slow_part = slow - offset
        seeds["amp_exp"] = float(slow_part[0])
        seeds["rate_exp"] = float(
            _log_linear_rate(t, np.abs(slow_part), fallback=1.0 / span)
        )
    return seeds


def _normalize(params: dict) -> dict:
    """Canonical form: oscillation amplitude >= 0, phase in [-pi, pi)."""
    if "amp_osc" in params and params["amp_osc"] < 0:
        params["amp_osc"] = -params["amp_osc"]
        params["phase"] = params["phase"] + pi
    if "phase" in params:
        params["phase"] = (params["phase"] + pi) % (2.0 * pi) - pi
    return params


def _degenerate_result(model: FitModel, y: np.ndarray) -> FitResult:
    zeros = {name: 0.0 for name in model.param_names}
    return FitResult(kind=model.kind, params=zeros | {"offset": float(np.mean(y))},
                     uncertainties=zeros, rms=0.0, iterations=0, converged=True, degenerate=True)


def fit(trace: TransientTrace, model: FitModel, seeds: dict | None = None) -> FitResult:
    """Least-squares fit of one switching phase of a transient.

    Parameters
    ----------
    trace : TransientTrace
        Samples of a single switching phase (cut a switched trace with
        :func:`hanlesim.dynamics.split_phases` first).  Times are re-zeroed
        to the first sample, so the fitted phase refers to the phase start.
    model : FitModel
    seeds : dict, optional
        Overrides for individual auto-generated seed values, keyed by
        parameter name.

    Notes
    -----
    Fewer than 10 samples per parameter raise ValueError, even when constant.
    A perfectly constant trace short-circuits to amplitude 0, rate 0 and
    offset = mean, flagged ``degenerate=True``.  Non-convergence within the
    iteration budget is reported via ``converged=False``, not an exception;
    a cost or J^T J that overflows raises FloatingPointError.
    """
    t = np.asarray(trace.times, dtype=float)
    y = np.asarray(trace.w, dtype=float)
    if t.size != y.size or t.size == 0 or not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("trace must contain equal, nonzero numbers of finite times and samples")
    t = t - t[0]

    n_params = len(model.param_names)
    if t.size < 10 * n_params:
        raise ValueError(
            f"need at least {10 * n_params} samples to fit {n_params} parameters, got {t.size}"
        )

    if np.ptp(y) == 0.0:
        return _degenerate_result(model, y)

    if model.kind == "single_exp":
        seed_params = _seed_single_exp(t, y)
    else:
        seed_params = _seed_damped_sine(t, y, model.drop_exp_term)
    if seeds:
        unknown = set(seeds) - set(model.param_names)
        if unknown:
            raise ValueError(f"unknown seed parameters: {sorted(unknown)}")
        for name, value in seeds.items():
            real = isinstance(value, (int, float, np.integer, np.floating))
            if not (real and isfinite(value)) or (name in _LOG_PARAMS and value <= 0):
                positive = " positive" if name in _LOG_PARAMS else ""
                raise ValueError(f"seed {name!r} must be a finite{positive} number, got {value!r}")
        seed_params.update(seeds)

    theta0 = _to_internal(model, seed_params)
    theta, _, _, normal, cost, iterations, converged = _levenberg(model, theta0, t, y)
    params = _normalize(_to_external(model, theta))
    if not (np.isfinite(cost) and np.isfinite(normal).all()):
        raise FloatingPointError(f"fit cost {cost:.3e} or J^T J overflowed; rescale the trace")
    dof = max(t.size - n_params, 1)
    variance = cost / dof
    covariance = variance * np.linalg.pinv(normal)
    sigma_internal = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    sigmas = sigma_internal * np.abs(_external_slope(model, params))
    uncertainties = {name: float(sigma) for name, sigma in zip(model.param_names, sigmas)}
    return FitResult(
        kind=model.kind,
        params=params,
        uncertainties=uncertainties,
        rms=float(np.sqrt(cost / t.size)),
        iterations=iterations,
        converged=converged,
        seeds=seed_params,
    )


def rate_vs_intensity(
    spec: TransitionSpec,
    intensities,
    schedule: SwitchSchedule,
    drop_exp_term: bool | None = None,
) -> list[dict]:
    """Fitted decay rates of both switching phases over an intensity grid.

    For each squared Rabi frequency: simulate the switched transient and fit
    each phase with the model :func:`model_for_phase` picks, so the
    field-off phase gets ``single_exp`` and the field-on phase
    ``exp_plus_damped_sine``, whose non-oscillating term ``drop_exp_term``
    drops (default: exactly when Fe = Fg + 1).  Raises ValueError unless the
    schedule switches from b0 = 0 to a nonzero b1.

    Returns
    -------
    list of dict
        One row per intensity with keys ``intensity``, ``rate_b0`` (field-off
        decay rate), ``rate_exp`` (field-on non-oscillating rate, absent when
        dropped), ``rate_osc``, ``freq``, ``converged_b0``, ``converged_b1``.
    """
    if schedule.b0 != 0.0 or schedule.b1 == 0.0 or not 0.0 < schedule.duty < 1.0:
        raise ValueError("rate_vs_intensity needs a schedule that switches from b0 = 0 to b1 != 0")
    rows = []
    for intensity in intensities:
        phases = split_phases(switched_transient(spec.with_intensity(intensity), schedule))
        result_b0, result_b1 = (fit(phase, model_for_phase(phase.meta, drop_exp_term=drop_exp_term))
                                for phase in phases[:2])
        row = {
            "intensity": float(intensity),
            "rate_b0": result_b0.params["rate"],
            "rate_osc": result_b1.params["rate_osc"],
            "freq": result_b1.params["freq"],
            "converged_b0": result_b0.converged,
            "converged_b1": result_b1.converged,
        }
        if "rate_exp" in result_b1.params:
            row["rate_exp"] = result_b1.params["rate_exp"]
        rows.append(row)
    return rows
