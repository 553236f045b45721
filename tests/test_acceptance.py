"""Acceptance suite: one test per shipped guarantee, run with ``pytest -v``.

Each test states its tolerance inline and computes every expected number from
the model itself (or from an independent oracle); nothing is tuned to pass.
One criterion is knowingly red — see the comment in
``test_criterion_06_zeno_slowdown``.
"""

import numpy as np
import pytest

from hanlesim import (
    FitModel,
    OpenLambdaSpec,
    SwitchSchedule,
    absorption,
    build_liouvillian,
    classify_groups,
    eigenmodes,
    fit,
    get_preset,
    list_presets,
    open_lambda_liouvillian,
    propagate_integrated,
    propagate_modal,
    steady_state,
    sweep_modes,
    switched_transient,
    trajectory_physicality,
    transit_time,
    vectorize,
)
from hanlesim.cli import ISOTOPE_MASS_AMU, _schedule, _transition_spec, build_config, main
from hanlesim.dynamics import split_phases
from hanlesim.fit import evaluate_model

from support import B1, GAMMA, PRESET_INTENSITIES, eia_spec, eit_spec, steady_vector

TRANSIENT_PRESETS = tuple(f"fig5{c}" for c in "abcde") + tuple(f"fig6{c}" for c in "abcde")
SWEEP_GRID = np.geomspace(1e-3, 4.0, 40)


def annotated_modes(liouv, y0):
    """Eigenmodes with group labels and observability for initial state y0."""
    return classify_groups(eigenmodes(liouv, y0), GAMMA)


def switched_modes(spec, b_run, b_prev):
    """Modes of the b_run phase, observability taken from the b_prev steady state."""
    liouv = build_liouvillian(spec.with_field(b_run))
    return annotated_modes(liouv, steady_vector(spec, b_prev))


def test_criterion_01_matrix_dimensions():
    # density matrix of 3+1 levels -> 16 equations; 3+5 levels -> 64
    assert build_liouvillian(eit_spec(0.02)).matrix.shape == (16, 16)
    assert build_liouvillian(eia_spec(0.02)).matrix.shape == (64, 64)


def test_criterion_02_transit_rate_eigenvalue():
    # -gamma is always an eigenvalue (trace relaxation), to 1e-10 relative,
    # and at B=0 that mode never contributes to the absorption transient
    worst = 0.0
    for make in (eit_spec, eia_spec):
        for intensity in PRESET_INTENSITIES:
            spec = make(intensity)
            for b_run, b_prev in ((0.0, B1), (B1, 0.0)):
                values = np.linalg.eigvals(build_liouvillian(spec.with_field(b_run)).matrix)
                worst = max(worst, np.abs(values + GAMMA).min() / GAMMA)
                if b_run == 0.0:
                    modes = switched_modes(spec, b_run, b_prev)
                    nearest = min(modes, key=lambda m: abs(m.value + GAMMA))
                    assert not nearest.observable
    assert worst <= 1e-10


def test_criterion_03_modal_matches_fixed_step_integrator():
    # strongest-driving configs, full 5/gamma span, both switching directions
    for make in (eit_spec, eia_spec):
        spec = make(2.0)
        for b_run, b_prev in ((0.0, B1), (B1, 0.0)):
            liouv = build_liouvillian(spec.with_field(b_run))
            y0 = steady_vector(spec, b_prev)
            reference = propagate_integrated(liouv, y0, dt=0.05, t_end=5.0 / GAMMA)
            modal = propagate_modal(liouv, y0, reference.times)
            assert np.max(np.abs(reference.w - modal.w)) <= 1e-8


def test_criterion_04_trajectories_stay_physical():
    for name in TRANSIENT_PRESETS:
        config = build_config(preset_name=name, expected_command="transient")
        _, states = switched_transient(
            _transition_spec(config), _schedule(config), keep_states=True
        )
        report = trajectory_physicality(states)
        assert report["trace_drift"] <= 1e-8, name
        assert report["min_eigenvalue"] >= -1e-7, name


def test_criterion_05_oscillation_at_twice_zeeman_rate():
    # fitted transient frequency = 2 * (ground Zeeman shift) = 0.06 at weak driving
    for make, model in (
        (eit_spec, FitModel("exp_plus_damped_sine")),
        (eia_spec, FitModel("exp_plus_damped_sine", drop_exp_term=True)),
    ):
        trace = switched_transient(make(0.002), SwitchSchedule(b1=B1))
        result = fit(split_phases(trace)[1], model)
        assert result.converged
        assert result.params["freq"] == pytest.approx(2.0 * B1, rel=0.05)


def test_criterion_06_zeno_slowdown():
    # clause 1: the slow observable eigenvalue deepens then recovers with
    # intensity; its turning point (signed minimum) sits in [0.05, 0.2]
    modes_map = sweep_modes(eit_spec(1.0), SWEEP_GRID, b1=0.01)
    rates = np.array([
        min(abs(m.value.real) for m in modes_map[(float(i), "B1")] if m.observable)
        for i in SWEEP_GRID
    ])
    turning_intensity = SWEEP_GRID[int(np.argmax(rates))]
    assert 0.05 <= turning_intensity <= 0.2

    # clause 3: at the same strong driving the enhanced-absorption system
    # relaxes much faster than the transparency system's transit floor
    eia_map = sweep_modes(eia_spec(1.0), [2.0], b1=B1)
    eia_slowest = min(
        abs(m.value.real) for m in eia_map[(2.0, "B1")] if m.observable
    )
    assert eia_slowest > 5.0 * GAMMA

    # clause 2 — KNOWN RED, kept deliberately.  The fitted slow rate of the
    # strong-driving (intensity 2) field-on transient is 0.00464 = 2.32*gamma,
    # and it faithfully matches the slow observable eigenvalue at that
    # intensity (-0.004657, agreement 0.4%), so the fit is not at fault: the
    # model's slow rate at this field (0.03) and intensity has simply not yet
    # relaxed back to within a factor 2 of the transit rate.  The recovery
    # toward gamma is real but only ~60% complete at intensity 2 (the rate
    # peaks at 0.0053 near intensity 0.1 and reaches 2.3*gamma by 2).
    # Loosening the factor-2 window would hide a genuine property of the
    # dynamics, so the assertion is left as stated.
    trace = switched_transient(eit_spec(2.0), SwitchSchedule(b1=B1))
    result = fit(split_phases(trace)[1], FitModel("exp_plus_damped_sine"))
    assert result.converged
    assert GAMMA / 2.0 <= result.params["rate_exp"] <= 2.0 * GAMMA


def test_criterion_07_eia_rates_increase_with_intensity():
    # every slow observable decay branch of the 1->2 system speeds up
    # monotonically with driving intensity until it leaves the slow group
    spec = eia_spec(1.0, dipole_scale=2.5)
    modes_map = sweep_modes(spec, SWEEP_GRID, b1=0.01)
    for case in ("B0", "B1"):
        rates = [
            sorted(
                abs(m.value.real)
                for m in modes_map[(float(i), case)]
                if m.observable and m.group == 1
            )
            for i in SWEEP_GRID
        ]
        assert rates[0], case  # populated at the weak-driving end
        # branches only ever leave the slow group, never re-enter
        populated = [bool(r) for r in rates]
        assert all(a or not b for a, b in zip(populated, populated[1:])), case
        pairs = [(a, b) for a, b in zip(rates, rates[1:]) if a and b]
        for earlier, later in pairs:
            assert later[0] >= earlier[0] * (1.0 - 1e-9), case
            if len(earlier) == len(later):
                for slow, fast in zip(earlier, later):
                    assert fast >= slow * (1.0 - 1e-9), case


def test_criterion_08_open_lambda_reduction():
    # clause 1: a three-level system with a 1/3-branching sink reproduces the
    # full 16-equation model's slow observable eigenvalues exactly
    compared = 0
    for intensity in (0.002, 0.006, 0.06):
        spec = eit_spec(intensity)
        for b_run, b_prev in ((0.0, B1), (B1, 0.0)):
            full_slow = [
                m.value
                for m in switched_modes(spec, b_run, b_prev)
                if m.observable and m.group == 1
            ]
            assert full_slow
            reduced = open_lambda_liouvillian(
                OpenLambdaSpec(
                    rabi=np.sqrt(intensity), gamma=GAMMA, zeeman=b_run,
                    sink_fraction=1.0 / 3.0,
                )
            )
            reduced_values = np.linalg.eigvals(reduced.matrix)
            for value in full_slow:
                assert np.abs(reduced_values - value).min() <= 1e-6
                compared += 1
    assert compared >= 6

    # clause 2: at B=0 the slow observable rate is gamma + K*intensity with
    # K independent of how finely the weak-driving region is sampled
    def bound_constant(grid):
        worst = 0.0
        for intensity in grid:
            modes = switched_modes(eit_spec(intensity), 0.0, B1)
            slow = min(abs(m.value.real) for m in modes if m.observable)
            worst = max(worst, (slow - GAMMA) / intensity)
        return worst

    coarse = bound_constant(np.geomspace(1e-5, 1e-3, 5))
    fine = bound_constant(np.geomspace(1e-5, 1e-3, 9))
    assert coarse <= 0.25
    assert abs(fine - coarse) <= 1e-3 * coarse


def test_criterion_09_hanle_contrast_signs():
    # transparency dip vs absorption peak at zero field, at every intensity
    for make, sign in ((eit_spec, -1.0), (eia_spec, +1.0)):
        for intensity in PRESET_INTENSITIES:
            spec = make(intensity)
            w_zero = absorption(steady_state(build_liouvillian(spec.with_field(0.0))), spec)
            w_split = absorption(steady_state(build_liouvillian(spec.with_field(B1))), spec)
            assert sign * (w_zero - w_split) > 0.0, (make.__name__, intensity)


def test_criterion_10_fit_round_trip():
    from hanlesim.dynamics import TransientTrace

    model = FitModel("exp_plus_damped_sine")
    true = {
        "amp_exp": 0.5, "rate_exp": 0.002, "amp_osc": 1.0, "rate_osc": 0.01,
        "freq": 0.06, "phase": 0.3, "offset": 0.2,
    }
    times = np.linspace(0.0, 2500.0, 2000)
    clean = evaluate_model(model, true, times)

    result = fit(TransientTrace(times, clean, np.zeros_like(times), {}), model)
    for name, value in true.items():
        assert result.params[name] == pytest.approx(value, rel=1e-6)

    # 1% multiplicative-scale noise, 100 independent trials: the three rates
    # stay within 5% at the 95th percentile
    rng = np.random.default_rng(12345)
    sigma = 0.01 * np.abs(clean - true["offset"]).max()
    errors = []
    for _ in range(100):
        noisy = clean + sigma * rng.standard_normal(times.size)
        trial = fit(TransientTrace(times, noisy, np.zeros_like(times), {}), model)
        errors.append(max(
            abs(trial.params[name] - true[name]) / true[name]
            for name in ("rate_exp", "rate_osc", "freq")
        ))
    assert np.percentile(errors, 95) <= 0.05


def test_criterion_11_transit_time_scale():
    from scipy.constants import atomic_mass

    tau = transit_time(0.01, 330.0, ISOTOPE_MASS_AMU["Rb87"] * atomic_mass)
    assert tau == pytest.approx(40e-6, rel=0.10)


def test_criterion_12_preset_runs_are_byte_identical(tmp_path):
    for name, command, _ in list_presets():
        outputs = []
        for tag in ("first", "second"):
            path = tmp_path / f"{name}-{tag}.csv"
            assert main([command, "--preset", name, "--output", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], name
