"""Trace-model fitting: round trips, robustness, rate tables."""

import importlib

import numpy as np
import pytest

from hanlesim import FitModel, SwitchSchedule, build_liouvillian, eigenmodes, fit, rate_vs_intensity
from hanlesim.cli import _schedule, _transition_spec, build_config
from hanlesim.dynamics import TransientTrace, split_phases, switched_transient
from hanlesim.fit import _linearize, _normalize, _residual, _to_internal, evaluate_model, model_for_phase

from support import GAMMA, PRESET_INTENSITIES, eia_spec, eit_spec

#: the module, not the ``fit`` function the package exports under the same name
fit_module = importlib.import_module("hanlesim.fit")

Y2_TRUE = {
    "amp_exp": 0.5, "rate_exp": 0.002, "amp_osc": 1.0, "rate_osc": 0.01,
    "freq": 0.06, "phase": 0.3, "offset": 0.2,
}
Y2_DROPPED = {"amp_osc": 0.7, "rate_osc": 0.008, "freq": 0.055, "phase": -1.1, "offset": 0.4}
TIMES = np.linspace(0.0, 2500.0, 2000)


def make_trace(model, params, times=TIMES, noise=0.0, rng=None):
    y = evaluate_model(model, params, times)
    if noise:
        y = y + noise * (rng or np.random.default_rng(0)).standard_normal(times.size)
    return TransientTrace(times.copy(), y, np.zeros_like(times), {})


class TestFitModel:
    def test_param_names(self):
        assert FitModel("single_exp").param_names == ("amp", "rate", "offset")
        assert FitModel("exp_plus_damped_sine").param_names == (
            "amp_exp", "rate_exp", "amp_osc", "rate_osc", "freq", "phase", "offset",
        )
        assert FitModel("exp_plus_damped_sine", drop_exp_term=True).param_names == (
            "amp_osc", "rate_osc", "freq", "phase", "offset",
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FitModel("biexponential")
        with pytest.raises(ValueError):
            FitModel("single_exp", drop_exp_term=True)


class TestEvaluateModel:
    def test_single_exp_values(self):
        model = FitModel("single_exp")
        y = evaluate_model(model, {"amp": 2.0, "rate": 0.5, "offset": 1.0}, np.array([0.0, 2.0]))
        np.testing.assert_allclose(y, [3.0, 1.0 + 2.0 * np.exp(-1.0)])

    def test_damped_sine_at_origin(self):
        model = FitModel("exp_plus_damped_sine")
        y0 = evaluate_model(model, Y2_TRUE, np.array([0.0]))[0]
        assert y0 == pytest.approx(0.5 + np.sin(0.3) + 0.2)


@pytest.mark.parametrize("model, params", [
    (FitModel("single_exp"), {"amp": 0.8, "rate": 0.004, "offset": 0.1}),
    (FitModel("exp_plus_damped_sine"), Y2_TRUE),
    (FitModel("exp_plus_damped_sine", drop_exp_term=True), Y2_DROPPED),
], ids=["single_exp", "damped_sine", "damped_sine-dropped"])
def test_solver_jacobian_matches_central_differences(model, params):
    # the Jacobian the optimizer steps with, in its coordinates: log rates and
    # log frequency, so every such column carries the chain-rule factor
    theta = _to_internal(model, params)
    y = evaluate_model(model, params, TIMES) + 0.01
    residual, external, terms = _residual(model, theta, TIMES, y)
    jac = _linearize(model, external, TIMES, terms, residual)[0]
    for k in range(theta.size):
        h = 1e-7 * max(1.0, abs(theta[k]))
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        numeric = (_residual(model, up, TIMES, y)[0]
                   - _residual(model, down, TIMES, y)[0]) / (2.0 * h)
        error = np.abs(jac[:, k] - numeric).max() / np.abs(numeric).max()
        assert error <= 1e-6, (model.param_names[k], error)


#: the parameters the reference below maps from logarithms, a copy of the module's own set
EAGER_LOG_PARAMS = frozenset({"rate", "rate_exp", "rate_osc", "freq"})


def eager_external(model, theta):
    """External parameters at internal ``theta``: a copy of ``_to_external``."""
    return {name: float(np.exp(value)) if name in EAGER_LOG_PARAMS else float(value)
            for name, value in zip(model.param_names, theta)}


def eager_slope(model, params):
    """d(external)/d(internal) per parameter: a copy of ``_external_slope``."""
    return np.array([params[name] if name in EAGER_LOG_PARAMS else 1.0 for name in model.param_names])


def eager_residual_jacobian(model, theta, t, y):
    """(residual, J) at internal parameters ``theta``, both from one evaluation of
    each exponential, sine and cosine: every trial point of the eager loop.

    It shares no helper with the module, so that an edit to how the module maps
    parameters or forms J shows as a difference in bits."""
    params = eager_external(model, theta)
    ones = np.ones_like(t)
    if model.kind == "single_exp":
        decay = np.exp(-params["rate"] * t)
        prediction = params["amp"] * decay + params["offset"]
        cols = [decay, -params["amp"] * t * decay, ones]
    else:
        env = np.exp(-params["rate_osc"] * t)
        arg = params["freq"] * t + params["phase"]
        sin_a, cos_a = np.sin(arg), np.cos(arg)
        prediction = params["amp_osc"] * env * sin_a + params["offset"]
        cols = [env * sin_a, -params["amp_osc"] * t * env * sin_a,
                params["amp_osc"] * t * env * cos_a, params["amp_osc"] * env * cos_a, ones]
        if not model.drop_exp_term:
            decay = np.exp(-params["rate_exp"] * t)
            prediction = prediction + params["amp_exp"] * decay
            cols = [decay, -params["amp_exp"] * t * decay] + cols
    return prediction - y, np.column_stack(cols) * eager_slope(model, params)


def random_points(model, rng, count):
    """``count`` internal parameter vectors: log rates and frequencies over six decades,
    linear parameters in [-2, 2]; in every third one coordinate is pushed to where
    exp(theta), the prediction or the columns of J overflow, as a trial point may."""
    names = model.param_names
    for k in range(count):
        theta = np.array([rng.uniform(np.log(1e-6), 0.0) if name in EAGER_LOG_PARAMS
                          else rng.uniform(-2.0, 2.0) for name in names])
        if k % 3 == 2:
            j = rng.integers(len(names))
            theta[j] = (rng.uniform(700.0, 720.0) if names[j] in EAGER_LOG_PARAMS
                        else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(300.0, 308.0))
        yield theta


@pytest.mark.parametrize("model, params, seed", [
    (FitModel("single_exp"), {"amp": 0.8, "rate": 0.004, "offset": 0.1}, 1),
    (FitModel("exp_plus_damped_sine"), Y2_TRUE, 2),
    (FitModel("exp_plus_damped_sine", drop_exp_term=True), Y2_DROPPED, 3),
], ids=["single_exp", "damped_sine", "damped_sine-dropped"])
def test_linearize_is_bit_equal_to_the_eager_jacobian(model, params, seed):
    # J, J^T r and J^T J as the eager loop formed them, at random points and at overflowing ones
    rng = np.random.default_rng(seed)
    y = evaluate_model(model, params, TIMES) + 0.01 * rng.standard_normal(TIMES.size)
    non_finite = 0
    with np.errstate(all="ignore"):
        for theta in random_points(model, rng, 60):
            residual, external, terms = _residual(model, theta, TIMES, y)
            jac, gradient, normal, _ = _linearize(model, external, TIMES, terms, residual)
            old_residual, old_jac = eager_residual_jacobian(model, theta, TIMES, y)
            for name, new, old in (("residual", residual, old_residual), ("J", jac, old_jac),
                                   ("J^T r", gradient, old_jac.T @ old_residual),
                                   ("J^T J", normal, old_jac.T @ old_jac)):
                assert (new.dtype, new.shape) == (old.dtype, old.shape), name
                assert new.tobytes() == old.tobytes(), (name, theta)
            non_finite += not np.isfinite(jac).all()
    assert non_finite >= 5  # the overflowing draws reach J (7 to 10 of the 20 do)


def eager_levenberg(model, theta0, t, y):
    """(theta, residual, J, cost, iterations, converged) by the eager loop alone.

    A copy of how ``_levenberg`` stepped before a rejected trial step reused the
    Jacobian: every trial point forms its J, and every step forms J^T r and J^T J.
    """
    theta = theta0.copy()
    residual, jac = eager_residual_jacobian(model, theta, t, y)
    cost = residual @ residual
    tolerance = fit_module.GRADIENT_TOL * max(1.0, np.abs(jac.T @ residual).max())
    damping = 1e-3
    iterations = 0
    while iterations < fit_module.MAX_ITERATIONS and damping <= 1e15:
        gradient = jac.T @ residual
        if np.abs(gradient).max() <= tolerance:
            break
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        diag = np.maximum(diag, 1e-14 * max(diag.max(), np.finfo(float).tiny))
        iterations += 1
        try:
            step = np.linalg.solve(normal + damping * np.diag(diag), -gradient)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        trial = theta + step
        trial_residual, trial_jac = eager_residual_jacobian(model, trial, t, y)
        trial_cost = trial_residual @ trial_residual
        if trial_cost < cost:
            relative_move = np.abs(step).max() / (1.0 + np.abs(theta).max())
            theta, residual, jac, cost = trial, trial_residual, trial_jac, trial_cost
            damping = max(damping / 10.0, 1e-15)
            if relative_move < 1e-15:
                break
        else:
            damping *= 10.0
    converged = np.abs(jac.T @ residual).max() <= tolerance
    return theta, residual, jac, cost, iterations, bool(converged)


def preset_on_phase(name):
    """The field-on phase of a transient preset's record and the model the CLI fits to it."""
    config = build_config(preset_name=name, expected_command="transient")
    phase = split_phases(switched_transient(_transition_spec(config), _schedule(config)))[1]
    return phase, model_for_phase(phase.meta)


def step_trace():
    """A 0/1 step: ``single_exp`` fits of it overflow exp at trial points and reject NaN costs."""
    times = np.linspace(0.0, 1000.0, 200)
    return TransientTrace(times, (times >= 500.0).astype(float), np.zeros_like(times), {})


def noisy(model, params, seed):
    scale = 0.01 * np.ptp(evaluate_model(model, params, TIMES))
    return make_trace(model, params, noise=scale, rng=np.random.default_rng(seed)), model


LEVENBERG_CASES = {
    "fig5e-on": lambda: preset_on_phase("fig5e"),
    "fig6e-on": lambda: preset_on_phase("fig6e"),
    "single_exp-noisy": lambda: noisy(FitModel("single_exp"),
                                      {"amp": 0.8, "rate": 0.004, "offset": 0.1}, 1),
    "damped_sine-noisy": lambda: noisy(FitModel("exp_plus_damped_sine"), Y2_TRUE, 2),
    "damped_sine-dropped-noisy": lambda: noisy(
        FitModel("exp_plus_damped_sine", drop_exp_term=True), Y2_DROPPED, 3),
    "step-single_exp": lambda: (step_trace(), FitModel("single_exp")),
}


class _Captured(Exception):
    pass


def levenberg_inputs(trace, model):
    """The (model, theta0, t, y) that ``fit`` hands ``_levenberg`` for ``trace``."""
    captured = []

    def capture(*args):
        captured.append(args)
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fit_module, "_levenberg", capture)
        with pytest.raises(_Captured):
            fit(trace, model)
    return captured[0]


def solve_failing_once(at_call):
    """(``np.linalg.solve`` that raises LinAlgError on its ``at_call``-th call only,
    the list it appends each call to)."""
    solve, calls = np.linalg.solve, []

    def failing(*args):
        calls.append(None)
        if len(calls) == at_call:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(*args)
    return failing, calls


def assert_bit_equal(new, old):
    new_theta, new_residual, new_jac, new_normal, new_cost, new_iterations, new_converged = new
    old_theta, old_residual, old_jac, old_cost, old_iterations, old_converged = old
    for name, a, b in (("theta", new_theta, old_theta), ("residual", new_residual, old_residual),
                       ("jac", new_jac, old_jac), ("normal", new_normal, old_jac.T @ old_jac),
                       ("cost", new_cost, old_cost)):
        assert np.asarray(a).dtype == np.asarray(b).dtype, name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    assert (new_iterations, new_converged) == (old_iterations, old_converged)


class TestLevenbergMatchesTheEagerLoop:
    # bit for bit: the same iterates, the same last point and its J^T J as fit used to form it
    @pytest.mark.parametrize("case", LEVENBERG_CASES)
    def test_every_return_is_bit_equal(self, case):
        args = levenberg_inputs(*LEVENBERG_CASES[case]())
        with np.errstate(all="ignore"):  # the step trace overflows exp by design
            assert_bit_equal(fit_module._levenberg(*args), eager_levenberg(*args))

    def test_step_trace_rejects_non_finite_trial_costs(self):
        # the case above exercises the NaN branch: some trial point's cost is NaN
        model, theta0, t, y = levenberg_inputs(*LEVENBERG_CASES["step-single_exp"]())
        costs = []
        residual = fit_module._residual

        def record(*args):
            point = residual(*args)
            costs.append(point[0] @ point[0])
            return point
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(fit_module, "_residual", record)
            fit_module._levenberg(model, theta0, t, y)
        assert np.isnan(costs).any()

    @pytest.mark.parametrize("at_call", [1, 5])
    def test_a_failed_solve_raises_the_damping_alike(self, monkeypatch, at_call):
        args = levenberg_inputs(*LEVENBERG_CASES["damped_sine-noisy"]())
        results = []
        for levenberg in (fit_module._levenberg, eager_levenberg):
            failing, calls = solve_failing_once(at_call)
            monkeypatch.setattr(np.linalg, "solve", failing)
            results.append(levenberg(*args))
            assert len(calls) > at_call  # it raised, and the loop went on
        assert_bit_equal(*results)


def test_fig6e_forms_the_jacobian_only_at_the_start_and_accepted_points(monkeypatch):
    trace, model = preset_on_phase("fig6e")
    residuals, linearized, inverted = [], [], []
    residual, linearize, pinv = fit_module._residual, fit_module._linearize, np.linalg.pinv

    def spy_residual(*args):
        point = residual(*args)
        residuals.append(point[0])
        return point

    def spy_linearize(*args):
        linearized.append(linearize(*args))
        return linearized[-1]

    def spy_pinv(matrix, *args, **kwargs):
        inverted.append(matrix)
        return pinv(matrix, *args, **kwargs)

    monkeypatch.setattr(fit_module, "_residual", spy_residual)
    monkeypatch.setattr(fit_module, "_linearize", spy_linearize)
    monkeypatch.setattr(np.linalg, "pinv", spy_pinv)
    result = fit(trace, model)
    assert (result.iterations, result.converged) == (200, False)

    # a trial step is accepted exactly when its cost falls below the best so far
    costs = [r @ r for r in residuals]
    accepted = sum(cost < min(costs[:k]) for k, cost in enumerate(costs) if k)
    assert len(residuals) == 201
    assert accepted == 100
    assert len(linearized) == accepted + 1
    # each build forms its own J^T J, and fit's covariance inverts the last one as it is
    for jac, _, normal, _ in linearized:
        assert normal.tobytes() == (jac.T @ jac).tobytes()
    assert len({id(normal) for _, _, normal, _ in linearized}) == len(linearized)
    assert len(inverted) == 1 and inverted[0] is linearized[-1][2]


class TestModelForPhase:
    def test_auto_goes_by_the_phase_field(self):
        assert model_for_phase({"phase_b": 0.0}) == FitModel("single_exp")
        assert model_for_phase({"phase_b": 0.01}) == FitModel("exp_plus_damped_sine")
        with pytest.raises(ValueError, match="phase_b"):
            model_for_phase({})
        assert model_for_phase({}, "single_exp") == FitModel("single_exp")

    def test_drop_default_goes_by_the_transition(self):
        eia = {"phase_b": 0.03, "fg": 1.0, "fe": 2.0}
        assert model_for_phase(eia).drop_exp_term
        assert not model_for_phase(eia | {"fe": 0.0}).drop_exp_term
        assert not model_for_phase({"phase_b": 0.03}).drop_exp_term
        assert not model_for_phase(eia, drop_exp_term=False).drop_exp_term
        assert model_for_phase({"phase_b": 0.03}, drop_exp_term=True).drop_exp_term

    @pytest.mark.parametrize("meta", [{"phase_b": (1,)}, {"phase_b": float("nan")},
                                      {"phase_b": 0.03, "fg": "one", "fe": 2.0},
                                      {"phase_b": 10**400}])
    def test_non_numeric_metadata_raises(self, meta):
        with pytest.raises(ValueError, match="must be a finite number"):
            model_for_phase(meta)


class TestRoundTrip:
    def test_single_exp(self):
        model = FitModel("single_exp")
        true = {"amp": 0.8, "rate": 0.004, "offset": 0.1}
        result = fit(make_trace(model, true), model)
        assert result.converged
        for name, value in true.items():
            assert result.params[name] == pytest.approx(value, rel=1e-6)
        assert result.rms < 1e-10

    def test_exp_plus_damped_sine(self):
        model = FitModel("exp_plus_damped_sine")
        result = fit(make_trace(model, Y2_TRUE), model)
        assert result.converged
        for name, value in Y2_TRUE.items():
            assert result.params[name] == pytest.approx(value, rel=1e-6)

    def test_dropped_exp_term(self):
        model = FitModel("exp_plus_damped_sine", drop_exp_term=True)
        result = fit(make_trace(model, Y2_DROPPED), model)
        assert result.converged
        for name, value in Y2_DROPPED.items():
            assert result.params[name] == pytest.approx(value, rel=1e-6)
        assert "amp_exp" not in result.params

    def test_negative_oscillation_amplitude_normalized(self):
        model = FitModel("exp_plus_damped_sine", drop_exp_term=True)
        flipped = {"amp_osc": 0.7, "rate_osc": 0.008, "freq": 0.055,
                   "phase": 0.3 - np.pi, "offset": 0.4}
        # same trace as amp_osc=-0.7, phase=0.3: the fit must canonicalize
        result = fit(make_trace(model, flipped), model)
        assert result.params["amp_osc"] > 0
        assert -np.pi <= result.params["phase"] < np.pi


    @pytest.mark.parametrize("drop_exp_term", [True, False])
    @pytest.mark.parametrize("phase", [0.3, -3.0, 2.9, 7.0])
    def test_a_negative_oscillation_amplitude_is_flipped_into_the_phase(self, drop_exp_term, phase):
        model = FitModel("exp_plus_damped_sine", drop_exp_term=drop_exp_term)
        params = {"amp_osc": -0.7, "rate_osc": 0.008, "freq": 0.055, "phase": phase, "offset": 0.4}
        if not drop_exp_term:
            params |= {"amp_exp": 0.2, "rate_exp": 0.003}
        normal = _normalize(dict(params))
        assert normal["amp_osc"] == 0.7 and -np.pi <= normal["phase"] < np.pi
        np.testing.assert_allclose(evaluate_model(model, normal, TIMES), evaluate_model(model, params, TIMES),
                                   rtol=0, atol=1e-12)


class TestRobustness:
    def test_seed_overrides_within_twenty_percent(self):
        model = FitModel("exp_plus_damped_sine")
        trace = make_trace(model, Y2_TRUE)
        for factor in (0.8, 1.2):
            seeds = {name: value * factor for name, value in Y2_TRUE.items()}
            result = fit(trace, model, seeds=seeds)
            assert result.converged
            assert result.params["rate_osc"] == pytest.approx(0.01, rel=1e-6)

    def test_noisy_trace_recovers_rates(self):
        model = FitModel("exp_plus_damped_sine")
        rng = np.random.default_rng(99)
        noise = 0.01 * np.abs(evaluate_model(model, Y2_TRUE, TIMES) - Y2_TRUE["offset"]).max()
        result = fit(make_trace(model, Y2_TRUE, noise=noise, rng=rng), model)
        for name in ("rate_exp", "rate_osc", "freq"):
            assert result.params[name] == pytest.approx(Y2_TRUE[name], rel=0.05)
        assert result.uncertainties["rate_osc"] > 0

    def test_uncertainties_shrink_with_noise(self):
        model = FitModel("single_exp")
        true = {"amp": 1.0, "rate": 0.005, "offset": 0.0}
        clean = fit(make_trace(model, true), model)
        noisy = fit(make_trace(model, true, noise=0.01, rng=np.random.default_rng(4)), model)
        assert clean.uncertainties["rate"] < noisy.uncertainties["rate"]


class TestEdgeCases:
    def test_constant_trace_degenerate_path(self):
        trace = TransientTrace(TIMES, np.full(TIMES.size, 0.37), np.zeros_like(TIMES), {})
        result = fit(trace, FitModel("single_exp"))
        assert result.degenerate
        assert result.params == {"amp": 0.0, "rate": 0.0, "offset": pytest.approx(0.37)}
        assert result.converged

    @pytest.mark.parametrize("kind", ["single_exp", "exp_plus_damped_sine"])
    def test_a_constant_trace_too_short_to_fit_raises(self, kind):
        one = TransientTrace(TIMES[:1], [0.37], [0.0], {})
        with pytest.raises(ValueError, match="^need at least"):
            fit(one, FitModel(kind))

    def test_too_few_samples(self):
        short = TransientTrace(TIMES[:20], np.sin(TIMES[:20]), np.zeros(20), {})
        with pytest.raises(ValueError):
            fit(short, FitModel("exp_plus_damped_sine"))

    @pytest.mark.parametrize("column, index, bad", [("w", 700, np.nan), ("w", 0, -np.inf),
                                                     ("times", -1, np.inf)])
    def test_non_finite_trace_raises(self, column, index, bad):
        model = FitModel("single_exp")
        trace = make_trace(model, {"amp": 1.0, "rate": 0.01, "offset": 0.0})
        getattr(trace, column)[index] = bad
        with pytest.raises(ValueError, match="finite"):
            fit(trace, model)

    @pytest.mark.parametrize("model, name, bad", [
        (FitModel("single_exp"), "rate", -0.1), (FitModel("single_exp"), "rate", 0.0),
        (FitModel("single_exp"), "rate", np.inf), (FitModel("single_exp"), "amp", np.nan),
        (FitModel("single_exp"), "offset", -np.inf),
        (FitModel("exp_plus_damped_sine"), "rate_exp", -0.002),
        (FitModel("exp_plus_damped_sine"), "rate_osc", 0.0),
        (FitModel("exp_plus_damped_sine"), "freq", -0.06),
        (FitModel("exp_plus_damped_sine"), "amp_osc", np.inf),
        (FitModel("exp_plus_damped_sine"), "phase", np.nan),
        # values that are not real numbers raised TypeError from the check itself
        (FitModel("single_exp"), "rate", "0.1"), (FitModel("single_exp"), "rate", None),
        (FitModel("single_exp"), "rate", 1j), (FitModel("single_exp"), "amp", None),
        (FitModel("exp_plus_damped_sine"), "freq", 1j),
    ])
    def test_non_finite_or_non_positive_seed_raises_naming_it(self, model, name, bad):
        # a negative rate seed was clamped to 1e-300 and "converged" there; NaN or inf
        # ones surfaced as an overflow that blamed the trace
        true = {"amp": 1.0, "rate": 0.1, "offset": 0.2} if model.kind == "single_exp" else Y2_TRUE
        with pytest.raises(ValueError, match=f"seed '{name}' must be a finite"):
            fit(make_trace(model, true), model, seeds={name: bad})

    def test_integer_and_numpy_seeds_are_numbers(self):
        model = FitModel("single_exp")
        trace = make_trace(model, {"amp": 1.0, "rate": 0.01, "offset": 0.0})
        result = fit(trace, model, seeds={"amp": 1, "rate": np.float32(0.008), "offset": np.int64(0)})
        assert result.converged and result.params["rate"] == pytest.approx(0.01, rel=1e-6)

    def test_unknown_seed_key(self):
        trace = make_trace(FitModel("single_exp"), {"amp": 1.0, "rate": 0.01, "offset": 0.0})
        with pytest.raises(ValueError):
            fit(trace, FitModel("single_exp"), seeds={"frequency": 1.0})

    def test_times_rezeroed(self):
        model = FitModel("single_exp")
        true = {"amp": 0.8, "rate": 0.004, "offset": 0.1}
        shifted = make_trace(model, true)
        shifted = TransientTrace(shifted.times + 500.0, shifted.w, shifted.b, {})
        result = fit(shifted, model)
        assert result.params["amp"] == pytest.approx(0.8, rel=1e-6)


class TestAgainstEigenvalues:
    def test_fitted_slow_rate_matches_slow_eigenvalue(self):
        # the non-oscillating component of the field-on transient decays at
        # the slow purely-real observable eigenvalue
        spec = eit_spec(0.06)
        trace = switched_transient(spec, SwitchSchedule(b1=0.03))
        on_phase = split_phases(trace)[1]
        result = fit(on_phase, FitModel("exp_plus_damped_sine"))
        modes = eigenmodes(build_liouvillian(spec.with_field(0.03)))
        slow = max(
            (m.value.real for m in modes
             if abs(m.value.imag) < 1e-9 and abs(m.value.real + GAMMA) > 1e-6),
            key=lambda r: r,
        )
        assert result.params["rate_exp"] == pytest.approx(-slow, rel=0.01)


class TestRateVsIntensity:
    def test_eit_table(self):
        schedule = SwitchSchedule(b1=0.03)
        rows = rate_vs_intensity(eit_spec(0.0), PRESET_INTENSITIES, schedule)
        assert [row["intensity"] for row in rows] == list(PRESET_INTENSITIES)
        assert all(row["converged_b0"] for row in rows)
        assert all(row["converged_b1"] for row in rows)

        # the field-off decay rate grows monotonically with intensity
        rates_b0 = [row["rate_b0"] for row in rows]
        assert all(b > a for a, b in zip(rates_b0, rates_b0[1:]))

        # at low intensity both fitted frequencies sit at twice the Zeeman shift
        assert rows[0]["freq"] == pytest.approx(0.06, rel=0.05)

        # the slow non-oscillating rate stays within a factor 3 of gamma at
        # every intensity (the actual spread in this model is about 2.4x,
        # peaking near saturation and relaxing again at strong driving)
        for row in rows:
            assert GAMMA / 3 < row["rate_exp"] < 3 * GAMMA

    def test_eia_table_drops_exp_term_and_tracks_field_off_rate(self):
        schedule = SwitchSchedule(b1=0.03)
        rows = rate_vs_intensity(eia_spec(0.0), PRESET_INTENSITIES[:4], schedule)
        for row in rows:
            assert "rate_exp" not in row  # auto-dropped on Fe = Fg + 1
            assert row["converged_b0"] and row["converged_b1"]
            # both phases relax through the same ground-state mode family
            assert 0.5 < row["rate_osc"] / row["rate_b0"] < 2.0
        assert rows[0]["freq"] == pytest.approx(0.06, rel=0.05)

    @pytest.mark.parametrize("make_spec, dropped", [(eit_spec, False), (eia_spec, True)],
                             ids=["1-0", "1-2"])
    def test_each_row_is_the_fit_of_both_phases(self, make_spec, dropped):
        schedule = SwitchSchedule(b1=0.03)
        intensities = (0.006, 0.06)
        rows = rate_vs_intensity(make_spec(0.0), intensities, schedule)
        for intensity, row in zip(intensities, rows):
            off, on = split_phases(switched_transient(make_spec(intensity), schedule))
            result_b0 = fit(off, FitModel("single_exp"))
            result_b1 = fit(on, FitModel("exp_plus_damped_sine", drop_exp_term=dropped))
            expected = {"intensity": intensity, "rate_b0": result_b0.params["rate"],
                        "rate_osc": result_b1.params["rate_osc"], "freq": result_b1.params["freq"],
                        "converged_b0": result_b0.converged, "converged_b1": result_b1.converged}
            if not dropped:
                expected["rate_exp"] = result_b1.params["rate_exp"]
            assert row == expected

    @pytest.mark.parametrize("schedule", [SwitchSchedule(b1=0.03, b0=0.01), SwitchSchedule(b1=0.0),
                                          SwitchSchedule(b1=0.03, duty=1.0),
                                          SwitchSchedule(b1=0.03, duty=0.0)],
                             ids=["b0-nonzero", "b1-zero", "no-switch", "duty-0"])
    def test_schedule_without_a_field_off_phase_raises(self, schedule):
        with pytest.raises(ValueError, match="switches from b0 = 0"):
            rate_vs_intensity(eit_spec(0.0), [0.02], schedule)
