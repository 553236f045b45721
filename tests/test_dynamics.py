"""Steady states, propagators, switched transients, transit time."""

import numpy as np
import pytest
import scipy.linalg
from scipy.constants import atomic_mass, k as boltzmann

import hanlesim.dynamics as dynamics
from hanlesim import (
    SwitchSchedule,
    TransitionSpec,
    absorption,
    build_liouvillian,
    propagate_integrated,
    propagate_modal,
    split_phases,
    steady_state,
    switched_transient,
    trajectory_physicality,
    transit_time,
    vectorize,
)
from hanlesim.cli import _ATOMIC_MASS_KG

from support import GAMMA, eia_spec, eit_spec, steady_vector


class TestSteadyState:
    @pytest.mark.parametrize("make_spec", [eit_spec, eia_spec])
    def test_is_physical_fixed_point(self, make_spec):
        rng = np.random.default_rng(5)
        for _ in range(4):
            spec = make_spec(float(rng.uniform(0.001, 2.0))).with_field(float(rng.uniform(-0.1, 0.1)))
            liouv = build_liouvillian(spec)
            sigma = steady_state(liouv)
            residual = liouv.matrix @ vectorize(sigma) + liouv.pump
            assert np.abs(residual).max() < 1e-10
            assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(sigma, sigma.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(sigma).min() > -1e-10

    def test_unpumped_steady_state_is_isotropic_ground(self):
        spec = eit_spec(0.0)
        sigma = steady_state(build_liouvillian(spec))
        np.testing.assert_allclose(np.diag(sigma).real, [1 / 3, 1 / 3, 1 / 3, 0], atol=1e-12)


class TestPropagators:
    def test_modal_matches_integrator(self):
        spec = eit_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        reference = propagate_integrated(liouv, y0, dt=0.05, t_end=100.0)
        modal = propagate_modal(liouv, y0, reference.times)
        np.testing.assert_allclose(modal.w, reference.w, atol=1e-9)

    def test_integrator_step_halving_converged(self):
        spec = eia_spec(2.0).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        coarse = propagate_integrated(liouv, y0, dt=0.05, t_end=50.0)
        fine = propagate_integrated(liouv, y0, dt=0.025, t_end=50.0)
        np.testing.assert_allclose(coarse.w, fine.w[::2], atol=1e-9)

    @pytest.mark.parametrize("steps", [1, 7, 25])
    def test_step_map_matches_classic_rk4_steps(self, steps):
        spec = eia_spec(0.2).with_field(0.03)
        liouv = build_liouvillian(spec)
        m, p0, h = liouv.matrix, liouv.pump, 0.037
        y0 = steady_vector(spec, 0.0)
        expected = y0.copy()
        for _ in range(steps):
            k1 = m @ expected + p0
            k2 = m @ (expected + 0.5 * h * k1) + p0
            k3 = m @ (expected + 0.5 * h * k2) + p0
            k4 = m @ (expected + h * k3) + p0
            expected = expected + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step_matrix, shift = dynamics._rk4_map(m, p0, h, steps)
        np.testing.assert_allclose(step_matrix @ y0 + shift, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("grid", ["geometric", "twice", "mixed"])
    def test_integrator_on_irregular_grid_matches_classic_rk4(self, monkeypatch, grid):
        # a geometric grid never repeats an interval, and a grid that meets each
        # interval exactly twice does not repeat it often enough to repay a map,
        # so neither builds one; a mixed grid builds maps only for the interval
        # that recurs often
        spec = eia_spec(0.2).with_field(0.03)
        liouv = build_liouvillian(spec)
        m, p0 = liouv.matrix, liouv.pump
        y0 = steady_vector(spec, 0.0)
        if grid == "geometric":
            times = np.geomspace(1e-3, 20.0, 120)
        elif grid == "twice":
            times = np.repeat(np.geomspace(0.01, 5, 100), 2).cumsum()
        else:
            times = np.concatenate([np.geomspace(1e-3, 2.0, 40), 2.0 + np.arange(1, 81) * 0.13])
        built = []
        rk4_map = dynamics._rk4_map
        monkeypatch.setattr(dynamics, "_rk4_map",
                            lambda *args: built.append(args[3]) or rk4_map(*args))
        trace = dynamics._integrate_at_times(liouv, y0, times)

        expected, y, t_prev = [], y0.copy(), 0.0
        for t in times:
            steps = int(np.ceil((t - t_prev) / dynamics.MAX_INTEGRATOR_STEP))
            h = (t - t_prev) / steps
            for _ in range(steps):
                k1 = m @ y + p0
                k2 = m @ (y + 0.5 * h * k1) + p0
                k3 = m @ (y + 0.5 * h * k2) + p0
                k4 = m @ (y + h * k3) + p0
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_prev = t
            expected.append((liouv.absorption_row @ y).real)
        np.testing.assert_allclose(trace.w, expected, rtol=0, atol=1e-13)
        if grid == "mixed":
            assert 1 <= len(built) <= 4
        else:
            assert built == []

    def test_integrator_maps_no_interval_of_an_exactly_twice_grid_on_3_to_4(self, monkeypatch):
        # mapping an interval of s steps costs about (3 + 2 log2 s) N^3, and
        # stepping its two occurrences 2 * 4 s N^2; with N = 256 the map never pays
        liouv = build_liouvillian(TransitionSpec(fg=3, fe=4, rabi=0.5, gamma=GAMMA, b_field=0.03))
        built = []
        rk4_map = dynamics._rk4_map
        monkeypatch.setattr(dynamics, "_rk4_map",
                            lambda *args: built.append(args[3]) or rk4_map(*args))
        times = np.repeat(np.geomspace(0.01, 5, 100), 2).cumsum()
        dynamics._integrate_at_times(liouv, liouv.pump / GAMMA, times)  # from the isotropic ground
        assert built == []

    @pytest.mark.parametrize("times", [np.arange(2001) * 0.05,
                                       np.linspace(0.0, 2500.0, 2000, endpoint=False)])
    def test_integrator_still_maps_uniform_grids(self, monkeypatch, times):
        spec = eia_spec(0.2).with_field(0.03)
        liouv = build_liouvillian(spec)
        built = []
        rk4_map = dynamics._rk4_map
        monkeypatch.setattr(dynamics, "_rk4_map",
                            lambda *args: built.append(args[3]) or rk4_map(*args))
        trace = dynamics._integrate_at_times(liouv, steady_vector(spec, 0.0), times)
        # float spacing splits a uniform grid into a few interval keys; the
        # frequent ones are mapped, and they cover most of the grid
        assert 1 <= len(built) <= 8
        reference = propagate_modal(liouv, steady_vector(spec, 0.0), times)
        np.testing.assert_allclose(trace.w, reference.w, rtol=0, atol=1e-8)

    def test_integrator_uses_no_spectrum(self, monkeypatch):
        spec = eia_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        times = np.arange(201) * 0.05
        modal = propagate_modal(liouv, y0, times)

        def refuse(*args, **kwargs):
            raise AssertionError("the integrator must not use the spectrum or the block")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(dynamics, "_invariant_block", refuse)
        trace = propagate_integrated(liouv, y0, dt=0.05, t_end=10.0)
        np.testing.assert_allclose(trace.w, modal.w, rtol=0, atol=1e-9)

    def test_integrator_rejects_oversized_step(self):
        liouv = build_liouvillian(eit_spec(0.02))
        y0 = steady_vector(eit_spec(0.02), 0.0)
        with pytest.raises(ValueError):
            propagate_integrated(liouv, y0, dt=0.06, t_end=1.0)
        with pytest.raises(ValueError):
            propagate_integrated(liouv, y0, dt=-0.01, t_end=1.0)

    def test_modal_accepts_matrix_or_vector_initial_state(self):
        spec = eit_spec(0.02).with_field(0.03)
        liouv = build_liouvillian(spec)
        sigma0 = steady_state(build_liouvillian(spec.with_field(0.0)))
        times = np.linspace(0.0, 10.0, 11)
        from_matrix = propagate_modal(liouv, sigma0, times)
        from_vector = propagate_modal(liouv, vectorize(sigma0), times)
        np.testing.assert_allclose(from_matrix.w, from_vector.w, atol=1e-15)

    def test_modal_starts_at_initial_state(self):
        spec = eit_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        trace, states = propagate_modal(liouv, y0, np.array([0.0, 1.0]), keep_states=True)
        np.testing.assert_allclose(states[0], y0, atol=1e-9)

    def test_modal_fallback_when_eigenvectors_untrustworthy(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", 1.0)
        spec = eit_spec(0.02).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        times = np.linspace(0.0, 20.0, 21)
        with pytest.warns(UserWarning, match="condition"):
            fallback = propagate_modal(liouv, y0, times)
        assert fallback.meta["modal_fallback"] is True
        reference = dynamics._integrate_at_times(liouv, y0, times)
        np.testing.assert_allclose(fallback.w, reference.w, atol=1e-12)


class TestSwitchSchedule:
    def test_phase_layout(self):
        schedule = SwitchSchedule(b1=0.03, period=5000.0, duty=0.5, samples_per_period=4000)
        phases = schedule.phases()
        assert phases[0] == (0.0, 2500.0, 2000)
        assert phases[1] == (0.03, 2500.0, 2000)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchSchedule(b1=0.03, period=-1.0)
        with pytest.raises(ValueError):
            SwitchSchedule(b1=0.03, duty=1.5)
        with pytest.raises(ValueError):
            SwitchSchedule(b1=0.03, samples_per_period=0)
        for bad in (float("nan"), float("inf")):
            for name in ("b1", "b0", "period", "duty"):
                with pytest.raises(ValueError, match=name):
                    SwitchSchedule(**{"b1": 0.03, name: bad})


class TestSwitchedTransient:
    def test_structure(self):
        spec = eit_spec(0.02)
        schedule = SwitchSchedule(b1=0.03, period=1000.0, samples_per_period=400)
        trace = switched_transient(spec, schedule)
        assert trace.times.size == 400
        assert np.all(np.diff(trace.times) > 0)
        np.testing.assert_allclose(trace.b[:200], 0.0)
        np.testing.assert_allclose(trace.b[200:], 0.03)
        assert trace.meta["b1"] == 0.03
        assert trace.meta["solver"] == "modal"

    def test_starts_from_field_on_steady_state(self):
        spec = eit_spec(0.06)
        schedule = SwitchSchedule(b1=0.03, period=1000.0, samples_per_period=400)
        trace, states = switched_transient(spec, schedule, keep_states=True)
        np.testing.assert_allclose(states[0], steady_vector(spec, 0.03), atol=1e-9)

    @pytest.mark.parametrize("duty, held", [(0.0, 0.03), (1.0, 0.0)])
    def test_a_field_that_never_switches_gives_a_flat_record(self, duty, held):
        spec = eit_spec(0.09)
        schedule = SwitchSchedule(b1=0.03, duty=duty, period=1000.0, samples_per_period=400)
        trace = switched_transient(spec, schedule)
        np.testing.assert_array_equal(trace.b, held)
        expected = absorption(steady_state(build_liouvillian(spec.with_field(held))), spec)
        np.testing.assert_allclose(trace.w, expected, rtol=0, atol=1e-12)

    def test_absorption_continuous_across_switch(self):
        # sigma is continuous and the coupling operator does not depend on B,
        # so w must not jump at the phase boundary beyond its local slew
        spec = eit_spec(0.06)
        schedule = SwitchSchedule(b1=0.03, period=5000.0, samples_per_period=4000)
        trace = switched_transient(spec, schedule)
        boundary_jump = abs(trace.w[2000] - trace.w[1999])
        local_slew = np.abs(np.diff(trace.w[1990:1999])).max() + np.abs(np.diff(trace.w[2000:2010])).max()
        assert boundary_jump < 10 * local_slew + 1e-12

    def test_eit_recovery_direction(self):
        # field off: absorption decays toward the dark steady state;
        # field on: absorption recovers
        spec = eit_spec(0.06)
        trace = switched_transient(spec, SwitchSchedule(b1=0.03))
        off, on = split_phases(trace)
        assert off.w[-1] < off.w[0]
        assert on.w[-1] > on.w[0]

    def test_multiple_periods(self):
        spec = eit_spec(0.02)
        schedule = SwitchSchedule(b1=0.03, period=1000.0, n_periods=2, samples_per_period=200)
        trace = switched_transient(spec, schedule)
        phases = split_phases(trace)
        assert [p.meta["phase_b"] for p in phases] == [0.0, 0.03, 0.0, 0.03]
        assert trace.times.size == 400
        assert np.all(np.diff(trace.times) > 0)

    def test_split_phases_rezeroes_clocks(self):
        spec = eit_spec(0.02)
        trace = switched_transient(spec, SwitchSchedule(b1=0.03, period=1000.0, samples_per_period=200))
        off, on = split_phases(trace)
        assert off.times[0] == 0.0
        assert on.times[0] == 0.0
        assert on.meta["phase_start"] == pytest.approx(500.0)

    def test_fallback_integrates_every_phase_and_names_its_solver(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", 1.0)
        spec = eia_spec(0.06)
        schedule = SwitchSchedule(b1=0.03, period=200.0, samples_per_period=40)
        with pytest.warns(UserWarning, match="condition"):
            trace = switched_transient(spec, schedule)
        assert trace.meta["solver"] == ("integrated", "integrated")

        (b0, d0, n0), (b1, d1, n1) = schedule.phases()
        liouv0 = build_liouvillian(spec.with_field(b0))
        liouv1 = build_liouvillian(spec.with_field(b1))
        y0 = steady_vector(spec, b1)
        first = dynamics._integrate_at_times(liouv0, y0, np.linspace(0.0, d0, n0, endpoint=False))
        _, (handoff,) = dynamics._integrate_at_times(liouv0, y0, [d0], keep_states=True)
        second = dynamics._integrate_at_times(
            liouv1, handoff, np.linspace(0.0, d1, n1, endpoint=False)
        )
        reference = np.concatenate([first.w, second.w])
        np.testing.assert_allclose(trace.w, reference, rtol=0, atol=1e-12)

    def test_ill_conditioned_phase_matches_exact_stepping(self):
        # sigma+ light on 2 -> 2 leaves the zero-field block near-defective, so
        # that phase is integrated; expm of [[M, p0], [0, 0]] steps it exactly
        spec = TransitionSpec(fg=2, fe=2, rabi=0.0, gamma=GAMMA, pol="sigma+").with_intensity(0.06)
        schedule = SwitchSchedule(b1=0.03, samples_per_period=400)
        with pytest.warns(UserWarning, match="condition"):
            trace = switched_transient(spec, schedule)
        assert trace.meta["solver"] == ("integrated", "modal")

        y = steady_vector(spec, schedule.b1)
        expected = []
        for b_val, duration, n_samples in schedule.phases():
            liouv = build_liouvillian(spec.with_field(b_val))
            augmented = np.zeros((liouv.size + 1, liouv.size + 1), dtype=complex)
            augmented[:-1, :-1] = liouv.matrix
            augmented[:-1, -1] = liouv.pump
            step = scipy.linalg.expm(augmented * (duration / n_samples))
            z = np.append(y, 1.0)
            for _ in range(n_samples):
                expected.append((liouv.absorption_row @ z[:-1]).real)
                z = step @ z
            y = z[:-1]
        expected = np.array(expected)
        assert np.abs(trace.w - expected).max() <= 1e-9 * np.abs(expected).max()

    @pytest.mark.parametrize("n_periods", [1, 3])
    def test_one_eigendecomposition_per_field(self, monkeypatch, n_periods):
        # on the 34 of 64 Liouville indices that linear light reaches on 1 -> 2
        calls = []
        eig = np.linalg.eig

        def counting_eig(matrix):
            calls.append(matrix.shape)
            return eig(matrix)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        schedule = SwitchSchedule(b1=0.03, period=1000.0, n_periods=n_periods,
                                  samples_per_period=200)
        switched_transient(eia_spec(0.06), schedule)
        assert calls == [(34, 34), (34, 34)]

    def test_physicality_along_trajectory(self):
        spec = eia_spec(0.06)
        _, states = switched_transient(
            spec, SwitchSchedule(b1=0.03, samples_per_period=500), keep_states=True
        )
        report = trajectory_physicality(states)
        assert report["trace_drift"] < 1e-10
        assert report["min_eigenvalue"] > -1e-9
        assert report["hermiticity_defect"] < 1e-10


def test_physicality_matches_per_sample_reference():
    rng = np.random.default_rng(11)
    states = rng.normal(size=(30, 16)) + 1j * rng.normal(size=(30, 16))
    expected = {"trace_drift": 0.0, "min_eigenvalue": np.inf, "hermiticity_defect": 0.0}
    for y in states:
        sigma = y.reshape(4, 4)
        expected["trace_drift"] = max(expected["trace_drift"], abs(np.trace(sigma).real - 1.0))
        expected["hermiticity_defect"] = max(
            expected["hermiticity_defect"], np.abs(sigma - sigma.conj().T).max()
        )
        expected["min_eigenvalue"] = min(
            expected["min_eigenvalue"], np.linalg.eigvalsh((sigma + sigma.conj().T) / 2.0).min()
        )
    report = trajectory_physicality(states)
    assert report.keys() == expected.keys()
    for name, value in expected.items():
        assert report[name] == pytest.approx(value, rel=0, abs=1e-15)


class TestTransitTime:
    def test_formula(self):
        mass = 86.909180531 * atomic_mass
        expected = 0.01 / np.sqrt(2.0 * boltzmann * 330.0 / mass)
        assert transit_time(0.01, 330.0, mass) == pytest.approx(expected, rel=1e-12)

    def test_constants_equal_scipy_constants(self):
        assert dynamics._BOLTZMANN == boltzmann
        assert _ATOMIC_MASS_KG == atomic_mass

    def test_scalings(self):
        mass = 1.4e-25
        base = transit_time(0.01, 300.0, mass)
        assert transit_time(0.02, 300.0, mass) == pytest.approx(2 * base)
        assert transit_time(0.01, 1200.0, mass) == pytest.approx(base / 2)
        assert transit_time(0.01, 300.0, 4 * mass) == pytest.approx(2 * base)

    def test_rejects_nonpositive_inputs(self):
        for args in ((0.0, 300.0, 1e-25), (0.01, -5.0, 1e-25), (0.01, 300.0, 0.0)):
            with pytest.raises(ValueError):
                transit_time(*args)
        for index in range(3):
            for bad in (float("nan"), float("inf")):
                args = [0.01, 300.0, 1e-25]
                args[index] = bad
                with pytest.raises(ValueError, match="finite"):
                    transit_time(*args)
