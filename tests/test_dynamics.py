"""Steady states, propagators, switched transients, transit time."""

import numpy as np
import pytest
from scipy.constants import atomic_mass, k as boltzmann

import hanlesim.dynamics as dynamics
from hanlesim import (
    SwitchSchedule,
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

from support import eia_spec, eit_spec, steady_vector


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


class TestTransitTime:
    def test_formula(self):
        mass = 86.909180531 * atomic_mass
        expected = 0.01 / np.sqrt(2.0 * boltzmann * 330.0 / mass)
        assert transit_time(0.01, 330.0, mass) == pytest.approx(expected, rel=1e-12)

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
