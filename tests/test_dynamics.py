"""Steady states, propagators, switched transients, transit time."""

import dataclasses
import inspect
from math import floor

import numpy as np
import pytest
import scipy.linalg
from scipy.constants import atomic_mass, k as boltzmann

import hanlesim.dynamics as dynamics
import hanlesim.liouvillian as liouvillian
from hanlesim import (
    SwitchSchedule,
    TransitionSpec,
    absorption,
    build_liouvillian,
    eigenmodes,
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

from support import (GAMMA, dense_parts, eia_spec, eit_spec, entries_of, record_shapes, rk4_phases,
                     steady_vector)


def chunked_integrated(liouv, y0, dt, t_end):
    """(times, w) of ``propagate_integrated`` as it sampled before one call covered the record.

    A copy of the loop that took the samples in runs of 4096, each run starting
    from the hand-off state of the one before.
    """
    chunk = 4096
    times = np.arange(floor(t_end / dt * (1.0 + 1e-12)) + 1) * dt
    z = np.append(y0, 1.0)  # y0 a Liouville vector
    a = dt * liouv.matrix
    step = np.eye(z.size, dtype=complex)
    step[:-1] += dynamics._rk4_series(a, np.column_stack((a, dt * liouv.pump)))
    w = np.empty(times.size)
    row = np.append(liouv.absorption_row, 0.0)
    for start in range(0, times.size, chunk):
        samples, z = dynamics._sampled_steps(step, z, min(chunk, times.size - start), row)
        w[start:start + chunk] = samples.real
    return times, w


def augmented(liouv):
    """[[M, p0], [0, 0]]: its exponential steps [y; 1] exactly under dy/dt = M y + p0."""
    gen = np.zeros((liouv.size + 1, liouv.size + 1), dtype=complex)
    gen[:-1, :-1] = liouv.matrix
    gen[:-1, -1] = liouv.pump
    return gen


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
        y = steady_vector(spec, 0.0)
        expected = [y]
        for _ in range(steps):
            k1 = m @ y + p0
            k2 = m @ (y + 0.5 * h * k1) + p0
            k3 = m @ (y + 0.5 * h * k2) + p0
            k4 = m @ (y + h * k3) + p0
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(y)
        trace, states = propagate_integrated(liouv, expected[0], dt=h, t_end=steps * h,
                                             keep_states=True)
        np.testing.assert_allclose(states, expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace.w, [(liouv.absorption_row @ y).real for y in expected],
                                   rtol=0, atol=1e-13)

    def test_integrator_uses_no_spectrum(self, monkeypatch):
        spec = eia_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        times = np.arange(201) * 0.05
        modal = propagate_modal(liouv, y0, times)

        def refuse(*args, **kwargs):
            raise AssertionError("the integrator must not use the spectrum, the block or the exponential")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(dynamics, "_invariant_block", refuse)
        monkeypatch.setattr(dynamics, "_expm", refuse)
        trace = propagate_integrated(liouv, y0, dt=0.05, t_end=10.0)
        np.testing.assert_allclose(trace.w, modal.w, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("t_end, n_steps", [(3.33, 66), (0.08, 1), (2.0, 40), (100.0, 2000),
                                                 (2500.0, 50000)])
    def test_integrator_never_samples_past_t_end(self, t_end, n_steps, monkeypatch):
        counts, sampled = [], dynamics._sampled_steps

        def spy(step, z0, n_samples, row):
            counts.append(n_samples)
            return sampled(step, z0, n_samples, row)

        monkeypatch.setattr(dynamics, "_sampled_steps", spy)
        spec = eit_spec(0.02)
        trace = propagate_integrated(build_liouvillian(spec), steady_vector(spec, 0.0), dt=0.05,
                                     t_end=t_end)
        assert trace.times.size == n_steps + 1
        assert counts == [trace.times.size]  # one baby- and giant-step call covers the record
        assert trace.times[-1] <= t_end
        if t_end in (2.0, 100.0, 2500.0):  # multiples of dt end exactly at t_end
            assert trace.times[-1] == t_end

    def test_one_call_matches_the_chunked_loop_on_a_long_record(self):
        spec = eia_spec(0.3)
        liouv = build_liouvillian(spec.with_field(0.03))
        y0 = steady_vector(spec, 0.0)
        trace = propagate_integrated(liouv, y0, dt=0.05, t_end=2500.0)
        times, w = chunked_integrated(liouv, y0, dt=0.05, t_end=2500.0)
        assert trace.times.size == 50001
        np.testing.assert_array_equal(trace.times, times)
        np.testing.assert_allclose(trace.w, w, rtol=1e-13, atol=0)

    def test_integrator_rejects_oversized_step(self):
        liouv = build_liouvillian(eit_spec(0.02))
        y0 = steady_vector(eit_spec(0.02), 0.0)
        with pytest.raises(ValueError):
            propagate_integrated(liouv, y0, dt=0.06, t_end=1.0)
        with pytest.raises(ValueError):
            propagate_integrated(liouv, y0, dt=-0.01, t_end=1.0)
        # a step so small that t_end / dt overflows
        with pytest.raises(ValueError, match=r"^t_end / dt must be finite, got t_end=1\.0, dt=5e-324$"):
            propagate_integrated(liouv, y0, dt=5e-324, t_end=1.0)

    @pytest.mark.parametrize("t_end", [float("inf"), float("nan"), -1.0])
    def test_integrator_rejects_a_horizon_that_is_not_finite_and_nonnegative(self, t_end):
        liouv = build_liouvillian(eit_spec(0.02))
        with pytest.raises(ValueError, match="^t_end must be finite and >= 0"):
            propagate_integrated(liouv, steady_vector(eit_spec(0.02), 0.0), dt=0.05, t_end=t_end)

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
            fallback, states = propagate_modal(liouv, y0, times, keep_states=True)
        assert fallback.meta["solver"] == "expm"
        assert "modal_fallback" not in fallback.meta
        expected = np.array([(scipy.linalg.expm(augmented(liouv) * t) @ np.append(y0, 1.0))[:-1]
                             for t in times])
        np.testing.assert_allclose(states, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fallback.w, (expected @ liouv.absorption_row).real,
                                   rtol=0, atol=1e-12)

    def test_modal_fallback_from_a_non_hermitian_start(self, monkeypatch):
        # a lone coherence rho_01: sigma+ light never maps it onto rho_10, so the block
        # holds rho_01 without rho_10, and the complex exponential advances it as it is
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", 1.0)
        liouv = build_liouvillian(eia_spec(0.06, pol="sigma+").with_field(0.03))
        y0 = np.zeros(liouv.size, dtype=complex)
        y0[1] = 1.0
        times = np.linspace(0.0, 20.0, 21)
        with pytest.warns(UserWarning, match="condition"):
            trace, states = propagate_modal(liouv, y0, times, keep_states=True)
        expected = np.array([(scipy.linalg.expm(augmented(liouv) * t) @ np.append(y0, 1.0))[:-1]
                             for t in times])
        assert np.abs(expected[-1]).max() > 1e-3  # the coherence has not died out
        np.testing.assert_allclose(states, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.w, (expected @ liouv.absorption_row).real,
                                   rtol=0, atol=1e-12)

    def test_exponential_refuses_a_matrix_that_breaks_hermiticity(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", 1.0)
        liouv = build_liouvillian(eia_spec(0.06).with_field(0.03))
        # K = M + p0 vec(I)^T annihilates the steady state (its trace is 1), so
        # M + 0.1i K keeps it exact and passes the checked steady solve
        skew = liouv.matrix + np.outer(liouv.pump, np.eye(liouv.dim).reshape(-1))
        skewed = dataclasses.replace(liouv, matrix=liouv.matrix + 0.1j * skew)
        y0 = steady_vector(eia_spec(0.06), 0.0)
        affine = liouvillian.affine_liouvillian(eia_spec(0.06))
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            dataclasses.replace(affine, base_entries=entries_of(dense_parts(affine)[0] + 0.1j * skew)).sector
        # the modal fallback works in complex coordinates, so it needs no Hermiticity
        times = np.array([0.0, 1.0, 7.5])
        with pytest.warns(UserWarning, match="condition"):
            trace, states = propagate_modal(skewed, y0, times, keep_states=True)
        expected = np.array([(scipy.linalg.expm(augmented(skewed) * t) @ np.append(y0, 1.0))[:-1]
                             for t in times])
        np.testing.assert_allclose(states, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.w, (expected @ skewed.absorption_row).real,
                                   rtol=0, atol=1e-12)

    def test_real_generator_refuses_a_matrix_that_is_not_finite(self):
        affine = liouvillian.affine_liouvillian(eia_spec(0.06))
        block = affine.block
        base = dense_parts(affine)[0]
        base[block[1], block[1]] = np.nan
        broken = dataclasses.replace(affine, base_entries=entries_of(base))
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            broken.sector

    @pytest.mark.parametrize("start", ["hermitian", "coherence"])
    def test_modal_fallback_needs_no_real_frame(self, monkeypatch, start):
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("the modal fallback must not use real coordinates")

        monkeypatch.setattr(liouvillian, "_frame_entries", refuse)  # every real frame comes from it
        spec = eia_spec(0.06, pol="sigma+").with_field(0.03)
        liouv = build_liouvillian(spec)
        if start == "hermitian":
            y0 = steady_vector(eia_spec(0.06, pol="sigma+"), 0.0)
        else:  # the lone coherence rho_01
            y0 = np.zeros(liouv.size, dtype=complex)
            y0[1] = 1.0
        times = np.linspace(0.0, 20.0, 5)
        with pytest.warns(UserWarning, match="condition"):
            trace, states = propagate_modal(liouv, y0, times, keep_states=True)
        assert trace.meta["solver"] == "expm"
        expected = np.array([(scipy.linalg.expm(augmented(liouv) * t) @ np.append(y0, 1.0))[:-1]
                             for t in times])
        np.testing.assert_allclose(states, expected, rtol=0, atol=1e-12)

    # the fallback warns only after the decomposition, so a time checked later would warn first
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("limit", [dynamics.MODAL_CONDITION_LIMIT, 1.0], ids=["modal", "fallback"])
    @pytest.mark.parametrize("times, bad", [([-1.0, 0.5], "-1.0"), ([0.0, np.inf], "inf"),
                                            ([0.0, np.nan, 2.0], "nan")], ids=["negative", "inf", "nan"])
    def test_a_negative_or_non_finite_time_is_refused(self, monkeypatch, limit, times, bad):
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", limit)
        liouv = build_liouvillian(eit_spec(0.02).with_field(0.03))
        with pytest.raises(ValueError) as raised:
            propagate_modal(liouv, steady_vector(eit_spec(0.02), 0.0), times)
        assert str(raised.value) == f"sample times must be finite and >= 0, got {bad}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("limit", [dynamics.MODAL_CONDITION_LIMIT, 1.0], ids=["modal", "fallback"])
    @pytest.mark.parametrize("times", [[2.0, 0.5, 1.0], [0.0, 1.0, 1.0]], ids=["decreasing", "repeated"])
    def test_times_that_do_not_increase_are_refused_before_any_work(self, monkeypatch, limit, times):
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", limit)
        calls = []
        for name in ("_decompose", "_augmented_map"):
            work = getattr(dynamics, name)
            monkeypatch.setattr(dynamics, name, lambda *args, work=work: calls.append(1) or work(*args))
        liouv = build_liouvillian(eit_spec(0.02).with_field(0.03))
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            propagate_modal(liouv, steady_vector(eit_spec(0.02), 0.0), times)
        assert calls == []

    def test_modal_fallback_exponentiates_once_per_distinct_gap(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", 1.0)
        calls = []
        expm = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", lambda a: calls.append(1) or expm(a))
        spec = TransitionSpec(fg=3, fe=3, rabi=0.0, gamma=GAMMA, pol="sigma+").with_intensity(0.06)
        liouv = build_liouvillian(spec.with_field(0.03))
        y0 = steady_vector(spec, 0.0)
        times = np.linspace(0.5, 500.0, 400)
        with pytest.warns(UserWarning, match="condition"):
            trace, states = propagate_modal(liouv, y0, times, keep_states=True)
        assert len(calls) <= 1 + np.unique(np.diff(times)).size < times.size
        for k in (0, 1, 137, 280, 399):
            expected = (scipy.linalg.expm(augmented(liouv) * times[k]) @ np.append(y0, 1.0))[:-1]
            assert np.abs(states[k] - expected).max() <= 1e-10 * np.abs(expected).max()
            assert abs(trace.w[k] - (liouv.absorption_row @ expected).real) <= 1e-10 * np.abs(trace.w).max()

    def test_a_lone_coherence_seeds_a_block_without_its_transpose(self):
        liouv = build_liouvillian(eia_spec(0.06, pol="sigma+").with_field(0.03))
        y0 = np.zeros(liouv.size, dtype=complex)
        y0[1] = 1.0  # rho_01
        block = liouvillian._invariant_block(np.nonzero(liouv.matrix), [liouv.pump, y0])
        assert 1 in block and liouv.dim not in block  # rho_10 sits at index dim

    def test_a_skew_that_moves_the_steady_state_stops_at_the_steady_solve(self):
        # M (1 + 0.1i) scales the steady state by 1 / (1 + 0.1i): trace 1/1.01
        liouv = build_liouvillian(eia_spec(0.06).with_field(0.03))
        skewed = dataclasses.replace(liouv, matrix=liouv.matrix * (1.0 + 0.1j))
        with pytest.raises(np.linalg.LinAlgError, match=r"steady-state trace 0\.990099\d* is not 1$"):
            propagate_modal(skewed, steady_vector(eia_spec(0.06), 0.0), [0.0, 1.0])

    @pytest.mark.parametrize("propagate", [
        lambda liouv, y0: propagate_modal(liouv, y0, [0.0, 1.0]),
        lambda liouv, y0: propagate_integrated(liouv, y0, dt=0.05, t_end=1.0),
        eigenmodes,
    ], ids=["modal", "integrated", "eigenmodes"])
    @pytest.mark.parametrize("y0", [np.zeros(9), np.zeros((3, 3))], ids=["vector", "matrix"])
    def test_wrong_size_initial_state_names_both_sizes(self, propagate, y0):
        liouv = build_liouvillian(eit_spec(0.02))  # 1 -> 0: 16 Liouville entries
        with pytest.raises(ValueError, match=r"^initial state has 9 Liouville entries; the model has 16$"):
            propagate(liouv, y0)


SAMPLED_COUNTS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 2000)


def step_map(kind):
    """(step map E on [y; 1], absorption row c, start state z0) of a real sector or a complex RK4 run."""
    if kind == "sector":  # exp(hG) on 3 -> 4's Theta-even sector, from the steady state at zero field
        spec = TransitionSpec(fg=3, fe=4, rabi=0.0, gamma=GAMMA).with_intensity(0.6)
        affine = liouvillian.affine_liouvillian(spec)
        real = affine.sector
        gen = np.zeros((real.pump.size + 1,) * 2)
        gen[:-1, :-1] = real.base + spec.rabi * real.drive + 0.02 * real.field
        gen[:-1, -1] = real.pump
        x0 = dynamics._sector_steady(affine, spec.rabi, 0.0)
        return dynamics._expm(0.5 * gen), real.weights, np.append(x0, 1.0)
    liouv = build_liouvillian(eia_spec(0.06).with_field(0.03))  # the RK4 map at dt = 0.05
    a = 0.05 * liouv.matrix
    step = np.eye(liouv.size + 1, dtype=complex)
    step[:-1] += dynamics._rk4_series(a, np.column_stack((a, 0.05 * liouv.pump)))
    return step, liouv.absorption_row, np.append(steady_vector(eia_spec(0.06), 0.0), 1.0)


@pytest.mark.parametrize("rows", ["absorption", "states"])
@pytest.mark.parametrize("kind", ["sector", "rk4"])
def test_sampled_steps_match_one_step_at_a_time(kind, rows):
    # the samples row @ E^j z0 (with no row the states y of E^j z0 = [y; 1]) for j < n and the
    # hand-off E^max(n, 1) z0, against a matvec per step in extended precision; the map has an
    # eigenvalue 1, along which any double-precision stepping (one matvec per step, or doubling)
    # carries rounding that grows as n eps
    step, row, z0 = step_map(kind)
    row = np.append(row, 0.0) if rows == "absorption" else None
    exact, states = step.astype(np.clongdouble), [z0.astype(np.clongdouble)]
    for _ in range(max(SAMPLED_COUNTS)):
        states.append(exact @ states[-1])
    states = np.array(states)
    for n in SAMPLED_COUNTS:
        samples, handoff = dynamics._sampled_steps(step, z0, n, row)
        expected = states[:n, :-1] if row is None else states[:n] @ row
        z, bound = states[max(n, 1)], 1e-13 + n * np.finfo(float).eps
        assert np.abs(samples - expected).max(initial=0.0) <= bound * np.abs(expected).max(initial=0.0), n
        assert np.abs(handoff - z).max() <= bound * np.abs(z).max(), n


@pytest.mark.parametrize("fg, fe", [(1, 0), (1, 2), (3, 4)])
def test_every_augmented_map_has_an_exact_last_row(monkeypatch, fg, fe):
    # exp(hG) for G = [[A, p], [0, 0]] has last row [0 ... 0 1]; the Pade result misses it by about
    # 1e-13 at h = 1250, and the trailing 1 of the state would drift from map to map
    maps = []
    make = dynamics._augmented_map
    monkeypatch.setattr(dynamics, "_augmented_map", lambda *args: maps.append(make(*args)) or maps[-1])
    spec = TransitionSpec(fg=fg, fe=fe, rabi=0.0, gamma=GAMMA).with_intensity(0.09)
    for samples in (2, 7):  # steps of 1250 in both fields, then of 312.5 and 416.7
        schedule = SwitchSchedule(b1=0.03, period=2500.0, samples_per_period=samples, n_periods=2)
        switched_transient(spec, schedule)
    assert len(maps) == 4
    monkeypatch.setattr(dynamics, "MODAL_CONDITION_LIMIT", 1.0)
    times = np.array([0.5, 1250.5, 1300.0, 1310.0, 1320.0])  # the first time, then gaps 1250, 49.5 and 10
    with pytest.warns(UserWarning, match="condition"):
        propagate_modal(build_liouvillian(spec.with_field(0.03)), steady_vector(spec, 0.0), times)
    assert len(maps) == 4 + 1 + 3
    for step in maps:
        last = np.zeros(step.shape[1], dtype=step.dtype)
        last[-1] = 1.0
        assert step[-1].tobytes() == last.tobytes()


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

    @pytest.mark.parametrize("name", ["n_periods", "samples_per_period"])
    def test_counts_must_be_integers(self, name):
        for bad in (True, 2.0, 40.0, "4"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                SwitchSchedule(**{"b1": 0.03, name: bad})
        assert getattr(SwitchSchedule(**{"b1": 0.03, name: np.int64(3)}), name) == 3


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
        assert trace.meta["solver"] == "expm"

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

    def test_multiple_periods_match_rk4_phase_by_phase(self):
        # phases of 6 and 14 sampled 0.1 apart: every other point of an RK4 run with dt = 0.05
        spec = eia_spec(0.06)
        schedule = SwitchSchedule(b1=0.03, b0=0.01, period=20.0, duty=0.3, n_periods=3,
                                  samples_per_period=200)
        trace, states = switched_transient(spec, schedule, keep_states=True)
        w_ref, states_ref = rk4_phases(spec.with_field(schedule.b1), schedule)
        assert w_ref.size == 600
        np.testing.assert_allclose(trace.w, w_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(states, states_ref, rtol=0, atol=1e-9)

    # periods so long that the phase starts overflow to inf, or so short that the
    # subnormal sample grid collapses, must be refused before the steady solve and any step
    @pytest.mark.parametrize("period, n_periods, samples", [(1e308, 3, 4), (1e-320, 1, 4000)],
                             ids=["starts-overflow", "samples-collapse"])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_times_that_do_not_increase_are_refused_before_the_first_step(
            self, monkeypatch, period, n_periods, samples):
        def stepped(*args):
            raise AssertionError("a record whose times do not increase was stepped")

        monkeypatch.setattr(dynamics, "_stepped", stepped)
        schedule = SwitchSchedule(b1=0.03, period=period, n_periods=n_periods,
                                  samples_per_period=samples)
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            switched_transient(eit_spec(0.02), schedule)

    def test_split_phases_rezeroes_clocks(self):
        spec = eit_spec(0.02)
        trace = switched_transient(spec, SwitchSchedule(b1=0.03, period=1000.0, samples_per_period=200))
        off, on = split_phases(trace)
        assert off.times[0] == 0.0
        assert on.times[0] == 0.0
        assert on.meta["phase_start"] == pytest.approx(500.0)

    def test_ill_conditioned_phase_matches_exact_stepping(self):
        # sigma+ light on 2 -> 2 leaves the zero-field block near-defective;
        # expm of [[M, p0], [0, 0]] steps it exactly
        spec = TransitionSpec(fg=2, fe=2, rabi=0.0, gamma=GAMMA, pol="sigma+").with_intensity(0.06)
        schedule = SwitchSchedule(b1=0.03, samples_per_period=400)
        trace = switched_transient(spec, schedule)

        y = steady_vector(spec, schedule.b1)
        expected = []
        for b_val, duration, n_samples in schedule.phases():
            liouv = build_liouvillian(spec.with_field(b_val))
            step = scipy.linalg.expm(augmented(liouv) * (duration / n_samples))
            z = np.append(y, 1.0)
            for _ in range(n_samples):
                expected.append((liouv.absorption_row @ z[:-1]).real)
                z = step @ z
            y = z[:-1]
        expected = np.array(expected)
        assert np.abs(trace.w - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_phase_without_samples_still_moves_the_state(self):
        # duty 1e-4 gives the b0 phase a duration of 0.5 but round(0.04) = 0 samples
        spec = eia_spec(0.06)
        schedule = SwitchSchedule(b1=0.03, duty=1e-4, samples_per_period=400)
        (b0, d0, n0), (b1, d1, n1) = schedule.phases()
        assert (n0, n1) == (0, 400) and d0 > 0
        trace = switched_transient(spec, schedule)
        np.testing.assert_array_equal(trace.b, b1)
        assert trace.times[0] == pytest.approx(d0)

        liouv0 = build_liouvillian(spec.with_field(b0))
        liouv1 = build_liouvillian(spec.with_field(b1))
        z = scipy.linalg.expm(augmented(liouv0) * d0) @ np.append(steady_vector(spec, b1), 1.0)
        step = scipy.linalg.expm(augmented(liouv1) * (d1 / n1))
        expected = []
        for _ in range(n1):
            expected.append((liouv1.absorption_row @ z[:-1]).real)
            z = step @ z
        expected = np.array(expected)
        assert np.abs(trace.w - expected).max() <= 1e-9 * np.abs(expected).max()
        assert np.ptp(expected) > 1e-4 * np.abs(expected).max()  # the excursion shows

    def test_assembles_the_full_matrix_once(self, monkeypatch):
        # each field's M comes from the affine parts, which one assembly gives
        calls = []
        operators = liouvillian._operators

        def counted(spec):
            calls.append(spec)
            return operators(spec)

        # counted whether dynamics assembles through build_liouvillian or affine_liouvillian
        monkeypatch.setattr(liouvillian, "_operators", counted)
        schedule = SwitchSchedule(b1=0.03, b0=0.01, period=1000.0, samples_per_period=200)
        switched_transient(eia_spec(0.06), schedule)
        assert len(calls) == 1

    @pytest.mark.parametrize("n_periods", [1, 3])
    def test_calls_no_eig_or_svd(self, monkeypatch, n_periods):
        def refuse(*args, **kwargs):
            raise AssertionError("switched_transient must not decompose M")

        linalg_globals = inspect.unwrap(np.linalg.cond).__globals__  # cond calls svd there
        for name in ("eig", "eigvals", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
            monkeypatch.setitem(linalg_globals, name, refuse)
        schedule = SwitchSchedule(b1=0.03, period=1000.0, n_periods=n_periods,
                                  samples_per_period=200)
        trace = switched_transient(eia_spec(0.06), schedule)
        assert trace.times.size == 200 * n_periods

    def test_physicality_along_trajectory(self):
        spec = eia_spec(0.06)
        _, states = switched_transient(
            spec, SwitchSchedule(b1=0.03, samples_per_period=500), keep_states=True
        )
        report = trajectory_physicality(states)
        assert report["trace_drift"] < 1e-10
        assert report["min_eigenvalue"] > -1e-9
        assert report["hermiticity_defect"] == 0.0  # states are rebuilt from real coordinates

    @pytest.mark.parametrize("fg, fe, intensity, b1", [(3, 4, 0.06, 0.02), (3, 3, 0.6, 0.013)])
    def test_largest_ladder_sizes_match_rk4_phase_by_phase(self, fg, fe, intensity, b1):
        spec = TransitionSpec(fg=fg, fe=fe, rabi=0.0, gamma=GAMMA).with_intensity(intensity)
        schedule = SwitchSchedule(b1=b1, period=4.0, samples_per_period=40)
        trace, states = switched_transient(spec, schedule, keep_states=True)
        w_ref, states_ref = rk4_phases(spec.with_field(b1), schedule)
        np.testing.assert_allclose(trace.w, w_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(states, states_ref, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("pol", ["linear-y", "sigma+", "sigma-"])
    def test_steps_in_real_arithmetic_only(self, monkeypatch, pol):
        dtypes = {"_expm": [], "_stepped": []}

        def recording(name):
            function = getattr(dynamics, name)

            def wrapper(*args):
                dtypes[name] += [arg.dtype for arg in args if isinstance(arg, np.ndarray)]
                return function(*args)

            return wrapper

        for name in dtypes:
            monkeypatch.setattr(dynamics, name, recording(name))
        schedule = SwitchSchedule(b1=0.03, period=1000.0, n_periods=2, samples_per_period=200)
        switched_transient(eia_spec(0.06, pol=pol), schedule)
        assert all(dtypes.values())
        assert {dtype for seen in dtypes.values() for dtype in seen} == {np.dtype(np.float64)}

    def test_solves_nothing_larger_than_the_pump_block(self, monkeypatch):
        # 3 -> 4 linear light: the pump block holds 130 of the 256 Liouville indices, and its
        # Theta-even sector 73; sigma+ light keeps its whole pump block of 28
        for pol, block_size, size in (("linear-y", 130, 73), ("sigma+", 28, 28)):
            spec = TransitionSpec(fg=3, fe=4, rabi=0.0, gamma=GAMMA, pol=pol).with_intensity(0.06)
            liouv = build_liouvillian(spec)
            assert dynamics._invariant_block(np.nonzero(liouv.matrix), [liouv.pump]).size == block_size
            with monkeypatch.context() as patch:
                shapes = record_shapes(patch, "solve")
                switched_transient(spec, SwitchSchedule(b1=0.02, samples_per_period=40))
            # the steady solve on the sector, a stack of one point, and the exponential's Pade
            # solve on its augmented generator [[A, p0], [0, 0]], one larger
            assert set(shapes) == {(1, size, size), (size + 1, size + 1)}

    @pytest.mark.parametrize("fg, fe, size", [(1, 0, 7), (1, 2, 21), (2, 3, 43), (3, 3, 56), (3, 4, 73)])
    def test_linear_light_at_zero_detuning_steps_the_even_sector(self, fg, fe, size):
        spec = TransitionSpec(fg=fg, fe=fe, rabi=0.0, gamma=GAMMA).with_intensity(0.06)
        assert liouvillian.affine_liouvillian(spec).sector.base.shape == (size, size)
        for other in (dataclasses.replace(spec, pol="sigma+"), dataclasses.replace(spec, detuning=0.5)):
            affine = liouvillian.affine_liouvillian(other)
            assert affine.sector.base.shape == (affine.block.size, affine.block.size)

    def test_uses_neither_the_complex_generator_nor_a_complex_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("switched_transient must step the family's real parts")

        assert not hasattr(dynamics, "_augmented")  # the complex-to-real transform per field is gone
        monkeypatch.setattr(dynamics, "_augmented", refuse, raising=False)
        schedule = SwitchSchedule(b1=0.03, b0=0.01, period=1000.0, n_periods=2, samples_per_period=200)
        trace = switched_transient(eia_spec(0.06), schedule)
        assert trace.times.size == 400


# on these matrices eigvalsh returns 0.0 (a NaN on the diagonal) or fails (an inf off it)
NON_FINITE_STATES = {"nan-diagonal": (0, np.nan), "inf-off-diagonal": (5, np.inf)}


def non_finite_states(name):
    """Three 1 -> 0 states, the middle one with one non-finite entry."""
    index, value = NON_FINITE_STATES[name]
    states = np.zeros((3, 16), dtype=complex)
    states[:, 0] = 1.0
    states[1, index] = value
    return states


@pytest.mark.parametrize("name", NON_FINITE_STATES)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_physicality_of_a_non_finite_state_is_nan(name):
    states = non_finite_states(name)
    assert np.isnan(trajectory_physicality(states)["min_eigenvalue"])
    assert trajectory_physicality(states[[0, 2]])["min_eigenvalue"] == 0.0


@pytest.mark.parametrize("name", NON_FINITE_STATES)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_steady_check_names_a_non_finite_state_by_its_residual(name):
    states = non_finite_states(name)
    residual = np.where(np.isfinite(states), 0.0, states)
    with pytest.raises(np.linalg.LinAlgError, match=r"^steady-state residual (nan|inf) exceeds 1e-10 at "
                                                    r"intensity 2, field 0\.03$"):
        dynamics._checked(states, residual, [(1.0, 0.0), (2.0, 0.03), (3.0, 0.0)])


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

    # finite, positive inputs whose thermal speed underflows to 0 or overflows to inf,
    # or whose time overflows: the result would be inf or 0
    @pytest.mark.parametrize("args, error", [
        ((0.01, 5e-324, 1e300), ZeroDivisionError),
        ((1e308, 1e-300, 1.4e-25), FloatingPointError),
        ((0.01, 1e308, 1e-300), FloatingPointError),
    ], ids=["speed-0", "time-inf", "time-0"])
    def test_result_outside_the_float_range_raises(self, args, error):
        with pytest.raises(error):
            transit_time(*args)
