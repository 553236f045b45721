"""Eigenmode machinery, observability, dark states, the open three-level model."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import hanlesim.dynamics as dynamics
import hanlesim.liouvillian as liouvillian
import hanlesim.spectral as spectral
from hanlesim import (
    OpenLambdaSpec,
    build_liouvillian,
    classify_groups,
    dark_state,
    eigenmodes,
    intensity_sweep,
    open_lambda_liouvillian,
    propagate_modal,
    steady_state,
    sweep_modes,
    vectorize,
)
from hanlesim.cli import _transition_spec, build_config
from hanlesim.dynamics import _invariant_block
from hanlesim.liouvillian import coupling_matrix, hamiltonian, isotropic_ground
from hanlesim.spectral import GROUP_AMBIGUITY_BAND, OBSERVABILITY_TOL, SWEEP_COLUMNS, EigenMode

from support import (
    GAMMA,
    count_assemblies,
    eia_spec,
    eit_spec,
    nearest_match_distance,
    record_shapes,
    steady_vector,
)


class TestEigenmodes:
    def test_residuals_and_count(self):
        for spec in (eit_spec(0.06).with_field(0.03), eia_spec(2.0).with_field(0.01)):
            liouv = build_liouvillian(spec)
            modes = eigenmodes(liouv)
            assert len(modes) == liouv.size
            for mode in modes:
                residual = liouv.matrix @ mode.vector - mode.value * mode.vector
                assert np.abs(residual).max() < 1e-9

    def test_spectrum_closed_under_conjugation(self):
        liouv = build_liouvillian(eia_spec(0.6).with_field(0.07))
        values = [m.value for m in eigenmodes(liouv)]
        conjugates = [np.conj(v) for v in values]
        assert nearest_match_distance(values, conjugates) < 1e-9

    def test_all_decaying(self):
        # every mode must relax: the Liouvillian spectrum lies in Re < 0
        for spec in (eit_spec(0.002), eia_spec(2.0).with_field(0.03)):
            modes = eigenmodes(build_liouvillian(spec))
            assert max(m.value.real for m in modes) < 0.0

    def test_sorted_slowest_first(self):
        modes = eigenmodes(build_liouvillian(eit_spec(0.02).with_field(0.01)))
        reals = [m.value.real for m in modes]
        assert reals == sorted(reals, reverse=True)


class TestClassifyGroups:
    def test_three_groups_at_low_intensity(self):
        # ground-state modes cluster at ~gamma, optical coherences at ~1/2,
        # excited modes at ~1; the group-1 census for 1->0 is exactly 9
        modes = classify_groups(eigenmodes(build_liouvillian(eit_spec(0.002))), gamma=GAMMA)
        assert sum(1 for m in modes if m.group == 1) == 9
        assert all(m.group in (1, 2, 3) for m in modes)
        assert not any(m.ambiguous_group for m in modes)

    def test_group_counts_partition_spectrum(self):
        modes = classify_groups(eigenmodes(build_liouvillian(eia_spec(0.006))), gamma=GAMMA)
        assert len(modes) == 64
        assert sum(1 for m in modes if m.group == 1) == 9

    def test_ambiguity_flagged_near_boundaries(self):
        # drive hard enough that some rates approach the group-1/2 boundary
        modes = classify_groups(eigenmodes(build_liouvillian(eit_spec(2.0))), gamma=GAMMA)
        assert all(m.group is not None for m in modes)


    def test_weights_without_initial_state(self):
        liouv = build_liouvillian(eia_spec(0.06).with_field(0.03))
        for mode in eigenmodes(liouv):
            assert mode.amplitude is None and mode.observable is None
            assert abs(mode.weight - liouv.absorption_row @ mode.vector) <= 1e-12


class TestModeAmplitudes:
    def test_reconstructs_initial_offset(self):
        spec = eit_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        y_ss = vectorize(steady_state(liouv))
        modes = eigenmodes(liouv, y0)
        recon = sum(m.amplitude * m.vector for m in modes)
        np.testing.assert_allclose(recon, y0 - y_ss, atol=1e-9)

    def test_accepts_a_density_matrix(self):
        spec = eit_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        sigma0 = steady_state(build_liouvillian(spec.with_field(0.0)))
        from_matrix = [m.amplitude for m in eigenmodes(liouv, sigma0)]
        from_vector = [m.amplitude for m in eigenmodes(liouv, vectorize(sigma0))]
        np.testing.assert_array_equal(from_matrix, from_vector)

    def test_modal_identity_reproduces_propagation(self):
        spec = eia_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.0)
        y_ss = vectorize(steady_state(liouv))
        modes = eigenmodes(liouv, y0)
        times = np.linspace(0.0, 200.0, 40)
        states = np.array([
            y_ss + sum(m.amplitude * m.vector * np.exp(m.value * t) for m in modes)
            for t in times
        ])
        trace, reference = propagate_modal(liouv, y0, times, keep_states=True)
        np.testing.assert_allclose(states, reference, atol=1e-9)


class TestObservability:
    @pytest.mark.parametrize("make_spec", [eit_spec, eia_spec])
    def test_trace_mode_unobservable_at_zero_field(self, make_spec):
        spec = make_spec(0.02)
        liouv = build_liouvillian(spec)
        y0 = steady_vector(spec, 0.03)
        modes = eigenmodes(liouv, y0)
        trace_modes = [m for m in modes if abs(m.value + GAMMA) < 1e-10]
        assert trace_modes
        assert all(not m.observable for m in trace_modes)

    def test_slow_mode_observable_at_finite_field(self):
        spec = eit_spec(0.06).with_field(0.03)
        liouv = build_liouvillian(spec)
        modes = eigenmodes(liouv, steady_vector(spec, 0.0))
        slow_real = [m for m in modes
                     if abs(m.value.imag) < 1e-9 and -m.value.real < 0.01 and m.observable]
        assert slow_real

    def test_every_mode_gets_flags_and_weights(self):
        spec = eia_spec(0.02).with_field(0.01)
        liouv = build_liouvillian(spec)
        modes = eigenmodes(liouv, steady_vector(spec, 0.0))
        for mode in modes:
            assert mode.observable in (True, False)
            assert mode.amplitude is not None
            assert mode.weight is not None


class TestDarkState:
    def test_coupling_annihilates_dark_state(self):
        for pol in ("linear-y", "linear-x"):
            spec = eit_spec(0.06, pol=pol)
            dark, bright = dark_state(spec)
            w = coupling_matrix(spec)
            assert np.abs(w.conj().T @ dark).max() < 1e-14
            assert np.abs(w.conj().T @ bright).max() > 0.1

    def test_dark_and_bright_are_orthogonal_pure_states(self):
        dark, bright = dark_state(eit_spec(0.02))
        for state in (dark, bright):
            assert np.trace(state).real == pytest.approx(1.0)
            np.testing.assert_allclose(state @ state, state, atol=1e-14)  # pure
        assert abs(np.trace(dark @ bright)) < 1e-14

    def test_canonical_minus_combination_for_linear_y(self):
        dark, _ = dark_state(eit_spec(0.02, pol="linear-y"))
        ket = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(dark, np.outer(ket, ket), atol=1e-14)

    def test_dark_projector_evolves_only_by_ground_relaxation(self):
        # all light-coupling terms annihilate |dark><dark|, so its derivative
        # is purely the transit-relaxation drag toward the isotropic state
        spec = eit_spec(0.06)
        dark, _ = dark_state(spec)
        liouv = build_liouvillian(spec)
        derivative = liouv.matrix @ vectorize(dark) + liouv.pump
        expected = -spec.gamma * (vectorize(dark) - vectorize(isotropic_ground(spec)))
        np.testing.assert_allclose(derivative, expected, atol=1e-13)

    def test_requires_dark_capable_transition(self):
        with pytest.raises(ValueError):
            dark_state(eia_spec(0.02))
        with pytest.raises(ValueError):
            dark_state(eit_spec(0.02, pol="sigma+"))


class TestOpenLambda:
    def test_matches_full_model_spectrum_at_one_third_sink(self):
        for b_field, intensity in ((0.0, 0.006), (0.03, 0.06)):
            full = build_liouvillian(eit_spec(intensity).with_field(b_field))
            full_values = np.linalg.eigvals(full.matrix)
            open_spec = OpenLambdaSpec(
                rabi=np.sqrt(intensity), gamma=GAMMA, zeeman=b_field, sink_fraction=1 / 3
            )
            open_values = np.linalg.eigvals(open_lambda_liouvillian(open_spec).matrix)
            assert nearest_match_distance(open_values, full_values) < 1e-10

    def test_undriven_ground_modes_relax_at_gamma(self):
        open_spec = OpenLambdaSpec(rabi=0.0, gamma=GAMMA, sink_fraction=0.2)
        values = np.linalg.eigvals(open_lambda_liouvillian(open_spec).matrix)
        at_gamma = np.abs(values + GAMMA) < 1e-12
        assert at_gamma.sum() >= 9

    def test_matches_direct_bloch_evaluation(self):
        # the generator written out term by term from the OpenLambdaSpec
        # docstring, independent of the kron assembly
        rng = np.random.default_rng(5)
        for sink in (1 / 3, 0.0, 0.7):
            spec = OpenLambdaSpec(rabi=float(rng.uniform(0.05, 1.5)), gamma=GAMMA,
                                  detuning=float(rng.uniform(-0.5, 0.5)),
                                  zeeman=float(rng.uniform(-0.1, 0.1)), sink_fraction=sink)
            arm = spec.rabi / (2.0 * np.sqrt(6.0))
            h = np.diag([-spec.zeeman, spec.zeeman, 0.0, spec.detuning]).astype(complex)
            h[0, 3] = h[3, 0] = h[1, 3] = h[3, 1] = arm
            p_e = np.diag([0.0, 0.0, 0.0, 1.0])
            branching = np.diag([(1 - sink) / 2, (1 - sink) / 2, sink, 0.0])
            rest = np.diag([1.0, 1.0, 1.0, 0.0]) / 3.0
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            sigma = raw @ raw.conj().T
            sigma /= np.trace(sigma)
            direct = (
                -1j * (h @ sigma - sigma @ h)
                - 0.5 * (p_e @ sigma + sigma @ p_e)
                + branching * sigma[3, 3]
                - spec.gamma * (sigma - rest)
            )
            liouv = open_lambda_liouvillian(spec)
            assembled = (liouv.matrix @ vectorize(sigma) + liouv.pump).reshape(4, 4)
            np.testing.assert_allclose(assembled, direct, atol=1e-14)

    def test_trace_records_model_and_splitting(self):
        liouv = open_lambda_liouvillian(OpenLambdaSpec(rabi=0.3, gamma=GAMMA, zeeman=0.01))
        trace = propagate_modal(liouv, np.diag([0.5, 0.5, 0.0, 0.0]), [0.0, 1.0])
        assert trace.meta == {"model": "OpenLambdaSpec", "solver": "modal", "b_field": 0.01}
        np.testing.assert_array_equal(trace.b, [0.01, 0.01])

    @pytest.mark.parametrize("name", ["rabi", "gamma", "detuning", "zeeman", "sink_fraction"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_parameters(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OpenLambdaSpec(**{"rabi": 0.3, "gamma": GAMMA, name: bad})

    def test_trace_preserving(self):
        liouv = open_lambda_liouvillian(OpenLambdaSpec(rabi=0.3, gamma=GAMMA, zeeman=0.01))
        identity = vectorize(np.eye(4))
        np.testing.assert_allclose(identity @ liouv.matrix, -GAMMA * identity, atol=1e-14)
        assert identity @ liouv.pump == pytest.approx(GAMMA)


def per_mode_groups(rates, gamma):
    """(group, ambiguous) of each rate by classify_groups' rule as first written, one mode at a time."""
    t12, t23 = sqrt(gamma * 0.5), sqrt(0.5)
    return [
        (1 if rate < t12 else (2 if rate < t23 else 3),
         any(thr * (1 - GROUP_AMBIGUITY_BAND) <= rate <= thr * (1 + GROUP_AMBIGUITY_BAND)
             for thr in (t12, t23)))
        for rate in rates
    ]


@st.composite
def rates_and_gamma(draw):
    """A gamma in (0, 2], gamma >= 1 included, and rates on, just beside and away from its edges."""
    gamma = draw(st.one_of(st.floats(0.0, 2.0, exclude_min=True), st.sampled_from([1.0, 1.5, 2.0])))
    edges = [thr * (1 + side * GROUP_AMBIGUITY_BAND)
             for thr in (sqrt(gamma * 0.5), sqrt(0.5)) for side in (-1, 0, 1)]
    near = st.sampled_from(edges).flatmap(
        lambda edge: st.sampled_from([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 4.0)]))
    rates = draw(st.lists(st.one_of(near, st.floats(0.0, 3.0)), max_size=30))
    return np.array(rates, dtype=float), gamma


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rates_and_gamma())
def test_vectorized_groups_follow_the_per_mode_rule(drawn):
    rates, gamma = drawn
    groups, ambiguous = spectral._groups(rates, gamma)
    expected = per_mode_groups(rates.tolist(), gamma)
    assert list(zip(groups.tolist(), ambiguous.tolist())) == expected
    modes = classify_groups([EigenMode(complex(-rate, 0.5), np.zeros(1)) for rate in rates], gamma)
    assert [(mode.group, mode.ambiguous_group) for mode in modes] == expected


class TestIntensitySweep:
    def test_row_grid_and_columns(self):
        spec = eit_spec(0.0)
        grid = (0.002, 0.02)
        columns = intensity_sweep(spec, grid, b1=0.03)
        assert list(columns) == list(SWEEP_COLUMNS)
        assert {len(cells) for cells in columns.values()} == {2 * 2 * 16}  # intensities x cases x modes
        assert sorted(set(columns["intensity"])) == [0.002, 0.02]
        assert set(columns["b_case"]) == {"B0", "B1"}

    def test_weights_nonnegative_flags_integral(self):
        columns = intensity_sweep(eit_spec(0.0), (0.006,), b1=0.03)
        assert min(columns["w_mode"]) >= 0.0
        assert set(columns["observable"]) <= {0, 1}
        assert set(columns["group"]) <= {1, 2, 3}

    def test_rabi_frequencies_are_those_of_the_spec_copies(self, monkeypatch):
        # the sweep takes rabi from the grid itself: bit for bit what with_intensity gives
        spec, grid, seen = eit_spec(0.0), np.geomspace(1e-3, 4.0, 40), []
        steady = spectral._sector_steady
        monkeypatch.setattr(spectral, "_sector_steady",
                            lambda affine, rabi, b_field: seen.append(rabi) or steady(affine, rabi, b_field))
        intensity_sweep(spec, grid, b1=0.03)
        expected = np.repeat([spec.with_intensity(intensity).rabi for intensity in grid.tolist()], 2)
        assert seen[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [-0.5, -np.inf, np.nan, np.inf])
    def test_an_intensity_negative_or_not_finite_raises_as_with_intensity(self, bad):
        with pytest.raises(ValueError) as expected:
            eit_spec(0.0).with_intensity(bad)
        with pytest.raises(ValueError) as raised:
            intensity_sweep(eit_spec(0.0), (0.1, bad, -1.0), b1=0.03)
        assert str(raised.value) == str(expected.value)

    def test_sweep_modes_keyed_by_intensity_and_case(self):
        result = sweep_modes(eit_spec(0.0), (0.002,), b1=0.03)
        assert set(result) == {(0.002, "B0"), (0.002, "B1")}
        assert len(result[(0.002, "B0")]) == 16

    def test_columns_equal_the_records_and_build_none(self, monkeypatch):
        config = build_config("fig7a", None, {}, "spectrum")
        spec = _transition_spec(config)
        grid = np.geomspace(config.sweep_min, config.sweep_max, config.sweep_points)
        expected = {name: [] for name in SWEEP_COLUMNS}
        for (intensity, case), modes in sweep_modes(spec, grid, config.b1).items():
            for mode in modes:
                for name, cell in zip(SWEEP_COLUMNS, (
                        intensity, case, float(mode.value.real), float(mode.value.imag),
                        mode.group, int(mode.observable), float(abs(mode.weight)))):
                    expected[name].append(cell)

        def refuse(*args, **kwargs):
            raise AssertionError("intensity_sweep built an EigenMode")

        monkeypatch.setattr(spectral, "EigenMode", refuse)
        assert intensity_sweep(spec, grid, config.b1) == expected


def full_eig_sweep(spec, intensities, b1):
    """sweep_modes rebuilt the way it was first written: one assembly and one full eig per point."""
    out = {}
    for intensity in intensities:
        spec_i = spec.with_intensity(intensity)
        liouvs = {case: build_liouvillian(spec_i.with_field(b))
                  for case, b in (("B0", 0.0), ("B1", b1))}
        steadies = {case: np.linalg.solve(liouv.matrix, -liouv.pump)
                    for case, liouv in liouvs.items()}
        for case, other in (("B0", "B1"), ("B1", "B0")):
            lam, vecs = np.linalg.eig(liouvs[case].matrix)
            order = np.lexsort((lam.imag, -lam.real))
            modes = [EigenMode(value=lam[k], vector=vecs[:, k]) for k in order]
            classify_groups(modes, spec.gamma)
            # the switched-field initial state is the other case's steady state
            amps = np.linalg.solve(vecs[:, order], steadies[other] - steadies[case])
            weights = liouvs[case].absorption_row @ vecs[:, order]
            amp_floor = OBSERVABILITY_TOL * np.abs(amps).max()
            weight_floor = OBSERVABILITY_TOL * np.abs(weights).max()
            for mode, a, w in zip(modes, amps, weights):
                mode.amplitude, mode.weight = a, w
                mode.observable = bool(abs(a) > amp_floor and abs(w) > weight_floor)
            out[(float(intensity), case)] = modes
    return out


class TestSplitSweep:
    @pytest.mark.parametrize("preset", ["fig7a", "fig7b"])
    def test_matches_full_eig_reference(self, preset):
        config = build_config(preset, None, {}, "spectrum")
        spec = _transition_spec(config)
        grid = np.geomspace(config.sweep_min, config.sweep_max, config.sweep_points)
        split = sweep_modes(spec, grid, config.b1)
        reference = full_eig_sweep(spec, grid, config.b1)
        assert list(split) == list(reference)
        isolated = 0
        for key, ref_modes in reference.items():
            modes = split[key]
            values = np.array([m.value for m in modes])
            ref_values = np.array([m.value for m in ref_modes])
            cost = np.abs(values[:, None] - ref_values[None, :])
            rows, cols = linear_sum_assignment(cost)
            scale = np.abs(ref_values).max()
            assert cost[rows, cols].max() <= 1e-12 * scale, key
            weight_scale = max(abs(m.weight) for m in ref_modes)
            for i, j in zip(rows, cols):
                assert (modes[i].group, modes[i].observable) == (
                    ref_modes[j].group, ref_modes[j].observable), key
                # inside a degenerate cluster the weight depends on the chosen basis
                if np.sort(np.abs(ref_values - ref_values[j]))[1] > 1e-6 * scale:
                    isolated += 1
                    assert abs(abs(modes[i].weight) - abs(ref_modes[j].weight)) <= 1e-8 * weight_scale
        assert isolated > len(reference) * 5

    @pytest.mark.parametrize("make_spec", [eit_spec, eia_spec])
    @pytest.mark.parametrize("pol", ["linear-x", "linear-y"])
    def test_modes_off_the_even_pump_sector_are_unseen_by_structure(self, make_spec, pol):
        # the start states are Theta-even and lie on the pump block: every mode of the pump
        # block's odd sector and of the rest block has amplitude and weight exactly 0
        spec = make_spec(0.0, pol=pol)
        affine = liouvillian.affine_liouvillian(spec)
        grid = [0.02, 0.3, 2.0]
        (keys, spectrum, embeddings), = spectral._sweep(spec, grid, 0.01)
        assert keys == [(i, c) for i in grid for c in ("B0", "B1")]
        assert len(embeddings) == 4  # even and odd halves of the pump block, then of the rest
        np.testing.assert_array_equal(embeddings[0][0], affine.block)
        np.testing.assert_array_equal(embeddings[0][1], affine.sector.frame)
        seen = affine.sector.base.shape[0]
        unseen = spectrum.order >= seen  # the first part's columns come first
        assert unseen.sum() == len(keys) * (spec.dim**2 - seen)
        assert np.all(spectrum.amplitudes[unseen] == 0) and np.all(spectrum.weights[unseen] == 0)
        assert not spectrum.observable[unseen].any()
        assert all(row.any() for row in spectrum.observable & ~unseen)
        columns = intensity_sweep(spec, grid, 0.01)
        assert columns["w_mode"].count(0.0) >= len(keys) * (spec.dim**2 - seen)

    @pytest.mark.parametrize("pol", ["linear-y", "sigma+"])
    def test_chunk_boundaries_inside_a_case_pair_change_nothing(self, monkeypatch, pol):
        # stacks of 1 and 3 points cut between B0 and B1 of one intensity; under sigma+ M does
        # not split, so the start states are mapped onto the decomposed part
        spec, grid = eia_spec(0.0, pol=pol), (0.02, 0.3, 2.0)
        runs = []
        for chunk in (1, 3, 32):
            monkeypatch.setattr(dynamics, "STACK_CHUNK", chunk)
            runs.append((intensity_sweep(spec, grid, 0.03), sweep_modes(spec, grid, 0.03)))
        columns, modes = runs[0]
        for other_columns, other_modes in runs[1:]:
            assert other_columns == columns
            assert list(other_modes) == list(modes)
            for key, records in modes.items():
                for mode, other in zip(records, other_modes[key], strict=True):
                    assert (other.value, other.weight, other.amplitude, other.observable) == (
                        mode.value, mode.weight, mode.amplitude, mode.observable), key
                    assert np.array_equal(other.vector, mode.vector), key
        rows = [(intensity, case, float(mode.value.real), float(mode.value.imag), mode.group,
                 int(mode.observable), float(np.hypot(mode.weight.real, mode.weight.imag)))
                for (intensity, case), records in modes.items() for mode in records]
        assert list(zip(*columns.values())) == rows

    @pytest.mark.parametrize("points", [2, 40])
    def test_sweep_assembles_at_most_three_times(self, monkeypatch, points):
        calls = count_assemblies(monkeypatch)
        sweep_modes(eia_spec(0.0), np.geomspace(1e-3, 4.0, points), b1=0.01)
        assert len(calls) <= 3

    def test_finds_the_block_once_per_sweep(self, monkeypatch):
        calls = []
        for module in (spectral, dynamics, liouvillian):
            monkeypatch.setattr(module, "_invariant_block",
                                lambda *args: calls.append(1) or _invariant_block(*args))
        sweep_modes(eia_spec(0.0), np.geomspace(1e-3, 4.0, 5), b1=0.01)
        assert len(calls) == 1

    def test_forms_each_sector_once_per_sweep(self, monkeypatch):
        # the pump block's even sector is the family's own: the sweep does not form it again
        calls, real = [], liouvillian.AffineLiouvillian.real_sector
        monkeypatch.setattr(liouvillian.AffineLiouvillian, "real_sector",
                            lambda self, block, parity: calls.append((block.size, parity))
                            or real(self, block, parity))
        sweep_modes(eia_spec(0.0), np.geomspace(1e-3, 4.0, 5), b1=0.01)
        assert sorted(calls) == [(30, -1), (30, 1), (34, -1), (34, 1)]

    @pytest.mark.parametrize("make_spec", [eit_spec, eia_spec])
    @pytest.mark.parametrize("pol", ["linear-x", "linear-y"])
    def test_no_eig_larger_than_the_pump_block(self, monkeypatch, make_spec, pol):
        spec = make_spec(0.0, pol=pol)
        liouv = build_liouvillian(spec.with_intensity(0.3).with_field(0.01))
        block_size = _invariant_block(np.nonzero(liouv.matrix), [liouv.pump]).size
        assert block_size < liouv.size
        shapes = {name: record_shapes(monkeypatch, name) for name in ("eig", "svd", "solve")}
        sweep_modes(spec, (0.02, 0.3, 2.0), b1=0.01)
        assert shapes.pop("svd") == []  # no condition number is taken
        for name, recorded in shapes.items():  # stacks over the grid: each matrix is the last two dims
            assert recorded, name
            assert max(max(shape[-2:]) for shape in recorded) <= block_size, name

    def test_circular_light_decomposes_the_full_matrix(self, monkeypatch):
        # sigma+ light on 1 -> 2: the pump block feeds its complement, so M does not split
        liouv = build_liouvillian(eia_spec(0.3, pol="sigma+").with_field(0.01))
        shapes = record_shapes(monkeypatch, "eig")
        modes = eigenmodes(liouv)
        assert shapes == [(1, liouv.size, liouv.size)]  # a stack of one point
        assert nearest_match_distance([m.value for m in modes], np.linalg.eig(liouv.matrix)[0]) < 1e-12

