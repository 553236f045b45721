"""Properties over random transitions: invariant block, steady state, propagators, split spectrum, affine M."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import hanlesim.dynamics as dynamics
from hanlesim import (
    SwitchSchedule,
    TransitionSpec,
    build_liouvillian,
    eigenmodes,
    propagate_integrated,
    propagate_modal,
    steady_state,
    sweep_modes,
    switched_transient,
    trajectory_physicality,
)
import hanlesim.liouvillian as liouvillian
import hanlesim.spectral as spectral
from hanlesim.liouvillian import affine_liouvillian, coupling_absorption, vectorize
from hanlesim.spectral import OBSERVABILITY_TOL

from support import (dense_block, dense_family, dense_parts, dense_real_sector, real_frame, rk4_phases,
                     steady_vector)

# a few dozen transitions of Liouville size up to 256 keep this file near two seconds
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, database=None, derandomize=True)

NAMED_POLARIZATIONS = ("linear-x", "linear-y", "sigma+", "sigma-")


@st.composite
def general_polarizations(draw):
    """Random complex spherical vectors whose pi component is never negligible."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    vec = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    vec[1] += 0.3 if vec[1].real >= 0 else -0.3
    return tuple(vec / np.linalg.norm(vec))


@st.composite
def transitions(draw):
    """Fg <= 3, |Fg - Fe| <= 1 (half-integers included), any polarization, field and intensity.

    0 -> 0 is left out: it has no dipole, and TransitionSpec rejects it.
    """
    twice_fg = draw(st.integers(0, 6))
    twice_fe = draw(st.sampled_from([t for t in (twice_fg - 2, twice_fg, twice_fg + 2)
                                     if t >= 0 and t + twice_fg > 0]))
    pol = draw(st.one_of(st.sampled_from(NAMED_POLARIZATIONS), general_polarizations()))
    intensity = draw(st.floats(1e-3, 2.0))
    b_field = draw(st.floats(-0.1, 0.1))
    spec = TransitionSpec(fg=twice_fg / 2, fe=twice_fe / 2, rabi=0.0, gamma=0.002, pol=pol)
    return spec.with_intensity(intensity).with_field(b_field)


def _start_state(spec):
    """Steady state at a field 0.03 away from the spec's, as a Liouville vector."""
    return vectorize(steady_state(build_liouvillian(spec.with_field(spec.b_field + 0.03))))


@PROPERTY_SETTINGS
@given(transitions())
def test_block_is_invariant_and_shared_by_every_field(spec):
    liouv = build_liouvillian(spec)
    # the pump alone seeds only ground populations; the closure must find the rest
    block = dynamics._invariant_block(np.nonzero(liouv.matrix), [liouv.pump])
    complement = np.setdiff1d(np.arange(liouv.size), block)
    assert np.all(liouv.matrix[np.ix_(complement, block)] == 0)
    y0 = _start_state(spec)
    assert np.all(y0[complement] == 0)
    other = build_liouvillian(spec.with_field(-spec.b_field + 0.05))
    np.testing.assert_array_equal(
        dynamics._invariant_block(np.nonzero(other.matrix), [other.pump, y0]), block
    )


@PROPERTY_SETTINGS
@given(transitions())
def test_steady_state_is_physical_and_equals_the_full_solve(spec):
    liouv = build_liouvillian(spec)
    sigma = steady_state(liouv)
    assert np.abs(sigma - sigma.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh((sigma + sigma.conj().T) / 2.0).min() >= -1e-12
    assert abs(np.trace(sigma) - 1.0) <= 1e-12
    full = np.linalg.solve(liouv.matrix, -liouv.pump)
    assert np.abs(vectorize(sigma) - full).max() <= 1e-12


@PROPERTY_SETTINGS
@given(transitions())
def test_trace_relaxes_at_the_transit_rate_and_the_pump_feeds_it(spec):
    # d Tr(sigma)/dt = vec(I)^T (M y + p0) = gamma (1 - Tr sigma)
    liouv = build_liouvillian(spec)
    identity = np.eye(spec.dim).reshape(-1)
    scale = np.abs(liouv.matrix).max()
    assert np.abs(identity @ liouv.matrix + spec.gamma * identity).max() <= 1e-14 * scale
    assert abs(identity @ liouv.pump - spec.gamma) <= 1e-15


@PROPERTY_SETTINGS
@given(transitions())
def test_linear_x_and_linear_y_give_the_same_steady_absorption(spec):
    # the two differ by a rotation about the field axis, which leaves M's physics unchanged
    w = []
    for pol in ("linear-x", "linear-y"):
        liouv = build_liouvillian(replace(spec, pol=pol))
        w.append((liouv.absorption_row @ vectorize(steady_state(liouv))).real)
    assert abs(w[0] - w[1]) <= 1e-12 * max(abs(w[0]), 1e-3)


@PROPERTY_SETTINGS
@given(transitions())
def test_singular_steady_solve_reports_the_condition_number(spec):
    liouv = build_liouvillian(spec)
    singular = replace(liouv, matrix=np.zeros_like(liouv.matrix))
    with pytest.raises(np.linalg.LinAlgError, match=r"solve failed \(condition number inf\)"):
        steady_state(singular)


@PROPERTY_SETTINGS
@given(transitions())
@pytest.mark.filterwarnings("ignore:eigenvector condition number")
def test_block_modal_propagation_matches_full_integration(spec):
    liouv, y0 = build_liouvillian(spec), _start_state(spec)
    times = np.linspace(0.0, 2.0, 9)
    modal, modal_states = propagate_modal(liouv, y0, times, keep_states=True)
    full, full_states = propagate_integrated(liouv, y0, dt=0.05, t_end=2.0, keep_states=True)
    np.testing.assert_allclose(modal.w, full.w[::5], rtol=0, atol=1e-9)
    np.testing.assert_allclose(modal_states, full_states[::5], rtol=0, atol=1e-9)


@PROPERTY_SETTINGS
@given(transitions())
def test_real_frame_is_unitary_and_makes_the_generator_real(spec):
    liouv, y0 = build_liouvillian(spec), _start_state(spec)
    block = dynamics._invariant_block(np.nonzero(liouv.matrix), [liouv.pump, y0])
    rows, cols = np.divmod(block, spec.dim)
    np.testing.assert_array_equal(np.sort(cols * spec.dim + rows), block)  # closed under transpose
    frame = real_frame(block, spec.dim)
    adjoint = frame.conj().T
    assert np.abs(adjoint @ frame - np.eye(block.size)).max() <= 1e-15
    scale = np.abs(liouv.matrix).max()
    assert np.abs((adjoint @ liouv.matrix[np.ix_(block, block)] @ frame).imag).max() <= 1e-14 * scale
    assert np.abs((adjoint @ liouv.pump[block]).imag).max() <= 1e-14 * scale
    # the steady state's coordinates are real: sigma_ii, sqrt(2) Re and sqrt(2) Im of sigma_ij, i < j
    sigma = steady_state(liouv)
    upper = np.minimum(rows, cols), np.maximum(rows, cols)
    expected = np.where(rows == cols, 1.0, np.sqrt(2.0)) * np.where(
        rows > cols, sigma[upper].imag, sigma[upper].real
    )
    coords = adjoint @ vectorize(sigma)[block]
    assert np.abs(coords - expected).max() <= 1e-12 * np.abs(expected).max()


def _real_generator(spec):
    """[[A, p], [0, 0]] for the family's real generator A = base + rabi drive + b field and pump p."""
    real = affine_liouvillian(spec).sector
    matrix = real.base + spec.rabi * real.drive + spec.b_field * real.field
    return np.vstack((np.column_stack((matrix, real.pump)), np.zeros(real.pump.size + 1)))


@PROPERTY_SETTINGS
@given(transitions())
def test_expm_matches_scipy_on_augmented_generators(spec):
    gen = _real_generator(spec)
    assert gen.dtype == np.float64
    for h in (0.05, 1.25, 2500.0):
        expected = scipy.linalg.expm(h * gen)
        assert np.abs(dynamics._expm(h * gen) - expected).max() <= 1e-12 * np.abs(expected).max()


@PROPERTY_SETTINGS
@given(transitions())
def test_switched_transient_matches_rk4_phase_by_phase(spec):
    # 20 samples 0.1 apart per phase: every other point of an RK4 run with dt = 0.05
    schedule = SwitchSchedule(b1=spec.b_field, b0=0.0, period=4.0, samples_per_period=40)
    trace, states = switched_transient(spec, schedule, keep_states=True)
    w_ref, states_ref = rk4_phases(spec, schedule)
    np.testing.assert_allclose(trace.w, w_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(states, states_ref, rtol=0, atol=1e-9)


@PROPERTY_SETTINGS
@given(transitions(), st.integers(0, 2**32 - 1))
def test_absorption_row_equals_coupling_absorption(spec, seed):
    liouv = build_liouvillian(spec)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
    sigma = a + a.conj().T
    expected = coupling_absorption(sigma, liouv.coupling)
    assert abs(liouv.absorption_row @ vectorize(sigma) - expected) <= 1e-12 * max(1.0, abs(expected))


def _matched_relative_distance(values, reference) -> float:
    """Largest |values - reference| under the optimal one-to-one pairing, over max |reference|."""
    values, reference = np.asarray(values), np.asarray(reference)
    cost = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max() / np.abs(reference).max())


def _complement_is_invariant(liouv) -> bool:
    block = dynamics._invariant_block(np.nonzero(liouv.matrix), [liouv.pump])
    rest = np.setdiff1d(np.arange(liouv.size), block)
    return not liouv.matrix[np.ix_(block, rest)].any()


@PROPERTY_SETTINGS
@given(transitions(), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.5, 3.0))
def test_affine_parts_reproduce_the_assembled_matrix(spec, detuning, zeeman_e, dipole_scale):
    spec = replace(spec, detuning=detuning, zeeman_e=zeeman_e, dipole_scale=dipole_scale)
    affine = affine_liouvillian(spec)
    base, drive = dense_parts(affine)
    matrix = base + spec.rabi * drive
    matrix.flat[:: matrix.shape[0] + 1] += spec.b_field * affine.field
    expected = build_liouvillian(spec)
    scale = np.abs(expected.matrix).max()
    assert np.abs(matrix - expected.matrix).max() <= 1e-14 * scale
    np.testing.assert_array_equal(affine.pump, expected.pump)
    np.testing.assert_array_equal(affine.coupling, expected.coupling)
    np.testing.assert_array_equal(affine.absorption_row, expected.absorption_row)


@PROPERTY_SETTINGS
@given(transitions(), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.5, 3.0))
def test_affine_parts_equal_differences_of_assemblies(spec, detuning, zeeman_e, dipole_scale):
    # the parts' reference derivation: assemblies at (rabi, b) = (0, 0), (1, 0) and (0, 1)
    spec = replace(spec, detuning=detuning, zeeman_e=zeeman_e, dipole_scale=dipole_scale)
    affine = affine_liouvillian(spec)
    base = build_liouvillian(replace(spec, rabi=0.0, b_field=0.0)).matrix
    drive = build_liouvillian(replace(spec, rabi=1.0, b_field=0.0)).matrix - base
    field_on = build_liouvillian(replace(spec, rabi=0.0, b_field=1.0)).matrix
    field = field_on - base
    affine_base, affine_drive = dense_parts(affine)
    np.testing.assert_array_equal(affine_base, base)
    assert np.abs(affine_drive - drive).max() <= 1e-15 * np.abs(drive).max()
    diagonal = np.diagonal(field)
    assert not np.any(field - np.diag(diagonal))
    assert affine.field.shape == diagonal.shape
    # the difference rounds at the size of -i(H_ii - H_jj), which holds the detuning too
    scale = np.abs(np.diagonal(field_on).imag).max()
    assert np.abs(affine.field - diagonal).max() <= 1e-15 * scale


@PROPERTY_SETTINGS
@given(transitions(), st.sampled_from([*NAMED_POLARIZATIONS, None]), st.sampled_from([0.0, 0.5]), st.booleans())
def test_sectors_from_the_nonzeros_match_the_dense_route(spec, pol, detuning, theta_off):
    # the block by reachability over the nonzeros, and each sector part by one scatter of them,
    # against the dense route on the Kronecker form's parts, with Theta as detected and forced off;
    # both parities of the pump block and, where M splits (linear light), of its complement;
    # pol None keeps the transition's own polarization: named or general
    spec = replace(spec, pol=pol or spec.pol, detuning=detuning)
    dense = dense_family(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liouvillian, "_MEMO", {})
        if theta_off:
            patch.setattr(liouvillian, "_reflection", lambda *args: None)
        affine = affine_liouvillian(spec)
        block = dense_block([dense.base, dense.drive], [dense.pump])
        np.testing.assert_array_equal(affine.block, block)
        rest = np.setdiff1d(np.arange(affine.pump.size), block)
        split = rest.size > 0 and not (dense.base[np.ix_(block, rest)].any()
                                       or dense.drive[np.ix_(block, rest)].any())
        blocks = spectral._parts(affine.edges, affine.block, affine.pump.size)
        assert [part.tolist() for part in blocks] == ([block.tolist(), rest.tolist()] if split
                                                      else [list(range(affine.pump.size))])
        for part, parity in itertools.product(blocks, (1, -1)):
            sector, expected = affine.real_sector(part, parity), dense_real_sector(dense, part, parity)
            for name, value, reference in zip(sector._fields, sector, expected):
                assert value.shape == reference.shape, name
                assert np.abs(value - reference).max(initial=0.0) <= 1e-15 * np.abs(reference).max(initial=0.0), name


@pytest.mark.parametrize("fg, fe", [(1, 0), (1, 2), (3, 4)])
def test_theta_and_hermiticity_are_decided_at_their_tolerance(fg, fe):
    # a population is its own coordinate in the Hermitian basis, and Theta swaps those of m = -Fg and
    # m = +Fg: a real change of +e and -e there keeps Hermiticity and is odd under Theta, which holds
    # to 1e-13 of each part's largest entry; an imaginary change breaks Hermiticity
    affine = affine_liouvillian(TransitionSpec(fg=fg, fe=fe, rabi=0.0, gamma=0.002, pol="linear-y"))
    block, base = affine.block, affine.base_entries
    ends = np.array([0, 2 * fg * (affine.coupling.shape[0] + 1)])  # (m, m) for m = -Fg and +Fg
    scale = np.abs(base.values).max()

    def perturbed(change):
        entries = liouvillian.Entries(np.append(base.rows, ends), np.append(base.cols, ends),
                                      np.append(base.values, change * scale))
        return replace(affine, base_entries=entries).real_sector(block, 1)

    assert affine.sector.pump.size < block.size
    assert perturbed(np.array([1e-15, -1e-15])).pump.size == affine.sector.pump.size
    assert perturbed(np.array([1e-11, -1e-11])).pump.size == block.size
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        perturbed(np.array([1e-11j, 1e-11j]))


@PROPERTY_SETTINGS
@given(transitions())
def test_split_spectrum_matches_full_eig(spec):
    # against the eigenvalues of one eig of the full M; eigvals takes another
    # LAPACK path, which alone moves ill-conditioned eigenvalues by ~3e-12
    liouv = build_liouvillian(spec)
    values = [mode.value for mode in eigenmodes(liouv)]
    assert len(values) == liouv.size
    assert _matched_relative_distance(values, np.linalg.eig(liouv.matrix)[0]) <= 1e-12


#: circular light on these transitions leaves a complement the pump block feeds into
CIRCULAR_COUPLED = ((1, 1), (1, 2), (0.5, 1.5), (1.5, 1.5), (2, 2), (2, 3))


@PROPERTY_SETTINGS
@given(st.sampled_from(CIRCULAR_COUPLED), st.sampled_from(("sigma+", "sigma-")),
       st.floats(1e-3, 2.0), st.floats(-0.1, 0.1))
def test_circular_light_with_coupled_complement_matches_full_eig(transition, pol, intensity, b_field):
    fg, fe = transition
    spec = TransitionSpec(fg=fg, fe=fe, rabi=0.0, gamma=0.002, pol=pol)
    liouv = build_liouvillian(spec.with_intensity(intensity).with_field(b_field))
    assert not _complement_is_invariant(liouv)
    values = [mode.value for mode in eigenmodes(liouv)]
    # some of these spectra are nearly defective: there eig and eigvals differ by up to ~1e-9
    assert _matched_relative_distance(values, np.linalg.eig(liouv.matrix)[0]) <= 1e-12


@PROPERTY_SETTINGS
@given(transitions())
def test_mode_amplitudes_rebuild_the_offset_and_weights_are_absorption(spec):
    liouv, y0 = build_liouvillian(spec), _start_state(spec)
    offset = y0 - vectorize(steady_state(liouv))
    modes = eigenmodes(liouv, y0)
    vecs = np.column_stack([mode.vector for mode in modes])
    amps = np.array([mode.amplitude for mode in modes])
    weights = np.array([mode.weight for mode in modes])
    assert np.linalg.norm(vecs @ amps - offset) <= 1e-9 * max(1.0, np.linalg.norm(offset))
    assert np.abs(weights - liouv.absorption_row @ vecs).max() <= 1e-12 * max(1.0, np.abs(weights).max())
    visible = ((np.abs(amps) > OBSERVABILITY_TOL * np.abs(amps).max())
               & (np.abs(weights) > OBSERVABILITY_TOL * np.abs(weights).max()))
    assert [mode.observable for mode in modes] == visible.tolist()
    if _complement_is_invariant(liouv):  # linear light: y0 lives on the pump block
        block = dynamics._invariant_block(np.nonzero(liouv.matrix), [liouv.pump])
        complement = [mode for mode in modes if not mode.vector[block].any()]
        assert len(complement) == liouv.size - block.size
        assert all(mode.amplitude == 0 and mode.observable is False for mode in complement)


def _theta_reference(spec, y):
    """(Theta y)[(i, j)] = s_i s_j conj(y[(p(i), p(j))]), for p: m -> -m in each manifold and
    s_i = (-1)^(F - m_i), written from the levels' quantum numbers."""
    levels = [(k, manifold.f, m)
              for k, manifold in enumerate((spec.fg, spec.fe)) for m in manifold.m_values()]
    flip = np.array([levels.index((k, f, -m)) for k, f, m in levels])
    s = np.array([(-1.0) ** round(f - m) for _, f, m in levels])
    sigma = y.reshape(spec.dim, spec.dim)
    return (np.outer(s, s) * sigma[np.ix_(flip, flip)].conj()).reshape(-1)


@PROPERTY_SETTINGS
@given(transitions())
def test_theta_is_an_involutive_signed_permutation_of_real_coordinates(spec):
    block = affine_liouvillian(spec).block
    frame = real_frame(block, spec.dim)
    # Theta of each real basis matrix, in real coordinates, from the matrix formula
    images = np.zeros((spec.dim**2, block.size), dtype=complex)
    for k in range(block.size):
        y = np.zeros(spec.dim**2, dtype=complex)
        y[block] = frame[:, k]
        images[:, k] = _theta_reference(spec, y)
    theta = liouvillian._reflection(block, spec.n_ground, spec.dim)
    outside = np.setdiff1d(np.arange(spec.dim**2), block)
    assert (theta is None) == bool(np.abs(images[outside]).max(initial=0.0) > 0)
    if theta is None:
        return
    source, sign = theta
    np.testing.assert_array_equal(np.sort(source), np.arange(block.size))
    assert set(sign.tolist()) <= {-1.0, 1.0}
    np.testing.assert_array_equal(source[source], np.arange(block.size))
    np.testing.assert_array_equal(sign * sign[source], 1.0)
    expected = frame.conj().T @ images[block]
    signed_permutation = np.zeros((block.size, block.size))
    signed_permutation[np.arange(block.size), source] = sign
    assert np.abs(expected - signed_permutation).max() <= 1e-15


@PROPERTY_SETTINGS
@given(transitions(), st.sampled_from(["linear-x", "linear-y", None]), st.sampled_from([0.0, 0.5, -1e-3]),
       st.sampled_from([0.0, 0.3]))
def test_sector_is_even_exactly_for_linear_light_at_zero_detuning(spec, pol, detuning, zeeman_e):
    # pol None keeps the transition's own polarization: named or general
    spec = replace(spec, pol=pol or spec.pol, detuning=detuning, zeeman_e=zeeman_e)
    affine = affine_liouvillian(spec)
    real, block = affine.sector, affine.block
    linear = spec.pol in {replace(spec, pol=pol).pol for pol in ("linear-x", "linear-y")}
    if linear and detuning == 0.0:
        assert real.base.shape[0] < block.size
        # every sector vector is Theta-even
        states = np.zeros((spec.dim**2, real.base.shape[0]), dtype=complex)
        states[block] = real.frame
        for state in states.T:
            assert np.abs(_theta_reference(spec, state) - state).max() <= 1e-15
    else:
        assert real.base.shape == (block.size, block.size)
        np.testing.assert_array_equal(real.frame, real_frame(block, spec.dim))


@PROPERTY_SETTINGS
@given(transitions(), st.sampled_from(NAMED_POLARIZATIONS))
def test_a_sweep_solves_each_case_once_on_the_sector(spec, pol):
    # one stacked real steady solve per chunk of (intensity, case) points, each matrix of the
    # sector's size, none while decomposing, and no Liouvillian evaluated beyond the family's
    # two assemblies of nonzeros
    spec = replace(spec, pol=pol)
    # as in test_sweep_modes_match_a_full_eig_per_point: the amplitudes of a defective point are refused
    assume(pol != "sigma+" or spec.fg.twice_f != spec.fe.twice_f or spec.fg.twice_f < 3)
    liouvillian._MEMO.clear()  # a key repeated by an earlier example would be served assembled
    intensities, b1 = (spec.rabi**2, 0.5), spec.b_field or 0.03
    solved, built, solve = [], [], dynamics._solved
    decompose, assemble = spectral._decompose, liouvillian._lindblad_entries

    def refuse(*args, **kwargs):
        raise AssertionError("_decompose solved a linear system")

    def decompose_solving_nothing(*args):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(np.linalg, "solve", refuse)
            return decompose(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "STACK_CHUNK", 3)  # the 4 points in stacks of 3 and 1
        patch.setattr(dynamics, "_solved", lambda sub, *args: solved.append(sub) or solve(sub, *args))
        patch.setattr(spectral, "_decompose", decompose_solving_nothing)
        patch.setattr(liouvillian, "_lindblad_entries", lambda *args: built.append(1) or assemble(*args))
        modes = sweep_modes(spec, intensities, b1)
    shape = affine_liouvillian(spec).sector.base.shape
    assert [sub.shape for sub in solved] == [(3, *shape), (1, *shape)] and len(built) == 2
    assert all(sub.dtype == np.float64 for sub in solved)
    # each case starts in the other case's steady state: its amplitudes rebuild the difference
    for (intensity, case), point in modes.items():
        spec_i = spec.with_intensity(intensity)
        fields = {"B0": 0.0, "B1": b1}
        offset = steady_vector(spec_i, fields["B1" if case == "B0" else "B0"]) - steady_vector(
            spec_i, fields[case])
        rebuilt = sum(mode.amplitude * mode.vector for mode in point)
        assert np.linalg.norm(rebuilt - offset) <= 1e-9 * max(1.0, np.linalg.norm(offset))


@st.composite
def schedules(draw):
    """One to three periods of 2 to 30 samples, of up to 60 decay times, at fields up to 0.1."""
    b1, b0 = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
    return SwitchSchedule(b1=b1, b0=b0, period=draw(st.floats(1.0, 60.0)), duty=draw(st.floats(0.0, 1.0)),
                          n_periods=draw(st.integers(1, 3)), samples_per_period=draw(st.integers(2, 30)))


@PROPERTY_SETTINGS
@given(transitions(), schedules())
def test_sector_transient_equals_the_whole_block_transient(spec, schedule):
    trace, states = switched_transient(spec, schedule, keep_states=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liouvillian, "_reflection", lambda *args: None)  # the detector forced off
        patch.setattr(liouvillian, "_MEMO", {})  # so the family is built again, with it off
        whole, whole_states = switched_transient(spec, schedule, keep_states=True)
    assert np.abs(trace.w - whole.w).max() <= 1e-12 * np.abs(whole.w).max()
    assert np.abs(states - whole_states).max() <= 1e-12 * np.abs(whole_states).max()
    assert trajectory_physicality(states)["hermiticity_defect"] == 0.0


def _reference_sweep_point(spec, b_field, b_other):
    """(eigenvalues, amplitudes, weights, observable flags) of one sweep point from one complex eig
    of the assembled M, the start state the steady state at ``b_other``, both solved on the full M."""
    liouv, other = (build_liouvillian(spec.with_field(b)) for b in (b_field, b_other))
    lam, vecs = np.linalg.eig(liouv.matrix)
    offset = (np.linalg.solve(other.matrix, -other.pump)
              - np.linalg.solve(liouv.matrix, -liouv.pump))
    amps = np.linalg.solve(vecs, offset)
    weights = liouv.absorption_row @ vecs
    visible = ((np.abs(amps) > OBSERVABILITY_TOL * np.abs(amps).max())
               & (np.abs(weights) > OBSERVABILITY_TOL * np.abs(weights).max()))
    return lam, amps, weights, visible


@PROPERTY_SETTINGS
@given(transitions(), st.sampled_from(("linear-x", "linear-y", "sigma+")))
def test_sweep_modes_match_a_full_eig_per_point(spec, pol):
    spec = replace(spec, pol=pol)
    # sigma+ on Fg = Fe >= 3/2 is defective at zero field: its amplitudes are refused
    assume(pol != "sigma+" or spec.fg.twice_f != spec.fe.twice_f or spec.fg.twice_f < 3)
    intensities, b1 = (spec.rabi**2, 0.5), spec.b_field or 0.03
    sweep = sweep_modes(spec, intensities, b1)
    for intensity in intensities:
        spec_i = spec.with_intensity(intensity)
        for case, b_field, b_other in (("B0", 0.0, b1), ("B1", b1, 0.0)):
            modes = sweep[(intensity, case)]
            values = np.array([mode.value for mode in modes])
            matrix = build_liouvillian(spec_i.with_field(b_field)).matrix
            assert _matched_relative_distance(values, np.linalg.eigvals(matrix)) <= 1e-12
            amps, weights = (np.abs([getattr(mode, name) for mode in modes]) for name in ("amplitude", "weight"))
            ref_values, ref_amps, ref_weights, ref_flags = _reference_sweep_point(spec_i, b_field, b_other)
            ref_amps, ref_weights = np.abs(ref_amps), np.abs(ref_weights)
            cost = np.abs(values[:, None] - ref_values[None, :])
            found, ref = linear_sum_assignment(cost)
            scale = np.abs(ref_values).max()
            floors = OBSERVABILITY_TOL * np.array([[amps.max(), ref_amps.max()],
                                                   [weights.max(), ref_weights.max()]])
            for i, j in zip(found, ref):
                if np.count_nonzero(np.abs(ref_values - ref_values[j]) <= 1e-6 * scale) > 1:
                    continue  # inside a degenerate cluster the amplitudes depend on the chosen basis
                assert abs(amps[i] - ref_amps[j]) <= 1e-9 * max(1.0, ref_amps.max())
                assert abs(weights[i] - ref_weights[j]) <= 1e-9 * ref_weights.max()
                # the floors scale with the largest amplitude, which a cluster may hold, and an
                # amplitude near rounding may fall on either side: a flag is compared where
                # both values, against both floors, decide it alike
                if all(min(pair) > floor.max() or max(pair) <= floor.min() for pair, floor in (
                        ((amps[i], ref_amps[j]), floors[0]), ((weights[i], ref_weights[j]), floors[1]))):
                    assert modes[i].observable == ref_flags[j], (intensity, case, ref_values[j])


# the memo of the last family, keyed by the spec at (rabi, b) = (0, 0)

MEMO_GRID = ((0.01, 0.01), (0.3, 0.02), (1.0, -0.03), (2.0, 0.05))  # (intensity, field)
MEMO_SCHEDULE = dict(b0=0.0, period=40.0, samples_per_period=4)


def _count_builds(patch) -> list:
    """A list that grows by "block" or "sector" each time a family's block or sector is derived."""
    calls, find, real = [], liouvillian._invariant_block, liouvillian.AffineLiouvillian.real_sector
    for module in (liouvillian, dynamics, spectral):
        patch.setattr(module, "_invariant_block", lambda *args: calls.append("block") or find(*args))
    patch.setattr(liouvillian.AffineLiouvillian, "real_sector",
                  lambda *args: calls.append("sector") or real(*args))
    return calls


def _transients(spec) -> list:
    """w of a switched transient at each (intensity, field) of ``MEMO_GRID``."""
    return [switched_transient(spec.with_intensity(intensity), SwitchSchedule(b1=b1, **MEMO_SCHEDULE)).w
            for intensity, b1 in MEMO_GRID]


@PROPERTY_SETTINGS
@given(transitions(), st.sampled_from(NAMED_POLARIZATIONS), st.sampled_from([0.0, 0.1]))
def test_a_memo_hit_serves_the_fresh_block_and_sector_read_only(spec, pol, detuning):
    spec = replace(spec, pol=pol, detuning=detuning)
    liouvillian._MEMO.clear()
    first = affine_liouvillian(spec)
    other = spec.with_intensity(0.7).with_field(-0.02)  # the same key
    hit = affine_liouvillian(other)
    assert hit is first
    liouvillian._MEMO.clear()
    fresh = affine_liouvillian(other)
    assert fresh is not hit

    def arrays(family):
        return [*family.base_entries, *family.drive_entries, family.field, family.pump, family.coupling,
                family.block, *family.sector]

    for served, built in zip(arrays(hit), arrays(fresh)):
        assert (served.dtype, served.shape) == (built.dtype, built.shape)
        assert served.tobytes() == built.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            served[...] = 0


@PROPERTY_SETTINGS
@given(transitions(), st.sampled_from(NAMED_POLARIZATIONS), st.sampled_from([0.0, 0.1]))
def test_a_grid_of_transients_derives_the_block_and_sector_once(spec, pol, detuning):
    spec = replace(spec, pol=pol, detuning=detuning)
    second = replace(spec, gamma=0.001)  # another transition: a different key
    liouvillian._MEMO.clear()
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_builds(patch)
        _transients(spec)
        assert calls == ["block", "sector"]
        # interleaved, the second transition evicts the first, which is then derived again
        for one in (second, spec):
            switched_transient(one, SwitchSchedule(b1=0.01, **MEMO_SCHEDULE))
        assert calls == ["block", "sector"] * 3
        assert list(liouvillian._MEMO) == [replace(spec, rabi=0.0, b_field=0.0)]


@PROPERTY_SETTINGS
@given(transitions(), st.sampled_from(NAMED_POLARIZATIONS))
def test_signed_zero_detunings_share_a_memo_entry_and_give_the_same_transients(spec, pol):
    negative, positive = (replace(spec, pol=pol, detuning=detuning) for detuning in (-0.0, 0.0))
    liouvillian._MEMO.clear()
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_builds(patch)
        served = _transients(negative) + _transients(positive)
        assert calls == ["block", "sector"]
    liouvillian._MEMO.clear()
    built = _transients(negative)  # each sign from a fresh family gives the same bits too
    for k, w in enumerate(served):
        assert w.tobytes() == built[k % len(MEMO_GRID)].tobytes()
