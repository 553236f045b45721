"""Properties of the invariant block the modal solver decomposes, over random transitions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hanlesim.dynamics as dynamics
from hanlesim import TransitionSpec, build_liouvillian, propagate_modal, steady_state
from hanlesim.liouvillian import coupling_absorption, vectorize

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
    """Fg <= 3, |Fg - Fe| <= 1 (half-integers included), any polarization, field and intensity."""
    twice_fg = draw(st.integers(0, 6))
    twice_fe = draw(st.sampled_from([t for t in (twice_fg - 2, twice_fg, twice_fg + 2) if t >= 0]))
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
    block = dynamics._invariant_block([liouv.matrix], [liouv.pump])
    complement = np.setdiff1d(np.arange(liouv.size), block)
    assert np.all(liouv.matrix[np.ix_(complement, block)] == 0)
    y0 = _start_state(spec)
    assert np.all(y0[complement] == 0)
    other = build_liouvillian(spec.with_field(-spec.b_field + 0.05))
    np.testing.assert_array_equal(
        dynamics._invariant_block([other.matrix], [other.pump, y0]), block
    )


@PROPERTY_SETTINGS
@given(transitions())
@pytest.mark.filterwarnings("ignore:eigenvector condition number")
def test_block_modal_propagation_matches_full_integration(spec):
    liouv, y0 = build_liouvillian(spec), _start_state(spec)
    times = np.linspace(0.0, 2.0, 9)
    modal, modal_states = propagate_modal(liouv, y0, times, keep_states=True)
    full, full_states = dynamics._integrate_at_times(liouv, y0, times, keep_states=True)
    np.testing.assert_allclose(modal.w, full.w, rtol=0, atol=1e-9)
    np.testing.assert_allclose(modal_states, full_states, rtol=0, atol=1e-9)


@PROPERTY_SETTINGS
@given(transitions(), st.integers(0, 2**32 - 1))
def test_absorption_row_equals_coupling_absorption(spec, seed):
    liouv = build_liouvillian(spec)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
    sigma = a + a.conj().T
    expected = coupling_absorption(sigma, liouv.coupling)
    assert abs(liouv.absorption_row @ vectorize(sigma) - expected) <= 1e-12 * max(1.0, abs(expected))
