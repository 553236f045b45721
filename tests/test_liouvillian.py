"""Liouvillian assembly against a direct density-matrix evaluation oracle."""

import numpy as np
import pytest

from hanlesim import (
    TransitionSpec,
    absorption,
    build_liouvillian,
    devectorize,
    hamiltonian,
    steady_state,
    vectorize,
)
from hanlesim.angular import AngMom, polarization, projectors, q_matrix
from hanlesim.liouvillian import coupling_matrix, isotropic_ground

from support import PRESET_INTENSITIES, eia_spec, eit_spec


def random_density_matrix(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    sigma = raw @ raw.conj().T
    return sigma / np.trace(sigma)


def bloch_rhs(spec, sigma):
    """dsigma/dt evaluated term by term, independent of the kron assembly."""
    h = hamiltonian(spec)
    p_g, p_e = projectors(spec.fg.f, spec.fe.f)
    n_e = spec.fe.multiplicity
    feeding = np.zeros_like(sigma)
    for q in (-1, 0, 1):
        mat = q_matrix(spec.fg.f, spec.fe.f, q)
        feeding += n_e * (mat @ sigma @ mat.conj().T)
    sigma0 = isotropic_ground(spec)
    return (
        -1j * (h @ sigma - sigma @ h)
        - 0.5 * (p_e @ sigma + sigma @ p_e)
        + feeding
        - spec.gamma * (sigma - sigma0)
    )


@pytest.mark.parametrize("make_spec", [eit_spec, eia_spec])
def test_liouvillian_matches_direct_bloch_evaluation(make_spec):
    rng = np.random.default_rng(42)
    for _ in range(5):
        intensity = float(rng.uniform(0.001, 2.0))
        b_field = float(rng.uniform(-0.1, 0.1))
        spec = make_spec(intensity, detuning=float(rng.uniform(-0.5, 0.5))).with_field(b_field)
        liouv = build_liouvillian(spec)
        sigma = random_density_matrix(rng, liouv.dim)
        direct = bloch_rhs(spec, sigma)
        assembled = devectorize(liouv.matrix @ vectorize(sigma) + liouv.pump)
        np.testing.assert_allclose(assembled, direct, atol=1e-12)


def test_dimensions():
    assert build_liouvillian(eit_spec()).matrix.shape == (16, 16)
    assert build_liouvillian(eia_spec()).matrix.shape == (64, 64)


def test_trace_dynamics_relaxes_to_one():
    # d(tr sigma)/dt = -gamma (tr sigma - 1): the identity is an exact left
    # eigenvector with eigenvalue -gamma, and the pump injects gamma
    for spec in (eit_spec(0.06).with_field(0.02), eia_spec(2.0).with_field(0.03)):
        liouv = build_liouvillian(spec)
        identity = vectorize(np.eye(liouv.dim))
        np.testing.assert_allclose(identity @ liouv.matrix, -spec.gamma * identity, atol=1e-14)
        assert identity @ liouv.pump == pytest.approx(spec.gamma)


def test_hermiticity_preserved_by_generator():
    rng = np.random.default_rng(3)
    spec = eia_spec(0.6).with_field(0.05)
    liouv = build_liouvillian(spec)
    sigma = random_density_matrix(rng, liouv.dim)
    deriv = devectorize(liouv.matrix @ vectorize(sigma) + liouv.pump)
    np.testing.assert_allclose(deriv, deriv.conj().T, atol=1e-13)


def test_minus_gamma_is_always_an_eigenvalue():
    for spec in (eit_spec(0.002), eit_spec(2.0).with_field(0.03),
                 eia_spec(0.02).with_field(0.01), eia_spec(2.0)):
        eigenvalues = np.linalg.eigvals(build_liouvillian(spec).matrix)
        assert np.abs(eigenvalues + spec.gamma).min() / spec.gamma < 1e-10


def test_zero_field_spectrum_real_below_saturation():
    # complex (underdamped) pairs only appear above saturation, so the four
    # weakest standard intensities give purely real B=0 spectra
    for make_spec in (eit_spec, eia_spec):
        for intensity in PRESET_INTENSITIES[:4]:
            eigenvalues = np.linalg.eigvals(build_liouvillian(make_spec(intensity)).matrix)
            assert np.abs(eigenvalues.imag).max() < 1e-12


def test_linear_x_and_linear_y_give_identical_absorption():
    # the two linear polarizations differ by a rotation about the field axis,
    # so every observable built from the steady state must coincide
    for make_spec, intensity in ((eit_spec, 0.02), (eia_spec, 0.06)):
        for b_field in (0.0, 0.01, 0.03):
            w = {}
            for pol in ("linear-x", "linear-y"):
                spec = make_spec(intensity, pol=pol).with_field(b_field)
                w[pol] = absorption(steady_state(build_liouvillian(spec)), spec)
            assert w["linear-x"] == pytest.approx(w["linear-y"], abs=1e-14)


def test_absorption_is_positive_at_steady_state():
    rng = np.random.default_rng(11)
    for _ in range(6):
        make_spec = eit_spec if rng.random() < 0.5 else eia_spec
        spec = make_spec(float(rng.uniform(0.001, 2.0))).with_field(float(rng.uniform(-0.1, 0.1)))
        value = absorption(steady_state(build_liouvillian(spec)), spec)
        assert value > 0.0


def test_absorption_accepts_matrix_and_vector():
    spec = eit_spec(0.02).with_field(0.01)
    sigma = steady_state(build_liouvillian(spec))
    assert absorption(sigma, spec) == pytest.approx(absorption(vectorize(sigma), spec))


class TestHamiltonian:
    def test_hermitian(self):
        spec = eia_spec(0.5, detuning=0.3).with_field(0.07)
        h = hamiltonian(spec)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)

    def test_zeeman_ladder_and_detuning(self):
        spec = eit_spec(0.0, detuning=0.25, zeeman_g=1.0).with_field(0.1)
        h = hamiltonian(spec)
        # ground sublevels shift m*B, the excited level only by the detuning
        np.testing.assert_allclose(np.diag(h).real, [-0.1, 0.0, 0.1, 0.25], atol=1e-15)

    def test_coupling_block_scales_with_rabi(self):
        weak, strong = eit_spec(0.01), eit_spec(0.04)
        h_weak = hamiltonian(weak) - np.diag(np.diag(hamiltonian(weak)))
        h_strong = hamiltonian(strong) - np.diag(np.diag(hamiltonian(strong)))
        np.testing.assert_allclose(h_strong, 2.0 * h_weak, atol=1e-15)

    def test_dipole_scale_strengthens_coupling(self):
        # same light intensity, stronger dipole -> coupling block grows as
        # sqrt(dipole_scale) while the diagonal stays put
        a = eit_spec(0.02, dipole_scale=1.0)
        b = eit_spec(0.02, dipole_scale=2.5)
        off_a = hamiltonian(a) - np.diag(np.diag(hamiltonian(a)))
        off_b = hamiltonian(b) - np.diag(np.diag(hamiltonian(b)))
        np.testing.assert_allclose(off_b, np.sqrt(2.5) * off_a, atol=1e-15)


class TestTransitionSpec:
    def test_intensity_scales_light_by_dipole_strength(self):
        # with_intensity sets the light intensity (rabi**2); the effective
        # intensity seen by the atom also carries the dipole factor
        spec = eia_spec(0.0, dipole_scale=2.5).with_intensity(0.9)
        assert spec.rabi == pytest.approx(np.sqrt(0.9))
        assert spec.intensity == pytest.approx(2.5 * 0.9)
        plain = eit_spec(0.0).with_intensity(0.9)
        assert plain.intensity == pytest.approx(0.9)

    def test_with_field_replaces_only_field(self):
        spec = eit_spec(0.02)
        moved = spec.with_field(0.07)
        assert moved.b_field == 0.07
        assert moved.rabi == spec.rabi
        assert spec.b_field == 0.0

    def test_dimension_properties(self):
        assert eit_spec().dim == 4
        assert eia_spec().dim == 8
        assert eia_spec().n_excited == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TransitionSpec(fg=1, fe=3, rabi=0.1, gamma=0.002)
        with pytest.raises(ValueError):
            TransitionSpec(fg=1, fe=0, rabi=0.1, gamma=0.0)
        with pytest.raises(ValueError):
            TransitionSpec(fg=1, fe=0, rabi=-0.1, gamma=0.002)
        with pytest.raises(ValueError):
            TransitionSpec(fg=1, fe=0, rabi=0.1, gamma=0.002, pol=(1.0, 1.0, 1.0))
        for bad in (float("nan"), float("inf")):
            for name in ("rabi", "gamma", "detuning", "zeeman_g", "zeeman_e", "b_field",
                         "dipole_scale"):
                with pytest.raises(ValueError, match=name):
                    TransitionSpec(**{"fg": 1, "fe": 0, "rabi": 0.1, "gamma": 0.002, name: bad})
            with pytest.raises(ValueError):
                TransitionSpec(fg=1, fe=0, rabi=0.1, gamma=0.002, pol=(bad, 0.0, 0.0))

    def test_polarization_string_is_resolved(self):
        spec = eit_spec(0.02, pol="sigma+")
        np.testing.assert_allclose(spec.pol, (0.0, 0.0, 1.0))


def test_vectorize_row_major_convention():
    sigma = np.arange(16, dtype=complex).reshape(4, 4)
    vec = vectorize(sigma)
    assert vec[1] == sigma[0, 1]
    assert vec[4] == sigma[1, 0]
    np.testing.assert_allclose(devectorize(vec), sigma)


def test_coupling_matrix_ground_excited_block_only():
    w = coupling_matrix(eia_spec(0.5))
    assert np.all(w[:, :3] == 0)
    assert np.all(w[3:, :] == 0)


def test_isotropic_ground_is_maximally_mixed_ground_state():
    sigma0 = isotropic_ground(eia_spec())
    np.testing.assert_allclose(np.diag(sigma0), [1 / 3] * 3 + [0] * 5)
    assert np.trace(sigma0) == pytest.approx(1.0)
