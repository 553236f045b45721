"""Liouvillian assembly against a direct density-matrix evaluation oracle."""

import numpy as np
import pytest

from hanlesim import (
    TransitionSpec,
    absorption,
    build_liouvillian,
    devectorize,
    hamiltonian,
    intensity_sweep,
    steady_state,
    vectorize,
)
from hanlesim.angular import AngMom, polarization, projectors, q_matrix
import hanlesim.liouvillian as liouvillian
import hanlesim.spectral as spectral
from hanlesim.liouvillian import affine_liouvillian, coupling_matrix, isotropic_ground

from support import PRESET_INTENSITIES, dense_parts, eia_spec, eit_spec, kron_generator


def random_density_matrix(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    sigma = raw @ raw.conj().T
    return sigma / np.trace(sigma)


def bloch_rhs(spec, sigma):
    """dsigma/dt evaluated term by term, independent of the assembler."""
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


@pytest.mark.parametrize("pol", ["linear-y", "sigma+", (0.6, 0.64j, -0.48)])
def test_assembler_equals_the_kronecker_form_bit_for_bit(monkeypatch, pol):
    calls = []
    lindblad = liouvillian._lindblad
    for module in (liouvillian, spectral):  # both callers: the full model and the open one
        monkeypatch.setattr(module, "_lindblad", lambda *args: calls.append(args) or lindblad(*args))
    for twice_fg in range(7):
        for twice_fe in (twice_fg - 2, twice_fg, twice_fg + 2):
            if twice_fe < 0 or twice_fg + twice_fe == 0:  # 0 -> 0 has no dipole
                continue
            spec = TransitionSpec(fg=twice_fg / 2, fe=twice_fe / 2, rabi=0.7, gamma=0.002,
                                  detuning=0.13, zeeman_e=0.4, b_field=0.03, pol=pol)
            matrix = build_liouvillian(spec).matrix
            h, p_e, jumps, _, gamma = calls[-1][:5]
            np.testing.assert_array_equal(matrix, kron_generator(h, p_e, jumps, gamma))
    for sink_fraction in (0.0, 0.25, 1.0):
        open_spec = spectral.OpenLambdaSpec(rabi=0.7, gamma=0.002, detuning=0.13, zeeman=0.03,
                                            sink_fraction=sink_fraction)
        matrix = spectral.open_lambda_liouvillian(open_spec).matrix
        h, p_e, jumps, _, gamma = calls[-1][:5]
        np.testing.assert_array_equal(matrix, kron_generator(h, p_e, jumps, gamma))
    # any operators, with P_e off its diagonal too
    rng = np.random.default_rng(8)
    h, p_e, jump = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) for _ in range(3))
    jumps = [(1.5, jump), (0.25, jump.real)]
    matrix = liouvillian._lindblad(h, p_e, jumps, np.eye(5), 0.01, jump, 0.0, {}).matrix
    np.testing.assert_array_equal(matrix, kron_generator(h, p_e, jumps, 0.01))


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
        with pytest.raises(ValueError):
            TransitionSpec(fg=1, fe=0, rabi=0.1, gamma=0.002, pol=(1.0, 0.0))
        with pytest.raises(ValueError, match="0 -> 0"):
            TransitionSpec(fg=0, fe=0, rabi=0.1, gamma=0.002)
        for bad in (float("nan"), float("inf")):
            for name in ("rabi", "gamma", "detuning", "zeeman_g", "zeeman_e", "b_field",
                         "dipole_scale"):
                with pytest.raises(ValueError, match=name):
                    TransitionSpec(**{"fg": 1, "fe": 0, "rabi": 0.1, "gamma": 0.002, name: bad})
            with pytest.raises(ValueError):
                TransitionSpec(fg=1, fe=0, rabi=0.1, gamma=0.002, pol=(bad, 0.0, 0.0))

    def test_gamma_warning_names_the_line_that_built_the_spec(self):
        with pytest.warns(UserWarning, match="gamma=0.2 is not small") as record:
            TransitionSpec(fg=1, fe=0, rabi=0.0, gamma=0.2).with_intensity(0.3).with_field(0.01)
        assert len(record) == 3  # the constructor, then each dataclasses.replace
        assert {warning.filename for warning in record} == {__file__}

    def test_polarization_string_is_resolved(self):
        spec = eit_spec(0.02, pol="sigma+")
        np.testing.assert_allclose(spec.pol, (0.0, 0.0, 1.0))

    def test_absorption_row_is_built_once(self):
        liouv = build_liouvillian(eia_spec(0.3))
        assert liouv.absorption_row is liouv.absorption_row


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


def _by_point(columns) -> dict:
    """The rows of sweep columns, listed by their (intensity, case)."""
    points = {}
    for row in zip(*columns.values()):
        points.setdefault(row[:2], []).append(row)
    return points


class TestAffineParts:
    @pytest.mark.parametrize("make_spec", [eit_spec, eia_spec])
    def test_field_part_is_exact_on_the_paper_transitions(self, make_spec):
        spec = make_spec(0.0)
        affine = affine_liouvillian(spec)
        base, drive = dense_parts(affine)
        for b_field in np.linspace(-0.15, 0.15, 201).tolist():
            expected = build_liouvillian(spec.with_field(b_field)).matrix
            matrix = base + 0.0 * drive
            matrix.flat[:: matrix.shape[0] + 1] += b_field * affine.field
            np.testing.assert_array_equal(matrix, expected)

    def test_assembles_the_full_matrix_once(self, monkeypatch):
        # the full M's operators once, and the nonzeros of it and of the drive
        calls = {name: [] for name in ("_operators", "_lindblad_entries")}
        for name, seen in calls.items():
            monkeypatch.setattr(liouvillian, name, lambda *args, seen=seen, make=getattr(liouvillian, name):
                                seen.append(args) or make(*args))
        family = affine_liouvillian(eia_spec(0.3, detuning=0.1).with_field(0.02))
        assert len(calls["_operators"]) == 1
        assert len(calls["_lindblad_entries"]) == 2
        # a call with the same spec at another Rabi frequency and field assembles nothing
        for seen in calls.values():
            seen.clear()
        assert affine_liouvillian(eia_spec(1.2, detuning=0.1).with_field(-0.05)) is family
        assert calls == {"_operators": [], "_lindblad_entries": []}

    def test_parts_do_not_change_between_evaluations(self, monkeypatch):
        # a sweep evaluates the parts at each point: reversing its grid changes no point's modes
        spec = eit_spec(0.0)
        affine = affine_liouvillian(spec)
        before = [*dense_parts(affine), affine.field.copy()]
        monkeypatch.setattr(spectral, "affine_liouvillian", lambda _: affine)
        grid = (0.002, 0.3, 2.0)
        forward, backward = (_by_point(intensity_sweep(spec, g, b1=0.03)) for g in (grid, grid[::-1]))
        assert forward == backward
        for part, copy in zip((*dense_parts(affine), affine.field), before):
            np.testing.assert_array_equal(part, copy)
