"""Angular-momentum layer: 3-j coefficients, coupling matrices, polarizations."""

import numpy as np
import pytest

from hanlesim.angular import (
    AngMom,
    fz_matrix,
    polarization,
    projectors,
    q_matrix,
    wigner3j,
)


class TestAngMom:
    def test_integer_and_half_integer_coercion(self):
        assert AngMom.coerce(1).twice_f == 2
        assert AngMom.coerce(1.5).twice_f == 3
        assert AngMom.coerce(0).multiplicity == 1
        assert AngMom.coerce(2).multiplicity == 5

    def test_m_values_are_ascending_ladder(self):
        np.testing.assert_allclose(AngMom.coerce(1).m_values(), [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(AngMom.coerce(1.5).m_values(), [-1.5, -0.5, 0.5, 1.5])

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            AngMom.coerce(0.3)
        with pytest.raises(ValueError):
            AngMom.coerce(-1)


class TestWigner3j:
    def test_tabulated_values(self):
        # classic closed forms
        assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1.0 / np.sqrt(3.0))
        assert wigner3j(1, 1, 2, 0, 0, 0) == pytest.approx(np.sqrt(2.0 / 15.0))
        assert wigner3j(1, 1, 2, 1, 1, -2) == pytest.approx(1.0 / np.sqrt(5.0))
        assert wigner3j(2, 1, 1, 0, 0, 0) == pytest.approx(np.sqrt(2.0 / 15.0))
        assert wigner3j(0.5, 0.5, 1, 0.5, 0.5, -1) == pytest.approx(-1.0 / np.sqrt(3.0))
        assert wigner3j(0.5, 0.5, 1, 0.5, -0.5, 0) == pytest.approx(1.0 / np.sqrt(6.0))
        assert wigner3j(1, 2, 1, 1, -1, 0) == pytest.approx(-1.0 / np.sqrt(10.0))

    def test_j_zero_closed_form(self):
        # (0 j j; 0 m -m) = (-1)^(j-m) / sqrt(2j+1)
        for j in (0.5, 1, 1.5, 2):
            for m in AngMom.coerce(j).m_values():
                expected = (-1.0) ** (j - m) / np.sqrt(2 * j + 1)
                assert wigner3j(0, j, j, 0, m, -m) == pytest.approx(expected)

    def test_selection_rules_give_zero(self):
        assert wigner3j(1, 1, 1, 1, 1, -2) == 0.0  # |m3| > j3
        assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
        assert wigner3j(1, 1, 0, 1, 0, -1) == 0.0  # m1 + m2 + m3 != 0

    def test_orthogonality_property(self):
        # for fixed (j3, m3): (2 j3 + 1) * sum over m1 of 3j(m1, m3-m1-m3...)^2 = 1
        rng = np.random.default_rng(7)
        for _ in range(20):
            tj1, tj2 = rng.integers(0, 7, size=2)
            j1, j2 = tj1 / 2.0, tj2 / 2.0
            for j3 in np.arange(abs(j1 - j2), j1 + j2 + 0.5):
                for m3 in AngMom.coerce(j3).m_values():
                    total = 0.0
                    for m1 in AngMom.coerce(j1).m_values():
                        m2 = -m3 - m1
                        if abs(m2) > j2:
                            continue
                        total += (2 * j3 + 1) * wigner3j(j1, j2, j3, m1, m2, m3) ** 2
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_malformed_arguments_raise(self):
        with pytest.raises(ValueError):
            wigner3j(1, 1, 1, 0.3, 0, -0.3)
        with pytest.raises(ValueError):
            wigner3j(-1, 1, 1, 0, 0, 0)


class TestQMatrix:
    @pytest.mark.parametrize("fg,fe", [(1, 0), (1, 2), (1, 1), (2, 1), (1.5, 0.5), (2, 3)])
    def test_decay_sum_rule(self, fg, fe):
        # (2 Fe + 1) * sum_q Qq^dagger Qq must equal the excited projector:
        # total spontaneous decay out of every excited sublevel is 1
        n_g = AngMom.coerce(fg).multiplicity
        dim = n_g + AngMom.coerce(fe).multiplicity
        total = np.zeros((dim, dim))
        for q in (-1, 0, 1):
            mat = q_matrix(fg, fe, q)
            total += (2 * AngMom.coerce(fe).f + 1) * (mat.conj().T @ mat).real
        _, p_e = projectors(fg, fe)
        np.testing.assert_allclose(total, p_e, atol=1e-12)

    def test_entries_live_in_ground_excited_block(self):
        mat = q_matrix(1, 2, 1)
        assert mat.shape == (8, 8)
        assert np.all(mat[:, :3] == 0)  # no ground-column entries
        assert np.all(mat[3:, :] == 0)  # no excited-row entries

    def test_q_selects_magnetic_quantum_numbers(self):
        # entry (m_g, m_e) nonzero only when m_g = m_e + q
        for q in (-1, 0, 1):
            mat = q_matrix(1, 2, q)
            m_g = AngMom.coerce(1).m_values()
            m_e = AngMom.coerce(2).m_values()
            for i, mg in enumerate(m_g):
                for j, me in enumerate(m_e):
                    if mg != me + q:
                        assert mat[i, 3 + j] == 0.0

    def test_transition_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            q_matrix(0.5, 2.5, 0)


class TestFzAndProjectors:
    def test_fz_is_diagonal_m_ladder(self):
        fz = fz_matrix(1, 0)
        np.testing.assert_allclose(np.diag(fz), [-1.0, 0.0, 1.0, 0.0])
        fz6 = fz_matrix(1, 2)
        np.testing.assert_allclose(np.diag(fz6), [-1, 0, 1, -2, -1, 0, 1, 2])

    def test_projectors_partition_identity(self):
        p_g, p_e = projectors(1, 2)
        np.testing.assert_allclose(p_g + p_e, np.eye(8))
        np.testing.assert_allclose(p_g @ p_e, np.zeros((8, 8)))


class TestPolarization:
    def test_named_vectors(self):
        x = polarization("linear-x")
        y = polarization("linear-y")
        np.testing.assert_allclose(x, [1 / np.sqrt(2), 0, -1 / np.sqrt(2)])
        np.testing.assert_allclose(y, [1j / np.sqrt(2), 0, 1j / np.sqrt(2)])
        np.testing.assert_allclose(polarization("sigma+"), [0, 0, 1])
        np.testing.assert_allclose(polarization("sigma-"), [1, 0, 0])

    def test_all_named_vectors_unit_norm(self):
        for name in ("linear-x", "linear-y", "sigma+", "sigma-"):
            assert np.linalg.norm(polarization(name)) == pytest.approx(1.0)

    def test_general_requires_unit_norm(self):
        vec = polarization("general", components=(0.6, 0.0, 0.8j))
        np.testing.assert_allclose(vec, [0.6, 0.0, 0.8j])
        with pytest.raises(ValueError, match=r"unit norm, got 1\.4142135623730951$"):
            polarization("general", components=(1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            polarization("circular-ish")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_general_rejects_non_finite_components(self, bad):
        # a NaN norm compares false with everything, so it must not slip past the norm test
        with pytest.raises(ValueError, match=r"unit norm, got (nan|inf)$"):
            polarization("general", components=(bad, 0.0, 0.0))
