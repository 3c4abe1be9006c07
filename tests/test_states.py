import numpy as np
import pytest

from corrchan import (SymmetricAnsatz, ansatz_state, basis_separable,
                      entanglement_of, from_params, haar_random_unitary,
                      invariance_check_me, max_entangled, params_of,
                      pauli_operator_set, tensor)
from corrchan.states import random_pure_state


class TestMaxEntangled:
    def test_qubit(self):
        psi = max_entangled(2)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.abs(psi - expected).max() < 1e-15

    def test_qutrit(self):
        psi = max_entangled(3)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        assert np.count_nonzero(psi) == 3
        assert np.abs(psi[[0, 4, 8]] - 1 / np.sqrt(3)).max() < 1e-15

    def test_entanglement_is_log2_d(self):
        assert abs(entanglement_of(max_entangled(3), 3) - np.log2(3)) < 1e-12


class TestBasisSeparable:
    def test_ground(self):
        psi = basis_separable(2, 0, 0)
        assert psi[0] == 1.0 and np.abs(psi[1:]).max() == 0.0

    def test_qutrit_ordering(self):
        psi = basis_separable(3, 1, 2)
        assert psi[1 * 3 + 2] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_zero_entanglement(self):
        assert entanglement_of(basis_separable(3, 2, 1), 3) == 0.0

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_separable(2, 2, 0)


class TestFromParams:
    def test_single_axis(self):
        coords = np.zeros(8)
        coords[0] = 1.0
        psi = from_params(coords, 4)
        assert np.abs(psi - basis_separable(2, 0, 0)).max() < 1e-15

    def test_bell_state(self):
        coords = np.zeros(8)
        coords[0] = 1.0
        coords[6] = 1.0
        psi = from_params(coords, 4)
        assert np.abs(psi - max_entangled(2)).max() < 1e-12

    def test_round_trip(self, rng):
        psi = random_pure_state(9, rng)
        psi2 = from_params(params_of(psi), 9)
        assert abs(abs(np.vdot(psi, psi2)) - 1.0) < 1e-10

    def test_scale_invariance(self, rng):
        coords = rng.standard_normal(8)
        a = from_params(coords, 4)
        # power-of-two scaling is exact in binary floating point
        assert np.array_equal(a, from_params(4.0 * coords, 4))
        # arbitrary positive scaling agrees to rounding
        assert np.abs(a - from_params(3.7 * coords, 4)).max() < 1e-14

    def test_gauge_leading_amplitude_real(self, rng):
        psi = from_params(rng.standard_normal(18), 9)
        lead = psi[int(np.argmax(np.abs(psi)))]
        assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            from_params(np.zeros(8), 4)


class TestAnsatzState:
    def test_uniform_is_max_entangled(self):
        a = np.full(3, 1 / np.sqrt(3), dtype=complex)
        psi = ansatz_state(SymmetricAnsatz(d=3, a=a))
        assert np.abs(psi - max_entangled(3)).max() < 1e-12

    def test_basis_coefficients(self):
        a = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi = ansatz_state(SymmetricAnsatz(d=3, a=a))
        assert np.abs(psi - basis_separable(3, 0, 0)).max() < 1e-15

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="normalised"):
            SymmetricAnsatz(d=3, a=np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_symmetry_eigenstate(self, n, rng):
        # every diagonal-band state is fixed (modulo phase) by U0n x conj(U0n)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = a / np.linalg.norm(a)
        psi = ansatz_state(SymmetricAnsatz(d=3, a=a))
        u = pauli_operator_set(3).ops[0, n]
        w = tensor(u, u.conj())
        image = w @ psi
        overlap = np.vdot(psi, image)
        assert np.linalg.norm(image - overlap * psi) <= 1e-10


class TestEntanglementOf:
    def test_product_state(self):
        assert entanglement_of(basis_separable(2, 1, 0), 2) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled(self, d):
        assert abs(entanglement_of(max_entangled(d), d) - np.log2(d)) < 1e-12

    def test_binary_entropy_case(self):
        a = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
        psi = ansatz_state(SymmetricAnsatz(d=2, a=a))
        expected = -(0.8 * np.log2(0.8) + 0.2 * np.log2(0.2))
        assert abs(entanglement_of(psi, 2) - expected) < 1e-12

    def test_local_unitary_invariance(self, rng):
        psi = random_pure_state(9, rng)
        u = haar_random_unitary(3, rng)
        v = haar_random_unitary(3, rng)
        rotated = tensor(u, v) @ psi
        assert abs(entanglement_of(psi, 3) - entanglement_of(rotated, 3)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="d\\^2"):
            entanglement_of(np.ones(6) / np.sqrt(6), 2)


class TestInvarianceCheckMe:
    def test_identity(self):
        assert invariance_check_me(2, np.eye(2)) == 0.0

    def test_sigma_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert invariance_check_me(2, sx) <= 1e-12

    def test_haar_random(self, rng):
        for _ in range(100):
            u = haar_random_unitary(3, rng)
            assert invariance_check_me(3, u) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            invariance_check_me(2, np.array([[1.0, 0.0], [0.0, 0.5]]))
