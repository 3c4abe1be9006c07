import math

import numpy as np
import pytest

from conftest import random_density_matrix
from corrchan import (entropy_of_spectrum, fidelity_pure, haar_random_unitary,
                      linear_entropy, tensor, von_neumann_entropy)
from corrchan.states import random_pure_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_pair_is_antidiagonal(self):
        expected = np.zeros((4, 4))
        expected[[0, 1, 2, 3], [3, 2, 1, 0]] = 1
        assert np.array_equal(tensor(SX, SX), expected)

    def test_acts_factorwise_on_product_vectors(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = tensor(a, b) @ np.kron(u, v)
        rhs = np.kron(a @ u, b @ v)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_associative_on_integer_matrices(self, rng):
        mats = [rng.integers(-3, 4, size=(2, 2)) for _ in range(3)]
        a, b, c = (m.astype(complex) for m in mats)
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed(self, d):
        assert abs(von_neumann_entropy(np.eye(d) / d) - np.log2(d)) < 1e-12

    def test_direct_evaluation(self):
        rho = np.diag([0.5, 0.25, 0.25])
        assert abs(von_neumann_entropy(rho) - 1.5) < 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            u = haar_random_unitary(4, rng)
            s0 = von_neumann_entropy(rho)
            s1 = von_neumann_entropy(u @ rho @ u.conj().T)
            assert abs(s0 - s1) < 1e-9

    def test_concavity(self, rng):
        for _ in range(20):
            r1 = random_density_matrix(4, rng)
            r2 = random_density_matrix(4, rng)
            mixed = von_neumann_entropy((r1 + r2) / 2)
            avg = (von_neumann_entropy(r1) + von_neumann_entropy(r2)) / 2
            assert mixed >= avg - 1e-9

    def test_clamps_tiny_negative_eigenvalues(self):
        rho = np.diag([1.0 + 5e-11, -5e-11])
        assert von_neumann_entropy(rho) == 0.0

    def test_pure_spectrum_is_positive_zero(self):
        assert math.copysign(1.0, entropy_of_spectrum([1, 0, 0])) == 1.0
        assert math.copysign(1.0, von_neumann_entropy(np.diag([0.0, 1.0]))) == 1.0

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            von_neumann_entropy(np.diag([1.001, -0.001]))

    def test_range(self, rng):
        rho = random_density_matrix(4, rng)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= np.log2(4) + 1e-9


class TestLinearEntropy:
    def test_pure_state(self):
        assert abs(linear_entropy(np.diag([1.0, 0.0, 0.0]))) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_mixed(self, d):
        assert abs(linear_entropy(np.eye(d) / d) - (1 - 1 / d)) < 1e-12

    def test_direct_evaluation(self):
        assert abs(linear_entropy(np.diag([0.5, 0.3, 0.2])) - 0.62) < 1e-12

    def test_zero_iff_pure(self, rng):
        psi = random_pure_state(4, rng)
        pure = np.outer(psi, psi.conj())
        assert linear_entropy(pure) < 1e-9
        mixed = random_density_matrix(4, rng)
        purity = np.einsum("ij,ji->", mixed, mixed).real
        if purity < 1 - 1e-9:
            assert linear_entropy(mixed) > 1e-9


class TestFidelityPure:
    def test_identical(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert abs(fidelity_pure(psi, np.outer(psi, psi.conj())) - 1.0) < 1e-14

    def test_orthogonal(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([0.0, 1.0], dtype=complex)
        assert abs(fidelity_pure(psi, np.outer(phi, phi.conj()))) < 1e-14

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="not normalised"):
            fidelity_pure(np.array([1.0, 1.0]), np.eye(2) / 2)

    def test_range(self, rng):
        psi = random_pure_state(4, rng)
        rho = random_density_matrix(4, rng)
        f = fidelity_pure(psi, rho)
        assert -1e-10 <= f <= 1 + 1e-10
