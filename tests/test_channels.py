import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_density_matrix, random_hermitian,
                      symmetric_column_probs)
from corrchan import (CorrelatedChannel, KrausChannel, analytic_estimates,
                      apply_correlated, apply_correlated_pure, apply_phi,
                      apply_phi_c, estimate_mu_c_crossing, haar_random_unitary,
                      pauli_channel, pauli_column_probs,
                      pauli_identity_residuals, pauli_operator_set,
                      entropy_of_spectrum, qubit_ixz_channel,
                      symmetric_pauli_channel, tensor, von_neumann_entropy)
from corrchan.channels import _apply_pure
from corrchan.linalg import _spectral_entropy
from corrchan.states import max_entangled, random_pure_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

QUTRIT_COLS = np.array([0.08, 0.18, 0.0733])
QUTRIT_COLS = QUTRIT_COLS / (3 * QUTRIT_COLS.sum())


def identity_channel(d=2):
    return KrausChannel(dim=d, ops=np.eye(d, dtype=complex)[None], probs=[1.0])


def brute_force_correlated(ch, rho):
    """Direct term-by-term expansion of the two-use channel, used as the
    independent oracle against the factored implementation."""
    out = np.zeros_like(rho)
    for pa, ua in zip(ch.base.probs, ch.base.ops):
        for pb, ub in zip(ch.base.probs, ch.base.ops):
            k = np.kron(ua, ub.conj())
            out = out + (1 - ch.mu) * pa * pb * (k @ rho @ k.conj().T)
    for pa, ua in zip(ch.base.probs, ch.base.ops):
        k = np.kron(ua, ua.conj())
        out = out + ch.mu * pa * (k @ rho @ k.conj().T)
    return out


@st.composite
def bad_probs(draw, n, total, kind):
    """n entries that sum to total, broken by kind: one entry NaN, one entry
    negative with the sum kept, or every entry scaled so the sum is off."""
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    p = w * (total / w.sum())
    i = draw(st.integers(0, n - 1))
    if kind == "nan":
        p[i] = np.nan
    elif kind == "negative":
        shift = p[i] + draw(st.floats(1e-9, 1.0))
        p[i] -= shift
        p[(i + 1) % n] += shift
    else:
        p *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-6, 0.5))
    return p


class TestKrausChannelValidation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.sampled_from(["nan", "negative", "sum"]),
           st.data())
    def test_every_probability_taker_rejects_a_bad_vector(self, d, kind, data):
        # the six functions that take probabilities share one rule
        def bad(n, total):
            return data.draw(bad_probs(n, total, kind))
        ops = pauli_operator_set(d).ops.reshape(d * d, d, d)
        for call in (
                lambda: KrausChannel(dim=d, ops=ops, probs=bad(d * d, 1.0)),
                lambda: pauli_channel(d, bad(d * d, 1.0)),
                lambda: qubit_ixz_channel(*bad(3, 1.0)),
                lambda: symmetric_pauli_channel(d, bad(d, 1.0 / d)),
                lambda: analytic_estimates(d, bad(d, 1.0 / d), 0.5),
                lambda: estimate_mu_c_crossing(d, bad(d, 1.0 / d))):
            with pytest.raises(ValueError, match="probabilities must"):
                call()

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            KrausChannel(dim=2, ops=np.array([[[1, 0], [0, 0.5]]]), probs=[1.0])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="sum to 1"):
            KrausChannel(dim=2, ops=np.stack([np.eye(2), SX]), probs=[0.5, 0.4])
        with pytest.raises(ValueError, match="nonnegative"):
            KrausChannel(dim=2, ops=np.stack([np.eye(2), SX]), probs=[1.1, -0.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            KrausChannel(dim=2, ops=np.stack([np.eye(2), SX]), probs=[1.0])


class TestApplyPhi:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_phi(identity_channel(), rho) - rho).max() < 1e-14

    def test_qubit_preset_on_ground_state(self):
        ch = qubit_ixz_channel(0.3, 0.2, 0.5)
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_phi(ch, rho)
        assert np.abs(out - np.diag([0.8, 0.2])).max() < 1e-12

    def test_unital(self, rng):
        ch = qubit_ixz_channel(0.3, 0.2, 0.5)
        out = apply_phi(ch, np.eye(2) / 2)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_dimension_mismatch(self):
        ch = qubit_ixz_channel(0.3, 0.2, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            apply_phi(ch, np.eye(3) / 3)

    def test_takes_a_stack_of_inputs_only(self):
        ch = qubit_ixz_channel(0.3, 0.2, 0.5)
        rhos = np.stack([np.diag([1.0, 0.0]), np.eye(2) / 2])
        for rho, out in zip(rhos, apply_phi(ch, rhos)):
            assert np.abs(out - apply_phi(ch, rho)).max() < 1e-15
        corr = CorrelatedChannel(base=ch, mu=0.4)
        for bad in (np.eye(4)[None, None], np.eye(4)[0]):
            with pytest.raises(ValueError, match="dimension"):
                apply_correlated(corr, bad)


class TestApplyPhiC:
    def test_fixes_max_entangled_for_random_kraus_sets(self, rng):
        psi = max_entangled(3)
        rho = np.outer(psi, psi.conj())
        ops = np.stack([haar_random_unitary(3, rng) for _ in range(4)])
        ch = KrausChannel(dim=3, ops=ops, probs=[0.1, 0.2, 0.3, 0.4])
        out = apply_phi_c(ch, rho)
        assert np.abs(out - rho).max() <= 1e-12

    def test_single_operator_preserves_entropy(self, rng):
        u = haar_random_unitary(2, rng)
        ch = KrausChannel(dim=2, ops=u[None], probs=[1.0])
        rho = random_density_matrix(4, rng)
        assert abs(von_neumann_entropy(apply_phi_c(ch, rho))
                   - von_neumann_entropy(rho)) < 1e-9

    def test_qubit_preset_on_00(self):
        ch = qubit_ixz_channel(0.3, 0.2, 0.5)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_phi_c(ch, rho)
        expected = np.diag([0.8, 0.0, 0.0, 0.2]).astype(complex)
        assert np.abs(out - expected).max() < 1e-12


class TestApplyCorrelated:
    def test_mu_zero_is_product_channel(self, rng):
        base = qubit_ixz_channel(0.3, 0.2, 0.5)
        ch = CorrelatedChannel(base=base, mu=0.0)
        rho = random_density_matrix(4, rng)
        lhs = apply_correlated(ch, rho)
        rhs = brute_force_correlated(ch, rho)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_mu_one_on_max_entangled(self):
        base = qubit_ixz_channel(0.3, 0.2, 0.5)
        ch = CorrelatedChannel(base=base, mu=1.0)
        psi = max_entangled(2)
        rho = np.outer(psi, psi.conj())
        out = apply_correlated(ch, rho)
        assert np.abs(out - rho).max() < 1e-12
        assert von_neumann_entropy(out) <= 1e-12

    def test_matches_brute_force_expansion(self, rng):
        base = qubit_ixz_channel(0.3, 0.2, 0.5)
        ch = CorrelatedChannel(base=base, mu=0.5)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert np.abs(apply_correlated(ch, rho)
                      - brute_force_correlated(ch, rho)).max() < 1e-12

    def test_qutrit_matches_brute_force(self, rng):
        base = symmetric_pauli_channel(3, QUTRIT_COLS)
        ch = CorrelatedChannel(base=base, mu=0.37)
        rho = random_density_matrix(9, rng)
        assert np.abs(apply_correlated(ch, rho)
                      - brute_force_correlated(ch, rho)).max() < 1e-12

    def test_rejects_bad_mu(self):
        base = qubit_ixz_channel(0.3, 0.2, 0.5)
        with pytest.raises(ValueError, match="mu"):
            CorrelatedChannel(base=base, mu=1.5)

    @pytest.mark.parametrize("mu", [float("nan"), -0.1, 1.5])
    def test_one_mu_rule_for_both_callers(self, mu):
        for call in (lambda: CorrelatedChannel(base=identity_channel(), mu=mu),
                     lambda: analytic_estimates(3, QUTRIT_COLS, mu)):
            with pytest.raises(ValueError, match=r"^mu must lie in \[0, 1\]$"):
                call()

    def test_trace_preservation_and_positivity(self, rng):
        base = qubit_ixz_channel(0.3, 0.2, 0.5)
        for _ in range(1000):
            mu = float(rng.uniform())
            ch = CorrelatedChannel(base=base, mu=mu)
            rho = random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
            out = apply_correlated(ch, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_unitality(self, rng):
        for base in (qubit_ixz_channel(0.3, 0.2, 0.5),
                     symmetric_pauli_channel(3, QUTRIT_COLS)):
            d = base.dim
            ch = CorrelatedChannel(base=base, mu=0.3)
            out = apply_correlated(ch, np.eye(d * d) / d ** 2)
            assert np.abs(out - np.eye(d * d) / d ** 2).max() < 1e-10

    def test_pure_fast_path_agrees(self, rng):
        base = symmetric_pauli_channel(3, QUTRIT_COLS)
        ch = CorrelatedChannel(base=base, mu=0.61)
        psi = random_pure_state(9, rng)
        fast = apply_correlated_pure(ch, psi)
        slow = apply_correlated(ch, np.outer(psi, psi.conj()))
        assert np.abs(fast - slow).max() < 1e-12


@st.composite
def pauli_channels_and_states(draw):
    """A random symmetric Pauli channel at a random mu, and a stack of inputs.

    The stack starts with the maximally entangled state, whose output is
    pure at mu = 1, so zero eigenvalues are exercised too.
    """
    d, p = draw(symmetric_column_probs())
    mu = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    states = [max_entangled(d)]
    states += [random_pure_state(d * d, rng)
               for _ in range(draw(st.integers(0, 3)))]
    return (CorrelatedChannel(base=symmetric_pauli_channel(d, p), mu=mu),
            np.stack(states))


class TestPureKernel:
    @settings(max_examples=30, deadline=None)
    @given(pauli_channels_and_states())
    def test_stacked_matches_single_and_dense(self, drawn):
        ch, states = drawn
        stacked = _apply_pure(ch, states)
        assert stacked.shape == (len(states),) + (states.shape[1],) * 2
        for psi, rho in zip(states, stacked):
            dense = apply_correlated(ch, np.outer(psi, psi.conj()))
            assert np.abs(rho - apply_correlated_pure(ch, psi)).max() < 1e-12
            assert np.abs(rho - dense).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(pauli_channels_and_states())
    def test_stacked_entropy_matches_rows(self, drawn):
        ch, states = drawn
        spectra = np.linalg.eigvalsh(_apply_pure(ch, states))
        stacked = _spectral_entropy(spectra)
        assert stacked.shape == (len(states),)
        for row, value in zip(spectra, stacked):
            assert abs(value - entropy_of_spectrum(row)) < 1e-12


@st.composite
def weyl_channels_and_inputs(draw):
    """A Pauli channel given as raw operators, at a random mu, and inputs.

    d is 2 to 5. The words come in drawn order and may repeat; each
    operator carries a random global phase, except that at d = 2 the word
    (1, 1) is given as the raw matrix SY. The inputs are one dense density
    matrix and a stack of pure states led by the maximally entangled one.
    """
    d = draw(st.integers(2, 5))
    words = draw(st.lists(st.integers(0, d * d - 1), min_size=1, max_size=7))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(words),
                                     max_size=len(words))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = pauli_operator_set(d).ops.reshape(d * d, d, d)[words]
    ops = ops * np.exp(2j * np.pi * rng.uniform(size=len(words)))[:, None, None]
    if d == 2:
        ops[np.array(words) == 3] = SY
    base = KrausChannel(dim=d, ops=ops, probs=weights / weights.sum())
    ch = CorrelatedChannel(base=base, mu=draw(st.floats(0.0, 1.0)))
    states = [max_entangled(d)] + [random_pure_state(d * d, rng) for _ in range(2)]
    return ch, random_density_matrix(d * d, rng), np.stack(states)


def assert_matches_kraus_sum(ch, rho, states):
    """Dense, single pure and stacked pure outputs, and a (B, D, D) stack of
    the dense input and the projectors, against the Kraus sum."""
    out = apply_correlated(ch, rho)
    assert np.abs(out - brute_force_correlated(ch, rho)).max() < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12
    rhos = np.concatenate([rho[None],
                           states[:, :, None] * states[:, None, :].conj()])
    outs = apply_correlated(ch, rhos)
    assert outs.shape == rhos.shape
    for r, got in zip(rhos, outs):
        assert np.abs(got - brute_force_correlated(ch, r)).max() < 1e-12
    stacked = _apply_pure(ch, states)
    for psi, got in zip(states, stacked):
        want = brute_force_correlated(ch, np.outer(psi, psi.conj()))
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(apply_correlated_pure(ch, psi) - want).max() < 1e-12


class TestWeylKernel:
    @settings(max_examples=60, deadline=None)
    @given(weyl_channels_and_inputs())
    def test_matches_kraus_sum(self, drawn):
        ch, rho, states = drawn
        assert ch._weyl_blocks is not None
        assert_matches_kraus_sum(ch, rho, states)

    def test_haar_channel_takes_general_path(self, rng):
        ops = np.stack([np.eye(3), haar_random_unitary(3, rng),
                        haar_random_unitary(3, rng)])
        ch = CorrelatedChannel(base=KrausChannel(dim=3, ops=ops,
                                                 probs=[0.5, 0.3, 0.2]), mu=0.35)
        assert ch.base._weyl_words is None and ch._weyl_blocks is None
        states = np.stack([random_pure_state(9, rng) for _ in range(3)])
        assert_matches_kraus_sum(ch, random_density_matrix(9, rng), states)

    def test_three_words_at_d8(self, rng):
        weyl = pauli_operator_set(8).ops
        ops = np.stack([weyl[0, 0], weyl[1, 3], weyl[5, 2]])
        ch = CorrelatedChannel(base=KrausChannel(dim=8, ops=ops,
                                                 probs=[0.6, 0.3, 0.1]), mu=0.45)
        states = np.stack([max_entangled(8)] + [random_pure_state(64, rng)
                                                for _ in range(2)])
        assert_matches_kraus_sum(ch, random_density_matrix(64, rng), states)


def assert_adjoint_duality(ch, rho, rng):
    """tr(G E(rho)) = tr(E^dag(G) rho) for a random Hermitian G."""
    g = random_hermitian(rho.shape[0], rng)
    lhs = np.trace(g @ apply_correlated(ch, rho))
    rhs = np.trace(apply_correlated(ch.adjoint, g) @ rho)
    assert abs(lhs - rhs) < 1e-12


class TestAdjoint:
    @settings(max_examples=40, deadline=None)
    @given(weyl_channels_and_inputs(), st.integers(0, 2 ** 32 - 1))
    def test_weyl_channel_duality(self, drawn, seed):
        ch, rho, _ = drawn
        assert ch.adjoint._weyl_blocks is not None
        assert_adjoint_duality(ch, rho, np.random.default_rng(seed))

    def test_haar_channel_duality_takes_general_path(self, rng):
        ops = np.stack([np.eye(3), haar_random_unitary(3, rng),
                        haar_random_unitary(3, rng)])
        ch = CorrelatedChannel(base=KrausChannel(dim=3, ops=ops,
                                                 probs=[0.5, 0.3, 0.2]), mu=0.35)
        assert ch.adjoint._weyl_blocks is None
        assert_adjoint_duality(ch, random_density_matrix(9, rng), rng)


class TestPauliOperators:
    def test_qubit_reduction(self):
        ops = pauli_operator_set(2).ops
        assert np.abs(ops[1, 0] - SX).max() < 1e-15
        assert np.abs(ops[0, 1] - SZ).max() < 1e-15
        assert np.abs(ops[1, 1] - SX @ SZ).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_defining_identities(self, d):
        res = pauli_identity_residuals(pauli_operator_set(d))
        assert res["adjoint"] <= 1e-10
        assert res["commutation"] <= 1e-10
        assert res["trace"] <= 1e-10

    def test_trace_qutrit(self):
        ops = pauli_operator_set(3).ops
        for m in range(3):
            for n in range(3):
                want = 3.0 if (m, n) == (0, 0) else 0.0
                assert abs(np.trace(ops[m, n]) - want) < 1e-10

    def test_construction_rule(self):
        d = 4
        pauli = pauli_operator_set(d)
        xi = pauli.xi
        for m in range(d):
            for n in range(d):
                for k in range(d):
                    col = pauli.ops[m, n][:, k]
                    expected = np.zeros(d, dtype=complex)
                    expected[(k + m) % d] = xi ** (k * n)
                    assert np.abs(col - expected).max() < 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="at least 2"):
            pauli_operator_set(1)


class TestPauliChannel:
    def test_identity(self, rng):
        probs = np.zeros((2, 2))
        probs[0, 0] = 1.0
        ch = pauli_channel(2, probs)
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_phi(ch, rho) - rho).max() < 1e-12

    def test_paper_error_matrix_is_valid(self):
        ch = symmetric_pauli_channel(3, QUTRIT_COLS)
        assert len(ch.ops) == 9
        p = ch.probs.reshape(3, 3)
        assert np.abs(p - p[:, :1]).max() < 1e-15

    def test_uniform_depolarises(self, rng):
        d = 3
        ch = pauli_channel(d, np.full((d, d), 1 / d ** 2))
        rho = random_density_matrix(d, rng)
        assert np.abs(apply_phi(ch, rho) - np.eye(d) / d).max() < 1e-12

    def test_rejects_bad_normalisation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            pauli_channel(2, np.full((2, 2), 0.3))

    def test_column_probs_roundtrip(self):
        ch = symmetric_pauli_channel(3, QUTRIT_COLS)
        assert np.abs(pauli_column_probs(ch) - QUTRIT_COLS).max() < 1e-15

    def test_column_probs_rejects_asymmetric(self):
        probs = np.array([[0.3, 0.5], [0.2, 0.0]])
        ch = pauli_channel(2, probs)
        with pytest.raises(ValueError, match="column-symmetric"):
            pauli_column_probs(ch)

    def test_column_probs_rejects_non_pauli(self):
        with pytest.raises(ValueError, match="generalized Pauli"):
            pauli_column_probs(qubit_ixz_channel(0.3, 0.2, 0.5))


class TestQubitIXZ:
    def test_identity_limit(self, rng):
        ch = qubit_ixz_channel(1.0, 0.0, 0.0)
        rho = random_density_matrix(2, rng)
        assert np.abs(apply_phi(ch, rho) - rho).max() < 1e-14

    def test_pure_bit_flip(self):
        ch = qubit_ixz_channel(0.0, 1.0, 0.0)
        out = apply_phi(ch, np.diag([1.0, 0.0]).astype(complex))
        assert np.abs(out - np.diag([0.0, 1.0])).max() < 1e-14

    def test_bundled_preset_parameters(self):
        ch = qubit_ixz_channel(0.3, 0.2, 0.5)
        assert np.allclose(ch.probs, [0.3, 0.2, 0.5])
        assert np.abs(ch.ops[1] - SX).max() < 1e-15
        assert np.abs(ch.ops[2] - SZ).max() < 1e-15

    def test_rejects_bad_normalisation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            qubit_ixz_channel(0.5, 0.3, 0.3)


class TestSymmetries:
    def test_single_use_shift_symmetry(self, rng):
        # column-symmetric channels are blind to phase-operator conjugation
        base = symmetric_pauli_channel(3, QUTRIT_COLS)
        pauli = pauli_operator_set(3)
        rho = random_density_matrix(3, rng)
        out = apply_phi(base, rho)
        for k in range(3):
            u = pauli.ops[0, k]
            conj = apply_phi(base, u @ rho @ u.conj().T)
            assert np.abs(conj - out).max() <= 1e-10

    def test_two_use_shift_symmetry(self, rng):
        base = symmetric_pauli_channel(3, QUTRIT_COLS)
        pauli = pauli_operator_set(3)
        ch = CorrelatedChannel(base=base, mu=0.44)
        rho = random_density_matrix(9, rng)
        out = apply_correlated(ch, rho)
        for k in range(3):
            w = tensor(pauli.ops[0, k], pauli.ops[0, k].conj())
            conj = apply_correlated(ch, w @ rho @ w.conj().T)
            assert np.abs(conj - out).max() <= 1e-10
