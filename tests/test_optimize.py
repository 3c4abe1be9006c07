import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pauli_channels_at_mu
from corrchan import (CorrelatedChannel, KrausChannel, MinEntropyResult,
                      OptimizerConfig, ansatz_output_matrix, apply_correlated,
                      apply_correlated_pure, apply_phi, channels,
                      haar_random_unitary, minimize_ansatz, minimize_full,
                      objective, optimize, oracle_sample, pauli_channel,
                      pauli_column_probs, qubit_ixz_channel,
                      symmetric_pauli_channel, von_neumann_entropy)
from corrchan.channels import _apply_pure
from corrchan.optimize import (_ansatz_objective, _full_objective,
                               _output_entropies)
from corrchan.states import (SymmetricAnsatz, ansatz_state, basis_separable,
                             from_params, max_entangled, params_of)

QUBIT = qubit_ixz_channel(0.3, 0.2, 0.5)
QUTRIT_COLS = np.array([0.08, 0.18, 0.0733])
QUTRIT_COLS = QUTRIT_COLS / (3 * QUTRIT_COLS.sum())
QUTRIT = symmetric_pauli_channel(3, QUTRIT_COLS)

WITNESS = qubit_ixz_channel(0.0, 0.4, 0.6)
HAAR = KrausChannel(dim=3, ops=np.stack(
    [np.eye(3)] + [haar_random_unitary(3, np.random.default_rng(k))
                   for k in (1, 2)]), probs=[0.5, 0.3, 0.2])

FAST_FULL = OptimizerConfig(restarts=6, seed=11, mode="full")
FAST_ANSATZ = OptimizerConfig(restarts=6, seed=11, mode="ansatz")


class TestObjective:
    def test_full_correlation_on_max_entangled(self):
        ch = CorrelatedChannel(base=QUBIT, mu=1.0)
        assert objective(ch, max_entangled(2)) <= 1e-12

    def test_product_channel_on_product_seed(self):
        # at mu=0 the two uses are independent, so |0,0> yields twice the
        # single-use output entropy of |0><0|
        ch = CorrelatedChannel(base=QUBIT, mu=0.0)
        single = von_neumann_entropy(
            apply_phi(QUBIT, np.diag([1.0, 0.0]).astype(complex)))
        got = objective(ch, basis_separable(2, 0, 0))
        assert abs(got - 2 * single) < 1e-10

    def test_noiseless_channel(self, rng):
        ident = KrausChannel(dim=2, ops=np.eye(2, dtype=complex)[None],
                             probs=[1.0])
        ch = CorrelatedChannel(base=ident, mu=0.7)
        from corrchan.states import random_pure_state
        psi = random_pure_state(4, rng)
        assert objective(ch, psi) <= 1e-10


def assert_gradient_matches_differences(func, x, h=1e-6):
    """func(x) = (f, grad f) against central differences of f."""
    _, grad = func(x)
    steps = h * np.eye(x.size)
    diff = np.array([(func(x + e)[0] - func(x - e)[0]) / (2 * h) for e in steps])
    assert np.abs(grad - diff).max() <= 1e-5 * max(1.0, np.abs(diff).max())


class TestGradient:
    @settings(max_examples=40, deadline=None)
    @given(pauli_channels_at_mu(symmetric=False))
    def test_full_search_gradient(self, drawn):
        ch, rng = drawn
        d = ch.base.dim
        func = _full_objective(ch)
        x = rng.standard_normal(2 * d * d)
        assert abs(func(x)[0] - objective(ch, from_params(x, d * d))) < 1e-12
        assert_gradient_matches_differences(func, x)

    @settings(max_examples=40, deadline=None)
    @given(pauli_channels_at_mu(symmetric=True))
    def test_ansatz_gradient(self, drawn):
        ch, rng = drawn
        d = ch.base.dim
        func = _ansatz_objective(ch)
        x = rng.standard_normal(2 * d)
        psi = ansatz_state(SymmetricAnsatz(d=d, a=from_params(x, d)))
        assert abs(func(x)[0] - objective(ch, psi)) < 1e-12
        assert_gradient_matches_differences(func, x)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_finite_on_pure_output(self, d):
        # at mu = 1 the maximally entangled input has a pure output
        p = np.arange(1.0, d + 1) / (d * np.arange(1.0, d + 1).sum())
        ch = CorrelatedChannel(base=symmetric_pauli_channel(d, p), mu=1.0)
        uniform = np.full(d, 1.0 / np.sqrt(d))
        for func, x in ((_full_objective(ch), params_of(max_entangled(d))),
                        (_ansatz_objective(ch), params_of(uniform))):
            entropy, grad = func(x)
            assert entropy == 0.0
            assert np.all(np.isfinite(grad)) and np.abs(grad).max() < 1e-8


class TestMinimizeFull:
    def test_product_channel_optimum_is_separable(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.0)
        res = minimize_full(ch, FAST_FULL)
        single = von_neumann_entropy(
            apply_phi(QUBIT, np.diag([1.0, 0.0]).astype(complex)))
        assert res.entanglement_bits <= 0.02
        assert abs(res.entropy_bits - 2 * single) < 1e-6

    def test_full_correlation_optimum_is_max_entangled(self):
        ch = CorrelatedChannel(base=QUBIT, mu=1.0)
        res = minimize_full(ch, FAST_FULL)
        assert res.entropy_bits <= 1e-8
        assert abs(res.entanglement_bits - 1.0) <= 1e-6
        # S >= 0, so a start that ends at exactly S = 0 is a global minimum
        assert res.entropy_bits == 0.0 and res.converged

    def test_never_loses_to_oracle(self):
        for mu in (0.2, 0.6):
            ch = CorrelatedChannel(base=QUBIT, mu=mu)
            res = minimize_full(ch, FAST_FULL)
            oracle = oracle_sample(ch, 2000, seed=3)
            assert res.entropy_bits <= oracle.entropy_bits + 1e-6

    def test_deterministic_given_seed(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.35)
        cfg = OptimizerConfig(restarts=3, seed=99, mode="full")
        a = minimize_full(ch, cfg)
        b = minimize_full(ch, cfg)
        assert a.entropy_bits == b.entropy_bits
        assert np.array_equal(a.state, b.state)
        assert a.entanglement_bits == b.entanglement_bits
        assert a.iterations_used == b.iterations_used
        assert a.converged == b.converged

    def test_random_start_finds_basin_no_seed_covers(self):
        # the |++> optimum is none of the deterministic seeds, which are
        # stationary points, so the one random start must reach it
        base = qubit_ixz_channel(0.3, 0.6, 0.1)
        ch = CorrelatedChannel(base=base, mu=0.0)
        res = minimize_full(ch, OptimizerConfig(restarts=1, mode="full"))
        plus = np.full(4, 0.5)
        assert abs(objective(ch, plus) - 0.937991187179) <= 1e-12
        assert abs(res.entropy_bits - 0.937991187179) <= 1e-9
        assert res.entanglement_bits <= 1e-6

    def test_rejects_wrong_mode(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.5)
        with pytest.raises(ValueError, match="mode"):
            minimize_full(ch, FAST_ANSATZ)

    def test_local_searches_go_through_the_seam(self, monkeypatch):
        # bench/worker.py traces each local search by patching
        # optimize._scipy_minimize, so every start must pass through it
        ch = CorrelatedChannel(base=QUBIT, mu=0.5)
        cfg = OptimizerConfig(restarts=1, seed=42, mode="full")
        plain = minimize_full(ch, cfg)
        starts = []
        original = optimize._scipy_minimize

        def counted(func, x0, **kwargs):
            starts.append(x0)
            return original(func, x0, **kwargs)
        monkeypatch.setattr(optimize, "_scipy_minimize", counted)
        res = minimize_full(ch, cfg)
        assert len(starts) == 3
        assert np.array_equal(starts[0], params_of(max_entangled(2)))
        assert np.array_equal(starts[1], params_of(basis_separable(2, 0, 0)))
        assert res.entropy_bits == plain.entropy_bits

    def test_result_ranges(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.3)
        res = minimize_full(ch, FAST_FULL)
        assert isinstance(res, MinEntropyResult)
        assert 0 <= res.entropy_bits <= 2 * np.log2(2) + 1e-9
        assert 0 <= res.entanglement_bits <= np.log2(2) + 1e-9
        assert abs(np.linalg.norm(res.state) - 1) < 1e-10


class TestMinimizeAnsatz:
    def test_product_channel_optimum_is_separable(self):
        ch = CorrelatedChannel(base=QUTRIT, mu=0.0)
        res = minimize_ansatz(ch, FAST_ANSATZ)
        assert res.entanglement_bits <= 0.02

    def test_full_correlation_optimum_is_uniform(self):
        ch = CorrelatedChannel(base=QUTRIT, mu=1.0)
        res = minimize_ansatz(ch, FAST_ANSATZ)
        assert res.entropy_bits <= 1e-8
        assert abs(res.entanglement_bits - np.log2(3)) <= 1e-6

    def test_exact_zero_at_full_correlation_is_converged(self):
        ch = CorrelatedChannel(base=QUTRIT, mu=1.0)
        res = minimize_ansatz(ch, OptimizerConfig(restarts=1, mode="ansatz"))
        assert res.entropy_bits == 0.0 and res.converged

    def test_entanglement_tie_goes_to_lower_entropy(self):
        # at mu = 1 every end point has entanglement log2 3 up to rounding;
        # the exact zero must win over an end point at 5.8e-13 (seed 11)
        ch = CorrelatedChannel(base=QUTRIT, mu=1.0)
        for restarts in (1, 6, 16):
            cfg = OptimizerConfig(restarts=restarts, seed=11, mode="ansatz")
            assert minimize_ansatz(ch, cfg).entropy_bits == 0.0

    def test_agrees_with_full_search(self):
        for mu in (0.1, 0.5, 0.9):
            ch = CorrelatedChannel(base=QUTRIT, mu=mu)
            res_a = minimize_ansatz(ch, FAST_ANSATZ)
            res_f = minimize_full(ch, OptimizerConfig(restarts=8, seed=5,
                                                      mode="full"))
            assert abs(res_a.entropy_bits - res_f.entropy_bits) <= 0.01

    def test_reordered_phased_operators(self):
        # the same channel with its operators reversed and multiplied by i
        moved = KrausChannel(dim=3, ops=1j * QUTRIT.ops[::-1],
                             probs=QUTRIT.probs[::-1])
        assert np.abs(pauli_column_probs(moved) - QUTRIT_COLS).max() < 1e-15
        for mu in (0.2, 0.6):
            a = minimize_ansatz(CorrelatedChannel(base=moved, mu=mu), FAST_ANSATZ)
            b = minimize_ansatz(CorrelatedChannel(base=QUTRIT, mu=mu), FAST_ANSATZ)
            assert abs(a.entropy_bits - b.entropy_bits) < 1e-12

    def test_rejects_asymmetric_channel(self):
        from corrchan import pauli_channel
        asym = pauli_channel(2, np.array([[0.3, 0.5], [0.2, 0.0]]))
        ch = CorrelatedChannel(base=asym, mu=0.5)
        with pytest.raises(ValueError, match="column-symmetric"):
            minimize_ansatz(ch, FAST_ANSATZ)

    def test_deterministic_given_seed(self):
        ch = CorrelatedChannel(base=QUTRIT, mu=0.42)
        a = minimize_ansatz(ch, FAST_ANSATZ)
        b = minimize_ansatz(ch, FAST_ANSATZ)
        assert a.entropy_bits == b.entropy_bits
        assert np.array_equal(a.state, b.state)


class TestClosedFormOutput:
    def test_matches_direct_application(self, rng):
        for _ in range(50):
            mu = float(rng.uniform())
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = a / np.linalg.norm(a)
            psi = ansatz_state(SymmetricAnsatz(d=3, a=a))
            ch = CorrelatedChannel(base=QUTRIT, mu=mu)
            direct = apply_correlated(ch, np.outer(psi, psi.conj()))
            fast = ansatz_output_matrix(QUTRIT_COLS, mu, a)
            assert np.abs(direct - fast).max() <= 1e-10

    def test_trace_one(self, rng):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = a / np.linalg.norm(a)
        p = np.array([0.4, 0.3, 0.2, 0.1]) / 4
        out = ansatz_output_matrix(p, 0.3, a)
        assert abs(np.trace(out).real - 1.0) < 1e-12


class TestOracleSample:
    def test_finds_zero_at_full_correlation(self):
        ch = CorrelatedChannel(base=QUBIT, mu=1.0)
        res = oracle_sample(ch, 1000, seed=1)
        assert res.entropy_bits <= 1e-8

    def test_noiseless_channel(self):
        ident = KrausChannel(dim=2, ops=np.eye(2, dtype=complex)[None],
                             probs=[1.0])
        ch = CorrelatedChannel(base=ident, mu=0.5)
        res = oracle_sample(ch, 1000, seed=1)
        assert res.entropy_bits <= 1e-10

    def test_close_to_optimizer(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.2)
        found = minimize_full(ch, FAST_FULL)
        oracle = oracle_sample(ch, 20000, seed=2)
        assert abs(found.entropy_bits - oracle.entropy_bits) <= 0.02

    def test_deterministic(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.3)
        a = oracle_sample(ch, 1000, seed=17)
        b = oracle_sample(ch, 1000, seed=17)
        assert a.entropy_bits == b.entropy_bits
        assert np.array_equal(a.state, b.state)

    def test_rejects_tiny_sample_count(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.3)
        with pytest.raises(ValueError, match="1000"):
            oracle_sample(ch, 10, seed=1)


def unscreened_oracle(ch, n_samples, seed):
    """oracle_sample without the screen or the slices: every state of each
    4096-state draw eigensolved at once, and the block's first least
    entropy taken when strictly lower."""
    d = ch.base.dim
    batch = np.stack([max_entangled(d)] + [basis_separable(d, i, j)
                                           for i in range(d) for j in range(d)])
    ent = _output_entropies(ch, batch)
    best, state = ent.min(), batch[np.argmin(ent)]
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, 4096):
        m = min(4096, n_samples - start)
        batch = (rng.standard_normal((m, d * d))
                 + 1j * rng.standard_normal((m, d * d)))
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        ent = _output_entropies(ch, batch)
        if ent.min() < best:
            best, state = ent.min(), batch[np.argmin(ent)]
    return float(best), state


@st.composite
def oracle_channels(draw):
    """A random Pauli channel (general or column-symmetric), the qubit
    I/X/Z preset, the witness channel or a Haar-operator channel, at mu 0,
    1 or drawn."""
    kind = draw(st.sampled_from(["general", "symmetric", "ixz", "witness",
                                 "haar"]))
    if kind in ("general", "symmetric"):
        base = draw(pauli_channels_at_mu(symmetric=kind == "symmetric"))[0].base
    else:
        base = {"ixz": QUBIT, "witness": WITNESS, "haar": HAAR}[kind]
    mu = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return CorrelatedChannel(base=base, mu=mu)


class TestOracleScreen:
    @settings(max_examples=40, deadline=None)
    @given(oracle_channels(), st.sampled_from([1000, 5000]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_unscreened_search(self, ch, n_samples, seed):
        res = oracle_sample(ch, n_samples, seed)
        entropy, state = unscreened_oracle(ch, n_samples, seed)
        assert np.array_equal(res.state, state)
        assert res.entropy_bits == entropy
        assert res.iterations_used == n_samples + 1 + ch.base.dim ** 2

    @settings(max_examples=40, deadline=None)
    @given(pauli_channels_at_mu(symmetric=False), st.floats(0.0, 4.0))
    def test_renyi2_bound(self, drawn, bound):
        ch, rng = drawn
        d = ch.base.dim
        psis = rng.standard_normal((64, d * d)) + 1j * rng.standard_normal((64, d * d))
        psis /= np.linalg.norm(psis, axis=1)[:, None]
        ent = _output_entropies(ch, psis)
        renyi2 = np.array([-np.log2(np.trace(rho @ rho).real) for rho in
                           (apply_correlated_pure(ch, psi) for psi in psis)])
        assert np.all(ent >= renyi2 - 1e-12)
        # screened entries are +inf and lie above the bound, the rest exact;
        # the least S among those nearest their S_2 is the tightest bound
        tight = ent[np.argsort(ent - renyi2)[:8]].min()
        for b in (bound, tight):
            screened = _output_entropies(ch, psis, b)
            kept = np.isfinite(screened)
            assert np.array_equal(screened[kept], ent[kept])
            assert np.all(ent[~kept] > b)

    def test_slices_match_whole_blocks(self, monkeypatch):
        # every entropy, screen aside, equals that of the whole 4096-state draw
        ch = CorrelatedChannel(base=pauli_channel(3, np.arange(1.0, 10.0) / 45),
                               mu=0.41)
        sliced = []

        def unscreened(ch, psis, bound):
            sliced.append(_output_entropies(ch, psis))
            return sliced[-1]
        monkeypatch.setattr(optimize, "_output_entropies", unscreened)
        oracle_sample(ch, 5000, seed=8)
        rng = np.random.default_rng(8)
        whole = []
        for m in (4096, 904):
            batch = rng.standard_normal((m, 9)) + 1j * rng.standard_normal((m, 9))
            batch /= np.linalg.norm(batch, axis=1)[:, None]
            whole.append(_output_entropies(ch, batch))
        assert np.array_equal(np.concatenate(sliced[1:]), np.concatenate(whole))

    @pytest.mark.parametrize("d", [4, 6])
    def test_stacks_stay_within_the_byte_budget(self, d, monkeypatch):
        sizes = []

        def recording(ch, psi):
            sizes.append(psi.shape[0])
            return _apply_pure(ch, psi)
        monkeypatch.setattr(optimize, "_apply_pure", recording)
        w = np.arange(1.0, d * d + 1)
        ch = CorrelatedChannel(base=pauli_channel(d, w / w.sum()), mu=0.4)
        oracle_sample(ch, 5000, seed=3)
        assert sum(sizes) == 5000 + 1 + d * d
        assert max(sizes) * 16 * d ** 4 <= channels._STACK_BYTES

    def test_few_samples_reach_the_eigensolver(self, monkeypatch):
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            solved.append(len(a))
            return eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        res = oracle_sample(CorrelatedChannel(base=QUTRIT, mu=0.78), 8192, seed=5)
        monkeypatch.undo()
        assert sum(solved) < 0.01 * 8192
        assert res.entropy_bits == unscreened_oracle(
            CorrelatedChannel(base=QUTRIT, mu=0.78), 8192, 5)[0]


class TestOptimizerConfig:
    def test_default_restarts_by_mode(self):
        assert OptimizerConfig(mode="full").resolved_restarts() == 32
        assert OptimizerConfig(mode="ansatz").resolved_restarts() == 16
        assert OptimizerConfig(restarts=5, mode="full").resolved_restarts() == 5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(mode="gradient")
        with pytest.raises(ValueError, match="mode must be one of"):
            OptimizerConfig(mode="real_ansatz")
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(ftol=0.0)
        with pytest.raises(ValueError, match="ftol"):
            OptimizerConfig(ftol=float("nan"))
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(max_iters=0)
