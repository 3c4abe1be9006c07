import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import (pauli_channels_at_mu, random_density_matrix,
                      symmetric_column_probs)
from corrchan import (CorrelatedChannel, KrausChannel, OptimizerConfig,
                      SweepResult,
                      analysis, analytic_estimates, apply_correlated, channels,
                      check_theorem, detect_transition, estimate_mu_c_crossing,
                      fidelity_pure, haar_random_unitary, linear_entropy,
                      max_entangled, minimize_ansatz, minimize_full,
                      mutual_information_i2, objective, pauli_channel,
                      pauli_operator_set, qubit_ixz_channel, sweep,
                      symmetric_pauli_channel, verify_covariance,
                      verify_schur_average)
from corrchan.analysis import SweepEntry, _basin_entropies, _basin_inputs
from corrchan.states import basis_separable, entanglement_of, random_pure_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

QUTRIT_COLS = np.array([0.08, 0.18, 0.0733])
QUTRIT_COLS = QUTRIT_COLS / (3 * QUTRIT_COLS.sum())

QUBIT = qubit_ixz_channel(0.3, 0.2, 0.5)
QUTRIT = symmetric_pauli_channel(3, QUTRIT_COLS)
# roots of S_me - S_sep on the presets, as bench/checks.py's dense
# Kraus-sum reference computes them
QUBIT_MU_C = 0.5595807783
QUTRIT_MU_C = 0.2905396931
NOISELESS = KrausChannel(dim=2, ops=np.eye(2, dtype=complex)[None], probs=[1.0])
WITNESS = qubit_ixz_channel(0.0, 0.4, 0.6)  # {X, Z} leaves the Y axis invariant


class TestCheckTheorem:
    def test_ixz_has_empty_intersection(self):
        verdict = check_theorem(QUBIT)
        assert verdict.intersection_empty
        assert verdict.witness is None
        assert verdict.checked_pairs == 3

    def test_xz_has_witness(self):
        ch = KrausChannel(dim=2, ops=np.stack([SX, SZ]), probs=[0.4, 0.6])
        verdict = check_theorem(ch)
        assert not verdict.intersection_empty
        w = verdict.witness
        assert abs(np.linalg.norm(w) - 1) < 1e-12
        # witness must be invariant modulo phase under each relative operator
        for u in (SX.conj().T @ SX, SZ.conj().T @ SX):
            img = u @ w
            assert np.linalg.norm(img - (w.conj() @ img) * w) <= 1e-9

    def test_zero_probability_operators_are_ignored(self):
        # with the identity switched off, {X, Z} admits an invariant state
        ch = qubit_ixz_channel(0.0, 0.4, 0.6)
        verdict = check_theorem(ch)
        assert not verdict.intersection_empty
        assert verdict.checked_pairs == 2

    def test_single_operator_channel(self):
        ch = KrausChannel(dim=2, ops=SX[None], probs=[1.0])
        verdict = check_theorem(ch)
        assert not verdict.intersection_empty
        assert verdict.witness is not None

    def test_two_operator_channels_always_have_witness(self, rng):
        # one nontrivial relative operator always has an eigenvector
        from corrchan import haar_random_unitary
        ops = np.stack([haar_random_unitary(3, rng) for _ in range(2)])
        ch = KrausChannel(dim=3, ops=ops, probs=[0.5, 0.5])
        assert not check_theorem(ch).intersection_empty

    def test_random_unitary_triple_generically_empty(self, rng):
        # two generic relative operators share no eigenvector
        from corrchan import haar_random_unitary
        ops = np.stack([haar_random_unitary(3, rng) for _ in range(3)])
        ch = KrausChannel(dim=3, ops=ops, probs=[0.3, 0.3, 0.4])
        assert check_theorem(ch).intersection_empty


class TestMutualInformation:
    def test_arithmetic(self):
        ch2 = CorrelatedChannel(base=QUBIT, mu=0.5)
        assert mutual_information_i2(ch2, 0.0) == 2.0
        ch3 = CorrelatedChannel(base=QUTRIT, mu=0.5)
        assert abs(mutual_information_i2(ch3, np.log2(3)) - np.log2(3)) < 1e-12

    def test_full_correlation_reaches_capacity(self):
        ch = CorrelatedChannel(base=QUBIT, mu=1.0)
        s_min = 0.0  # achieved by the maximally entangled input
        assert abs(mutual_information_i2(ch, s_min) - 2.0) < 1e-12

    def test_rejects_out_of_range(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.5)
        with pytest.raises(ValueError, match="range"):
            mutual_information_i2(ch, 5.0)


class TestCovarianceAndSchur:
    def test_identity_channel_is_covariant(self, rng):
        ident = KrausChannel(dim=2, ops=np.eye(2, dtype=complex)[None],
                             probs=[1.0])
        ch = CorrelatedChannel(base=ident, mu=0.5)
        rho = random_density_matrix(4, rng)
        assert verify_covariance(ch, rho, pauli_operator_set(2)) <= 1e-12

    @pytest.mark.parametrize("base,d", [(QUBIT, 2), (QUTRIT, 3)])
    def test_presets_are_covariant(self, base, d, rng):
        ch = CorrelatedChannel(base=base, mu=0.31)
        rho = random_density_matrix(d * d, rng)
        assert verify_covariance(ch, rho, pauli_operator_set(d)) <= 1e-9

    @pytest.mark.parametrize("base,d", [(QUBIT, 2), (QUTRIT, 3)])
    def test_twirl_average_is_maximally_mixed(self, base, d, rng):
        ch = CorrelatedChannel(base=base, mu=0.31)
        psi = random_pure_state(d * d, rng)
        rho = np.outer(psi, psi.conj())
        assert verify_schur_average(ch, rho, pauli_operator_set(d)) <= 1e-9

    def test_maximally_mixed_input_is_fixed(self):
        ch = CorrelatedChannel(base=QUBIT, mu=0.7)
        rho = np.eye(4) / 4
        assert verify_schur_average(ch, rho, pauli_operator_set(2)) <= 1e-12

    def test_haar_channel_residuals_match_pairwise_loop(self, rng):
        # a Haar-operator channel is not covariant, so every pair W must meet
        # its own output for the stacked residuals to equal the loop's
        ops = np.stack([np.eye(3), haar_random_unitary(3, rng),
                        haar_random_unitary(3, rng)])
        ch = CorrelatedChannel(base=KrausChannel(dim=3, ops=ops,
                                                 probs=[0.5, 0.3, 0.2]), mu=0.35)
        rho = random_density_matrix(9, rng)
        pauli = pauli_operator_set(3)
        out = apply_correlated(ch, rho)
        cov, acc = 0.0, np.zeros((9, 9), dtype=complex)
        for ua in pauli.ops.reshape(9, 3, 3):
            for ub in pauli.ops.reshape(9, 3, 3):
                w = np.kron(ua, ub.conj())
                lhs = apply_correlated(ch, w @ rho @ w.conj().T)
                cov = max(cov, np.abs(lhs - w @ out @ w.conj().T).max())
                acc += lhs / 81
        schur = np.abs(acc - np.eye(9) / 9).max()
        assert verify_covariance(ch, rho, pauli) > 1e-3
        assert abs(verify_covariance(ch, rho, pauli) - cov) <= 1e-12
        assert abs(verify_schur_average(ch, rho, pauli) - schur) <= 1e-12

    @pytest.mark.parametrize("verify,calls", [(verify_covariance, 2),
                                              (verify_schur_average, 1)])
    def test_one_stacked_channel_call(self, verify, calls, monkeypatch):
        seen = []

        def counting(ch, rho):
            seen.append(np.shape(rho))
            return apply_correlated(ch, rho)
        monkeypatch.setattr(analysis, "apply_correlated", counting)
        ch = CorrelatedChannel(base=QUTRIT, mu=0.31)
        assert verify(ch, np.eye(9) / 9, pauli_operator_set(3)) <= 1e-12
        assert len(seen) == calls and seen[0] == (81, 9, 9)

    def test_chunks_match_one_stack(self, rng, monkeypatch):
        # a Haar-operator channel is not covariant, so every chunk must meet
        # its own conjugators for the residuals to stay those of one stack
        ops = np.stack([np.eye(3), haar_random_unitary(3, rng),
                        haar_random_unitary(3, rng)])
        ch = CorrelatedChannel(base=KrausChannel(dim=3, ops=ops,
                                                 probs=[0.5, 0.3, 0.2]), mu=0.35)
        rho = random_density_matrix(9, rng)
        pauli = pauli_operator_set(3)
        cov = verify_covariance(ch, rho, pauli)
        schur = verify_schur_average(ch, rho, pauli)
        seen = []

        def counting(ch, rho):
            seen.append(np.shape(rho))
            return apply_correlated(ch, rho)
        monkeypatch.setattr(analysis, "apply_correlated", counting)
        # two values of a per chunk: chunks of 18, 18, 18, 18 and 9
        monkeypatch.setattr(channels, "_STACK_BYTES", 18 * 81 * 16)
        assert abs(verify_covariance(ch, rho, pauli) - cov) <= 1e-15
        assert abs(verify_schur_average(ch, rho, pauli) - schur) <= 1e-15
        assert cov > 1e-3
        stacks = [shape[0] for shape in seen if len(shape) == 3]
        assert stacks == 2 * [18, 18, 18, 18, 9]

    def test_d6_stacks_stay_within_the_byte_budget(self, rng, monkeypatch):
        seen = []

        def counting(ch, rho):
            seen.append(np.shape(rho))
            return apply_correlated(ch, rho)
        monkeypatch.setattr(analysis, "apply_correlated", counting)
        w = np.arange(1.0, 37.0)
        ch = CorrelatedChannel(base=pauli_channel(6, w / w.sum()), mu=0.4)
        psi = random_pure_state(36, rng)
        rho = np.outer(psi, psi.conj())
        assert verify_covariance(ch, rho, pauli_operator_set(6)) <= 1e-12
        assert verify_schur_average(ch, rho, pauli_operator_set(6)) <= 1e-12
        stacks = [shape[0] for shape in seen if len(shape) == 3]
        assert len(stacks) > 2 and sum(stacks) == 2 * 6 ** 4
        assert max(stacks) * 16 * 36 ** 2 <= channels._STACK_BYTES


class TestAnalyticEstimates:
    def test_full_correlation_endpoint(self):
        est = analytic_estimates(3, QUTRIT_COLS, 1.0)
        assert abs(est.f_me - 1.0) < 1e-12
        assert abs(est.r_me) < 1e-12

    def test_c_matrix_normalisation_and_shift_symmetry(self):
        est = analytic_estimates(3, QUTRIT_COLS, 0.5)
        c = est.c_matrix
        assert abs(c.sum() - 1.0) <= 1e-12
        for m in range(3):
            for n in range(3):
                assert abs(c[m, n] - c[(m + 1) % 3, (n + 1) % 3]) <= 1e-12

    def test_formulas_match_direct_computation(self, rng):
        # closed forms against explicit channel application
        for trial in range(20):
            d = int(rng.integers(2, 5))
            p = rng.uniform(0.05, 1.0, size=d)
            p = p / (d * p.sum())
            mu = float(rng.uniform())
            base = symmetric_pauli_channel(d, p)
            ch = CorrelatedChannel(base=base, mu=mu)
            me = max_entangled(d)
            sep = basis_separable(d, 0, 0)
            out_me = apply_correlated(ch, np.outer(me, me.conj()))
            out_sep = apply_correlated(ch, np.outer(sep, sep.conj()))
            est = analytic_estimates(d, p, mu)
            assert abs(est.f_me - fidelity_pure(me, out_me)) <= 1e-10
            assert abs(est.f_s - fidelity_pure(sep, out_sep)) <= 1e-10
            assert abs(est.r_me - linear_entropy(out_me)) <= 1e-10
            assert abs(est.r_s - linear_entropy(out_sep)) <= 1e-10

    def test_me_fidelity_closed_form_at_half_correlation(self):
        # F for the maximally entangled input at mu = 0.5 equals
        # mu + (1 - mu) d sum p_n^2, compared against the channel output
        ch = CorrelatedChannel(base=QUTRIT, mu=0.5)
        me = max_entangled(3)
        out = apply_correlated(ch, np.outer(me, me.conj()))
        expected = 0.5 + 0.5 * 3 * (QUTRIT_COLS ** 2).sum()
        assert abs(fidelity_pure(me, out) - expected) < 1e-12
        assert abs(analytic_estimates(3, QUTRIT_COLS, 0.5).f_me - expected) < 1e-12

    def test_fidelity_dominance_on_bundled_parameters(self):
        for mu in np.linspace(0.0, 1.0, 21):
            est = analytic_estimates(3, QUTRIT_COLS, float(mu))
            assert est.f_me >= est.f_s - 1e-12
            assert 0.0 <= est.f_me <= 1.0 + 1e-12
            assert 0.0 <= est.f_s <= 1.0 + 1e-12
            assert est.r_me < 1.0 and est.r_s < 1.0

    def test_rejects_bad_normalisation(self):
        with pytest.raises(ValueError, match="1/d"):
            analytic_estimates(3, np.array([0.08, 0.18, 0.0733]), 0.5)


def linearized_gap_roots(d, p):
    """Real roots in (0, 1) of R_me - R_s, by numpy.roots on its monomial
    coefficients: an independent route to the crossing, since both curves
    are quadratics in mu."""
    c = np.array([[np.dot(np.roll(p, -m), np.roll(p, -n))
                   for n in range(d)] for m in range(d)])
    c00 = c[0, 0]
    # bracket coefficients of R_me - R_s as a polynomial in mu
    a_me, b_me, c_me = d**2 * (c**2).sum(), 1.0, 2 * d * c00
    a_s, b_s, c_s = d**4 * c00**2, d**2 * c00, 2 * d**3 * (p**3).sum()
    # difference g(mu) = (R_me - R_s)(mu) expanded in the monomial basis
    quad = np.array([
        -(a_me - a_s),
        2 * (a_me - a_s) - (c_me - c_s),
        -(a_me - a_s) - (b_me - b_s) + (c_me - c_s),
    ])  # [const, mu, mu^2] of -(g)
    roots = np.roots(quad[::-1])
    return sorted(r.real for r in roots
                  if abs(r.imag) < 1e-12 and 0 < r.real < 1)


class TestCrossingEstimate:
    def test_bundled_parameters(self):
        real = linearized_gap_roots(3, QUTRIT_COLS)
        assert len(real) == 1
        got = estimate_mu_c_crossing(3, QUTRIT_COLS)
        assert got is not None
        assert abs(got - real[0]) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(symmetric_column_probs())
    def test_matches_polynomial_root(self, drawn):
        d, p = drawn
        real = linearized_gap_roots(d, p)
        # whether a root within rounding of an end point lies inside (0, 1)
        # is not decidable from floating-point coefficients
        assume(all(1e-6 < r < 1 - 1e-6 for r in real))
        got = estimate_mu_c_crossing(d, p)
        if not real:
            assert got is None
        else:
            assert len(real) == 1
            assert got is not None and abs(got - real[0]) < 1e-9

    def test_uniform_channel_has_no_crossing(self):
        # p_m = 1/d^2: the difference reduces to -(2/3) mu^2, never crossing
        assert estimate_mu_c_crossing(3, np.full(3, 1 / 9)) is None

    def test_noiseless_channel_has_no_crossing(self):
        # p = (1/d, 0, ..., 0): the separable curve is identically zero and
        # the entangled curve only touches it at mu = 1
        assert estimate_mu_c_crossing(3, np.array([1 / 3, 0.0, 0.0])) is None

    def test_matches_estimates_field(self):
        est = analytic_estimates(3, QUTRIT_COLS, 0.2)
        assert est.mu_cross == estimate_mu_c_crossing(3, QUTRIT_COLS)


class TestSweepAndTransition:
    def test_noiseless_channel_sweep(self):
        ident = KrausChannel(dim=2, ops=np.eye(2, dtype=complex)[None],
                             probs=[1.0])
        cfg = OptimizerConfig(restarts=2, seed=7, mode="full")
        result = sweep(ident, np.linspace(0, 1, 5), cfg)
        assert result.mu_c is None
        assert all(e.min_entropy_bits <= 1e-8 for e in result.entries)

    def test_qubit_transition_location(self):
        # the two candidate basin curves cross at mu ~ 0.5596; the detected
        # transition must agree and be stable under grid refinement
        cfg = OptimizerConfig(restarts=4, seed=13, mode="full")
        coarse = sweep(QUBIT, np.linspace(0.52, 0.60, 5), cfg)
        fine = sweep(QUBIT, np.linspace(0.52, 0.60, 9), cfg)
        assert coarse.mu_c is not None and fine.mu_c is not None
        assert abs(coarse.mu_c - 0.5596) < 2e-3
        assert abs(coarse.mu_c - fine.mu_c) <= 1e-3

    def test_no_transition_with_invariant_witness(self):
        # {X, Z} admits an invariant axis, so zero output entropy is
        # separable-reachable at every correlation level
        ch = qubit_ixz_channel(0.0, 0.4, 0.6)
        verdict = check_theorem(ch)
        assert not verdict.intersection_empty
        cfg = OptimizerConfig(restarts=8, seed=3, mode="full")
        result = sweep(ch, np.linspace(0.0, 1.0, 5), cfg)
        assert result.mu_c is None
        assert all(e.min_entropy_bits <= 1e-8 for e in result.entries)
        assert all(e.entanglement_bits <= 0.05 for e in result.entries)

    def test_one_search_per_grid_point(self, monkeypatch):
        searched = []

        def counted(ch, cfg):
            searched.append(ch.mu)
            return minimize_full(ch, cfg)
        monkeypatch.setattr(analysis, "minimize_full", counted)
        grid = np.linspace(0.0, 1.0, 5)
        result = sweep(QUBIT, grid, OptimizerConfig(restarts=1, seed=42))
        assert searched == list(grid)
        assert abs(result.mu_c - QUBIT_MU_C) < 1e-9

    def test_ququart_searches_agree_with_basin_curves(self):
        # d = 4 column weights; the basin curves cross between mu = 0.2
        # and 0.3, and on both sides the full search, the band search and
        # the better basin curve give the same minimum
        w = np.random.default_rng(7).random(4)
        base = symmetric_pauli_channel(4, w / (4 * w.sum()))
        grid = [0.1, 0.2, 0.3, 0.5, 0.9]
        result = sweep(base, grid, OptimizerConfig(restarts=4, seed=7))
        assert 0.2 < result.mu_c < 0.3
        band = OptimizerConfig(restarts=4, seed=7, mode="ansatz")
        for e in result.entries:
            basin = min(e.s_me_bits, e.s_sep_bits)
            res = minimize_ansatz(CorrelatedChannel(base=base, mu=e.mu), band)
            assert abs(e.min_entropy_bits - basin) <= 1e-9
            assert abs(res.entropy_bits - basin) <= 1e-9
            # separable below the crossing, maximally entangled above it
            want = 0.0 if e.mu < result.mu_c else 2.0
            assert abs(e.entanglement_bits - want) <= 1e-6
            assert abs(res.entanglement_bits - want) <= 1e-6

    def test_sweep_validates_grid(self, monkeypatch):
        searched = []

        def counted(ch, cfg):
            searched.append(ch.mu)
            return minimize_full(ch, cfg)
        monkeypatch.setattr(analysis, "minimize_full", counted)
        cfg = OptimizerConfig(restarts=2, seed=7, mode="full")
        with pytest.raises(ValueError, match="two points"):
            sweep(QUBIT, [0.5], cfg)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            sweep(QUBIT, [0.0, 1.2], cfg)
        # a bad grid is rejected before the first search
        for grid in ([0.9, 0.6, 0.3, 0.0], [0.0, np.nan, 1.0]):
            with pytest.raises(ValueError, match="increase strictly"):
                sweep(QUBIT, grid, cfg)
        assert searched == []
        # and a SweepResult holds to the same rule
        entries = curve_entries(QUBIT, [0.0, 1.0])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            SweepResult(mu_grid=[0.0, 1.5], entries=entries, mu_c=None)


def curve_entries(base, grid):
    """Sweep entries carrying the basin curves and no search result."""
    entries = []
    for mu in grid:
        s = _basin_entropies(CorrelatedChannel(base=base, mu=float(mu)))
        entries.append(SweepEntry(mu=float(mu), min_entropy_bits=0.0,
                                  entanglement_bits=0.0,
                                  optimal_amplitudes=np.ones(4),
                                  s_me_bits=float(s[0]),
                                  s_sep_bits=float(s[1:].min())))
    return entries


class TestBasinCurves:
    @settings(max_examples=40, deadline=None)
    @given(pauli_channels_at_mu(symmetric=False, max_dim=5))
    def test_stacked_entropies_match_objective(self, drawn):
        ch, _ = drawn
        want = [objective(ch, psi) for psi in _basin_inputs(ch.base.dim)]
        assert np.abs(_basin_entropies(ch) - want).max() <= 1e-12

    def test_stacked_entropies_on_a_non_weyl_channel(self, rng):
        ops = np.stack([haar_random_unitary(3, rng) for _ in range(3)])
        base = KrausChannel(dim=3, ops=ops, probs=[0.2, 0.3, 0.5])
        ch = CorrelatedChannel(base=base, mu=0.4)
        want = [objective(ch, psi) for psi in _basin_inputs(3)]
        assert np.abs(_basin_entropies(ch) - want).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_inputs(self, d):
        states = _basin_inputs(d)
        assert states.shape == (1 + d * (d + 1), d * d)
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12
        assert np.array_equal(states[0], max_entangled(d))
        assert max(entanglement_of(psi, d) for psi in states[1:]) == 0.0
        # d orthonormal products a x conj(a) per basis, with a an eigenvector
        # of Z, then of X Z^n for n = 0 .. d-1
        ops = pauli_operator_set(d).ops
        generators = [ops[0, 1]] + [ops[1, n] for n in range(d)]
        for u, basis in zip(generators, states[1:].reshape(d + 1, d, d * d)):
            assert np.abs(basis @ basis.conj().T - np.eye(d)).max() < 1e-12
            for psi in basis:
                a = np.linalg.eigh(psi.reshape(d, d))[1][:, -1]
                assert np.abs(np.outer(a, a.conj()).ravel() - psi).max() < 1e-12
                assert abs(abs(np.vdot(a, u @ a)) - 1.0) < 1e-12

    @pytest.mark.parametrize("base,root", [(QUBIT, QUBIT_MU_C),
                                           (QUTRIT, QUTRIT_MU_C)])
    def test_preset_roots(self, base, root):
        for grid in (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 51)):
            mu_c = detect_transition(base, curve_entries(base, grid))
            assert abs(mu_c - root) < 1e-9

    @pytest.mark.parametrize("base", [NOISELESS, WITNESS],
                             ids=["noiseless", "witness"])
    def test_no_root(self, base):
        entries = curve_entries(base, np.linspace(0.0, 1.0, 11))
        assert detect_transition(base, entries) is None
        # a zero-entropy product input exists at every mu; for the witness
        # channel it is a Y-basis state
        assert all(e.s_sep_bits == 0.0 for e in entries)
