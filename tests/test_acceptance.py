"""Acceptance checklist for the whole package.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a single machine-readable pass/fail line (visible
with `pytest -s`). The heavy sweeps are shared through session fixtures.

Run:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from corrchan import (CorrelatedChannel, OptimizerConfig, analytic_estimates,
                      apply_correlated, apply_phi_c, ansatz_output_matrix,
                      check_theorem, estimate_mu_c_crossing, fidelity_pure,
                      haar_random_unitary, invariance_check_me, max_entangled,
                      minimize_ansatz, minimize_full, mutual_information_i2,
                      oracle_sample, pauli_identity_residuals,
                      pauli_operator_set, qubit_ixz_channel, sweep,
                      symmetric_pauli_channel, verify_covariance,
                      verify_schur_average, von_neumann_entropy)
from corrchan.states import (SymmetricAnsatz, ansatz_state, basis_separable,
                             random_pure_state)

QUBIT = qubit_ixz_channel(0.3, 0.2, 0.5)
QUTRIT_COLS = np.array([0.08, 0.18, 0.0733])
QUTRIT_COLS = QUTRIT_COLS / (3 * QUTRIT_COLS.sum())
QUTRIT = symmetric_pauli_channel(3, QUTRIT_COLS)
PRESETS = ((QUBIT, 2), (QUTRIT, 3))

GRID51 = np.linspace(0.0, 1.0, 51)


def report(criterion, name, ok, detail):
    print(f"\nACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def qubit_sweep():
    cfg = OptimizerConfig(seed=42, mode="full")
    t0 = time.perf_counter()
    result = sweep(QUBIT, GRID51, cfg)
    result_runtime = time.perf_counter() - t0
    return result, result_runtime


@pytest.fixture(scope="session")
def qutrit_sweep():
    cfg = OptimizerConfig(seed=42, mode="ansatz")
    t0 = time.perf_counter()
    result = sweep(QUTRIT, GRID51, cfg)
    result_runtime = time.perf_counter() - t0
    return result, result_runtime


def test_criterion_1_qubit_transition(qubit_sweep):
    result, runtime = qubit_sweep
    mu_c = result.mu_c
    assert mu_c is not None, "no transition detected on the qubit preset"
    below = [e.entanglement_bits for e in result.entries if e.mu < mu_c]
    above = [e.entanglement_bits for e in result.entries if e.mu > mu_c]
    sharp = max(below) <= 0.05 and min(above) >= 0.95
    in_window = 0.45 <= mu_c <= 0.49
    report(1, "qubit-transition", sharp and in_window,
           f"mu_c={mu_c:.4f} target [0.45,0.49], "
           f"ent below<= {max(below):.3f}, above>= {min(above):.3f}, "
           f"runtime={runtime:.0f}s")
    assert runtime < 300, "sweep exceeded the five-minute budget"
    assert sharp, "transition is not sharp at the 0.05/0.95 thresholds"
    assert in_window, (
        f"detected mu_c={mu_c:.4f} outside the target window [0.45, 0.49]; "
        f"independent brute-force search confirms the separable/entangled "
        f"basin curves for error weights (0.3, 0.2, 0.5) cross at ~0.5596")


def test_criterion_2_qutrit_transition(qutrit_sweep):
    result, runtime = qutrit_sweep
    mu_c = result.mu_c
    assert mu_c is not None, "no transition detected on the qutrit preset"
    above = [e.entanglement_bits for e in result.entries if e.mu > mu_c]
    me_ent = np.log2(3)
    max_dev = max(abs(v - me_ent) for v in above)
    ok = 0.27 <= mu_c <= 0.31 and max_dev <= 0.05
    report(2, "qutrit-transition", ok,
           f"mu_c={mu_c:.4f} target [0.27,0.31], "
           f"max |ent-log2(3)| above = {max_dev:.4f}, runtime={runtime:.0f}s")
    assert runtime < 600, "sweep exceeded the ten-minute budget"
    assert 0.27 <= mu_c <= 0.31
    assert max_dev <= 0.05


def test_criterion_3_analytic_crossing():
    t0 = time.perf_counter()
    crossing = estimate_mu_c_crossing(3, QUTRIT_COLS)
    dominance = all(
        analytic_estimates(3, QUTRIT_COLS, float(mu)).f_me
        >= analytic_estimates(3, QUTRIT_COLS, float(mu)).f_s - 1e-12
        for mu in GRID51)
    runtime = time.perf_counter() - t0
    in_window = crossing is not None and 0.27 <= crossing <= 0.29
    report(3, "analytic-crossing", in_window and dominance,
           f"crossing={crossing:.5f} target [0.27,0.29], "
           f"fidelity dominance={dominance}, runtime={runtime:.2f}s")
    assert runtime < 1.0
    assert dominance, "entangled-input fidelity fell below the separable one"
    assert crossing is not None
    assert 0.27 <= crossing <= 0.29, (
        f"closed-form crossing {crossing:.5f} outside [0.27, 0.29]; the "
        f"quadratic root of the linearized-entropy difference for these "
        f"error weights is ~0.2686, confirmed against an independent "
        f"polynomial-root computation")


def test_criterion_4_fixed_point_identity():
    rng = np.random.default_rng(4242)
    worst_vec = 0.0
    for d in (2, 3, 4):
        for _ in range(100):
            worst_vec = max(worst_vec,
                            invariance_check_me(d, haar_random_unitary(d, rng)))
    worst_chan = 0.0
    worst_entropy = 0.0
    for base, d in PRESETS:
        psi = max_entangled(d)
        rho = np.outer(psi, psi.conj())
        worst_chan = max(worst_chan,
                         float(np.abs(apply_phi_c(base, rho) - rho).max()))
        ch = CorrelatedChannel(base=base, mu=1.0)
        worst_entropy = max(worst_entropy,
                            von_neumann_entropy(apply_correlated(ch, rho)))
    ok = worst_vec <= 1e-12 and worst_chan <= 1e-12 and worst_entropy <= 1e-8
    report(4, "fixed-point-identity", ok,
           f"vector residual={worst_vec:.2e}, channel residual={worst_chan:.2e}, "
           f"entropy at mu=1 = {worst_entropy:.2e}")
    assert worst_vec <= 1e-12
    assert worst_chan <= 1e-12
    assert worst_entropy <= 1e-8


def test_criterion_5_theorem_checker(qubit_sweep):
    verdict_ixz = check_theorem(QUBIT)
    xz = qubit_ixz_channel(0.0, 0.4, 0.6)
    verdict_xz = check_theorem(xz)
    witness_ok = False
    if verdict_xz.witness is not None:
        w = verdict_xz.witness
        residuals = []
        for u, p in zip(xz.ops, xz.probs):
            if p <= 0:
                continue
            a = u.conj().T @ xz.ops[1]
            img = a @ w
            residuals.append(np.linalg.norm(img - (w.conj() @ img) * w))
        witness_ok = max(residuals) <= 1e-9

    # consistency with sweeps: the predicted transition exists ...
    ixz_consistent = qubit_sweep[0].mu_c is not None
    # ... and the witness channel reaches zero entropy separably everywhere
    cfg = OptimizerConfig(restarts=8, seed=42, mode="full")
    xz_sweep = sweep(xz, np.linspace(0.0, 1.0, 5), cfg)
    xz_zero = all(e.min_entropy_bits <= 1e-8 for e in xz_sweep.entries)
    xz_separable = all(e.entanglement_bits <= 0.05 for e in xz_sweep.entries)
    xz_consistent = xz_sweep.mu_c is None and xz_zero and xz_separable

    ok = (verdict_ixz.intersection_empty and not verdict_xz.intersection_empty
          and witness_ok and ixz_consistent and xz_consistent)
    report(5, "theorem-checker", ok,
           f"ixz empty={verdict_ixz.intersection_empty}, "
           f"xz witness ok={witness_ok}, sweep consistency: "
           f"ixz={ixz_consistent}, xz={xz_consistent}")
    assert verdict_ixz.intersection_empty
    assert not verdict_xz.intersection_empty and witness_ok
    assert ixz_consistent and xz_consistent


def test_criterion_6_capacity_attainability():
    rng = np.random.default_rng(606)
    worst_cov = 0.0
    worst_schur = 0.0
    worst_i2_gap = 0.0
    for base, d in PRESETS:
        pauli = pauli_operator_set(d)
        psi = random_pure_state(d * d, rng)
        rho = np.outer(psi, psi.conj())
        ch = CorrelatedChannel(base=base, mu=0.31)
        worst_cov = max(worst_cov, verify_covariance(ch, rho, pauli))
        worst_schur = max(worst_schur, verify_schur_average(ch, rho, pauli))
        ch1 = CorrelatedChannel(base=base, mu=1.0)
        me = max_entangled(d)
        s_min = von_neumann_entropy(
            apply_correlated(ch1, np.outer(me, me.conj())))
        i2 = mutual_information_i2(ch1, s_min)
        worst_i2_gap = max(worst_i2_gap, abs(i2 - 2 * np.log2(d)))
    ok = worst_cov <= 1e-9 and worst_schur <= 1e-9 and worst_i2_gap <= 1e-6
    report(6, "capacity-attainability", ok,
           f"covariance={worst_cov:.2e}, schur={worst_schur:.2e}, "
           f"i2 gap at mu=1 = {worst_i2_gap:.2e}")
    assert worst_cov <= 1e-9
    assert worst_schur <= 1e-9
    assert worst_i2_gap <= 1e-6


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    cfg2 = OptimizerConfig(seed=42, mode="full")
    worst_gap2 = 0.0
    for mu in (0.0, 0.2, 0.47, 0.8, 1.0):
        ch = CorrelatedChannel(base=QUBIT, mu=mu)
        found = minimize_full(ch, cfg2)
        oracle = oracle_sample(ch, 100_000, seed=1234)
        worst_gap2 = max(worst_gap2, abs(found.entropy_bits - oracle.entropy_bits))

    cfg_a = OptimizerConfig(seed=42, mode="ansatz")
    cfg_f = OptimizerConfig(restarts=8, seed=42, mode="full")
    worst_gap3 = 0.0
    for mu in np.linspace(0.0, 1.0, 21):
        ch = CorrelatedChannel(base=QUTRIT, mu=float(mu))
        res_a = minimize_ansatz(ch, cfg_a)
        res_f = minimize_full(ch, cfg_f)
        worst_gap3 = max(worst_gap3, abs(res_a.entropy_bits - res_f.entropy_bits))
    runtime = time.perf_counter() - t0
    ok = worst_gap2 <= 0.02 and worst_gap3 <= 0.01
    report(7, "oracle-equivalence", ok,
           f"qubit optimizer-vs-oracle gap={worst_gap2:.4f} (<=0.02), "
           f"qutrit ansatz-vs-full gap={worst_gap3:.4f} (<=0.01), "
           f"runtime={runtime:.0f}s")
    assert worst_gap2 <= 0.02
    assert worst_gap3 <= 0.01


def test_criterion_8_closed_form_cross_checks():
    rng = np.random.default_rng(808)
    worst_matrix = 0.0
    for _ in range(50):
        mu = float(rng.uniform())
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = a / np.linalg.norm(a)
        psi = ansatz_state(SymmetricAnsatz(d=3, a=a))
        ch = CorrelatedChannel(base=QUTRIT, mu=mu)
        direct = apply_correlated(ch, np.outer(psi, psi.conj()))
        fast = ansatz_output_matrix(QUTRIT_COLS, mu, a)
        worst_matrix = max(worst_matrix, float(np.abs(direct - fast).max()))

    worst_fid = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        p = rng.uniform(0.05, 1.0, size=d)
        p = p / (d * p.sum())
        mu = float(rng.uniform())
        base = symmetric_pauli_channel(d, p)
        ch = CorrelatedChannel(base=base, mu=mu)
        me = max_entangled(d)
        sep = basis_separable(d, 0, 0)
        est = analytic_estimates(d, p, mu)
        f_me = fidelity_pure(me, apply_correlated(ch, np.outer(me, me.conj())))
        f_s = fidelity_pure(sep, apply_correlated(ch, np.outer(sep, sep.conj())))
        worst_fid = max(worst_fid, abs(est.f_me - f_me), abs(est.f_s - f_s))

    c_sum_err = abs(analytic_estimates(3, QUTRIT_COLS, 0.5).c_matrix.sum() - 1.0)
    ok = worst_matrix <= 1e-10 and worst_fid <= 1e-10 and c_sum_err <= 1e-12
    report(8, "closed-form-cross-checks", ok,
           f"output-matrix residual={worst_matrix:.2e}, "
           f"fidelity residual={worst_fid:.2e}, weight-sum error={c_sum_err:.2e}")
    assert worst_matrix <= 1e-10
    assert worst_fid <= 1e-10
    assert c_sum_err <= 1e-12


def test_criterion_9_pauli_algebra():
    worst = {}
    for d in (2, 3, 5):
        res = pauli_identity_residuals(pauli_operator_set(d))
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    ok = all(v <= 1e-10 for v in worst.values())
    report(9, "pauli-algebra", ok,
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert all(v <= 1e-10 for v in worst.values())
