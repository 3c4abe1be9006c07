"""Each benchmark check passes a right answer and rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q

The right answers are built from the reference itself, so these tests need
neither corrchan nor a stored copy of its output.
"""

import numpy as np
import pytest

import checks

QUBIT = checks.Reference.qubit_ixz(0.3, 0.2, 0.5)
QUTRIT = checks.Reference.symmetric_pauli(3, [0.08, 0.18, 0.0733])
WITNESS = checks.Reference.qubit_ixz(0.0, 0.4, 0.6)
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def sweep_csv(ref, rows):
    d = ref.d
    header = ["mu", "s_min_bits", "entanglement_bits", "i2_bits"]
    header += [f"amp_{part}_{i}" for i in range(d * d) for part in ("re", "im")]
    lines = [",".join(header)]
    for mu, s, psi in rows:
        cells = [mu, s, checks.entanglement(psi, d), 2 * np.log2(d) - s]
        for a in psi:
            cells += [a.real, a.imag]
        lines.append(",".join(f"{c:.12g}" for c in cells))
    return "\n".join(lines) + "\n"


def optimal_rows(ref):
    mu_c = ref.mu_c()
    rows = []
    for mu in GRID:
        psi = ref.me() if mu > mu_c else ref.zero()
        rows.append([mu, min(ref.s_me(mu), ref.s_00(mu)), psi])
    return rows


def test_reference_roots_match_the_known_transitions():
    assert QUBIT.mu_c() == pytest.approx(0.5595807783, abs=1e-9)
    assert QUTRIT.mu_c() == pytest.approx(0.2905396931, abs=1e-9)


@pytest.mark.parametrize("ref", [QUBIT, QUTRIT])
def test_sweep_check_passes_the_optimum(ref):
    text = sweep_csv(ref, optimal_rows(ref))
    assert checks.check_sweep(ref, ref.mu_c(), GRID, text, ref.mu_c() + 4e-4) == []


def test_sweep_check_rejects_a_perturbed_state():
    rows = optimal_rows(QUBIT)
    psi = rows[1][2] + 1e-3 * np.array([0, 1, 1j, 0])
    rows[1][2] = psi / np.linalg.norm(psi)
    errors = checks.check_sweep(QUBIT, QUBIT.mu_c(), GRID, sweep_csv(QUBIT, rows),
                                QUBIT.mu_c())
    assert any("its state gives" in e for e in errors)


def test_sweep_check_rejects_an_entropy_off_the_optimum():
    rows = optimal_rows(QUTRIT)
    rows[3][1] += 1e-6
    errors = checks.check_sweep(QUTRIT, QUTRIT.mu_c(), GRID,
                                sweep_csv(QUTRIT, rows), QUTRIT.mu_c())
    assert any("min(S_me, S_00)" in e for e in errors)


def test_sweep_check_rejects_the_wrong_basin():
    rows = optimal_rows(QUBIT)
    rows[3] = [0.75, QUBIT.s_00(0.75), QUBIT.zero()]
    errors = checks.check_sweep(QUBIT, QUBIT.mu_c(), GRID, sweep_csv(QUBIT, rows),
                                QUBIT.mu_c())
    assert any("above mu_c" in e for e in errors)
    assert any("min(S_me, S_00)" in e for e in errors)


def test_sweep_check_rejects_a_wrong_i2():
    text = sweep_csv(QUBIT, optimal_rows(QUBIT)).splitlines()
    cells = text[2].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    text[2] = ",".join(cells)
    errors = checks.check_sweep(QUBIT, QUBIT.mu_c(), GRID, "\n".join(text) + "\n",
                                QUBIT.mu_c())
    assert any("i2_bits" in e for e in errors)


@pytest.mark.parametrize("shift", [2e-3, -2e-3])
def test_sweep_check_rejects_a_moved_mu_c(shift):
    text = sweep_csv(QUBIT, optimal_rows(QUBIT))
    errors = checks.check_sweep(QUBIT, QUBIT.mu_c(), GRID, text,
                                QUBIT.mu_c() + shift)
    assert any("printed mu_c" in e for e in errors)


def test_sweep_check_rejects_a_missing_row():
    text = sweep_csv(QUBIT, optimal_rows(QUBIT)[:-1])
    assert checks.check_sweep(QUBIT, QUBIT.mu_c(), GRID, text, QUBIT.mu_c())


def test_residual_check():
    assert checks.check_residual("covariance", 3e-15) == []
    assert checks.check_residual("covariance", 2e-9)
    assert checks.check_residual("covariance", float("nan"))


def test_output_check_rejects_a_perturbed_output():
    psi = np.array([0.6, 0.0, 0.0, 0.8j])
    rho = np.outer(psi, psi.conj())
    out = QUBIT.output(0.4, rho)
    assert checks.check_output(QUBIT, 0.4, rho, out) == []
    out[0, 0] += 1e-10
    assert checks.check_output(QUBIT, 0.4, rho, out)


def test_verdict_check():
    witness = np.array([1.0, 1j]) / np.sqrt(2)  # eigenvector of Z X
    assert checks.check_verdict(WITNESS, False, False, witness) == []
    assert checks.check_verdict(QUBIT, True, True, None) == []
    assert checks.check_verdict(QUBIT, True, False, witness)
    assert checks.check_verdict(WITNESS, False, True, None)
    assert checks.check_verdict(WITNESS, False, False, np.array([1.0, 0.0]))


def test_oracle_check():
    mu = 0.7
    me = QUBIT.me()
    assert checks.check_oracle(QUBIT, mu, QUBIT.s_me(mu), me) == []
    assert checks.check_oracle(QUBIT, mu, QUBIT.s_me(mu) - 1e-6, me)
    product = np.kron([1, 0], [np.cos(0.3), np.sin(0.3)])
    errors = checks.check_oracle(QUBIT, mu, QUBIT.pure_entropy(mu, product),
                                 product)
    assert any("worse than both" in e for e in errors)


def test_crossing_check():
    want = QUTRIT.crossing()
    assert want == pytest.approx(0.2686, abs=1e-4)
    assert checks.check_crossing(QUTRIT, want) == []
    assert checks.check_crossing(QUTRIT, want + 2e-3)
    assert checks.check_crossing(QUTRIT, None)


def test_estimates_check():
    mu = 0.4
    me, zero = QUTRIT.me(), QUTRIT.zero()
    out_me = QUTRIT.output(mu, np.outer(me, me.conj()))
    out_00 = QUTRIT.output(mu, np.outer(zero, zero))
    f_me = (me.conj() @ out_me @ me).real
    f_s = out_00[0, 0].real
    r_me = 1 - np.trace(out_me @ out_me).real
    r_s = 1 - np.trace(out_00 @ out_00).real
    assert checks.check_estimates(QUTRIT, mu, f_me, f_s, r_me, r_s) == []
    assert checks.check_estimates(QUTRIT, mu, f_me, f_s, r_me + 1e-6, r_s)
