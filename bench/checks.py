"""Independent reference computations and the benchmark's correctness checks.

Nothing here imports corrchan. The two-use channel is rebuilt from its
definition as a dense Kraus sum over two-qudit operators, with its own
operator construction and entropy, so a fault in the package's kernels,
searches or closed forms cannot also hide in the reference.

Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.optimize import brentq

ENTROPY_TOL = 1e-9       # entropy and I2 agreement, bits
RESIDUAL_TOL = 1e-9      # covariance / twirl / witness residuals
OUTPUT_TOL = 1e-12       # dense channel output against the reference
MU_C_TOL = 1e-3          # printed mu_c against the reference root
ENTANGLEMENT_MARGIN = 0.05
CROSSING_TOL = 1e-9


def shift_phase_ops(d: int) -> list[np.ndarray]:
    """U_{m,n}|k> = exp(2 pi i k n / d) |k + m mod d>, row-major in (m, n)."""
    ops = []
    for m in range(d):
        for n in range(d):
            u = np.zeros((d, d), dtype=complex)
            for k in range(d):
                u[(k + m) % d, k] = np.exp(2j * np.pi * k * n / d)
            ops.append(u)
    return ops


class Reference:
    """A mixed-unitary base channel and its two-use correlated extension."""

    def __init__(self, ops, probs):
        self.ops = [np.asarray(u, dtype=complex) for u in ops]
        self.probs = np.asarray(probs, dtype=float)
        self.d = self.ops[0].shape[0]

    @classmethod
    def qubit_ixz(cls, p_i: float, p_x: float, p_z: float) -> "Reference":
        eye = np.eye(2)
        sx = np.array([[0, 1], [1, 0]])
        sz = np.array([[1, 0], [0, -1]])
        probs = np.array([p_i, p_x, p_z], dtype=float)
        return cls([eye, sx, sz], probs / probs.sum())

    @classmethod
    def symmetric_pauli(cls, d: int, column_probs) -> "Reference":
        """probs[m, n] = p_m, with the p_m rescaled to sum to 1/d."""
        p = np.asarray(column_probs, dtype=float)
        p = p / (d * p.sum())
        return cls(shift_phase_ops(d), np.repeat(p, d))

    @classmethod
    def from_config(cls, cfg: dict) -> "Reference":
        if cfg["channel"] == "qubit_ixz":
            return cls.qubit_ixz(*cfg["probs"])
        if cfg["channel"] == "pauli_symmetric":
            return cls.symmetric_pauli(cfg["dim"], cfg["probs"])
        raise ValueError(f"no reference for channel {cfg['channel']!r}")

    def kraus(self, mu: float) -> np.ndarray:
        """Weighted two-qudit Kraus operators sqrt(w) (U_a x conj(U_b))."""
        terms = []
        for ua, pa in zip(self.ops, self.probs):
            for ub, pb in zip(self.ops, self.probs):
                w = (1.0 - mu) * pa * pb
                if w > 0.0:
                    terms.append(np.sqrt(w) * np.kron(ua, ub.conj()))
            if mu * pa > 0.0:
                terms.append(np.sqrt(mu * pa) * np.kron(ua, ua.conj()))
        return np.array(terms)

    def output(self, mu: float, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.kraus(mu))

    def pure_entropy(self, mu: float, psi: np.ndarray) -> float:
        psi = np.asarray(psi, dtype=complex)
        return entropy(self.output(mu, np.outer(psi, psi.conj())))

    def me(self) -> np.ndarray:
        psi = np.zeros(self.d * self.d, dtype=complex)
        psi[:: self.d + 1] = 1.0 / np.sqrt(self.d)
        return psi

    def zero(self) -> np.ndarray:
        psi = np.zeros(self.d * self.d, dtype=complex)
        psi[0] = 1.0
        return psi

    def s_me(self, mu: float) -> float:
        return self.pure_entropy(mu, self.me())

    def s_00(self, mu: float) -> float:
        return self.pure_entropy(mu, self.zero())

    def mu_c(self) -> float:
        """Root of S_me(mu) = S_00(mu): where the two extreme inputs cross."""
        return float(brentq(lambda mu: self.s_me(mu) - self.s_00(mu),
                            1e-9, 1.0 - 1e-9, xtol=1e-13))

    def purity_gap_coeffs(self) -> np.ndarray:
        """Coefficients of R_me(mu) - R_s(mu), R = 1 - tr(rho^2) of the output.

        The output is affine in mu, so each purity is an exact quadratic and
        three evaluations fix it.
        """
        mus = np.array([0.0, 0.5, 1.0])
        gap = []
        for mu in mus:
            out_me = self.output(mu, np.outer(self.me(), self.me().conj()))
            out_00 = self.output(mu, np.outer(self.zero(), self.zero()))
            gap.append(np.trace(out_00 @ out_00).real
                       - np.trace(out_me @ out_me).real)
        return np.polyfit(mus, gap, 2)

    def crossing(self) -> float | None:
        roots = np.roots(self.purity_gap_coeffs())
        inside = [float(r.real) for r in roots
                  if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0]
        return min(inside) if inside else None


def entropy(rho: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def entanglement(psi: np.ndarray, d: int) -> float:
    s = np.linalg.svd(np.asarray(psi, dtype=complex).reshape(d, d),
                      compute_uv=False)
    lam = s ** 2
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def check_sweep(ref: Reference, mu_c_ref: float, grid, csv_text: str,
                printed_mu_c: float | None) -> list[str]:
    """Every sweep.csv row and the printed mu_c against the reference."""
    d = ref.d
    errors = []
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != len(grid):
        return [f"sweep.csv has {len(rows)} rows for {len(grid)} grid points"]
    cap = 2.0 * np.log2(d)
    for row, mu_want in zip(rows, grid):
        mu = float(row["mu"])
        where = f"sweep.csv mu={mu:g}"
        if abs(mu - mu_want) > 1e-9:
            errors.append(f"{where}: expected grid value {mu_want:g}")
        psi = np.array([float(row[f"amp_re_{i}"]) + 1j * float(row[f"amp_im_{i}"])
                        for i in range(d * d)])
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            errors.append(f"{where}: amplitudes not normalised")
        s_min = float(row["s_min_bits"])
        s_state = ref.pure_entropy(mu, psi)
        if abs(s_min - s_state) > ENTROPY_TOL:
            errors.append(f"{where}: s_min_bits {s_min!r} but its state "
                          f"gives {s_state!r}")
        s_best = min(ref.s_me(mu), ref.s_00(mu))
        if abs(s_min - s_best) > ENTROPY_TOL:
            errors.append(f"{where}: s_min_bits {s_min!r} but "
                          f"min(S_me, S_00) = {s_best!r}")
        if abs(float(row["i2_bits"]) - (cap - s_min)) > ENTROPY_TOL:
            errors.append(f"{where}: i2_bits != 2 log2 d - s_min_bits")
        ent = entanglement(psi, d)
        if mu < mu_c_ref and ent > ENTANGLEMENT_MARGIN:
            errors.append(f"{where}: entanglement {ent:.4f} below mu_c")
        if mu > mu_c_ref and ent < np.log2(d) - ENTANGLEMENT_MARGIN:
            errors.append(f"{where}: entanglement {ent:.4f} above mu_c")
    if printed_mu_c is None:
        errors.append("sweep printed no mu_c")
    elif abs(printed_mu_c - mu_c_ref) > MU_C_TOL:
        errors.append(f"printed mu_c {printed_mu_c!r} is not within "
                      f"{MU_C_TOL} of the reference root {mu_c_ref!r}")
    return errors


def check_residual(name: str, value: float, tol: float = RESIDUAL_TOL) -> list[str]:
    if not value <= tol:
        return [f"{name} residual {value!r} above {tol:g}"]
    return []


def check_output(ref: Reference, mu: float, rho: np.ndarray,
                 out: np.ndarray) -> list[str]:
    """The program's dense channel output against the Kraus-sum reference."""
    worst = float(np.abs(np.asarray(out) - ref.output(mu, rho)).max())
    if worst > OUTPUT_TOL:
        return [f"apply_correlated differs from the reference by {worst:.3e}"]
    return []


def check_verdict(ref: Reference, expect_transition: bool, intersection_empty: bool,
                  witness) -> list[str]:
    """The theorem verdict, and the witness's invariance recomputed here."""
    if intersection_empty != expect_transition:
        return [f"check_theorem says transition={intersection_empty}, "
                f"expected {expect_transition}"]
    if expect_transition:
        return [] if witness is None else ["transition verdict carries a witness"]
    if witness is None:
        return ["no-transition verdict without a witness"]
    w = np.asarray(witness, dtype=complex)
    if abs(np.linalg.norm(w) - 1.0) > RESIDUAL_TOL:
        return ["witness not normalised"]
    active = [u for u, p in zip(ref.ops, ref.probs) if p > 0.0]
    worst = 0.0
    for u in active:
        a = u.conj().T @ active[0]
        aw = a @ w
        worst = max(worst, float(np.linalg.norm(aw - (w.conj() @ aw) * w)))
    return check_residual("witness invariance", worst)


def check_oracle(ref: Reference, mu: float, entropy_bits: float,
                 state) -> list[str]:
    """The oracle's best entropy is its state's, and no worse than the extremes."""
    errors = []
    s_state = ref.pure_entropy(mu, np.asarray(state, dtype=complex))
    if abs(entropy_bits - s_state) > ENTROPY_TOL:
        errors.append(f"oracle at mu={mu:g} reports {entropy_bits!r}, its "
                      f"state gives {s_state!r}")
    if entropy_bits > min(ref.s_me(mu), ref.s_00(mu)) + ENTROPY_TOL:
        errors.append(f"oracle at mu={mu:g} is worse than both extreme inputs")
    return errors


def check_crossing(ref: Reference, value: float | None) -> list[str]:
    want = ref.crossing()
    if want is None or value is None:
        if want is value:
            return []
        return [f"crossing {value!r}, reference {want!r}"]
    if abs(value - want) > CROSSING_TOL:
        return [f"crossing {value!r} differs from the root {want!r}"]
    return []


def check_estimates(ref: Reference, mu: float, f_me: float, f_s: float,
                    r_me: float, r_s: float) -> list[str]:
    """Closed-form fidelities and linearised entropies at one mu."""
    me, zero = ref.me(), ref.zero()
    out_me = ref.output(mu, np.outer(me, me.conj()))
    out_00 = ref.output(mu, np.outer(zero, zero))
    want = {"f_me": (me.conj() @ out_me @ me).real,
            "f_s": out_00[0, 0].real,
            "r_me": 1.0 - np.trace(out_me @ out_me).real,
            "r_s": 1.0 - np.trace(out_00 @ out_00).real}
    got = {"f_me": f_me, "f_s": f_s, "r_me": r_me, "r_s": r_s}
    return [f"{k} at mu={mu:g}: {got[k]!r} against {want[k]!r}"
            for k in want if abs(got[k] - want[k]) > CROSSING_TOL]


def read_config(path) -> dict:
    """The keys of a key=value experiment file that fix the inputs."""
    cfg = {"dim": 2, "channel": "qubit_ixz", "probs": [0.3, 0.2, 0.5],
           "mu_start": 0.0, "mu_end": 1.0, "mu_points": 51}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if key in ("dim", "mu_points"):
                cfg[key] = int(value)
            elif key in ("mu_start", "mu_end"):
                cfg[key] = float(value)
            elif key == "probs":
                cfg[key] = [float(v) for v in value.replace(",", " ").split()]
            elif key == "channel":
                cfg[key] = value
    return cfg
