"""Construction and application of correlated-noise channels.

A single-qudit channel is a probability-weighted set of unitary error
operators U_a:

    phi(rho)      = sum_a p_a U_a rho U_a^dag
    phi_star(rho) = sum_a p_a conj(U_a) rho conj(U_a)^dag

Two uses of the channel interpolate between independent errors on each
qudit and fully correlated errors, controlled by the correlation weight
mu in [0, 1]:

    E(rho) = (1 - mu) (phi x phi_star)(rho) + mu phi_c(rho)
    phi_c(rho) = sum_a p_a (U_a x conj(U_a)) rho (U_a x conj(U_a))^dag

The generalized (shift-and-phase) Pauli operators and the channels built
from them are provided as presets. Every probability vector obeys one
rule, _check_probs, which KrausChannel applies: entries >= 0 summing to 1
within TOL.trace (1/d for the d column values of a column-symmetric
channel), with NaN failing.

Every preset's U_a is, up to a phase, a Weyl word W_mn |k> = xi^(k n)
|k + m>, which makes E a Pauli channel on the pair: with Q its two-qudit
word distribution Fourier-transformed over the phase index (indices mod d),

    E(rho)[j, j - delta] = sum_m Q[m, delta] rho[j - m, j - m - delta],

one D x D circulant block per offset delta, O(D^3) per input (D = d^2).
_apply applies every channel, to one input or a stack: such a channel
through these blocks, any other through the two einsums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import TOL

# bytes of one complex (B, D, D) stack that the batch callers (oracle_sample,
# the twirl checks) pass to _apply; the kernel's temporaries scale with it,
# so it bounds their memory at any d and keeps them in cache
_STACK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A mixed-unitary channel: unitary operators ops[a] applied with probs[a].

    Immutable after construction; all invariants are validated here so the
    application routines can stay lean.
    """

    dim: int
    ops: np.ndarray    # (n, dim, dim) complex
    probs: np.ndarray  # (n,) float

    def __post_init__(self) -> None:
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim == 2:
            ops = ops[None, :, :]
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        d = int(self.dim)
        if ops.shape[1:] != (d, d):
            raise ValueError("operator shape does not match channel dimension")
        if len(ops) != len(probs) or len(ops) < 1:
            raise ValueError("ops and probs must have equal length >= 1")
        _check_probs(probs)
        eye = np.eye(d)
        for u in ops:
            if np.abs(u.conj().T @ u - eye).max() > TOL.unitarity:
                raise ValueError("Kraus operator not unitary")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "probs", probs)

    @cached_property
    def _weyl_words(self) -> np.ndarray | None:
        """Flat word m * d + n of each operator, or None unless every one is
        a global phase times some W_mn (sigma_y is i W_11); the phase
        cancels in U rho U^dag.
        """
        d = self.dim
        weyl = pauli_operator_set(d).ops.reshape(d * d, d, d)
        overlap = np.einsum("wij,aij->aw", weyl.conj(), self.ops) / d
        words = np.abs(overlap).argmax(axis=1)
        phases = overlap[np.arange(len(words)), words][:, None, None]
        if np.abs(self.ops - phases * weyl[words]).max() > 1e-12:
            return None
        return words

    @cached_property
    def _invariant_witness(self) -> tuple[list[np.ndarray], np.ndarray | None]:
        """(A, w): the relative operators A_a = U_a^dag U_0 over the operators
        with nonzero probability, U_0 the first of them, and a unit vector w
        invariant modulo a phase under every A_a, or None if there is none
        (joint_invariant_state).
        """
        active = [u for u, p in zip(self.ops, self.probs) if p > 0.0]
        rel_ops = [u.conj().T @ active[0] for u in active]
        return rel_ops, joint_invariant_state(rel_ops)


@dataclass(frozen=True, eq=False)
class PauliOperatorSet:
    """The d^2 shift-and-phase unitaries on a d-level system.

    ops[m, n] acts on basis kets as  ops[m, n] |k> = xi^(k n) |k + m mod d>
    with xi = exp(2 pi i / d). They commute modulo a phase, are traceless
    except for the identity, and are closed under products up to phases.
    """

    dim: int
    xi: complex
    ops: np.ndarray  # (d, d, d, d); ops[m, n] is a d x d unitary


@dataclass(frozen=True, eq=False)
class CorrelatedChannel:
    """Two uses of a base channel with correlation weight mu in [0, 1]."""

    base: KrausChannel
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _check_mu(self.mu))

    @cached_property
    def adjoint(self) -> CorrelatedChannel:
        """E^dag: every U_a replaced by U_a^dag. W_mn^dag is a phase times
        W_-m,-n, so a Weyl-word channel's adjoint takes the blocks too."""
        b = self.base
        return CorrelatedChannel(base=KrausChannel(
            dim=b.dim, ops=b.ops.conj().swapaxes(1, 2), probs=b.probs), mu=self.mu)

    @cached_property
    def _weyl_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(perm, inv, blocks) for _apply, or None for a non-Weyl base.

        rho.ravel()[perm] lists the offset-diagonals rho[i, i - delta] as
        rows delta, inv undoes perm, and blocks[delta, j, i] = Q[j - i, delta]
        (see the module docstring).
        """
        words = self.base._weyl_words
        if words is None:
            return None
        d, mu = self.base.dim, self.mu
        p = np.bincount(words, self.base.probs, d * d).reshape(d, d)
        ph = d * np.fft.ifft(p, axis=1)  # sum_n p[m, n] xi^(delta n)
        # product part: U_a x conj(U_b), and conj(W_mn) = W_m,-n
        q = (1.0 - mu) * np.einsum("ax,by->abxy", ph, ph.conj())
        k = np.arange(d)
        q[k, k] += mu * ph[:, (k[:, None] - k) % d]  # correlated part
        k1, k2 = np.divmod(np.arange(d * d), d)
        sub = (k1[:, None] - k1) % d * d + (k2[:, None] - k2) % d  # a - b
        perm = (np.arange(d * d) * d * d + sub.T).ravel()
        blocks = np.moveaxis(q.reshape(d * d, d * d)[sub], 2, 0)
        return perm, np.argsort(perm), np.ascontiguousarray(blocks)


def _check_probs(p: np.ndarray, d: int = 1) -> np.ndarray:
    """The package's one probability rule: entries >= 0 summing to 1/d within
    TOL.trace; both tests are written so that NaN fails them."""
    if not np.all(p >= 0.0):
        raise ValueError("probabilities must be nonnegative")
    if not abs(p.sum() - 1.0 / d) <= TOL.trace:
        raise ValueError("probabilities must sum to " + ("1/d" if d > 1 else "1"))
    return p


def _check_mu(mu) -> float:
    """The package's one rule for mu: in [0, 1], written so that NaN fails."""
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    return mu


def _check_column_probs(d: int, column_probs) -> np.ndarray:
    """The d column values p_m of a column-symmetric Pauli channel."""
    p = np.asarray(column_probs, dtype=float)
    if p.shape != (d,):
        raise ValueError(f"expected {d} column probabilities")
    return _check_probs(p, d)


def _check_dim(expected: int, rho: np.ndarray) -> np.ndarray:
    """rho as one complex input (D, D) or a stack (B, D, D), D = expected."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (expected, expected):
        raise ValueError(f"state dimension {rho.shape} does not match channel "
                         f"dimension {expected}")
    return rho


def apply_phi(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Single-qudit channel sum_a p_a U_a rho U_a^dag, on (d, d) or (B, d, d)."""
    rho = _check_dim(ch.dim, rho)
    return np.einsum("a,aip,...pq,akq->...ik", ch.probs, ch.ops, rho,
                     ch.ops.conj(), optimize=True)


def apply_phi_c(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """phi_c: both qudits suffer the same error; on (D, D) or (B, D, D)."""
    d = ch.dim
    rho = _check_dim(d * d, rho)
    r4 = rho.reshape(*rho.shape[:-2], d, d, d, d)
    out = np.einsum("a,aip,ajq,...pqrs,akr,als->...ijkl", ch.probs, ch.ops,
                    ch.ops.conj(), r4, ch.ops.conj(), ch.ops, optimize=True)
    return out.reshape(rho.shape)


def _apply_product(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """(phi x phi_star)(rho), factor by factor, on (D, D) or (B, D, D)."""
    d = ch.dim
    r4 = rho.reshape(*rho.shape[:-2], d, d, d, d)
    half = np.einsum("a,aip,...pjql,akq->...ijkl", ch.probs, ch.ops, r4,
                     ch.ops.conj(), optimize=True)
    out = np.einsum("b,bjq,...iqks,bls->...ijkl", ch.probs, ch.ops.conj(), half,
                    ch.ops, optimize=True)
    return out.reshape(rho.shape)


def _apply(ch: CorrelatedChannel, rho: np.ndarray) -> np.ndarray:
    """Unchecked E(rho) for one input (D, D) or a stack of inputs (B, D, D).

    A Weyl-word channel gathers the D offset-diagonals of each input into
    one column, applies the circulant block of each offset in one batched
    product, and scatters back; any other channel takes the two einsums.
    """
    if ch._weyl_blocks is None:
        return ((1.0 - ch.mu) * _apply_product(ch.base, rho)
                + ch.mu * apply_phi_c(ch.base, rho))
    perm, inv, blocks = ch._weyl_blocks
    big_d = rho.shape[-1]
    diags = rho.reshape(-1, perm.size).T.take(perm, axis=0)
    out = np.matmul(blocks, diags.reshape(big_d, big_d, -1))
    return out.reshape(perm.size, -1).take(inv, axis=0).T.reshape(rho.shape)


def apply_correlated(ch: CorrelatedChannel, rho: np.ndarray) -> np.ndarray:
    """Two-qudit correlated channel E = (1 - mu)(phi x phi_star) + mu phi_c,
    on one input (D, D) or a stack of inputs (B, D, D), D = d^2."""
    return _apply(ch, _check_dim(ch.base.dim ** 2, rho))


def _apply_pure(ch: CorrelatedChannel, psi: np.ndarray) -> np.ndarray:
    """Unchecked E(|psi><psi|) for one input (D,) or a stack of inputs (B, D);
    returns (D, D) or (B, D, D)."""
    return _apply(ch, psi[..., :, None] * psi[..., None, :].conj())


def _stack_len(big_d: int) -> int:
    """Inputs (D, D) per stack within _STACK_BYTES, and at least one."""
    return max(1, _STACK_BYTES // (16 * big_d * big_d))


def apply_correlated_pure(ch: CorrelatedChannel, psi: np.ndarray) -> np.ndarray:
    """E(|psi><psi|) for a pure two-qudit input: apply_correlated on the
    projector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return apply_correlated(ch, np.outer(psi, psi.conj()))


def pauli_operator_set(d: int) -> PauliOperatorSet:
    """Build the d^2 shift-and-phase unitaries for dimension d >= 2."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    xi = np.exp(2j * np.pi / d)
    ops = np.zeros((d, d, d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            for k in range(d):
                ops[m, n, (k + m) % d, k] = xi ** (k * n)
    return PauliOperatorSet(dim=d, xi=complex(xi), ops=ops)


def pauli_channel(d: int, probs) -> KrausChannel:
    """Generalized Pauli channel with error probabilities probs[m, n].

    Kraus operators are laid out in row-major (m, n) order so downstream
    outputs are reproducible. probs may be a (d, d) array or a flat
    length-d^2 sequence in the same order.
    """
    pauli = pauli_operator_set(d)
    return KrausChannel(dim=d, ops=pauli.ops.reshape(d * d, d, d),
                        probs=np.asarray(probs, dtype=float).reshape(d * d))


def symmetric_pauli_channel(d: int, column_probs) -> KrausChannel:
    """Pauli channel with probs[m, n] = p_m (independent of the phase index n).

    column_probs supplies the d values p_m; they must sum to 1/d so the
    full d^2 error matrix is normalised.
    """
    p = _check_column_probs(d, column_probs)
    return pauli_channel(d, np.repeat(p[:, None], d, axis=1))


def pauli_column_probs(ch: KrausChannel) -> np.ndarray:
    """Extract p_m from a column-symmetric Pauli channel.

    Raises unless the channel's operators are, in any order and with any
    global phases, Weyl words covering all d^2 words, and the word
    probabilities p[m, n] depend only on the shift index m.
    """
    d = ch.dim
    if ch._weyl_words is None or len(set(ch._weyl_words)) != d * d:
        raise ValueError("channel is not a generalized Pauli channel")
    p = np.bincount(ch._weyl_words, ch.probs, d * d).reshape(d, d)
    if np.abs(p - p[:, :1]).max() > 1e-12:
        raise ValueError("channel not column-symmetric")
    return p[:, 0].copy()


def _null_space_within(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {v in span(basis) : a v = 0}, possibly empty."""
    m = a @ basis
    _, s, vh = np.linalg.svd(m)
    rank = int((s > 1e-9).sum()) if s.size else 0
    null = vh[rank:].conj().T
    if null.shape[1] == 0:
        return np.zeros((basis.shape[0], 0), dtype=complex)
    q, _ = np.linalg.qr(basis @ null)
    return q


def joint_invariant_state(ops) -> np.ndarray | None:
    """A unit vector invariant modulo a phase under every operator, or None.

    Intersects the invariant-modulo-phase subspaces of the given unitaries
    by recursive eigenspace refinement: eigendecompose the first operator,
    project the next into each eigenspace, refine, and continue until all
    subspaces die or one survives. Eigenvalues closer than 1e-8 are
    grouped into a single degenerate eigenspace; membership is decided
    through projected null spaces so phases are never tracked explicitly.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    dim = ops[0].shape[0]
    subspaces = [np.eye(dim, dtype=complex)]
    for a in ops:
        refined = []
        for basis in subspaces:
            compressed = basis.conj().T @ a @ basis
            unique: list[complex] = []
            for lam in np.linalg.eigvals(compressed):
                if not any(abs(lam - known) < 1e-8 for known in unique):
                    unique.append(lam)
            for lam in unique:
                sub = _null_space_within(a - lam * np.eye(dim), basis)
                if sub.shape[1] > 0:
                    refined.append(sub)
        subspaces = refined
        if not subspaces:
            return None
    witness = subspaces[0][:, 0]
    return witness / np.linalg.norm(witness)


def pauli_identity_residuals(pauli: PauliOperatorSet) -> dict[str, float]:
    """Numerical residuals of the three defining shift-and-phase identities.

    Checks, over all index pairs: the adjoint relation
    U_mn^dag = xi^(m n) U_{-m,-n}, the commutation phase
    U_kl U_mn = xi^(l m - k n) U_mn U_kl, and tracelessness away from the
    identity. All three are ~1e-15 for a correctly built set.
    """
    d, xi, ops = pauli.dim, pauli.xi, pauli.ops
    dag_res = 0.0
    tr_res = 0.0
    for m in range(d):
        for n in range(d):
            u = ops[m, n]
            expected = xi ** (m * n) * ops[(-m) % d, (-n) % d]
            dag_res = max(dag_res, float(np.abs(u.conj().T - expected).max()))
            want_tr = d if (m == 0 and n == 0) else 0.0
            tr_res = max(tr_res, float(abs(np.trace(u) - want_tr)))
    comm_res = 0.0
    flat = [(m, n) for m in range(d) for n in range(d)]
    for k, l in flat:
        for m, n in flat:
            lhs = ops[k, l] @ ops[m, n]
            rhs = xi ** (l * m - k * n) * (ops[m, n] @ ops[k, l])
            comm_res = max(comm_res, float(np.abs(lhs - rhs).max()))
    return {"adjoint": dag_res, "commutation": comm_res, "trace": tr_res}


def qubit_ixz_channel(p: float, q: float, r: float) -> KrausChannel:
    """Qubit channel with identity, bit-flip and phase-flip errors only.

    The three operators I, sigma_x, sigma_z occur with probabilities
    p, q, r; p + q + r must equal 1.
    """
    probs = np.array([p, q, r], dtype=float)
    ident = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return KrausChannel(dim=2, ops=np.stack([ident, sx, sz]), probs=probs)
