"""Pure-state constructions for two-qudit inputs.

States are 1-D complex numpy arrays of length d^2 with basis ordering
|i, j> -> index i * d + j. Entanglement is measured as the von Neumann
entropy (in bits) of either single-qudit reduction. SymmetricAnsatz holds
the diagonal band sum_j a_j |j, j> that minimize_ansatz searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TOL, entropy_of_spectrum, tensor


@dataclass(frozen=True, eq=False)
class SymmetricAnsatz:
    """Diagonal-band two-qudit state sum_j a[j] |j, j>."""

    d: int
    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (self.d,):
            raise ValueError("coefficient vector must have length d")
        if abs(np.linalg.norm(a) - 1.0) > TOL.norm:
            raise ValueError("coefficients must be normalised")
        object.__setattr__(self, "a", a)


def max_entangled(d: int) -> np.ndarray:
    """The maximally entangled state (1/sqrt(d)) sum_i |i, i>."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return psi


def basis_separable(d: int, i: int, j: int) -> np.ndarray:
    """The computational product state |i, j>."""
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError("basis index out of range")
    psi = np.zeros(d * d, dtype=complex)
    psi[i * d + j] = 1.0
    return psi


def from_params(coords: np.ndarray, dim: int) -> np.ndarray:
    """Map 2*dim real parameters (interleaved re/im) to a normalised state.

    The global phase is fixed by rotating the largest-magnitude amplitude
    onto the nonnegative real axis. Searches run on raw parameters
    (optimize._on_sphere); the gauge makes each decoded end point canonical,
    which keeps sweep.csv amplitudes reproducible. Scaling coords by any
    positive constant gives the same state.
    """
    coords = np.asarray(coords, dtype=float).ravel()
    if coords.size != 2 * dim:
        raise ValueError("parameter vector must have length 2*dim")
    amps = coords[0::2] + 1j * coords[1::2]
    nrm = np.linalg.norm(amps)
    if nrm < 1e-12:
        raise ValueError("zero parameter vector")
    amps = amps / nrm
    lead = amps[int(np.argmax(np.abs(amps)))]
    amps = amps * (lead.conjugate() / abs(lead))
    return amps


def params_of(psi: np.ndarray) -> np.ndarray:
    """Inverse of from_params up to gauge: interleaved re/im parts."""
    psi = np.asarray(psi, dtype=complex).ravel()
    coords = np.empty(2 * psi.size)
    coords[0::2] = psi.real
    coords[1::2] = psi.imag
    return coords


def ansatz_state(ansatz: SymmetricAnsatz) -> np.ndarray:
    """Materialise a SymmetricAnsatz as a length-d^2 state vector."""
    d = ansatz.d
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * (d + 1)] = ansatz.a
    return psi


def entanglement_of(psi: np.ndarray, d: int) -> float:
    """Entanglement entropy in bits of a pure two-qudit state.

    Computed from the Schmidt spectrum, i.e. the eigenvalues of the
    reduced state of the first qudit. Lies in [0, log2 d].
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != d * d:
        raise ValueError("state dimension must be d^2")
    mat = psi.reshape(d, d)
    sing = np.linalg.svd(mat, compute_uv=False)
    return entropy_of_spectrum(sing ** 2)


def invariance_check_me(d: int, u: np.ndarray) -> float:
    """Residual || (U x conj(U)) psi_me - psi_me ||_2.

    This is zero (to rounding) for every unitary U: the maximally entangled
    state is a fixed point of U x conj(U).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError("unitary dimension mismatch")
    if np.abs(u.conj().T @ u - np.eye(d)).max() > TOL.unitarity:
        raise ValueError("operator not unitary")
    psi = max_entangled(d)
    return float(np.linalg.norm(tensor(u, u.conj()) @ psi - psi))


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random pure state: normalised complex Gaussian amplitudes."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
