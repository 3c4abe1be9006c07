"""Entropies, fidelity and the Kronecker product for small quantum systems.

Everything here operates on plain numpy arrays: states are 1-D complex
vectors, operators and density matrices are 2-D complex arrays. All
entropies are in bits (base-2 logarithms).

Every entropy in the package is summed by _spectral_entropy, and every
entropy gradient weighted by _entropy_weights, under one rule: eigenvalues
at or below TOL.spectral_floor count as zero. The checked edge,
entropy_of_spectrum, additionally raises on an eigenvalue below
-TOL.entropy_clamp, which no valid state has.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Tolerances(NamedTuple):
    """Central record of the numerical tolerances used across the package."""

    trace: float = 1e-10           # unit-trace defect
    entropy_clamp: float = 1e-10   # eigenvalues in [-clamp, 0] are treated as 0
    spectral_floor: float = 1e-14  # eigenvalues at or below count as zero
    unitarity: float = 1e-9        # Kraus-operator unitarity defect
    norm: float = 1e-10            # state-vector normalisation defect


TOL = Tolerances()


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices.

    Entry ((i*rb + k), (j*cb + l)) of the result is a[i, j] * b[k, l],
    where (rb, cb) is the shape of b.
    """
    return np.kron(np.asarray(a), np.asarray(b))


def _spectral_entropy(eigenvalues: np.ndarray):
    """Unchecked Shannon entropy in bits of one spectrum or a stack of them.

    Sums over the last axis, so a (..., n) stack gives a (...,) result.
    The package's one rule for rank-deficient spectra: eigenvalues at or
    below TOL.spectral_floor count as zero, and the kept ones are
    renormalised to unit sum, so rounding residue of a pure state (an
    eigh of a rank-1 block leaves about 1e-15) gives exactly +0.0. Each
    dropped eigenvalue moves the entropy by less than 5e-13 bits.
    """
    w = np.array(eigenvalues, dtype=float)
    zero = w <= TOL.spectral_floor
    w[zero] = 0.0
    w /= w.sum(-1, keepdims=True)
    w[zero] = 1.0  # 1 log2 1 = 0
    # a tiny positive sum (an eigenvalue marginally above 1 from trace
    # rounding) floors to zero, and 0.0 - (+-0.0) is +0.0, never -0.0
    return 0.0 - np.minimum((w * np.log2(w)).sum(-1), 0.0)


def _entropy_weights(eigenvalues: np.ndarray) -> np.ndarray:
    """Eigenvalues of G = -log2 rho, with dS = tr(G d rho) at unit trace;
    one counted as zero by _spectral_entropy weighs -log2 TOL.spectral_floor."""
    return -np.log2(np.maximum(eigenvalues, TOL.spectral_floor))


def entropy_of_spectrum(eigenvalues: np.ndarray) -> float:
    """Shannon entropy in bits of a density-matrix spectrum.

    Eigenvalues in [-TOL.entropy_clamp, 0] count as zero; anything more
    negative indicates an invalid state and raises. A pure spectrum gives
    +0.0.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if w.min(initial=0.0) < -TOL.entropy_clamp:
        raise ValueError("state not positive semidefinite")
    return float(_spectral_entropy(w))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -tr(rho log2 rho) in bits."""
    return entropy_of_spectrum(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def linear_entropy(rho: np.ndarray) -> float:
    """Linearized entropy 1 - tr(rho^2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(1.0 - np.einsum("ij,ji->", rho, rho).real)


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> of a state rho against a pure reference psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    rho = np.asarray(rho, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("reference state not normalised")
    if rho.shape != (psi.size, psi.size):
        raise ValueError("dimension mismatch between psi and rho")
    return float(np.real(psi.conj() @ rho @ psi))
