"""Minimum-output-entropy searches over pure two-qudit input states.

Three routes are provided:

* minimize_full      - L-BFGS-B descent over the whole pure-state
                       manifold, restarted from random points plus
                       deterministic seeds (the maximally entangled state
                       and |0,0>).
* minimize_ansatz    - the same objective restricted to the diagonal band
                       sum_j a_j |j, j>; it searches 2d real parameters
                       instead of 2d^2 and is equivalent on
                       column-symmetric Pauli channels, the subclass it
                       accepts (Macchiavello & Palma, PRA 65, 050301, 2002).
* oracle_sample      - brute-force random sampling, used as an independent
                       upper-bound witness to validate the optimizers. It
                       evaluates its draws in slices of bounded memory and
                       skips the eigensolve of any sample whose Renyi-2
                       entropy rules it out (_output_entropies); the
                       result is that of eigensolving every sample.

OptimizerConfig.mode, one of MODES = ("full", "ansatz"), names the search.

All three apply the channel through channels._apply_pure (every Pauli-type
channel takes the one Weyl-basis kernel) and sum the entropy in
linalg._spectral_entropy; the two searches share one objective
(_entropy_and_h) and one L-BFGS-B multistart driver. S is a smooth
spectral function wherever the output has full rank (Lewis, Math. Oper.
Res. 21, 1996), with dS/d psi* = E^dag(G) psi for G = -log2 E(|psi><psi|)
and E^dag the CorrelatedChannel.adjoint. Eigenvalues at or below
TOL.spectral_floor count as zero in S and take a finite weight in G
(linalg._entropy_weights).

scipy is imported at the first search (_scipy_minimize), not with this
module: oracle_sample and ansatz_output_matrix need numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import (CorrelatedChannel, _apply_pure, _stack_len,
                       apply_correlated, apply_correlated_pure,
                       pauli_column_probs)
from .linalg import _entropy_weights, _spectral_entropy, entropy_of_spectrum
from .states import (SymmetricAnsatz, ansatz_state, basis_separable,
                     entanglement_of, from_params, max_entangled, params_of)

MODES = ("full", "ansatz")
GTOL = 1e-10  # L-BFGS-B projected-gradient tolerance
ENTANGLEMENT_TIE = 1e-9  # bits; end points this close in entanglement tie
# bits; _output_entropies skips the eigensolve of an output whose Renyi-2
# entropy exceeds its bound by more than this. S >= S_2 holds exactly; the
# margin absorbs the rounding of both and the spectral floor, which moves S
# by less than 5e-13 bits per dropped eigenvalue, at most D of them.
_SCREEN_MARGIN = 1e-9
_DRAW_BLOCK = 4096  # oracle states per draw; fixes the result of (n, seed)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings. mode is one of MODES; restarts counts random starts
    (None: 32 full, 16 ansatz); max_iters and ftol go to L-BFGS-B, and ftol
    also breaks ties."""

    restarts: int | None = None
    max_iters: int = 5000
    ftol: float = 1e-12
    seed: int = 42
    mode: str = "full"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.restarts is not None and not self.restarts >= 1:
            raise ValueError("restarts must be >= 1")
        if not self.ftol > 0:
            raise ValueError("ftol must be positive")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")

    def resolved_restarts(self) -> int:
        if self.restarts is not None:
            return self.restarts
        return 32 if self.mode == "full" else 16


@dataclass(frozen=True, eq=False)
class MinEntropyResult:
    """Best input state found, its output entropy and its entanglement.

    converged is the winning start's L-BFGS-B success flag, or True when it
    ended at exactly S = 0, the global minimum.
    """

    entropy_bits: float
    state: np.ndarray
    entanglement_bits: float
    iterations_used: int
    converged: bool


def objective(ch: CorrelatedChannel, psi: np.ndarray) -> float:
    """Output entropy in bits of the channel on the pure input psi."""
    rho = apply_correlated_pure(ch, psi)
    return entropy_of_spectrum(np.linalg.eigvalsh(rho))


def _output_entropies(ch: CorrelatedChannel, psis: np.ndarray,
                      bound: float = np.inf) -> np.ndarray:
    """Unchecked output entropies in bits of pure inputs (B, D), stacked: for
    oracle_sample's slices and analysis's basin curves.

    Given a finite bound, an output rho whose Renyi-2 entropy
    S_2 = -log2 tr rho^2 (at unit trace) exceeds bound + _SCREEN_MARGIN
    gets +inf without an eigensolve: Renyi entropies do not increase with
    their order, so its S >= S_2 lies above bound. The others get S,
    exactly as without a bound.
    """
    out = _apply_pure(ch, psis)
    keep = slice(None)
    if bound < np.inf:
        trace = np.einsum("bii->b", out).real
        renyi2 = -np.log2(np.einsum("bij,bji->b", out, out).real / trace ** 2)
        keep = ~(renyi2 > bound + _SCREEN_MARGIN)  # a NaN output stays NaN
    ent = np.full(len(out), np.inf)
    ent[keep] = _spectral_entropy(np.linalg.eigvalsh(out[keep]))
    return ent


def ansatz_output_matrix(column_probs: np.ndarray, mu: float,
                         a: np.ndarray) -> np.ndarray:
    """Closed-form channel output for the diagonal-band input sum_j a_j |j, j>.

    For a column-symmetric Pauli channel with column probabilities p
    (summing to 1/d), the fully correlated part lives in the span of the
    |l, l> as a dense d x d block

        block[x, y] = d * sum_m p_m a[x - m] conj(a[y - m])

    while the independent-errors part is diagonal in the product basis,

        diag[u, v]  = d^2 * sum_i |a_i|^2 p[u - i] p[v - i]

    (all indices mod d). With the circulants A[x, m] = a[x - m] and
    Q[u, i] = d p[u - i] both are single products: block = (A * d p) A^dag
    and diag = (Q * |a|^2) Q^T. Returns mu block + (1 - mu) diag: in O(d^3),
    apply_correlated on the materialised input.
    """
    a = np.asarray(a, dtype=complex)
    d = a.size
    q = d * np.asarray(column_probs, dtype=float)
    shift = np.subtract.outer(np.arange(d), np.arange(d)) % d
    amat, qmat = a[shift], q[shift]
    diag = (qmat * np.abs(a) ** 2) @ qmat.T
    out = np.diag((1.0 - mu) * diag.reshape(-1)).astype(complex)
    band = np.arange(d) * (d + 1)
    out[np.ix_(band, band)] += mu * (amat * q) @ amat.conj().T
    return out


def _on_sphere(value_and_h: Callable) -> Callable:
    """x -> (f, grad f) for f(a / |a|), a with interleaved re/im parts x,
    from v -> (f(v), df/dv*); grad f is the tangent part of 2 df/dv* over |a|."""
    def func(x: np.ndarray) -> tuple[float, np.ndarray]:
        # interleaved re/im parameters share complex128's memory layout
        a = np.ascontiguousarray(x, dtype=float).view(complex)
        nrm = np.linalg.norm(a)
        f, h = value_and_h(a / nrm)
        g = 2.0 * (h - np.vdot(a, h).real * a / nrm ** 2) / nrm
        return f, g.view(float)
    return func


def _entropy_and_h(ch: CorrelatedChannel) -> Callable:
    """psi -> (S, dS/dpsi* = E^dag(G) psi) for a unit pure input psi (D,)."""
    adjoint = ch.adjoint

    def value_and_h(psi: np.ndarray) -> tuple[float, np.ndarray]:
        w, u = np.linalg.eigh(_apply_pure(ch, psi))
        g = (u * _entropy_weights(w)) @ u.conj().T
        return float(_spectral_entropy(w)), apply_correlated(adjoint, g) @ psi
    return value_and_h


def _full_objective(ch: CorrelatedChannel) -> Callable:
    """x -> (S, grad S) for the pure input with interleaved re/im parts x."""
    return _on_sphere(_entropy_and_h(ch))


def _ansatz_objective(ch: CorrelatedChannel) -> Callable:
    """x -> (S, grad S) for the band input sum_j a_j |j, j> (see _on_sphere).

    The full objective at the input with a_j at index j (d + 1) and zeros
    elsewhere; that embedding is linear with 0/1 entries, so dS/da* is
    dS/dpsi* at those indices, exactly.
    """
    d = ch.base.dim
    band = np.arange(d) * (d + 1)
    full = _entropy_and_h(ch)

    def value_and_h(a: np.ndarray) -> tuple[float, np.ndarray]:
        psi = np.zeros(d * d, dtype=complex)
        psi[band] = a
        s, h = full(psi)
        return s, h[band]
    return _on_sphere(value_and_h)


def _scipy_minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported when a search first runs: loading
    scipy.optimize is most of the package's import time and memory, and
    only the searches need it. bench/worker.py patches this name to trace
    each local search."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def _multistart(func: Callable, starts: list[np.ndarray],
                decode: Callable[[np.ndarray], np.ndarray], d: int,
                cfg: OptimizerConfig) -> MinEntropyResult:
    """One L-BFGS-B descent on func -> (S, grad S) per start; the best wins.

    decode maps the parameters of an end point to its two-qudit state.
    Lowest entropy wins. End points within ftol of it tie, and the least
    entangled of them wins; entanglements within ENTANGLEMENT_TIE of the
    least are rounding apart, and among those the lowest entropy wins.
    """
    candidates = []
    iterations = 0
    for x0 in starts:
        res = _scipy_minimize(func, x0, jac=True, method="L-BFGS-B",
                              options={"ftol": cfg.ftol, "gtol": GTOL,
                                       "maxiter": cfg.max_iters})
        iterations += int(res.nit)
        psi = decode(res.x)
        # S >= 0, so a start that ends at exactly 0 is at the global minimum
        candidates.append((float(res.fun), psi, entanglement_of(psi, d),
                           bool(res.success or res.fun == 0.0)))
    best_entropy = min(c[0] for c in candidates)
    near = [c for c in candidates if c[0] <= best_entropy + cfg.ftol]
    least_ent = min(c[2] for c in near) + ENTANGLEMENT_TIE
    entropy, psi, ent, converged = min(
        (c for c in near if c[2] <= least_ent), key=lambda c: c[0])
    return MinEntropyResult(entropy_bits=entropy, state=psi,
                            entanglement_bits=ent,
                            iterations_used=iterations, converged=converged)


def minimize_full(ch: CorrelatedChannel, cfg: OptimizerConfig) -> MinEntropyResult:
    """Multi-start L-BFGS-B search over all pure two-qudit inputs.

    Runs cfg.restarts random starts plus deterministic seeds: the
    maximally entangled state and |0,0> - the two competing extremes - so
    neither basin can be missed. When the error operators share a joint
    invariant state w (no transition is guaranteed), the product w x
    conj(w) is seeded too: it passes through the channel undistorted at
    every correlation level, and on such channels the zero set is a flat
    manifold that restarts alone would land on at arbitrary entanglement.
    The witness is KrausChannel._invariant_witness, found once per base
    channel however many values of mu a sweep searches.
    The deterministic seeds are stationary points, where L-BFGS-B stops at
    once, so only the random starts search. Deterministic given cfg.seed.
    """
    if cfg.mode != "full":
        raise ValueError("minimize_full requires mode='full'")
    d = ch.base.dim
    big_d = d * d
    rng = np.random.default_rng(cfg.seed)
    starts = [params_of(max_entangled(d)), params_of(basis_separable(d, 0, 0))]
    _, witness = ch.base._invariant_witness
    if witness is not None:
        starts.append(params_of(np.kron(witness, witness.conj())))
    starts += [rng.standard_normal(2 * big_d) for _ in range(cfg.resolved_restarts())]
    return _multistart(_full_objective(ch), starts,
                       lambda x: from_params(x, big_d), d, cfg)


def minimize_ansatz(ch: CorrelatedChannel, cfg: OptimizerConfig) -> MinEntropyResult:
    """Multi-start L-BFGS-B search over diagonal-band inputs: the full
    objective restricted to the band (_ansatz_objective).

    Equivalent to the full search only on column-symmetric Pauli channels
    (pauli_column_probs); raises on any other.
    """
    if cfg.mode != "ansatz":
        raise ValueError("minimize_ansatz requires mode='ansatz'")
    pauli_column_probs(ch.base)
    d = ch.base.dim

    def decode(x: np.ndarray) -> np.ndarray:
        return ansatz_state(SymmetricAnsatz(d=d, a=from_params(x, d)))

    rng = np.random.default_rng(cfg.seed)
    starts = [params_of(np.full(d, 1.0 / np.sqrt(d))), params_of(np.eye(d)[0])]
    starts += [rng.standard_normal(2 * d) for _ in range(cfg.resolved_restarts())]
    return _multistart(_ansatz_objective(ch), starts, decode, d, cfg)


def oracle_sample(ch: CorrelatedChannel, n_samples: int,
                  seed: int) -> MinEntropyResult:
    """Brute-force upper-bound witness: best of n_samples random pure states.

    Samples are normalised complex Gaussian vectors (uniform on the pure
    state sphere), drawn _DRAW_BLOCK at a time. The maximally entangled
    state and every computational product state are always evaluated as
    deterministic seeds, so the result is never worse than the better of
    the two competing extremes. Each block is evaluated in slices of a
    power-of-two count of states, at most channels._STACK_BYTES of output,
    and the first least entropy of a slice replaces the best so far only
    when strictly lower. A sample whose Renyi-2 entropy rules it out is
    never eigensolved (_output_entropies). Neither changes the result: it
    is the first least entropy over all states, as with whole blocks.
    iterations_used counts the states evaluated, seeds included, not the
    eigensolves.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    d = ch.base.dim
    big_d = d * d
    seeds = [max_entangled(d)]
    seeds += [basis_separable(d, i, j) for i in range(d) for j in range(d)]
    rng = np.random.default_rng(seed)

    def blocks():
        yield np.stack(seeds)
        for start in range(0, n_samples, _DRAW_BLOCK):
            m = min(_DRAW_BLOCK, n_samples - start)
            batch = rng.standard_normal((m, big_d)) + 1j * rng.standard_normal((m, big_d))
            batch /= np.linalg.norm(batch, axis=1)[:, None]
            yield batch

    best_entropy, best_state = np.inf, None
    # a power of two, so slices keep the column alignment of a whole block:
    # a BLAS kernel may round a column by its place in a register block
    step = 1 << (_stack_len(big_d).bit_length() - 1)
    for batch in blocks():
        for start in range(0, len(batch), step):
            part = batch[start:start + step]
            ent = _output_entropies(ch, part, best_entropy)
            i = int(np.argmin(ent))
            if ent[i] < best_entropy:
                best_entropy, best_state = float(ent[i]), part[i].copy()

    return MinEntropyResult(entropy_bits=best_entropy, state=best_state,
                            entanglement_bits=entanglement_of(best_state, d),
                            iterations_used=n_samples + len(seeds),
                            converged=True)
