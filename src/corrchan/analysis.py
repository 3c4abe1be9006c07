"""Higher-level analyses: correlation sweeps, transition detection, the
joint-invariant-state criterion, capacity checks and closed-form estimates.

The central phenomenon: as the correlation weight mu grows, the input
state minimising the output entropy jumps abruptly from a separable
product state to a maximally entangled state. detect_transition locates
the jump where the basin curves S_me and S_sep cross; check_theorem
decides in advance whether one must occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (CorrelatedChannel, KrausChannel, PauliOperatorSet,
                       _check_column_probs, _check_mu, _stack_len,
                       apply_correlated)
from .optimize import (MinEntropyResult, OptimizerConfig, _output_entropies,
                       minimize_ansatz, minimize_full)
from .states import max_entangled


@dataclass(frozen=True, eq=False)
class SweepEntry:
    """Search optimum at one mu, and the basin curves S_me, S_sep there."""

    mu: float
    min_entropy_bits: float
    entanglement_bits: float
    optimal_amplitudes: np.ndarray
    s_me_bits: float
    s_sep_bits: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-mu optima over a grid, and the detected transition point if any."""

    mu_grid: np.ndarray
    entries: list[SweepEntry]
    mu_c: float | None

    def __post_init__(self) -> None:
        grid = _check_grid(self.mu_grid)
        if len(grid) != len(self.entries):
            raise ValueError("entries must align 1:1 with the grid")
        if self.mu_c is not None and not grid[0] <= self.mu_c <= grid[-1]:
            raise ValueError("mu_c must lie inside the grid")
        object.__setattr__(self, "mu_grid", grid)


@dataclass(frozen=True, eq=False)
class TheoremVerdict:
    """Outcome of the joint-invariant-state check.

    Exactly one of the two holds: either no state is invariant (modulo a
    phase) under every relative error operator, so a separable input can
    never reach zero output entropy at full correlation and a transition
    is guaranteed - or a common invariant witness state exists.
    """

    intersection_empty: bool
    witness: np.ndarray | None
    checked_pairs: int


@dataclass(frozen=True, eq=False)
class AnalyticEstimates:
    """Closed-form fidelity / linearized-entropy scalars for one mu.

    c_matrix holds the outcome distribution of the independent-errors part
    on a maximally entangled input: entry (m, n) is the weight of |m, n> in
    that output, so the entries sum to 1 and are invariant under shifting
    both indices.
    """

    c_matrix: np.ndarray
    f_me: float
    f_s: float
    r_me: float
    r_s: float
    mu_cross: float | None


def _check_grid(mu_grid: Sequence[float]) -> np.ndarray:
    """The one rule for a mu grid: 1-D, at least two points, strictly
    increasing and inside [0, 1]; the tests are written so that NaN fails."""
    grid = np.asarray(mu_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("mu grid needs at least two points")
    if not (np.all(np.diff(grid) > 0.0) and grid[0] >= 0.0 and grid[-1] <= 1.0):
        raise ValueError("mu grid must increase strictly inside [0, 1]")
    return grid


def minimize_entropy(ch: CorrelatedChannel,
                     cfg: OptimizerConfig) -> MinEntropyResult:
    """Run the search that cfg.mode selects: minimize_full or minimize_ansatz."""
    if cfg.mode == "full":
        return minimize_full(ch, cfg)
    return minimize_ansatz(ch, cfg)


def sweep(ch_base: KrausChannel, mu_grid: Sequence[float],
          cfg: OptimizerConfig) -> SweepResult:
    """Minimise output entropy at every grid value of mu, certifying the
    basin curves there, and locate where they cross (detect_transition)."""
    grid = _check_grid(mu_grid)
    entries = []
    for mu in grid:
        ch = CorrelatedChannel(base=ch_base, mu=float(mu))
        res = minimize_entropy(ch, cfg)
        s = _basin_entropies(ch)
        entries.append(SweepEntry(float(mu), res.entropy_bits,
                                  res.entanglement_bits, res.state,
                                  float(s[0]), float(s[1:].min())))
    return SweepResult(mu_grid=grid, entries=entries,
                       mu_c=detect_transition(ch_base, entries))


def _basin_inputs(d: int) -> np.ndarray:
    """The maximally entangled input, then the products a x conj(a), a in
    the eigenbases of Z and of X Z^n (n < d): X Z^n |k> = w^(kn) |k+1> has
    a_j[k] = w^(n k (k-1) / 2 - k (j + n (d-1) / 2)) / sqrt(d), j < d.
    For d = 2 these are |00>, |11>, |++>, |--> and the Y basis."""
    n, j, k = np.ogrid[:d, :d, :d]
    turns = n * k * (k - 1) / 2 - k * (j + n * (d - 1) / 2)
    xz = np.exp(2j * np.pi * turns / d).reshape(d * d, d) / np.sqrt(d)
    a = np.concatenate([np.eye(d), xz])
    products = (a[:, :, None] * a[:, None, :].conj()).reshape(-1, d * d)
    return np.concatenate([max_entangled(d)[None], products])


def _basin_entropies(ch: CorrelatedChannel) -> np.ndarray:
    """Output entropies of the _basin_inputs in one stacked call: entry 0
    is S_me, the least of the rest S_sep."""
    return _output_entropies(ch, _basin_inputs(ch.base.dim))


def detect_transition(ch_base: KrausChannel,
                      entries: Sequence[SweepEntry]) -> float | None:
    """Locate mu_c, the root of S_me(mu) - S_sep(mu), by brentq to 1e-12 in
    the first grid cell where the entries' S_me - S_sep falls from >= 0 (a
    tie counts as separable) to < 0. None when it never falls below 0."""
    def gap(mu: float) -> float:
        s = _basin_entropies(CorrelatedChannel(base=ch_base, mu=mu))
        return float(s[0] - s[1:].min())

    for lo, hi in zip(entries, entries[1:]):
        if lo.s_me_bits >= lo.s_sep_bits and hi.s_me_bits < hi.s_sep_bits:
            from scipy.optimize import brentq  # loaded here, not at import
            return float(brentq(gap, lo.mu, hi.mu, xtol=1e-12))
    return None


def check_theorem(ch: KrausChannel) -> TheoremVerdict:
    """Decide whether a separable-to-entangled transition must occur.

    Forms the relative operators A_a = U_a^dag U_0 over the channel's
    error operators with nonzero probability, U_0 the first of them, and
    intersects their invariant-modulo-a-phase subspaces by recursive
    eigenspace refinement (KrausChannel._invariant_witness). An empty
    intersection guarantees that no separable input reaches zero output
    entropy at full correlation, so the optimal input must become
    entangled somewhere; a surviving witness state rules the guarantee out.
    The verdict does not depend on the choice of U_0.
    """
    rel_ops, witness = ch._invariant_witness
    if witness is None:
        return TheoremVerdict(intersection_empty=True, witness=None,
                              checked_pairs=len(rel_ops))
    for a in rel_ops:
        av = a @ witness
        phase_proj = (witness.conj() @ av) * witness
        if np.linalg.norm(av - phase_proj) > 1e-9:
            raise AssertionError("witness failed the invariance residual check")
    return TheoremVerdict(intersection_empty=False, witness=witness.copy(),
                          checked_pairs=len(rel_ops))


def mutual_information_i2(ch: CorrelatedChannel, s_min_bits: float) -> float:
    """Two-use mutual information 2 log2 d - S_min, in bits.

    This equals the achieved mutual information only when the channel
    passes verify_covariance and verify_schur_average; otherwise it is an
    upper bound. Callers must gate on those residuals.
    """
    d = ch.base.dim
    cap = 2.0 * np.log2(d)
    if not -1e-12 <= s_min_bits <= cap + 1e-9:
        raise ValueError("s_min_bits out of range")
    return float(cap - s_min_bits)


def _twirl(ch: CorrelatedChannel, rho: np.ndarray, pauli: PauliOperatorSet):
    """Yield the d^4 conjugators W = U_a x conj(U_b), in row-major (a, b)
    order, and E(W rho W^dag) for each, in chunks over a: one stacked
    channel call per chunk, each stack within channels._STACK_BYTES (a
    single chunk for d <= 4)."""
    d = pauli.dim
    flat = pauli.ops.reshape(d * d, d, d)
    step = max(1, _stack_len(d * d) // (d * d))
    for a in range(0, d * d, step):
        w = np.einsum("aij,bkl->abikjl", flat[a:a + step],
                      flat.conj()).reshape(-1, d * d, d * d)
        yield w, apply_correlated(ch, w @ rho @ w.conj().swapaxes(1, 2))


def verify_covariance(ch: CorrelatedChannel, rho: np.ndarray,
                      pauli: PauliOperatorSet) -> float:
    """Max residual of E(W rho W^dag) = W E(rho) W^dag over W = U_a x conj(U_b).

    Zero (to rounding) whenever the channel's error operators commute with
    the shift-and-phase set modulo phases, which holds for every Pauli-word
    channel.
    """
    residuals, e_rho = [], None
    for w, lhs in _twirl(ch, rho, pauli):
        if e_rho is None:
            e_rho = apply_correlated(ch, rho)
        residuals.append(np.abs(lhs - w @ e_rho @ w.conj().swapaxes(1, 2)).max())
    return float(np.max(residuals))


def verify_schur_average(ch: CorrelatedChannel, rho: np.ndarray,
                         pauli: PauliOperatorSet) -> float:
    """Residual of the equiprobable twirled ensemble averaging to I / d^2.

    Conjugating the input by every U_a x conj(U_b) with equal weight and
    averaging the channel outputs must give the maximally mixed state;
    this is the irreducibility property that makes the capacity bound
    attainable.
    """
    total = sum(out.sum(axis=0) for _, out in _twirl(ch, rho, pauli))
    big_d = total.shape[-1]
    return float(np.abs(total / big_d ** 2 - np.eye(big_d) / big_d).max())


def _correlation_matrix(p: np.ndarray) -> np.ndarray:
    """C[m, n] = sum_i p[m + i] p[n + i], indices mod d."""
    pm = p[np.add.outer(np.arange(p.size), np.arange(p.size)) % p.size]
    return pm.T @ pm


def _r_curves(d: int, p: np.ndarray):
    """Linearized output entropies R(mu) for the two extreme inputs."""
    c = _correlation_matrix(p)
    c00 = float(c[0, 0])
    sum_c2 = float((c ** 2).sum())
    sum_p3 = float((p ** 3).sum())

    def r_me(mu: float) -> float:
        return 1.0 - ((1 - mu) ** 2 * d ** 2 * sum_c2 + mu ** 2
                      + 2 * mu * (1 - mu) * d * c00)

    def r_s(mu: float) -> float:
        return 1.0 - ((1 - mu) ** 2 * d ** 4 * c00 ** 2
                      + mu ** 2 * d ** 2 * c00
                      + 2 * mu * (1 - mu) * d ** 3 * sum_p3)

    return r_me, r_s


def estimate_mu_c_crossing(d: int, p) -> float | None:
    """Transition estimate: where the two linearized entropies cross.

    Their difference g = r_me - r_s is a quadratic in mu, fixed exactly by
    its values at 0, 1/2 and 1. For valid column probabilities
    g(0) >= 0 >= g(1) (by Cauchy-Schwarz), so the curves cross inside
    (0, 1) exactly when g(0) > 0 > g(1), and then at one simple root,
    returned in closed form. None when the curves never cross.
    """
    p = _check_column_probs(d, p)
    r_me, r_s = _r_curves(d, p)
    g0, g_half, g1 = (r_me(mu) - r_s(mu) for mu in (0.0, 0.5, 1.0))
    if not g0 > 0.0 > g1:
        return None
    a = 2.0 * (g0 - 2.0 * g_half + g1)  # g(mu) = a mu^2 + b mu + g0
    b = g1 - g0 - a
    # the root where g falls through zero, in the form free of cancellation
    return float(2.0 * g0 / (np.sqrt(b * b - 4.0 * a * g0) - b))


def analytic_estimates(d: int, p, mu: float) -> AnalyticEstimates:
    """Closed-form fidelities and linearized entropies for the two extremes.

    p holds the d column probabilities of a column-symmetric Pauli channel
    (summing to 1/d). For the maximally entangled input:

        F_me = mu + (1 - mu) d sum_n p_n^2
        R_me = 1 - [(1-mu)^2 d^2 sum C^2 + mu^2 + 2 mu (1-mu) d C00]

    and for the separable input |0,0>:

        F_s = (1 - mu) d^2 p_0^2 + mu d p_0
        R_s = 1 - [(1-mu)^2 d^4 C00^2 + mu^2 d^2 C00
                   + 2 mu (1-mu) d^3 sum_m p_m^3]

    with C[m, n] = sum_i p[m+i] p[n+i]. The exposed c_matrix is d * C, the
    trace-normalised outcome distribution (entries sum to 1).
    """
    p = _check_column_probs(d, p)
    mu = _check_mu(mu)
    c = _correlation_matrix(p)
    f_me = float(mu + (1 - mu) * d * (p ** 2).sum())
    f_s = float((1 - mu) * d ** 2 * p[0] ** 2 + mu * d * p[0])
    r_me_fn, r_s_fn = _r_curves(d, p)
    return AnalyticEstimates(c_matrix=d * c, f_me=f_me, f_s=f_s,
                             r_me=float(r_me_fn(mu)), r_s=float(r_s_fn(mu)),
                             mu_cross=estimate_mu_c_crossing(d, p))
