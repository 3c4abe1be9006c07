import numpy as np
import pytest
from hypothesis import strategies as st

from corrchan import (CorrelatedChannel, haar_random_unitary, pauli_channel,
                      random_pure_state, symmetric_pauli_channel)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def random_density_matrix(dim, rng, rank=None):
    rank = rank or dim
    v = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


@st.composite
def symmetric_column_probs(draw):
    """(d, p): d in {2, 3, 4} and d random column probabilities summing to 1/d."""
    d = draw(st.sampled_from([2, 3, 4]))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d,
                                     max_size=d).filter(lambda w: sum(w) > 1e-3)))
    return d, weights / (d * weights.sum())


@st.composite
def pauli_channels_at_mu(draw, symmetric, max_dim=4):
    """A Pauli channel with d = 2..max_dim and every word weighted (all
    columns alike when symmetric), at a random mu, and a random generator."""
    d = draw(st.integers(2, max_dim))
    n = d if symmetric else d * d
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    base = (symmetric_pauli_channel(d, w / (d * w.sum())) if symmetric
            else pauli_channel(d, w / w.sum()))
    ch = CorrelatedChannel(base=base, mu=draw(st.floats(0.0, 1.0)))
    return ch, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


__all__ = ["random_hermitian", "random_density_matrix", "haar_random_unitary",
           "random_pure_state", "symmetric_column_probs", "pauli_channels_at_mu"]
