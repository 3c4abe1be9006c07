import numpy as np
import pytest
from hypothesis import strategies as st

from corrchan import haar_random_unitary, random_pure_state


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


__all__ = ["random_hermitian", "random_density_matrix", "haar_random_unitary",
           "random_pure_state", "symmetric_column_probs"]
