import numpy as np
import pytest

from divexp import SplitHamiltonian, redivide
from divexp.propagator import _tuple_sum


#: level draws random_offdiag_model makes before it gives up on min_gap
MAX_LEVEL_DRAWS = 10**6


def random_offdiag_model(rng, dim, energy_spread=3.0, coupling=0.3, min_gap=0.3):
    """Random split with strictly off-diagonal Hermitian coupling.

    The levels are redrawn until every gap is at least ``min_gap``; after
    MAX_LEVEL_DRAWS draws without one, ValueError.  The draws are made 4096
    at a time, and the generator is then put back where drawing one level
    set at a time would leave it, so the models are those of that loop.
    """
    for start in range(0, MAX_LEVEL_DRAWS, 4096):
        state = rng.bit_generator.state
        size = (min(4096, MAX_LEVEL_DRAWS - start), dim)
        draws = np.sort(rng.uniform(0.0, energy_spread, size=size), axis=1)
        good = np.flatnonzero(np.all(np.diff(draws, axis=1) >= min_gap, axis=1))
        if good.size:
            rng.bit_generator.state = state
            rng.bit_generator.advance(int(good[0] + 1) * dim)
            base = draws[good[0]]
            break
    else:
        raise ValueError(
            f"no level draw met min_gap={min_gap} in {MAX_LEVEL_DRAWS} tries "
            f"(dim={dim}, energy_spread={energy_spread})"
        )
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2.0
    np.fill_diagonal(h, 0.0)
    h *= coupling / max(np.max(np.abs(h)), 1e-12)
    return SplitHamiltonian(energies=base, perturbation=h)


def random_hermitian_model(rng, dim, energy_spread=3.0, coupling=0.5):
    """Random split with a full Hermitian perturbation (diagonal included)."""
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2.0
    h *= coupling / max(np.max(np.abs(h)), 1e-12)
    return SplitHamiltonian(
        energies=rng.uniform(0.0, energy_spread, size=dim), perturbation=h
    )


def random_coupling(rng, dim, shape):
    """Hermitian coupling, zero diagonal, of one sparsity shape."""
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    far = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
    keep = {
        "dense": far > 0,
        "chain": far == 1,
        "sparse": np.triu(rng.uniform(size=(dim, dim)) < 0.3, 1),
        "star": np.outer(np.arange(dim) == 0, np.arange(dim) > 0),
    }[shape]
    h = np.triu(np.where(keep, h, 0.0), 1)
    h = h + h.conj().T
    return 0.3 * h / max(np.max(np.abs(h)), 1e-12)


def _order_matrix_tuples(energies, coupling, l, t):
    """Order-l term as a sum over all D^(l+1) index tuples: the tuple route.

    divexp's tuple-sum kernel, which the contraction pieces run on, with
    every tuple position in its own class: independent of the series
    term's own kernel, the exponential in the block-Toeplitz algebra.  It
    lives here rather than in oracles.py, whose routes call no divexp code.
    """
    return _tuple_sum(energies, coupling, [(p,) for p in range(l + 1)], (), t)


def tuples_term(m, l, t):
    """Order-l term of a redivided model on the tuple route."""
    return _order_matrix_tuples(m.shifted_energies, m.offdiagonal, l, t)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_model(rng):
    return random_offdiag_model(rng, 3)


@pytest.fixture
def small_redivided(small_model):
    return redivide(small_model)
