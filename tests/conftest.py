import numpy as np
import pytest

from divexp import SplitHamiltonian, redivide
from divexp.propagator import _order_matrix_tuples


#: level draws random_offdiag_model makes before it gives up on min_gap
MAX_LEVEL_DRAWS = 10**6


def random_offdiag_model(rng, dim, energy_spread=3.0, coupling=0.3, min_gap=0.3):
    """Random split with strictly off-diagonal Hermitian coupling.

    The levels are redrawn until every gap is at least ``min_gap``; after
    MAX_LEVEL_DRAWS draws without one, ValueError.
    """
    for _ in range(MAX_LEVEL_DRAWS):
        base = np.sort(rng.uniform(0.0, energy_spread, size=dim))
        if dim == 1 or np.min(np.diff(base)) >= min_gap:
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


def tuples_term(m, l, t):
    """Order-l term on the tuple route, whatever route series_term would take."""
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
