import numpy as np
import pytest

from divexp import SplitHamiltonian, redivide
from divexp.propagator import _order_matrix_tuples


def random_offdiag_model(rng, dim, energy_spread=3.0, coupling=0.3, min_gap=0.3):
    """Random split with strictly off-diagonal Hermitian coupling."""
    base = np.sort(rng.uniform(0.0, energy_spread, size=dim))
    while dim > 1 and np.min(np.diff(base)) < min_gap:
        base = np.sort(rng.uniform(0.0, energy_spread, size=dim))
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
