import numpy as np
import pytest

import conftest


def test_random_offdiag_model_gives_up_after_a_bounded_number_of_draws(monkeypatch):
    # three levels 0.6 apart do not fit in a spread of 1.0
    monkeypatch.setattr(conftest, "MAX_LEVEL_DRAWS", 1000)
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=r"min_gap=0\.6.*dim=3, energy_spread=1\.0"):
        conftest.random_offdiag_model(rng, 3, energy_spread=1.0, min_gap=0.6)
    # exactly MAX_LEVEL_DRAWS draws of three levels each were taken
    ref = np.random.default_rng(3)
    ref.uniform(size=3 * 1000)
    assert rng.bit_generator.state == ref.bit_generator.state


def _one_draw_at_a_time(rng, dim, energy_spread=3.0, coupling=0.3, min_gap=0.3):
    """random_offdiag_model's levels drawn one set per call, as a reference."""
    while True:
        base = np.sort(rng.uniform(0.0, energy_spread, size=dim))
        if dim == 1 or np.min(np.diff(base)) >= min_gap:
            break
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2.0
    np.fill_diagonal(h, 0.0)
    h *= coupling / max(np.max(np.abs(h)), 1e-12)
    return base, h


@pytest.mark.parametrize(
    "dim, kwargs",
    [(1, {}), (3, {}), (8, {}), (5, {"energy_spread": 1.3, "min_gap": 0.25})],
)
def test_random_offdiag_model_draws_the_models_of_one_draw_at_a_time(dim, kwargs):
    # the block draw gives the same levels and coupling, and leaves the
    # generator where the one-set-a-time loop does; dim 8 at the defaults
    # takes thousands of draws, past the first block
    for seed in (0, 1):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            m = conftest.random_offdiag_model(rng, dim, **kwargs)
            base, h = _one_draw_at_a_time(ref, dim, **kwargs)
            assert np.array_equal(m.energies, base)
            assert np.array_equal(m.perturbation, (h + h.conj().T) / 2.0)
            assert rng.bit_generator.state == ref.bit_generator.state
