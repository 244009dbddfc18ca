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
