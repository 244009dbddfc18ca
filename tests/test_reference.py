import numpy as np
import pytest

from divexp import (
    ModelValidationError,
    TwoStateExact,
    exact_transition,
    improved_energy,
    oracle_eigensolve,
    usual_pt_quantities,
)


def test_invariants():
    ts = TwoStateExact(0.2, 1.4, 0.1 + 0.05j)
    e1t, e2t = ts.eigvals
    assert e1t + e2t == pytest.approx(ts.e1 + ts.e2, abs=1e-14)
    assert e2t - e1t == pytest.approx(ts.omega_total, abs=1e-14)
    V = ts.eigvecs
    gram = V.conj().T @ V
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    H = ts.to_split_hamiltonian().total()
    for n, lam in enumerate(ts.eigvals):
        assert np.max(np.abs(H @ V[:, n] - lam * V[:, n])) < 1e-12


def test_ordering_enforced():
    with pytest.raises(ModelValidationError):
        TwoStateExact(1.0, 0.0, 0.1)


@pytest.mark.parametrize(
    "e1, e2, v",
    [(0.0, 1.0, float("nan")), (0.0, 1.0, complex(0.1, float("inf"))),
     (float("nan"), 1.0, 0.1), (0.0, float("inf"), 0.1), (-float("inf"), 1.0, 0.1)],
)
def test_non_finite_two_state_input_is_rejected(e1, e2, v):
    with pytest.raises(ValueError, match="^e1, e2 and v must be finite$"):
        TwoStateExact(e1, e2, v)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_exact_transition_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match="^t must be finite$"):
        exact_transition(TwoStateExact(0.0, 1.0, 0.1), t)


def test_exact_transition_examples():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    assert exact_transition(ts, 0.0) == 0.0
    zero = TwoStateExact(0.0, 1.0, 0.0)
    for t in (0.3, 2.2, 9.0):
        assert exact_transition(zero, t) == 0.0
    t_peak = np.pi / ts.omega_total
    peak = exact_transition(ts, t_peak)
    assert peak == pytest.approx(0.04 / 1.04, abs=1e-14)


def test_usual_quantities():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    usual = usual_pt_quantities(ts)
    assert usual.e1_p == pytest.approx(-0.01, abs=1e-15)
    assert usual.e2_p == pytest.approx(1.01, abs=1e-15)
    zero = usual_pt_quantities(TwoStateExact(0.0, 1.0, 0.0))
    assert zero.e1_p == 0.0 and zero.e2_p == 1.0
    assert usual.probability(2 * np.pi / ts.omega) == pytest.approx(0.0, abs=1e-14)


def test_matches_eigensolve_oracle():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    model = ts.to_split_hamiltonian()
    for t in np.linspace(0.0, 12.0, 13):
        U = oracle_eigensolve(model, t)
        assert abs(abs(U[1, 0]) ** 2 - exact_transition(ts, t)) < 1e-12


def test_improved_energy_formula_level_equality():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    model = ts.to_split_hamiltonian()
    v2, w = abs(ts.v) ** 2, ts.omega
    assert improved_energy(model, 0, 4) == pytest.approx(
        ts.e1 - v2 / w + v2**2 / w**3, abs=1e-16
    )
    assert improved_energy(model, 1, 4) == pytest.approx(
        ts.e2 + v2 / w - v2**2 / w**3, abs=1e-16
    )
