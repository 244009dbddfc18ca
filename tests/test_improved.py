import numpy as np
import pytest

from conftest import random_offdiag_model
from divexp import (
    DegeneracyError,
    GoldenRuleError,
    SplitHamiltonian,
    StateVector,
    TwoStateExact,
    basis_state,
    exact_transition,
    improved_energy,
    improved_solution,
    improved_state_coefficients,
    improved_transition,
    oracle_eigensolve,
    redivide,
    revised_golden_rule,
    revision_energies,
)
from divexp import improved
from divexp.improved import SHIFT_DEPTH, _shift_sum, improved_kernel


def two_state(v=0.1):
    return TwoStateExact(0.0, 1.0, v)


def test_revision_energies_two_state_golden():
    m = redivide(two_state().to_split_hamiltonian())
    rev = revision_energies(m, max_order=5)
    assert rev.g2 == pytest.approx([-0.01, 0.01], abs=1e-15)
    assert rev.g3 == pytest.approx([0.0, 0.0], abs=1e-15)
    assert rev.g4 == pytest.approx([1e-4, -1e-4], abs=1e-15)
    assert rev.g5 == pytest.approx([0.0, 0.0], abs=1e-15)
    assert rev.shifted[0] == pytest.approx(-0.0099, abs=1e-15)


def test_revision_energies_reality(rng):
    for _ in range(5):
        m = redivide(random_offdiag_model(rng, 5, coupling=0.6))
        rev = revision_energies(m, max_order=5)
        for arr in (rev.g2, rev.g3, rev.g4, rev.g5):
            assert np.isrealobj(arr)
            assert np.all(np.isfinite(arr))


def test_degeneracy_gate():
    model = SplitHamiltonian(
        energies=[0.0, 0.0, 1.0],
        perturbation=np.array([[0, 0.1, 0], [0.1, 0, 0.1], [0, 0.1, 0]], complex),
    )
    m = redivide(model)
    with pytest.raises(DegeneracyError):
        revision_energies(m)
    with pytest.raises(DegeneracyError):
        improved_transition(m, 0, 2, [0.0])
    with pytest.raises(DegeneracyError):
        improved_state_coefficients(m, 0, 1)


def test_improved_solution_t0_invariants(rng):
    m = redivide(random_offdiag_model(rng, 4, coupling=0.3))
    psi0 = basis_state(4, 2)
    for order in range(4):
        sol = improved_solution(m, psi0, [0.0], order)
        plain = psi0.amplitudes if order == 0 else np.zeros(4)
        assert np.max(np.abs(sol.amplitudes[0] - plain)) < 1e-15


def test_improved_solution_zero_coupling():
    e = np.array([0.0, 1.0, 2.5])
    m = redivide(SplitHamiltonian(energies=e, perturbation=np.zeros((3, 3))))
    psi0 = basis_state(3, 0)
    sol = improved_solution(m, psi0, [1.7], 0)
    assert np.allclose(sol.amplitudes[0], np.exp(-1j * e * 1.7) * psi0.amplitudes)
    for order in (1, 2, 3):
        sol = improved_solution(m, psi0, [1.7], order)
        assert np.all(sol.amplitudes == 0)


def test_improved_solution_matches_per_time_kernel(rng):
    m = redivide(random_offdiag_model(rng, 4, coupling=0.3))
    e, g = m.shifted_energies, m.offdiagonal
    a0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi0 = StateVector(a0 / np.linalg.norm(a0))
    times = np.array([0.0, 0.25, -3.0, 11.0, 0.25, 140.0])
    rev = revision_energies(m, 5)
    zero = redivide(SplitHamiltonian(energies=e, perturbation=np.zeros((4, 4))))
    for order in range(4):
        sol = improved_solution(m, psi0, times, order)
        freq = e + _shift_sum(rev, SHIFT_DEPTH[order])
        want = np.stack([improved_kernel(e, g, freq, order, t) @ psi0.amplitudes
                         for t in times])
        assert np.max(np.abs(sol.amplitudes - want)) <= 1e-14 * np.max(np.abs(want))
        if order:
            assert np.all(improved_solution(zero, psi0, times, order).amplitudes == 0)


def test_improved_solution_builds_at_most_one_kernel_per_level(rng, monkeypatch):
    calls = []
    real = improved._kernel

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(improved, "_kernel", counting)
    m = redivide(random_offdiag_model(rng, 3))
    for order in range(4):
        calls.clear()
        improved_solution(m, basis_state(3, 1), np.linspace(0.0, 9.0, 50), order)
        assert calls == [order] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_improved_entry_points_reject_non_finite_times(bad):
    m = redivide(two_state().to_split_hamiltonian())
    with pytest.raises(ValueError, match="finite"):
        improved_solution(m, basis_state(2, 0), [bad, 1.0], 1)
    with pytest.raises(ValueError, match="finite"):
        improved_transition(m, 0, 1, [0.5, bad])


def test_improved_first_order_two_state_formula():
    ts = two_state()
    m = redivide(ts.to_split_hamiltonian())
    psi0 = basis_state(2, 0)
    t = 2.7
    sol = improved_solution(m, psi0, [t], 1)
    shift = revision_energies(m, 4)
    et = m.shifted_energies + np.array(
        [shift.g2 + shift.g3 + shift.g4][0]
    )
    want = 0.1 * (np.exp(-1j * et[0] * t) - np.exp(-1j * et[1] * t)) / (0.0 - 1.0)
    assert sol.amplitudes[0, 1] == pytest.approx(want, abs=1e-14)


def test_improved_kernel_matches_pure_oscillatory_class(rng):
    from divexp.contraction import extract_secular_coefficients
    from divexp.propagator import series_order_matrix

    m = redivide(random_offdiag_model(rng, 4, coupling=0.4))
    e, g = m.shifted_energies, m.offdiagonal
    for order in (1, 2, 3):
        coef = extract_secular_coefficients(
            lambda t, o=order: series_order_matrix(e, g, o, t),
            e,
            max_power=max(order // 2, 1),
        )
        for t in (0.5, 2.0):
            want = (coef[:, :, :, 0] * np.exp(-1j * e * t)[None, None, :]).sum(axis=2)
            got = improved_kernel(e, g, e, order, t)
            assert np.max(np.abs(got - want)) < 1e-12


def test_improved_sum_accuracy_scaling(rng):
    base = random_offdiag_model(rng, 3, coupling=1.0)
    psi0 = basis_state(3, 0)
    times = np.linspace(0.0, 25.0, 26)
    errs = {}
    for scale in (1e-2, 1e-3):
        model = SplitHamiltonian(
            energies=base.energies, perturbation=base.perturbation * scale
        )
        m = redivide(model)
        total = np.zeros((times.size, 3), complex)
        for order in range(3):
            total += improved_solution(m, psi0, times, order).amplitudes
        worst = 0.0
        for k, t in enumerate(times):
            exact = oracle_eigensolve(model, t) @ psi0.amplitudes
            worst = max(worst, np.max(np.abs(total[k] - exact)))
        errs[scale] = worst
    # agreement to third order in the coupling: tenfold smaller coupling
    # must shrink the error by ~1000, and the cubic coefficient stays bounded
    assert errs[1e-3] < 3e-2 * errs[1e-2]
    assert errs[1e-2] / (1e-2) ** 3 < 50.0


def test_improved_transition_basics_and_golden_frequency():
    ts = two_state()
    m = redivide(ts.to_split_hamiltonian())
    rep = improved_transition(m, 0, 1, [0.0, 1.0, 2.0])
    assert rep.p_usual[0] == 0 and rep.p_improved[0] == 0 and rep.delta[0] == 0
    # shifted frequency: 1 + 2(|V|^2/w - |V|^4/w^3) = 1.0198
    rev = revision_energies(m, 4)
    w_shift = (rev.shifted[1] - rev.shifted[0])
    assert w_shift == pytest.approx(1.0198, abs=1e-15)
    # delta equals the probability difference through the cosine identity
    assert np.max(np.abs(rep.delta - (rep.p_improved - rep.p_usual))) < 1e-12
    with pytest.raises(ValueError):
        improved_transition(m, 1, 1, [0.0])
    with pytest.raises(IndexError):
        improved_transition(m, 0, 5, [0.0])


def test_improved_transition_dominance_quick():
    ts = two_state()
    m = redivide(ts.to_split_hamiltonian())
    times = np.linspace(0.0, 100.0, 501)
    rep = improved_transition(m, 0, 1, times)
    exact = np.array([exact_transition(ts, t) for t in times])
    err_improved = np.max(np.abs(rep.p_improved - exact))
    err_usual = np.max(np.abs(rep.p_usual - exact))
    assert err_improved < 2e-3
    assert err_improved < err_usual


def toy_golden_model(v=0.05):
    h = np.zeros((3, 3), complex)
    h[0, 1] = h[1, 0] = v
    h[0, 2] = h[2, 0] = 0.8 * v
    return redivide(SplitHamiltonian(energies=[0.0, 5.0, -5.0], perturbation=h))


def toy_density():
    w = np.linspace(-2.0, 2.0, 41)
    rho = 0.5 + 0.3 * np.tanh(3 * (w + 0.8)) - 0.3 * np.tanh(3 * (w - 0.8))
    return w, rho


def test_golden_rule_zero_cases():
    m = toy_golden_model(v=0.0)
    rep = revised_golden_rule(m, 0, toy_density(), T=5.0)
    assert rep.rate_usual == 0.0
    assert rep.rate_delta == 0.0

    m = toy_golden_model()
    rep = revised_golden_rule(m, 0, toy_density(), T=5.0, zero_shift=True)
    assert abs(rep.rate_delta) <= 1e-12


def test_golden_rule_against_refined_quadrature():
    m = toy_golden_model()
    rep = revised_golden_rule(m, 0, toy_density(), T=6.0, rel_tol=1e-6)
    # independent high-resolution evaluation of the same integrand
    from scipy.integrate import quad
    from scipy.interpolate import PchipInterpolator

    w, rho = toy_density()
    interp = PchipInterpolator(w, rho)
    gb2 = np.array([0.05**2, 0.04**2])
    w1 = np.array([5.0, -5.0])
    cs = float(gb2.mean())
    T = 6.0

    def f(om):
        if abs(om) < 1e-9:
            c1 = 1.0 - float((gb2 / w1**2).sum())
            return float(interp(om)) * cs * T * (c1**2 - 1.0)
        s = float((gb2 * (1.0 / (om - w1) + 1.0 / w1)).sum())
        return (
            2.0 * float(interp(om)) * cs
            * (np.cos(om * T) - np.cos((om + s) * T))
            / (T * om**2)
        )

    want, _ = quad(f, -2.0, 2.0, limit=400, epsabs=1e-12, epsrel=1e-10)
    assert rep.rate_delta == pytest.approx(want, rel=1e-3)
    assert rep.rate_usual == pytest.approx(2 * np.pi * float(interp(0.0)) * cs, rel=1e-12)


def test_golden_rule_window_and_input_errors():
    m = toy_golden_model()
    with pytest.raises(GoldenRuleError):
        revised_golden_rule(m, 0, (np.linspace(1.0, 2.0, 8), np.ones(8)), T=5.0)
    with pytest.raises(GoldenRuleError):
        revised_golden_rule(m, 0, toy_density(), T=-1.0)
    w, rho = toy_density()
    with pytest.raises(GoldenRuleError):
        revised_golden_rule(m, 0, (w, -rho), T=5.0)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-4, float("nan")])
def test_golden_rule_rejects_unreachable_rel_tol(rel_tol):
    # checked before any refinement runs
    with pytest.raises(GoldenRuleError, match="rel_tol"):
        revised_golden_rule(toy_golden_model(), 0, toy_density(), T=5.0, rel_tol=rel_tol)


def test_golden_rule_sin_product_flag_runs():
    m = toy_golden_model()
    rep = revised_golden_rule(m, 0, toy_density(), T=6.0, sin_product=True)
    assert np.isfinite(rep.rate_delta)


def test_improved_energy_two_state_golden():
    ts = two_state()
    model = ts.to_split_hamiltonian()
    assert improved_energy(model, 0, max_order=4) == pytest.approx(-0.0099, abs=1e-15)
    e1_exact = ts.eigvals[0]
    assert abs(improved_energy(model, 0, 4) - e1_exact) < 2 * 0.1**6 / 1.0**5
    # free Hamiltonian: unchanged levels
    free = SplitHamiltonian(energies=[0.0, 1.0], perturbation=np.zeros((2, 2)))
    assert improved_energy(free, 1, 4) == 1.0


def test_shift_frequency_accuracy_sweep():
    for v in (0.05, 0.1, 0.2):
        ts = two_state(v)
        m = redivide(ts.to_split_hamiltonian())
        rev = revision_energies(m, 4)
        w_shift = rev.shifted[1] - rev.shifted[0]
        assert abs(w_shift - ts.omega_total) <= 5 * v**6 * ts.omega


def test_improved_energy_matches_rayleigh_schroedinger_second_order(rng):
    model = random_offdiag_model(rng, 4, coupling=0.2)
    m = redivide(model)
    rev = revision_energies(m, max_order=2)
    e = m.shifted_energies
    g = m.offdiagonal
    for beta in range(4):
        rs2 = sum(
            abs(g[beta, k]) ** 2 / (e[beta] - e[k]) for k in range(4) if k != beta
        )
        assert rev.g2[beta] == pytest.approx(rs2, rel=1e-12)
        assert improved_energy(model, beta, 2) == pytest.approx(e[beta] + rs2, rel=1e-12)


def test_improved_state_coefficients(rng):
    # zero coupling: no corrections
    free = redivide(SplitHamiltonian(energies=[0.0, 1.0], perturbation=np.zeros((2, 2))))
    assert np.all(improved_state_coefficients(free, 0, 1) == 0)
    assert np.all(improved_state_coefficients(free, 0, 2) == 0)

    # two-state first order: -V21/(E2 - E1) on the other level
    ts = two_state()
    m = redivide(ts.to_split_hamiltonian())
    a1 = improved_state_coefficients(m, 0, 1)
    assert a1[0] == 0
    assert a1[1] == pytest.approx(-np.conj(ts.v) / (1.0 - 0.0), abs=1e-15)

    # perturbed vector converges to the exact eigenvector at third order
    base = random_offdiag_model(rng, 4, coupling=1.0)
    errs = {}
    for scale in (1e-2, 1e-3):
        model = SplitHamiltonian(
            energies=base.energies, perturbation=base.perturbation * scale
        )
        m = redivide(model)
        beta = 1
        vec = np.zeros(4, complex)
        vec[beta] = 1.0
        vec += improved_state_coefficients(m, beta, 1)
        vec += improved_state_coefficients(m, beta, 2)
        w, V = np.linalg.eigh(model.total())
        n = int(np.argmin(np.abs(w - m.shifted_energies[beta])))
        exact = V[:, n]
        # align phase and scale on the reference component
        exact = exact / exact[beta]
        errs[scale] = np.max(np.abs(vec - exact))
    assert errs[1e-3] < 3e-2 * errs[1e-2]
    with pytest.raises(ValueError):
        improved_state_coefficients(m, 0, 3)
