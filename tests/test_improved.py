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
from divexp.improved import improved_kernel


def two_state(v=0.1):
    return TwoStateExact(0.0, 1.0, v)


def test_revision_energies_two_state_golden():
    m = redivide(two_state().to_split_hamiltonian())
    rev = revision_energies(m, max_order=5)
    assert rev.G.shape == (4, 2)
    assert rev.G[0] == pytest.approx([-0.01, 0.01], abs=1e-15)
    assert rev.G[1] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert rev.G[2] == pytest.approx([1e-4, -1e-4], abs=1e-15)
    assert rev.G[3] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert rev.shifted[0] == pytest.approx(-0.0099, abs=1e-15)


def test_revision_energies_match_the_eigenvalue_branch(rng):
    # G^(n)_j is the n-th Taylor coefficient in lam of the eigenvalue of
    # diag(E') + lam g through E'_j, taken by a trapezoid sum on the circle
    # |lam| = rho.  At rho = min_gap / (4 |g|) every eigenvalue lies within
    # min_gap / 4 of its own level (Bauer-Fike), so the nearest one follows
    # the branch.  Orders 2..7: at n = 8 the 64-point sum's own error
    # exceeds the tolerance.
    n_points = 64
    for dim in range(3, 9):
        m = redivide(random_offdiag_model(rng, dim))
        e, g = m.shifted_energies, m.offdiagonal
        rev = revision_energies(m, 7)
        gaps = np.abs(e[:, None] - e[None, :]) + np.diag(np.full(dim, np.inf))
        rho = gaps.min() / (4.0 * np.linalg.norm(g, 2))
        lam = rho * np.exp(2j * np.pi * np.arange(n_points) / n_points)
        branch = np.empty((n_points, dim), dtype=complex)
        for k, x in enumerate(lam):
            w = np.linalg.eigvals(np.diag(e) + x * g)
            branch[k] = w[np.argmin(np.abs(w[None, :] - e[:, None]), axis=1)]
        for n, got in zip(range(2, 8), rev.G, strict=True):
            want = (branch * lam[:, None] ** -n).mean(axis=0)
            assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(got)), (dim, n)


def test_projector_series_matches_the_eigenprojector_branch(rng):
    # P^(n)_j is the n-th Taylor coefficient in lam of the eigenprojector
    # V[:, i] (x) V^-1[i, :] of diag(E') + lam g for the eigenvalue i on the
    # branch through E'_j, by the same trapezoid sum on |lam| = rho as the
    # G^(n) test above.
    n_points = 64
    for dim in range(3, 9):
        m = redivide(random_offdiag_model(rng, dim))
        e, g = m.shifted_energies, m.offdiagonal
        _, states = improved._rs_series(e, g, 5)
        got = improved._projector_series(states, np.eye(dim))
        gaps = np.abs(e[:, None] - e[None, :]) + np.diag(np.full(dim, np.inf))
        rho = gaps.min() / (4.0 * np.linalg.norm(g, 2))
        lam = rho * np.exp(2j * np.pi * np.arange(n_points) / n_points)
        branch = np.empty((n_points, dim, dim, dim), dtype=complex)  # [k, row, col, j]
        for k, x in enumerate(lam):
            w, v = np.linalg.eig(np.diag(e) + x * g)
            near = np.argmin(np.abs(w[None, :] - e[:, None]), axis=1)
            branch[k] = np.einsum("rj,jc->rcj", v[:, near], np.linalg.inv(v)[near, :])
        for n in range(6):
            want = (branch * lam[:, None, None, None] ** -n).mean(axis=0)
            scale = np.max(np.abs(got[n]))
            assert np.max(np.abs(got[n] - want)) <= 1e-8 * scale, (dim, n)


def test_revision_energies_reality(rng):
    for _ in range(5):
        m = redivide(random_offdiag_model(rng, 5, coupling=0.6))
        rev = revision_energies(m, max_order=5)
        assert rev.G.shape == (4, 5)
        assert np.isrealobj(rev.G)
        assert np.all(np.isfinite(rev.G))


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
    # the paper's depths: order k takes G^(2..depth[k]) into its exponent
    depth = {0: 5, 1: 4, 2: 3, 3: 2}
    for order in range(4):
        sol = improved_solution(m, psi0, times, order)
        freq = e + sum(rev.G[a - 2] for a in range(2, depth[order] + 1))
        want = np.stack([improved_kernel(e, g, freq, order, t) @ psi0.amplitudes
                         for t in times])
        assert np.max(np.abs(sol.amplitudes - want)) <= 1e-14 * np.max(np.abs(want))
        if order:
            assert np.all(improved_solution(zero, psi0, times, order).amplitudes == 0)


def test_improved_solution_takes_one_rs_run_per_call(rng, monkeypatch):
    calls = []
    real = improved._rs_series

    def counting(e, g, n):
        calls.append(n)
        return real(e, g, n)

    monkeypatch.setattr(improved, "_rs_series", counting)
    m = redivide(random_offdiag_model(rng, 3))
    for order in range(4):
        calls.clear()
        improved_solution(m, basis_state(3, 1), np.linspace(0.0, 9.0, 50), order)
        assert calls == [5]


def test_improved_kernel_rejects_a_non_hermitian_coupling():
    e = np.array([0.0, 1.0, 2.5])
    g = np.array([[0, 0.1, 0], [0.1, 0, 0.2j], [0, 0.2j, 0]])
    assert improved_kernel(e, 0.5 * (g + g.conj().T), e, 1, 0.3).shape == (3, 3)
    for order in range(4):
        with pytest.raises(ValueError, match="Hermitian"):
            improved_kernel(e, g, e, order, 0.3)


_LEVELS = [0.0, 1.0, 2.5]
_NEAR = [0.0, 1.0, 1.0 + 5e-9]  # one pair inside the gate 1e-8 * max(max |e|, 1)
_G = 0.1 * (np.ones((3, 3)) - np.eye(3))
_G_NAN = np.where(np.eye(3) == 1, np.nan, _G)
_ENTRIES = "e, g and freq must be finite"


@pytest.mark.parametrize(
    "e, g, freq, t, error, match",
    [
        (_LEVELS, _G, _LEVELS, np.nan, ValueError, "t must be finite"),
        (_LEVELS, _G, _LEVELS, np.inf, ValueError, "t must be finite"),
        (_LEVELS, _G, _LEVELS, -np.inf, ValueError, "t must be finite"),
        (_LEVELS, _G, [0.0, np.nan, 2.5], 0.3, ValueError, _ENTRIES),
        (_LEVELS, _G, [0.0, np.inf, 2.5], 0.3, ValueError, _ENTRIES),
        (_LEVELS, _G, [-np.inf, 1.0, 2.5], 0.3, ValueError, _ENTRIES),
        ([0.0, np.nan, 2.5], _G, _LEVELS, 0.3, ValueError, _ENTRIES),
        (_LEVELS, _G_NAN, _LEVELS, 0.3, ValueError, _ENTRIES),
        (_NEAR, _G, _NEAR, 0.3, DegeneracyError, r"\(1,2\)"),
    ],
    ids=["t-nan", "t-inf", "t-neg-inf", "freq-nan", "freq-inf", "freq-neg-inf",
         "e-nan", "g-nan", "degenerate-pair"],
)
def test_improved_kernel_rejects_input_it_cannot_evaluate(e, g, freq, t, error, match):
    with pytest.raises(error, match=match):
        improved_kernel(np.array(e), g, np.array(freq), 2, t)


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
    et = m.shifted_energies + shift.G[0] + shift.G[1] + shift.G[2]
    want = 0.1 * (np.exp(-1j * et[0] * t) - np.exp(-1j * et[1] * t)) / (0.0 - 1.0)
    assert sol.amplitudes[0, 1] == pytest.approx(want, abs=1e-14)


def test_improved_kernel_matches_pure_oscillatory_class(rng):
    from divexp.contraction import extract_secular_coefficients
    from divexp.propagator import series_order_matrix

    m = redivide(random_offdiag_model(rng, 4, coupling=0.4))
    e, g = m.shifted_energies, m.offdiagonal
    for order in range(1, 6):
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


@pytest.mark.parametrize("v", [1e-2, 1e-4, 1e-6])
def test_transition_delta_stays_accurate_at_weak_coupling(v):
    # ladder 0, 1, 2.3: delta = p_improved - p_usual at 50 digits from the
    # same frequencies and shifts; at weak coupling the shift is ~v^2 and a
    # difference of two cosines of nearly equal frequencies cancels to
    # nothing (relative error 1.0 at v = 1e-6)
    import mpmath

    h = np.zeros((3, 3), complex)
    h[0, 1] = h[1, 0] = v
    h[1, 2] = h[2, 1] = 0.7 * v
    h[0, 2] = h[2, 0] = 0.4 * v
    m = redivide(SplitHamiltonian(energies=[0.0, 1.0, 2.3], perturbation=h))
    times = np.geomspace(1e-3, 50.0, 200)
    rep = improved_transition(m, 0, 1, times)
    shift = revision_energies(m, improved.SCHEME_ORDER + 1).G.sum(axis=0)
    e = m.shifted_energies
    amp = abs(m.offdiagonal[1, 0]) ** 2
    with mpmath.workdps(50):
        w = mpmath.mpf(e[1]) - mpmath.mpf(e[0])
        wt = w + mpmath.mpf(shift[1]) - mpmath.mpf(shift[0])
        for t, got in zip(times, rep.delta):
            t = mpmath.mpf(t)
            diff = mpmath.sin(wt * t / 2) ** 2 - mpmath.sin(w * t / 2) ** 2
            want = amp * diff / (w / 2) ** 2
            assert abs((got - want) / want) < 1e-12, (v, float(t))
    # the identity the CSV reader checks, relative to the peak 4 |g|^2 / w^2
    peak = 4.0 * amp / (e[1] - e[0]) ** 2
    assert np.max(np.abs(rep.delta - (rep.p_improved - rep.p_usual))) <= 1e-12 * peak


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

    # with no other level there is no continuum coupling and no shift
    one = redivide(SplitHamiltonian(energies=[0.0], perturbation=[[0.0]]))
    rep = revised_golden_rule(one, 0, toy_density(), T=5.0)
    assert rep.rate_usual == rep.rate_delta == 0.0


def test_golden_rule_against_refined_quadrature():
    m = toy_golden_model()
    rep = revised_golden_rule(m, 0, toy_density(), T=6.0)
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


@pytest.mark.parametrize(
    "column, index, bad",
    [(0, 5, np.nan), (0, -1, np.inf), (1, 5, np.nan), (1, 20, np.inf)],
)
def test_golden_rule_rejects_a_non_finite_density_table(column, index, bad):
    table = [a.copy() for a in toy_density()]
    table[column][index] = bad
    with pytest.raises(GoldenRuleError, match="finite"):
        revised_golden_rule(toy_golden_model(), 0, tuple(table), T=5.0)


@pytest.mark.parametrize("T", [np.inf, np.nan, 0.0, -1.0])
def test_golden_rule_rejects_non_finite_or_non_positive_T(T):
    # checked before any refinement runs
    with pytest.raises(GoldenRuleError, match="T must be finite and positive"):
        revised_golden_rule(toy_golden_model(), 0, toy_density(), T=T)


@pytest.mark.parametrize("w", [1.5, 1.37, 2.9, 3.2])
def test_golden_rule_rejects_a_level_inside_the_window(w):
    # the shift q has a pole at the other level, at omega = w; inside the
    # window [-3, 3] the quadrature met it (a non-convergent refinement at
    # 1.5, finite wrong rates at 1.37 and 2.9), so the window is refused first
    m = redivide(SplitHamiltonian(energies=[0.0, w], perturbation=[[0, 0.05], [0.05, 0]]))
    rho = (np.linspace(-3.0, 3.0, 61), np.full(61, 60.0))
    if w > 3.0:
        rep = revised_golden_rule(m, 0, rho, T=6.0)
        assert rep.rate_delta == pytest.approx(-1.8406147790348652e-4, rel=1e-12)
    else:
        with pytest.raises(GoldenRuleError, match=r"levels \[1\] lie in the density window"):
            revised_golden_rule(m, 0, rho, T=6.0)


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
        assert rev.G[0, beta] == pytest.approx(rs2, rel=1e-12)
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

    # the perturbed vector through order k converges to the exact
    # eigenvector at order k + 1: a tenfold smaller coupling shrinks the
    # error ~1000-fold through order 2 and ~1e4-fold through order 3
    base = random_offdiag_model(rng, 4, coupling=1.0)
    errs = {}
    for scale in (1e-2, 1e-3):
        model = SplitHamiltonian(
            energies=base.energies, perturbation=base.perturbation * scale
        )
        m = redivide(model)
        beta = 1
        w, V = np.linalg.eigh(model.total())
        n = int(np.argmin(np.abs(w - m.shifted_energies[beta])))
        exact = V[:, n]
        # align phase and scale on the reference component
        exact = exact / exact[beta]
        vec = np.zeros(4, complex)
        vec[beta] = 1.0
        for order in (1, 2, 3):
            vec += improved_state_coefficients(m, beta, order)
            errs[scale, order] = np.max(np.abs(vec - exact))
    assert errs[1e-3, 2] < 3e-2 * errs[1e-2, 2]
    assert errs[1e-3, 3] < 3e-3 * errs[1e-2, 3]
    with pytest.raises(ValueError, match="order must be >= 1"):
        improved_state_coefficients(m, 0, 0)


def test_divergent_series_raises_instead_of_returning_nan():
    # |V| / gap = 100 lies far past the branch point at 1/2: the terms grow
    # like 200^k and leave the floating-point range before order 200
    m = redivide(two_state(100.0).to_split_hamiltonian())
    e, g = m.shifted_energies, m.offdiagonal
    with pytest.raises(ValueError, match=r"order-\d+ Rayleigh-Schroedinger term"):
        revision_energies(m, max_order=200)
    with pytest.raises(ValueError, match=r"order-\d+ Rayleigh-Schroedinger term"):
        improved_state_coefficients(m, 0, 200)
    with pytest.raises(ValueError, match=r"order-\d+ Rayleigh-Schroedinger term"):
        improved_kernel(e, g, e, 200, 0.5)


def test_golden_rule_integrand_near_zero_frequency(monkeypatch):
    # 2 rho |g|^2 (cos(w T) - cos((w + shift) T)) / (T w^2), with the shift
    # sum gb2 (1 / (w - w1) + 1 / w1) through second order, at 50 digits;
    # written as that difference it cancels to nothing at w = 2e-9
    import mpmath
    from scipy.interpolate import PchipInterpolator

    captured = []
    monkeypatch.setattr(
        improved, "_trapezoid_refine", lambda f, lo, hi: captured.append(f) or 0.0
    )
    m, T = toy_golden_model(), 6.0
    w, rho = toy_density()
    revised_golden_rule(m, 0, (w, rho), T=T)
    oms = np.array([2e-9, 1e-7, 1e-5, 1e-3])
    got = captured[0](oms)
    gb2 = np.abs(m.offdiagonal[0, 1:]) ** 2
    w1 = m.shifted_energies[1:] - m.shifted_energies[0]
    dens = PchipInterpolator(w, rho)(oms + m.shifted_energies[0])
    with mpmath.workdps(50):
        cs = mpmath.fsum(map(mpmath.mpf, gb2)) / len(gb2)
        for om, rho_here, value in zip(oms, dens, got):
            o = mpmath.mpf(om)
            shift = mpmath.fsum(
                mpmath.mpf(g) * (1 / (o - mpmath.mpf(x)) + 1 / mpmath.mpf(x))
                for g, x in zip(gb2, w1)
            )
            cosdiff = mpmath.cos(o * T) - mpmath.cos((o + shift) * T)
            want = 2 * mpmath.mpf(rho_here) * cs * cosdiff / (T * o**2)
            assert abs((value - want) / want) < 1e-13, om
