import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import random_hermitian_model, random_offdiag_model, tuples_term
from divexp import (
    BudgetExceededError,
    SplitHamiltonian,
    TwoStateExact,
    basis_state,
    derivative_coefficients,
    evolve,
    exact_transition,
    oracle_block_order,
    oracle_dyson_order,
    oracle_eigensolve,
    redivide,
    series_term,
    truncated_propagator,
)
from divexp import propagator
from divexp.propagator import (
    MAX_AUTO_ORDER,
    _route,
    _tail_bound,
    auto_order,
    coupling_strength,
    series_order_matrix,
)


def richardson_derivative(f, K, h0=0.05, levels=3):
    """K-th derivative of a matrix function at 0 by extrapolated central differences."""
    from math import comb

    def central(h):
        acc = None
        for j in range(K + 1):
            x = (K / 2.0 - j) * h
            term = (-1.0) ** j * comb(K, j) * f(x)
            acc = term if acc is None else acc + term
        return acc / h**K

    table = [central(h0 / 2**k) for k in range(levels)]
    for p in range(1, levels):
        fac = 4.0**p
        table = [
            (fac * table[k + 1] - table[k]) / (fac - 1.0)
            for k in range(len(table) - 1)
        ]
    return table[0]


def test_series_term_two_state_first_order():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    m = redivide(ts.to_split_hamiltonian())
    t = 0.9
    term = series_term(m, 1, t)
    want = (np.exp(-1j * 0.0 * t) - np.exp(-1j * 1.0 * t)) / (0.0 - 1.0) * 0.1
    assert term.matrix[0, 1] == pytest.approx(want, abs=1e-14)
    assert term.matrix[0, 0] == 0 and term.matrix[1, 1] == 0


def test_series_term_zero_coupling(small_model):
    m = redivide(
        SplitHamiltonian(
            energies=small_model.energies,
            perturbation=np.zeros_like(small_model.perturbation),
        )
    )
    for l in (1, 2, 3):
        assert np.all(series_term(m, l, 1.3).matrix == 0)


def test_series_term_paths_agree(rng):
    m = redivide(random_offdiag_model(rng, 3))
    for t in (0.4, 0.7):
        a = tuples_term(m, 2, t)
        b = oracle_block_order(m, 2, t)
        assert np.linalg.norm(a - b) < 1e-12


def test_order_equivalence_against_both_oracles(rng):
    for _ in range(4):
        dim = int(rng.integers(2, 5))
        m = redivide(random_offdiag_model(rng, dim))
        t = float(rng.uniform(0.3, 1.2))
        for l in range(1, 5):
            a = tuples_term(m, l, t)
            b = oracle_block_order(m, l, t)
            c = oracle_dyson_order(m, l, t, quad_tol=1e-9)
            scale = max(np.linalg.norm(a), 1e-30)
            assert np.linalg.norm(a - b) / scale < 1e-10
            assert np.linalg.norm(a - c) / scale < 1e-6


def test_tuple_route_with_diagonal_coupling(rng):
    # a raw split whose coupling carries a diagonal: tuples may repeat an
    # index next to itself, which the redivided models never do
    model = random_hermitian_model(rng, 4)
    e, v = model.energies, model.perturbation
    t = 0.9
    row = propagator._block_top_row(e, v, 4, t)
    for l in range(1, 5):
        assert _route(4, l) == "tuples"
        got = series_order_matrix(e, v, l, t)
        assert np.linalg.norm(got - row[l]) / np.linalg.norm(row[l]) < 1e-12, l


def test_tuple_sum_past_int64_keys():
    # at D^(l+1) > 2^63 a sorted tuple no longer fits one int64 key; two
    # coupled levels among 600 must give the same sum as the pair alone
    e2 = np.array([0.0, 0.7])
    v2 = np.array([[0.0, 0.3], [0.3j, 0.0]])
    dim = 600
    e = np.concatenate([e2, np.linspace(2.0, 5.0, dim - 2)])
    v = np.zeros((dim, dim), dtype=complex)
    v[:2, :2] = v2
    classes = ((0, 2, 4, 6), (1, 3, 5))
    assert dim**7 > 2**63
    big = propagator._tuple_sum(e, v, classes, (), 0.9)
    small = propagator._tuple_sum(e2, v2, classes, (), 0.9)
    assert np.any(small != 0)
    assert np.array_equal(big[:2, :2], small)
    big[:2, :2] = 0
    assert not np.any(big)


def test_tuple_sum_time_array_matches_scalar_calls(rng):
    from divexp.contraction import enumerate_patterns

    times = np.array([0.0, 0.3, -1.1, 4.0, 0.3, 17.0])
    off = redivide(random_offdiag_model(rng, 4))
    full = random_hermitian_model(rng, 3)  # coupling with a diagonal
    cases = [
        (e, v, [(p,) for p in range(l + 1)], ())
        for e, v in ((off.shifted_energies, off.offdiagonal),
                     (full.energies, full.perturbation))
        for l in (1, 2, 3, 4)
    ]
    cases += [
        (off.shifted_energies, off.offdiagonal, p.classes, p.ne_pairs)
        for l in (2, 3, 4) for p in enumerate_patterns(l)
    ]
    cases.append((full.energies, full.perturbation, ((0,), (1,), (2,)), ((0, 1), (1, 2))))
    for e, v, classes, ne_pairs in cases:
        got = propagator._tuple_sum(e, v, classes, ne_pairs, times)
        want = np.stack([propagator._tuple_sum(e, v, classes, ne_pairs, t) for t in times])
        assert got.shape == (times.size,) + v.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.all(got[0] == 0)  # nothing moves at t = 0 beyond order 0


def test_truncated_propagator_order_zero(small_redivided):
    t = 0.8
    U = truncated_propagator(small_redivided, 0, t)
    assert np.allclose(
        U.matrix, np.diag(np.exp(-1j * small_redivided.shifted_energies * t))
    )


def test_truncated_propagator_exact_at_zero_coupling(rng):
    base = random_offdiag_model(rng, 3)
    free = redivide(
        SplitHamiltonian(
            energies=base.energies, perturbation=np.zeros_like(base.perturbation)
        )
    )
    t = 1.7
    for L in (0, 3):
        U = truncated_propagator(free, L, t)
        assert np.allclose(U.matrix, np.diag(np.exp(-1j * base.energies * t)))
        assert U.tail_bound == 0.0


def test_propagator_convergence_and_tail(rng):
    model = random_hermitian_model(rng, 6)
    m = redivide(model)
    t = 1.0 / coupling_strength(m)
    exact = oracle_eigensolve(model, t)
    prev_tail = np.inf
    for L in range(13):
        U = truncated_propagator(m, L, t)
        err = np.linalg.norm(U.matrix - exact, 2)
        assert err <= U.tail_bound
        assert U.tail_bound <= prev_tail
        prev_tail = U.tail_bound
        drift = np.linalg.norm(
            U.matrix @ U.matrix.conj().T - np.eye(6), 2
        )
        assert drift <= 2.0 * U.tail_bound + U.tail_bound**2 + 1e-12
    assert err < 1e-8


def test_evolve_basics(rng):
    model = random_offdiag_model(rng, 3)
    m = redivide(model)
    psi0 = basis_state(3, 1)
    res = evolve(m, psi0, [0.0, 0.5, 1.0], L=8)
    assert np.array_equal(res.amplitudes[0], psi0.amplitudes)
    assert res.tail_bounds.shape == (3,)

    free = redivide(
        SplitHamiltonian(
            energies=model.energies, perturbation=np.zeros_like(model.perturbation)
        )
    )
    res = evolve(free, psi0, [0.7], L=4)
    want = np.exp(-1j * model.energies * 0.7) * psi0.amplitudes
    assert np.allclose(res.amplitudes[0], want)


def test_evolve_two_state_matches_exact_probability():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    m = redivide(ts.to_split_hamiltonian())
    psi0 = basis_state(2, 0)
    times = np.linspace(0.0, 8.0, 9)
    res = evolve(m, psi0, times, L=14)
    for k, t in enumerate(times):
        p = abs(res.amplitudes[k, 1]) ** 2
        assert abs(p - exact_transition(ts, t)) <= max(res.tail_bounds[k] * 3, 1e-12)


@pytest.mark.parametrize(
    "x_times, L, coupled",
    [
        ([3.0, -1.0, 2.0, 0.0, 0.5, 3.0, -4.0, 5.0], 8, True),  # unsorted, repeated
        ([-5.0, -2.5, 0.0, 2.5, 5.0], 8, True),  # negative, t = 0 inside the grid
        ([0.0, 0.01, 0.3, 1.7, 4.9], 10, True),  # non-uniform
        (np.linspace(0.4, 5.0, 31), 12, True),  # grid with t_start != 0
        (np.linspace(0.0, 5.0, 31), 12, True),
        ([2.7], 6, True),
        (np.linspace(0.0, 5.0, 11), 0, True),
        ([1.0, -3.0, 0.0, 5.0], 6, False),
    ],
)
def test_evolve_matches_per_time_propagator(rng, x_times, L, coupled):
    model = random_offdiag_model(rng, 5, min_gap=0.1)
    if not coupled:
        model = SplitHamiltonian(
            energies=model.energies, perturbation=np.zeros_like(model.perturbation)
        )
    m = redivide(model)
    psi0 = basis_state(5, 2)
    # x = ||g|| t <= 5; the free model takes the same times in units of 1
    times = np.asarray(x_times, dtype=float) / (coupling_strength(m) or 1.0)
    res = evolve(m, psi0, times, L)
    for k, t in enumerate(times):
        U = truncated_propagator(m, L, t)
        assert np.max(np.abs(res.amplitudes[k] - U.matrix @ psi0.amplitudes)) < 1e-12
        assert res.tail_bounds[k] == U.tail_bound
        if t == 0:
            assert np.array_equal(res.amplitudes[k], psi0.amplitudes)
    assert np.array_equal(res.times, times) and res.order_cap == L


def test_evolve_rejects_negative_order_cap(small_redivided):
    with pytest.raises(ValueError, match="order cap must be >= 0"):
        evolve(small_redivided, basis_state(3, 0), [0.0, 1.0], L=-1)


def test_evolve_exponential_count(rng, monkeypatch):
    # one step exponential walks a linspace grid; a start off 0 and a last
    # point an ulp off its reference take one more each
    calls = []
    expm = scipy.linalg.expm

    def counting_expm(M):
        calls.append(M.shape[0])
        return expm(M)

    monkeypatch.setattr(propagator.scipy.linalg, "expm", counting_expm)
    m = redivide(random_offdiag_model(rng, 8, min_gap=0.05))
    psi0 = basis_state(8, 0)
    T = 1.3 / coupling_strength(m)
    for start, most in ((0.0, 2), (0.4, 3)):
        calls.clear()
        evolve(m, psi0, np.linspace(start, T, 51), 12)
        assert 1 <= len(calls) <= most, (start, calls)
        assert set(calls) == {13 * 8}


def test_evolve_size_guard(rng):
    # (L+1) D = 2049: refused before the block generator is allocated, also
    # at L <= 2 where the per-time tuple route needed no block
    m = redivide(random_offdiag_model(rng, 683, min_gap=0.0))
    psi0 = basis_state(683, 0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="2049"):
            evolve(m, psi0, np.linspace(0.0, 1.0, 51), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_eigensolve_basics(rng):
    e = np.array([0.0, 0.7, 1.9])
    free = SplitHamiltonian(energies=e, perturbation=np.zeros((3, 3)))
    t = 1.1
    assert np.allclose(oracle_eigensolve(free, t), np.diag(np.exp(-1j * e * t)))
    model = random_hermitian_model(rng, 4)
    assert np.allclose(oracle_eigensolve(model, 0.0), np.eye(4))
    ts = TwoStateExact(0.0, 1.0, 0.1)
    U = oracle_eigensolve(ts.to_split_hamiltonian(), 2.3)
    assert abs(U[1, 0]) ** 2 == pytest.approx(exact_transition(ts, 2.3), abs=1e-12)


def test_oracle_dyson_zero_coupling_and_two_state():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    m = redivide(ts.to_split_hamiltonian())
    t = 0.8
    got = oracle_dyson_order(m, 1, t, quad_tol=1e-10)
    want = series_term(m, 1, t).matrix
    assert np.linalg.norm(got - want) < 1e-8

    free = redivide(
        SplitHamiltonian(energies=[0.0, 1.0], perturbation=np.zeros((2, 2)))
    )
    assert np.all(oracle_dyson_order(free, 2, t) == 0)
    with pytest.raises(ValueError):
        oracle_dyson_order(m, 5, t)


def test_oracle_block_high_order(rng):
    m = redivide(random_offdiag_model(rng, 4))
    t = 0.6
    a = oracle_block_order(m, 6, t)
    b = tuples_term(m, 6, t)
    assert np.all(np.isfinite(a))
    assert np.linalg.norm(a - b) < 1e-10
    free = redivide(
        SplitHamiltonian(energies=m.shifted_energies, perturbation=np.zeros((4, 4)))
    )
    assert np.all(oracle_block_order(free, 3, t) == 0)


def test_derivative_coefficients_low_orders(small_redivided):
    m = small_redivided
    assert np.allclose(derivative_coefficients(m, 1, 1), m.offdiagonal)
    assert np.all(derivative_coefficients(m, 2, 1) == 0)
    for l in range(1, 4):
        for K in range(l):
            assert np.all(derivative_coefficients(m, l, K) == 0)


def test_derivative_coefficients_match_finite_differences(rng):
    m = redivide(random_offdiag_model(rng, 3))
    # second derivative of the order-2 term at t = 0
    fd = richardson_derivative(lambda t: series_term(m, 2, t).matrix, 2)
    want = (-1j) ** 2 * derivative_coefficients(m, 2, 2)
    assert np.max(np.abs(fd - want)) < 1e-6


def test_derivative_identity(rng):
    m = redivide(random_offdiag_model(rng, 3, coupling=0.4))
    e = m.shifted_energies

    def tail(t):
        return sum(series_term(m, l, t).matrix for l in range(1, 5))

    for K in range(1, 5):
        fd = richardson_derivative(tail, K)
        want = (-1j) ** K * sum(
            derivative_coefficients(m, l, K) for l in range(1, K + 1)
        )
        assert np.max(np.abs(fd - want)) < 1e-6


def test_eigen_consistency(rng):
    model = random_hermitian_model(rng, 4)
    m = redivide(model)
    w, V = np.linalg.eigh(model.total())
    for n in range(4):
        a = V[:, n]
        lhs = w[n] * a
        rhs = m.shifted_energies * a + m.offdiagonal @ a
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_redivision_equivalence(rng):
    model = random_hermitian_model(rng, 5)
    m = redivide(model)
    scale = max(
        coupling_strength(m),
        float(np.max(np.abs(model.perturbation))),
    )
    t = 1.0 / scale
    exact = oracle_eigensolve(model, t)
    # the redivided route
    U_red = truncated_propagator(m, 12, t).matrix
    # the raw route, summing terms built from (E, H1) with its diagonal kept
    U_raw = np.diag(np.exp(-1j * model.energies * t)).astype(complex)
    for l in range(1, 13):
        U_raw += series_order_matrix(model.energies, model.perturbation, l, t)
    assert np.linalg.norm(U_red - exact) < 1e-8
    assert np.linalg.norm(U_raw - exact) < 1e-8


def test_block_size_guard(rng, monkeypatch):
    # side (l+1) D = 2048 is the largest block allowed; the stub keeps the
    # 2048x2048 exponential itself out of the test
    sides = []

    def fake_expm(M):
        sides.append(M.shape[0])
        return np.zeros_like(M)

    monkeypatch.setattr(scipy.linalg, "expm", fake_expm)
    m = redivide(random_offdiag_model(rng, 512, min_gap=0.0))
    assert _route(512, 3) == "block"
    assert series_term(m, 3, 0.5).matrix.shape == (512, 512)
    assert sides == [2048]
    m = redivide(random_offdiag_model(rng, 513, min_gap=0.0))
    with pytest.raises(BudgetExceededError) as exc:
        series_term(m, 3, 0.5)
    assert "2052" in str(exc.value)
    with pytest.raises(BudgetExceededError):
        oracle_block_order(m, 3, 0.5)
    assert sides == [2048]


def test_route_pins():
    # the rule's edges: tuples while l == 1 or D^(l-2) <= (l+1)^2
    pins = [
        (16, 3, "tuples"), (17, 3, "block"),
        (5, 4, "tuples"), (6, 4, "block"),
        (3, 5, "tuples"), (4, 5, "block"),
        (2048, 1, "tuples"), (2048, 2, "tuples"),
    ]
    # benchmark shapes: grid, matrix, decompose; then D = 5 at orders 1-3, the
    # improved workload's size, kept as a pin of the rule although its exact
    # secular classes take no route
    pins += [(d, l, "block") for d in (6, 8, 10) for l in range(10, 16)]
    pins += [(d, l, "block") for d in (48, 64, 96) for l in (6, 8)]
    pins += [(d, l, "tuples") for d in (8, 12, 16) for l in (2, 3)]
    pins += [(5, l, "tuples") for l in range(1, 4)]
    for dim, l, route in pins:
        assert _route(dim, l) == route, (dim, l)


def test_coupling_strength_is_exact(rng):
    m = redivide(random_offdiag_model(rng, 48, min_gap=0.0))
    want = np.linalg.svd(m.offdiagonal, compute_uv=False)[0]
    assert abs(coupling_strength(m) - want) <= 1e-13 * want


def test_auto_order_cap():
    ts = TwoStateExact(0.0, 1.0, 0.1)
    m = redivide(ts.to_split_hamiltonian())
    g = coupling_strength(m)
    tol = 1e-10
    # the largest x at which order MAX_AUTO_ORDER still beats tol
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if _tail_bound(mid, MAX_AUTO_ORDER) < tol else (lo, mid)
    assert _tail_bound(0.999 * lo, MAX_AUTO_ORDER - 1) >= tol
    assert auto_order(m, 0.999 * lo / g, tol) == MAX_AUTO_ORDER
    with pytest.raises(ValueError, match=f"up to {MAX_AUTO_ORDER}"):
        auto_order(m, 1.001 * lo / g, tol)
