import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    _order_matrix_tuples,
    random_coupling,
    random_hermitian_model,
    random_offdiag_model,
    tuples_term,
)
from divexp import (
    BudgetExceededError,
    SplitHamiltonian,
    TwoStateExact,
    basis_state,
    evolve,
    exact_transition,
    oracle_eigensolve,
    redivide,
    series_term,
    truncated_propagator,
)
from divexp import propagator
from divexp.coeff import dd_exp_batch
from divexp.propagator import (
    MAX_AUTO_ORDER,
    _tail_bound,
    auto_order,
    coupling_strength,
    series_order_matrix,
)
from oracles import (
    derivative_coefficients,
    mp_propagator,
    oracle_block_order,
    oracle_dyson_order,
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
    # index next to itself, which the redivided models never do; the series
    # term and the tuple sum both match the dense block row
    model = random_hermitian_model(rng, 4)
    e, v = model.energies, model.perturbation
    t = 0.9
    row = propagator._block_top_row(e, v, 4, t)
    for l in range(1, 5):
        for got in (series_order_matrix(e, v, l, t), _order_matrix_tuples(e, v, l, t)):
            assert np.linalg.norm(got - row[l]) / np.linalg.norm(row[l]) < 1e-12, l


@pytest.mark.parametrize("pair", [False, True], ids=["apart", "pair"])
@pytest.mark.parametrize("shape", ["dense", "chain", "sparse"])
def test_algebra_top_row_matches_the_dense_block_exponential(rng, shape, pair):
    # every block E_k within 1e-13 of the dense block's largest entry, and
    # exactly 0 wherever no walk of k coupling steps joins its row and column
    # (all of E_1..E_L at zero coupling, which every D = 1 model has)
    t = 1.0
    for dim in range(1, 21):
        levels = np.sort(rng.uniform(0.0, 3.0, size=dim))
        if pair and dim > 1:
            levels[1] = levels[0] + 1e-9  # the decompose workload's close pair
        h = random_coupling(rng, dim, shape)
        m = redivide(SplitHamiltonian(energies=levels, perturbation=h))
        e, g = m.shifted_energies, m.offdiagonal
        want = [np.diag(np.exp(-1j * e * t))]
        want += [oracle_block_order(m, k, t) for k in range(1, 7)]
        walks = [np.eye(dim)]
        for _ in range(6):
            walks.append(walks[-1] @ (g != 0))
        for L in range(1, 7):
            row = propagator._algebra_top_row(e, g, L, t)
            assert row.shape == (L + 1, dim, dim)
            for k in range(L + 1):
                where = (dim, L, k)
                scale = np.max(np.abs(want[k]))
                assert np.max(np.abs(row[k] - want[k])) <= 1e-13 * scale, where
                assert np.all(row[k][walks[k] == 0] == 0), where
    zero = propagator._algebra_top_row(e, np.zeros_like(g), 3, t)
    assert np.array_equal(zero[1:], np.zeros_like(zero[1:]))


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


def test_series_term_rejects_a_time_past_the_float_range():
    # |t| times half the level spread overflows: no scaling brings tA to 1/2
    g = np.array([[0.0, 0.1], [0.1, 0.0]])
    with pytest.raises(ValueError, match="^t times the level spread overflows$"):
        series_order_matrix([0.0, 1e300], g, 2, 1e10)


def test_series_term_at_levels_near_the_float_range():
    # the centre of levels near 1.7e308 is finite, and the order-1 term is
    # g o F with F[a, b] = f[E_a, E_b]
    e = np.array([1.6e308, 1.7e308, 1.65e308])
    g = 1e10 * np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=complex)
    t = 1e-307
    a, b = np.indices(g.shape)
    F = dd_exp_batch(e[np.stack((a, b), axis=-1).reshape(-1, 2)], t)[0]
    T = series_order_matrix(e, g, 1, t)
    assert np.max(np.abs(T - g * F.reshape(g.shape))) <= 1e-14 * np.max(np.abs(T))


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


def test_truncated_propagator_takes_one_block_exponential(rng, monkeypatch):
    # every order comes from the top block row of one exponential
    sides = []
    expm = scipy.linalg.expm

    def counting_expm(M):
        sides.append(M.shape[0])
        return expm(M)

    monkeypatch.setattr(propagator.scipy.linalg, "expm", counting_expm)
    m = redivide(random_offdiag_model(rng, 8, min_gap=0.05))
    L, t = 2, 1.3 / coupling_strength(m)
    U = truncated_propagator(m, L, t).matrix
    assert sides == [(L + 1) * 8]
    want = np.diag(np.exp(-1j * m.shifted_energies * t))
    want = want + sum(tuples_term(m, l, t) for l in range(1, L + 1))
    assert np.linalg.norm(U - want) <= 1e-12 * np.linalg.norm(want)


def test_truncated_propagator_size_guard(rng):
    # (L+1) D = 2050: refused at L = 1
    m = redivide(random_offdiag_model(rng, 1025, min_gap=0.0))
    with pytest.raises(BudgetExceededError, match="2050"):
        truncated_propagator(m, 1, 0.5)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_propagators_reject_non_finite_time(small_redivided, t):
    for L in (0, 3):
        with pytest.raises(ValueError, match="t must be finite"):
            truncated_propagator(small_redivided, L, t)
    with pytest.raises(ValueError, match="t must be finite"):
        oracle_eigensolve(small_redivided, t)


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


def step_side(m, L, dt, uses):
    """Side (k+1) D of a step exp(dt A) that the walk applies ``uses`` times.

    k is the least order <= L at which uses * _tail_bound(||g|| |dt|, k)
    falls below 2^-53, and L if there is none.
    """
    x = coupling_strength(m) * abs(dt)
    k = next((k for k in range(L) if uses * _tail_bound(x, k) < 2.0**-53), L)
    return (k + 1) * m.dim


@pytest.fixture
def expm_sides(monkeypatch):
    """The side of each scipy.linalg.expm call that propagator makes, in order."""
    sides = []
    expm = scipy.linalg.expm

    def counting_expm(M):
        sides.append(M.shape[0])
        return expm(M)

    monkeypatch.setattr(propagator.scipy.linalg, "expm", counting_expm)
    return sides


def test_evolve_exponential_count(rng, expm_sides):
    # one step exponential walks a linspace grid, and a start off 0 takes
    # one more; the last point of linspace(0, 0.9, 51) is an ulp off
    # 0 + 50 h and takes none.  Each exponential has the side the
    # step-order rule gives it, which is (L+1) D once the step is long
    calls = expm_sides
    m = redivide(random_offdiag_model(rng, 8, min_gap=0.05))
    psi0 = basis_state(8, 0)
    T = 1.3 / coupling_strength(m)
    for start, stop, count in ((0.0, T, 1), (0.4, T, 2), (0.0, 0.9, 1), (0.0, 40 * T, 1)):
        calls.clear()
        evolve(m, psi0, np.linspace(start, stop, 51), 12)
        assert len(calls) == count, (start, stop, calls)
        want = [step_side(m, 12, (stop - start) / 50, 50)]
        if start:
            want.append(step_side(m, 12, start, 1))
        assert calls == want, (start, stop, calls)
    # ||g|| h = 0.026 keeps orders 0..8 of the step; at 1.04 it keeps all 13
    assert step_side(m, 12, T / 50, 50) == 9 * 8
    assert step_side(m, 12, 40 * T / 50, 50) == 13 * 8


def test_step_order_rule(rng, expm_sides):
    # the least order whose tail, summed over the walk's steps, is under one
    # rounding unit: 0 without coupling, L for a long step, never above L
    for L in range(MAX_AUTO_ORDER + 1):
        for uses in (1, 50, 10**6):
            assert propagator._step_order(0.0, L, uses) == 0
            for x in np.geomspace(1e-8, 100.0, 41):
                k = propagator._step_order(float(x), L, uses)
                assert 0 <= k <= L
                if k < L:
                    assert uses * _tail_bound(x, k) < 2.0**-53
                if k > 0:
                    assert uses * _tail_bound(x, k - 1) >= 2.0**-53
    calls = expm_sides
    model = random_offdiag_model(rng, 6, min_gap=0.05)
    m = redivide(model)
    free = redivide(
        SplitHamiltonian(
            energies=model.energies, perturbation=np.zeros_like(model.perturbation)
        )
    )
    evolve(free, basis_state(6, 0), np.linspace(0.3, 5.0, 51), 12)
    assert calls == [6, 6]
    calls.clear()
    evolve(m, basis_state(6, 0), [0.0, 4.0 / coupling_strength(m)], 12)
    assert calls == [13 * 6]


def full_order_walk(m, psi0, times, L):
    """evolve's amplitudes with every exponential on all orders 0..L.

    Each step and off-grid time is scipy.linalg.expm of the whole block
    generator of side (L+1) D.
    """
    A = propagator._generator(m.shifted_energies, m.offdiagonal, L)
    w = np.repeat(psi0.amplitudes, L + 1)

    def advance(v, dt):
        return v if dt == 0 else scipy.linalg.expm(dt * A) @ v

    n = times.size
    h = (times[-1] - times[0]) / (n - 1)
    step = scipy.linalg.expm(h * A)
    v = advance(w, times[0])
    grid = np.linspace(times[0], times[-1], n)
    amps = np.empty((n, m.dim), dtype=complex)
    for k, t in enumerate(times):
        if k:
            v = step @ v
        amps[k] = (w if t == 0 else advance(v, t - grid[k]))[:: L + 1]
    return amps


@pytest.mark.parametrize("seed", range(6))
def test_evolve_at_grid_shapes_matches_the_full_order_walk(seed):
    # the grid workload's shapes: D 6-10, L 10-15, x = ||g|| t_stop on
    # [0.5, 1.4], 51 times; even seeds put the first and last levels 1e-9
    # apart, seeds 1, 2, 4 and 5 start off 0, and every grid has one time
    # off its linspace point
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([6, 8, 10]))
    L = int(rng.integers(10, 16))
    levels = rng.uniform(0.0, 3.0, size=dim)
    if seed % 2 == 0:
        levels[-1] = levels[0] + 1e-9
    h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h1 = (h1 + h1.conj().T) / 4.0
    np.fill_diagonal(h1, 0.0)
    m = redivide(SplitHamiltonian(energies=levels, perturbation=h1))
    t_stop = rng.uniform(0.5, 1.4) / coupling_strength(m)
    t0 = 0.0 if seed % 3 == 0 else rng.uniform(0.1, 0.5) * t_stop
    times = np.linspace(t0, t_stop, 51)
    off = int(rng.integers(1, 50))
    times[off] += 0.4 * (t_stop - t0) / 50
    psi0 = basis_state(dim, 0)
    res = evolve(m, psi0, times, L)
    want = full_order_walk(m, psi0, times, L)
    assert np.max(np.abs(res.amplitudes - want)) <= 1e-14
    for k in (0, off, 50):
        exact = mp_propagator(m.total(), times[k])[:, 0]
        err = np.linalg.norm(res.amplitudes[k] - exact)
        assert err <= res.tail_bounds[k] + 1e-14, (k, err, res.tail_bounds[k])


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
    # D = 512 exponential itself out of the test
    shapes = []

    def fake_top_row(energies, coupling, L, t):
        shapes.append((L, energies.size))
        return np.zeros((L + 1, energies.size, energies.size), dtype=complex)

    monkeypatch.setattr(propagator, "_algebra_top_row", fake_top_row)
    m = redivide(random_offdiag_model(rng, 512, min_gap=0.0))
    assert series_term(m, 3, 0.5).matrix.shape == (512, 512)
    assert shapes == [(3, 512)]
    m = redivide(random_offdiag_model(rng, 513, min_gap=0.0))
    with pytest.raises(BudgetExceededError) as exc:
        series_term(m, 3, 0.5)
    assert "2052" in str(exc.value)
    assert shapes == [(3, 512)]


def test_coupling_strength_is_exact(rng):
    m = redivide(random_offdiag_model(rng, 48, min_gap=0.0))
    want = np.linalg.svd(m.offdiagonal, compute_uv=False)[0]
    assert abs(coupling_strength(m) - want) <= 1e-13 * want


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -float("inf")])
def test_auto_order_rejects_a_non_finite_time(t_max):
    m = redivide(TwoStateExact(0.0, 1.0, 0.1).to_split_hamiltonian())
    with pytest.raises(ValueError, match="^t_max must be finite$"):
        auto_order(m, t_max, 1e-10)


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
    # at x = 1000 the bound's logarithm passes the float range: the bound is
    # inf, which still holds, and auto_order reports it at the cap
    assert truncated_propagator(m, 3, 1000.0 / g).tail_bound == np.inf
    with pytest.raises(ValueError, match=f"order {MAX_AUTO_ORDER} is inf$"):
        auto_order(m, 1000.0 / g, tol)


def close_pair_model(rng):
    """A model whose first and last levels are 1e-12 to 1e-9 apart, and a t.

    D is one of 2, 3, 4, 6, the other levels lie on [0, 3], the coupling is
    random Hermitian with ||g||_max = 0.3, and t lies on [2, 3].
    """
    dim = int(rng.choice([2, 3, 4, 6]))
    levels = rng.uniform(0.0, 3.0, size=dim)
    levels[-1] = levels[0] + 10.0 ** rng.uniform(-12.0, -9.0)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2.0
    np.fill_diagonal(h, 0.0)
    h *= 0.3 / np.max(np.abs(h))
    m = redivide(SplitHamiltonian(energies=levels, perturbation=h))
    return m, float(rng.uniform(2.0, 3.0))


@pytest.mark.parametrize("seed", range(6))
def test_close_first_and_last_levels_stay_within_the_tail_bound(seed):
    # laid out block by block, the generator is triangular, and scipy's
    # triangular squaring takes a cancelling difference quotient of exp
    # between the last level of one order and the first of the next
    rng = np.random.default_rng(seed)
    for _ in range(5):
        m, t = close_pair_model(rng)
        want = mp_propagator(m.total(), t)
        P = truncated_propagator(m, 14, t)
        slack = P.tail_bound + 1e-14
        assert np.linalg.norm(P.matrix - want, 2) <= slack, (m.dim, t)
        for level in (0, m.dim - 1):
            amps = evolve(m, basis_state(m.dim, level), [t], 14).amplitudes[0]
            assert np.linalg.norm(amps - want[:, level]) <= slack, (m.dim, t, level)


def test_dense_top_row_has_the_algebra_shape(rng):
    # both engines return E_0..E_L as one (L+1, D, D) array
    m = redivide(random_offdiag_model(rng, 5, min_gap=0.05))
    e, g = m.shifted_energies, m.offdiagonal
    dense = propagator._block_top_row(e, g, 6, 1.7)
    algebra = propagator._algebra_top_row(e, g, 6, 1.7)
    assert dense.shape == algebra.shape == (7, 5, 5)
    for k in range(7):
        assert np.linalg.norm(dense[k] - algebra[k]) <= 1e-13 * np.linalg.norm(dense[k])
