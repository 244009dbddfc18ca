import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divexp import (
    NodeList,
    SingularNodesError,
    binomial_expansion_tail,
    c_closed,
    c_recurrence,
    dd_exp,
    denominators,
)
from divexp.coeff import _EPS, dd_exp_batch


def brute_force_power_sum(nodes, n):
    """Direct multi-index evaluation of the power-sum coefficient definition."""
    l = len(nodes) - 1
    total = 0.0
    for ks in itertools.product(range(n - l + 1), repeat=l):
        rest = n - l - sum(ks)
        if rest < 0:
            continue
        term = 1.0
        for x, k in zip(nodes[:-1], ks):
            term *= x**k
        total += term * nodes[-1] ** rest
    return total


def random_nodes(rng, l, min_gap=0.05):
    while True:
        x = rng.uniform(-1.0, 1.0, size=l + 1)
        if np.min(np.abs(x[:, None] - x[None, :]) + np.eye(l + 1)) >= min_gap:
            return x


def test_denominators_worked_examples():
    assert np.allclose(denominators(NodeList((2.0, 1.0))), [1.0, 1.0])
    assert np.allclose(denominators(NodeList((3.0, 2.0, 1.0))), [2.0, 1.0, 2.0])


def test_denominators_coincident_error():
    with pytest.raises(SingularNodesError):
        denominators(NodeList((0.7, 0.7)))
    with pytest.raises(SingularNodesError):
        c_closed(NodeList((0.7, 0.7)), 3)
    with pytest.raises(SingularNodesError):
        c_recurrence(NodeList((0.7, 0.7)), 3)


def test_power_sum_worked_examples():
    nl = NodeList((2.0, 1.0))
    assert c_closed(nl, 3) == pytest.approx(7.0, abs=1e-12)
    assert c_recurrence(nl, 3) == pytest.approx(7.0, abs=1e-12)
    assert brute_force_power_sum((2.0, 1.0), 3) == pytest.approx(7.0)

    nl3 = NodeList((3.0, 2.0, 1.0))
    assert c_closed(nl3, 2) == pytest.approx(1.0, abs=1e-12)
    assert c_closed(nl3, 1) == pytest.approx(0.0, abs=1e-12)
    assert c_recurrence(nl3, 2) == pytest.approx(1.0, abs=1e-12)
    assert c_recurrence(nl3, 1) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_matches_brute_force(rng):
    for _ in range(30):
        l = int(rng.integers(1, 5))
        n = int(rng.integers(l, 9))
        x = random_nodes(rng, l)
        want = brute_force_power_sum(tuple(x), n)
        assert c_closed(NodeList(tuple(x)), n) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_recurrence_consistency(rng):
    for _ in range(60):
        l = int(rng.integers(1, 9))
        n = int(rng.integers(0, 13))
        x = random_nodes(rng, l)
        a = c_closed(NodeList(tuple(x)), n)
        b = c_recurrence(NodeList(tuple(x)), n)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_difference_relations(rng):
    # first-level relation: C_1^K - x2 C_1^(K-1) = x1^(K-1)
    for _ in range(20):
        x = random_nodes(rng, 1)
        nl = NodeList(tuple(x))
        for K in range(1, 11):
            lhs = c_closed(nl, K) - x[1] * c_closed(nl, K - 1)
            assert lhs == pytest.approx(x[0] ** (K - 1), rel=1e-9, abs=1e-9)
    # general relation: C_l^K - x_{l+1} C_l^(K-1) = C_{l-1}^(K-1)
    for _ in range(20):
        l = int(rng.integers(2, 7))
        x = random_nodes(rng, l)
        nl = NodeList(tuple(x))
        sub = NodeList(tuple(x[:-1]))
        for K in range(1, 11):
            lhs = c_closed(nl, K) - x[-1] * c_closed(nl, K - 1)
            assert lhs == pytest.approx(c_closed(sub, K - 1), rel=1e-9, abs=1e-9)


def test_dd_exp_worked_examples():
    r = dd_exp(NodeList((0.4,)), 2.3)
    assert r.value == pytest.approx(np.exp(-1j * 0.4 * 2.3))

    r = dd_exp(NodeList((0.7, 0.7)), 1.5)
    assert r.confluent_flag
    assert r.value == pytest.approx(-1j * 1.5 * np.exp(-1j * 0.7 * 1.5), abs=1e-13)

    r = dd_exp(NodeList((1.0, 0.0)), np.pi)
    assert r.value == pytest.approx((np.exp(-1j * np.pi) - 1.0) / 1.0, abs=1e-13)
    assert r.value.real == pytest.approx(-2.0, abs=1e-13)


def test_dd_exp_triple_repeat():
    t = 1.3
    r = dd_exp(NodeList((0.2, 0.2, 0.2)), t)
    assert r.value == pytest.approx(((-1j * t) ** 2 / 2.0) * np.exp(-1j * 0.2 * t), abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=7),
)
def test_dd_exp_permutation_symmetry(seed, m):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=m)
    t = float(rng.uniform(-3.0, 3.0))
    base = dd_exp(NodeList(tuple(x)), t).value
    for _ in range(4):
        perm = rng.permutation(m)
        other = dd_exp(NodeList(tuple(x[perm])), t).value
        assert abs(other - base) < 1e-10


def test_dd_exp_confluent_consistency(rng):
    t = 1.9
    for eps in (1e-2, 1e-4, 1e-6):
        nodes = np.array([0.3, 0.3 + eps, -0.6])
        r = dd_exp(NodeList(tuple(nodes)), t)
        if eps >= 1e-4:
            d = [
                np.prod([nodes[i] - nodes[j] for j in range(3) if j != i])
                for i in range(3)
            ]
            naive = sum(np.exp(-1j * nodes[i] * t) / d[i] for i in range(3))
            assert abs(r.value - naive) <= max(1e-9, r.est_error)
    # smooth and finite across the confluent limit
    vals = [
        dd_exp(NodeList((0.3, 0.3 + eps, -0.6)), t).value
        for eps in (1e-6, 1e-9, 1e-12, 0.0)
    ]
    assert all(np.isfinite(v) for v in vals)
    # the node itself moved by eps, so allow the genuine O(eps * d(dd)/dx) drift
    assert abs(vals[0] - vals[-1]) < 1e-5
    assert abs(vals[2] - vals[3]) < 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_dd_exp_batch_per_row_times_match_scalar_calls(rng, m):
    # plain rows, clustered rows (gap 1e-9) and rows rerouted by their error
    # estimate (gaps 1e-4: distinct, but the alternating sum would cancel)
    plain = rng.uniform(-2.0, 2.0, size=(6, m))
    clustered = plain[:, :1] + 1e-9 * np.arange(m)
    rerouted = plain[:, :1] + 1e-4 * np.arange(m)
    nodes = np.concatenate([plain, clustered, rerouted] * 3)
    times = rng.choice([0.0, -0.0, 0.4, -1.3, 25.0], size=len(nodes))
    times[::7] = 0.0
    vals, flags, errs = dd_exp_batch(nodes, times)
    for t in np.unique(times):
        rows = times == t
        want = dd_exp_batch(nodes, float(t))
        for got, ref in zip((vals, flags, errs), want):
            assert got[rows].tobytes() == ref[rows].tobytes(), t
    if m > 1:
        still = times == 0.0
        assert np.all(vals[still] == 0) and np.all(errs[still] == 0)
        n = len(plain)
        kind = np.tile(np.repeat([0, 1, 2], n), 3)
        assert np.all(flags[kind == 1]) and not np.any(flags[kind != 1])
        # the alternating sum's estimate exceeds 1e-12 on the rerouted rows,
        # which carry the matrix exponential's eps * m^2 * 2^s instead
        diff = rerouted[:, :, None] - rerouted[:, None, :] + np.eye(m)
        assert np.all(_EPS * m * (1.0 / np.abs(diff.prod(axis=2))).sum(axis=1) > 1e-12)
        steps = np.log2(errs[(kind == 2) & ~still] / (_EPS * m * m))
        assert np.array_equal(steps, np.round(steps))


def test_binomial_expansion_base_cases(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.all(binomial_expansion_tail(A, B, 0) == 0)
    assert np.allclose(binomial_expansion_tail(A, B, 1), B)
    assert np.allclose(binomial_expansion_tail(A, B, 2), A @ B + B @ (A + B))


def test_binomial_expansion_against_power_oracle(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    want = np.linalg.matrix_power(A + B, 5) - np.linalg.matrix_power(A, 5)
    got = binomial_expansion_tail(A, B, 5)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_binomial_completeness_sweep(rng):
    for _ in range(5):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for n in range(1, 9):
            full = np.linalg.matrix_power(A + B, n)
            resid = full - np.linalg.matrix_power(A, n) - binomial_expansion_tail(A, B, n)
            assert np.linalg.norm(resid) / np.linalg.norm(full) < 1e-10


def test_binomial_caps():
    big = np.zeros((9, 9))
    with pytest.raises(ValueError):
        binomial_expansion_tail(big, big, 2)
    small = np.zeros((2, 2))
    with pytest.raises(ValueError):
        binomial_expansion_tail(small, small, 11)
    with pytest.raises(ValueError):
        binomial_expansion_tail(np.zeros((2, 2)), np.zeros((3, 3)), 2)
