import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divexp import (
    NodeList,
    SingularNodesError,
    c_closed,
    dd_exp,
    denominators,
)
from divexp.coeff import (
    _EPS,
    CLUSTER_RTOL,
    SERIES_RADIUS,
    SERIES_TERMS,
    _squared_series,
    dd_exp_batch,
)
from oracles import binomial_expansion_tail, c_recurrence, mp_dd_exp

#: relative accuracy stated for rows past SERIES_RADIUS, which take the
#: centred series at t / 2^s and s squarings of its table of sub-lists
FAR_RTOL = 1e-12


def series_rtol(x, t):
    """Relative accuracy stated for a row within SERIES_RADIUS.

    A few units of eps for the m + K series terms, plus the condition of the
    phase: the argument x t of exp(-i x t) is itself rounded.
    """
    return 4 * _EPS * (len(x) + abs(t) * np.max(np.abs(x)))


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
    st.sampled_from(["spread", "repeat", "close pair"]),
    st.sampled_from([3.0, 30.0]),
)
def test_dd_exp_permutation_symmetry(seed, m, shape, t_max):
    # value, flag and bound are bitwise functions of the node multiset and t,
    # within the radius (|t| <= 3 mostly) and past it (|t| up to 30)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=m)
    if shape == "repeat":
        x[-1] = x[0]
    elif shape == "close pair":
        x[-1] = x[0] + 1e-9
    t = float(rng.uniform(-t_max, t_max))
    vals, flags, errs = dd_exp_batch(x[list(itertools.permutations(range(m)))], t)
    assert np.all(vals == vals[0]) and np.all(errs == errs[0]) and np.all(flags == flags[0])


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
def test_dd_exp_batch_at_time_zero(rng, m):
    # plain rows, clustered rows (gap 1e-9) and rows with gaps 1e-4: distinct,
    # but the closed form sum_i f(x_i) / prod_{j != i} (x_i - x_j) would cancel
    plain = rng.uniform(-2.0, 2.0, size=(6, m))
    clustered = plain[:, :1] + 1e-9 * np.arange(m)
    rerouted = plain[:, :1] + 1e-4 * np.arange(m)
    nodes = np.concatenate([plain, clustered, rerouted])
    kind = np.repeat([0, 1, 2], len(plain))
    for t in (0.0, -0.0):
        vals, flags, errs = dd_exp_batch(nodes, t)
        if m == 1:
            assert np.all(vals == 1) and np.all(errs == _EPS) and not np.any(flags)
        else:
            # the divided difference of a constant
            assert np.all(vals == 0) and np.all(errs == 0)
            assert np.array_equal(flags, kind == 1)
    if m > 1:
        vals, flags, errs = dd_exp_batch(nodes, 25.0)
        assert np.array_equal(flags, kind == 1)
        # the closed form's rounding estimate exceeds 1e-12 on the 1e-4 rows;
        # they lie within SERIES_RADIUS at t = 25 and take the series, which
        # holds them to the stated tolerance and to their own error bound
        diff = rerouted[:, :, None] - rerouted[:, None, :] + np.eye(m)
        assert np.all(_EPS * m * (1.0 / np.abs(diff.prod(axis=2))).sum(axis=1) > 1e-12)
        for x, v, e in zip(rerouted, vals[kind == 2], errs[kind == 2]):
            want = mp_dd_exp(x, 25.0)
            assert abs(v - want) <= min(e, series_rtol(x, 25.0) * abs(want))


def test_one_node_bound_covers_the_phase_error():
    # exp(-i x t) at |x t| ~ 1.5e4: the rounded product x t alone moves the
    # value by ~1e-13, far past eps, and the bound eps (1 + |x t|) holds it
    x, t = 0.1234567891234, 123456.789
    vals, flags, errs = dd_exp_batch(np.array([[x]]), t)
    err = abs(vals[0] - mp_dd_exp([x], t))
    assert err > 1e-14 and not flags[0]
    assert err <= errs[0] == _EPS * (1.0 + abs(x * t))


def test_nodes_near_the_float_range_stay_within_their_bounds():
    # midpoints, spreads and gaps of such nodes overflow unless taken from
    # halved nodes; same-sign and opposite-sign rows, within the radius and
    # past it, and a repeated node.  The random rows at t in [1e-318, 1e-305]
    # have subnormal values, which a bound relative to the value alone would
    # round to 0
    rows = [
        ([1e308, 1e308], 1e-300),
        ([1.6e308, 1.7e308], 1e-307),
        ([-1.7e308, -1.6e308], 1e-300),
        ([-1e308, 1e308], 1e-308),
        ([-1.7e308, 1.7e308], 1e-300),
        ([-3.1e301, -8.2e300], 3.9e-309),
        # no digit left: a phase mu t or x t that overflows, and a cap
        # |t|^(m-1) / (m-1)! that underflows; each returns 0 within the cap
        ([1e308, 1e308], 10.0),
        ([1e308], 10.0),
        ([1e300], 1e10),
        ([-1e300, 0.0, 1.0, 1e300], 1e-160),
        ([0.0, 1.0, 2.0], 1e-200),
    ]
    rng = np.random.default_rng(1)
    nodes = 1e308 * rng.uniform(-1.0, 1.0, size=(300, 2))
    rows += zip(nodes.tolist(), 10 ** rng.uniform(-318.0, -305.0, size=300))
    for x, t in rows:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = dd_exp(NodeList(tuple(x)), t)
        # the phase x t needs its digits before the point on top of 40:
        # e^(-i 1e309) needs more than 310
        digits = math.log10(abs(t)) + math.log10(max(1.0, *map(abs, x)))
        want = mp_dd_exp(x, t, dps=40 + max(0, math.ceil(digits)))
        # f[x] is not 0 at t != 0, so a bound of 0 would not hold
        assert 0.0 < r.est_error and abs(r.value - want) <= r.est_error, (x, t)


finite_nodes = st.floats(min_value=-1.7e308, max_value=1.7e308)


@st.composite
def node_rows(draw):
    """One to six nodes anywhere in the float range, each past the first a
    new node, a repeat of an earlier one or that one plus 1e-9."""
    size = draw(st.integers(min_value=1, max_value=6))
    x = [draw(finite_nodes)]
    while len(x) < size:
        base = x[draw(st.integers(min_value=0, max_value=len(x) - 1))]
        x.append(draw(st.one_of(finite_nodes, st.just(base), st.just(base + 1e-9))))
    return x


@settings(max_examples=150, deadline=None)
@given(
    node_rows(),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-320, max_value=1e300),
        st.floats(min_value=-1e300, max_value=-1e-320),
    ),
)
# the probes of test_nodes_near_the_float_range_stay_within_their_bounds
# that returned nan, and a prefactor (-i t)^(m-1) that overflows
@example([1e308, 1e308], 10.0)
@example([1e308], 10.0)
@example([0.0, 0.0, 0.0], 1e200)
def test_every_finite_row_is_finite_and_bounded(x, t):
    # |f[x]| <= |t|^(m-1) / (m-1)! (Hermite-Genocchi), so a value within
    # its bound never exceeds that cap by more than the bound
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, _, errs = dd_exp_batch(np.array([x]), t)
    m = len(x)
    if t and (m - 1) * math.log10(abs(t)) > 300:
        cap = math.inf
    else:
        cap = abs(t) ** (m - 1) / math.factorial(m - 1)
    assert np.isfinite(vals[0]) and errs[0] >= 0.0, (x, t)
    assert abs(vals[0]) <= cap * (1 + 4 * _EPS) + errs[0], (x, t)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_rows_far_past_the_radius_keep_a_finite_bound(m):
    # past rho ~ 1e17 the squared table's bound overflows, and then the
    # table itself; such a row falls back on |f[x]| <= |t|^(m-1) / (m-1)!,
    # which is inf only where that overflows
    x = np.arange(m, dtype=float)
    for t in (1e16, 1.5e17, 1e150, -1e150):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = dd_exp(NodeList(tuple(x)), t)
        assert r.est_error >= 0.0
        assert abs(r.value - mp_dd_exp(x, t, dps=200)) <= r.est_error, (m, t)
        if (m - 1) * math.log10(abs(t)) < 300:  # |t|^(m-1) / (m-1)! is finite
            assert math.isfinite(r.est_error), (m, t)


def test_cluster_flags_match_a_per_row_gap_test(rng):
    # the flag is min gap <= CLUSTER_RTOL max(1, max |x|), row by row
    nodes = rng.uniform(-5.0, 5.0, size=(300, 4))
    nodes[::3, 2] = nodes[::3, 1] + rng.uniform(0.0, 2e-6, size=100) * 5.0
    _, flags, _ = dd_exp_batch(nodes, 0.7)
    for x, flag in zip(nodes, flags):
        srt = np.sort(x)
        want = np.min(np.diff(srt)) <= CLUSTER_RTOL * max(np.max(np.abs(x)), 1.0)
        assert flag == want
    assert 0 < flags.sum() < len(flags)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dd_exp_batch_rejects_non_finite_input(bad):
    # also where the result would not need the bad value: one node, t = 0
    for nodes, t in (([[bad, 1.0]], 1.0), ([[bad]], 1.0), ([[0.0, 1.0], [bad, bad]], 0.0)):
        with pytest.raises(ValueError, match="^nodes must be finite$"):
            dd_exp_batch(np.array(nodes), t)
    with pytest.raises(ValueError, match="^t must be finite$"):
        dd_exp_batch(np.array([[0.0, 1.0]]), bad)


def _node_sets(rng, m):
    """Four m-node sets on [-1, 1]: spread out, with a pair 1e-9..1e-3
    apart, with an exact repeat, and all within 1e-9..1e-1 of one node."""
    nodes = rng.uniform(-1.0, 1.0, size=(4, m))
    j = int(rng.integers(1, m))
    nodes[1, j] = nodes[1, j - 1] + 10 ** rng.uniform(-9, -3)
    nodes[2, j] = nodes[2, j - 1]
    nodes[3] = nodes[3, 0] + 10 ** rng.uniform(-9, -1) * rng.uniform(-1, 1, m)
    return nodes


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
# past SERIES_RADIUS on three rows each, spread out, with a 1e-9..1e-3 pair
# and with a repeat, which all take the squared series: three nodes at
# t = 34.3 and seven at t = 21.0
@example(14, 3)
@example(0, 7)
def test_dd_exp_batch_matches_mpmath(seed, m):
    rng = np.random.default_rng(seed)
    nodes = _node_sets(rng, m)
    # |t| from 1e-4 to 50, so rho = |t| (max x - min x) / 2 runs from below
    # 1e-4 to about 50, past SERIES_RADIUS
    t = float(10 ** rng.uniform(-4.0, math.log10(50.0))) * rng.choice([-1.0, 1.0])
    vals, _, errs = dd_exp_batch(nodes, t)
    rho = abs(t) * np.ptp(nodes, axis=1) / 2
    for x, v, e, r in zip(nodes, vals, errs, rho):
        want = mp_dd_exp(x, t)
        err = abs(v - want)
        assert err <= e
        rtol = series_rtol(x, t) if r <= SERIES_RADIUS else FAR_RTOL
        assert err <= rtol * abs(want), (x.tolist(), t)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
def test_dd_exp_batch_far_rows_within_their_bounds(seed, m):
    # |t| from 50 to 1e3, so rho reaches ~1e3 and the squared series up to
    # nine squarings, on every kind of node set
    rng = np.random.default_rng(seed)
    nodes = _node_sets(rng, m)
    t = float(10 ** rng.uniform(math.log10(50.0), 3.0)) * rng.choice([-1.0, 1.0])
    vals, _, errs = dd_exp_batch(nodes, t)
    for x, v, e in zip(nodes, vals, errs):
        assert abs(v - mp_dd_exp(x, t)) <= e, (x.tolist(), t)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=8))
# three nodes at t = 67.5: rows a closed form over the denominators holds
# to 1e-12 of the value
@example(1, 3)
def test_spread_rows_past_the_radius_take_the_squared_series(seed, m):
    # distinct nodes at least 0.05 apart with rho in (2, 1e3], where a closed
    # form over the denominators would not cancel: one route past the radius
    # all the same, and each row within its bound
    rng = np.random.default_rng(seed)
    t = float(10 ** rng.uniform(math.log10(4.0), 3.0)) * rng.choice([-1.0, 1.0])
    rows = []
    while len(rows) < 6:
        x = random_nodes(rng, m - 1)
        if abs(t) * np.ptp(x) / 2 > SERIES_RADIUS:
            rows.append(x)
    nodes = np.array(rows)
    srt = np.sort(nodes, axis=1)
    rho = abs(t) * (srt[:, -1] - srt[:, 0]) / 2
    vals, flags, errs = dd_exp_batch(nodes, t)
    want_vals, want_errs = _squared_series(srt, t, rho)
    assert not np.any(flags)
    assert np.array_equal(vals, want_vals) and np.array_equal(errs, want_errs)
    for x, v, e in zip(nodes, vals, errs):
        assert abs(v - mp_dd_exp(x, t)) <= e, (x.tolist(), t)


def test_series_radius_follows_from_the_cancellation_bound(rng):
    # the relative error of the series is eps (m + K) kappa(rho); the radius
    # is the largest multiple of 1/2 with kappa <= 32
    def kappa(r):
        return r * math.exp(r) / (math.sin(r) * math.cos(r / 2))

    assert kappa(SERIES_RADIUS) <= 32 < kappa(SERIES_RADIUS + 0.5)
    # the bound under kappa: |f[x]| (m-1)! / |t|^(m-1) >= sin(rho) / rho cos(rho/2),
    # checked at rho = SERIES_RADIUS on node sets spread out, split between
    # the two ends, and bunched at 0
    r = t = SERIES_RADIUS
    for m in range(2, 9):
        nodes = np.concatenate(
            [
                rng.uniform(-1.0, 1.0, size=(50, m)),
                np.where(rng.uniform(size=(50, m)) < 0.5, -1.0, 1.0),
                rng.uniform(-1.0, 1.0, size=(50, m)) ** 9,
            ]
        )
        nodes[:, :2] = [-1.0, 1.0]  # max x - min x = 2, so rho = t
        vals, _, _ = dd_exp_batch(nodes, t)
        scaled = np.abs(vals) * math.factorial(m - 1) / t ** (m - 1)
        assert np.all(scaled >= math.sin(r) / r * math.cos(r / 2))


def test_series_terms_leave_a_remainder_under_eps_at_the_radius():
    # the k-th term of the centred series is at most rho^k / k!; the terms
    # past SERIES_TERMS sum to at most rho^(K+1) / (K+1)! (K+2) / (K+2-rho),
    # 0.011 eps at the radius, and K is the least count whose last term is
    # below eps there
    import mpmath

    r, K = SERIES_RADIUS, SERIES_TERMS
    stated = r ** (K + 1) / math.factorial(K + 1) * (K + 2) / (K + 2 - r)
    with mpmath.workdps(50):
        kept = mpmath.fsum(mpmath.mpf(r) ** k / mpmath.factorial(k) for k in range(K + 1))
        assert 0 < mpmath.exp(r) - kept <= stated <= 0.011 * _EPS
    assert r**K / math.factorial(K) < _EPS <= r ** (K - 1) / math.factorial(K - 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_rows_give_the_same_bits_alone_as_in_any_batch(rng, m):
    # a row's value and bound are functions of its own nodes and t: rows
    # spread over a width 2 and rows within 1e-3 of one centre, some with a
    # repeated node, each alone and in random batches of the others, near
    # the series at t = +-1 and past the radius (the spread rows) at +-30
    base = rng.uniform(-1.5, 1.5, size=(40, 1))
    width = np.where(np.arange(40) % 2 == 0, 1.0, 1e-3)[:, None]
    nodes = base + width * rng.uniform(-1.0, 1.0, size=(40, m))
    if m > 2:
        nodes[::3, -1] = nodes[::3, 0]
    for t in (1.0, -1.0, 30.0, -30.0):
        alone = [dd_exp_batch(row[None, :], t) for row in nodes]
        vals = np.array([v[0] for v, _, _ in alone])
        errs = np.array([e[0] for _, _, e in alone])
        for size in (2, 7, 40):
            pick = rng.permutation(40)[:size]
            got_vals, _, got_errs = dd_exp_batch(nodes[pick], t)
            assert np.array_equal(got_vals, vals[pick]), (m, t, size)
            assert np.array_equal(got_errs, errs[pick]), (m, t, size)


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
