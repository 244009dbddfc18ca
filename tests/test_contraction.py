import functools
import hashlib
import math

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
    SplitHamiltonian,
    TwoStateExact,
    basis_state,
    dump_model,
    enumerate_patterns,
    evolve,
    extract_secular_coefficients,
    mixed_second_order_pieces,
    redivide,
    revision_energies,
    second_order_pieces,
    secular_aggregate_coefficients,
    secular_aggregates,
    series_term,
    third_order_pieces,
)
from divexp import cli, coeff, contraction, improved, propagator
from divexp.contraction import _third_order_contractions, pattern_piece_matrix
from divexp.propagator import _tuple_sum, series_order_matrix
from oracles import (
    mp_distinct_tuple_sum,
    oracle_block_order,
    redivided_closed_form_order2,
)

EXPECTED_COUNTS = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_pattern_counts():
    for l, want in EXPECTED_COUNTS.items():
        assert len(enumerate_patterns(l)) == want
    with pytest.raises(ValueError):
        enumerate_patterns(1)
    with pytest.raises(ValueError):
        enumerate_patterns(7)


def test_pattern_labels_low_orders():
    assert [str(p) for p in enumerate_patterns(2)] == ["c", "n"]
    assert [str(p) for p in enumerate_patterns(3)] == ["cc", "cn", "nc", "nn,c", "nn,n"]
    assert [str(p) for p in enumerate_patterns(4)] == [
        "ccc", "ccn", "cnc", "cnn,kc", "cnn,kn", "ncc", "ncn,c", "ncn,n",
        "nnc,ck", "nnc,nk", "nnn,cc", "nnn,cn", "nnn,nc", "nnn,nn,c", "nnn,nn,n",
    ]


#: sha256[:16] of repr([(groups, classes, ne_pairs), ...]) in enumeration order
PATTERN_DIGESTS = {
    2: "0bb793517c44fe54",
    3: "37a05e833d3a811a",
    4: "e41955d58d3c8d65",
    5: "f29e2798d8e99190",
    6: "823ca5f23d5a9ac2",
}


@pytest.mark.parametrize("l", sorted(PATTERN_DIGESTS))
def test_pattern_digests(l):
    # every stage string, class and unequal pair, in order, as first enumerated
    text = repr([(p.groups, p.classes, p.ne_pairs) for p in enumerate_patterns(l)])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PATTERN_DIGESTS[l]


@pytest.mark.parametrize("l", sorted(EXPECTED_COUNTS))
def test_pattern_classes_are_the_partitions_with_adjacent_positions_apart(l):
    partitions = []
    for p in enumerate_patterns(l):
        assert sorted(i for c in p.classes for i in c) == list(range(l + 1))
        assert all(list(c) == sorted(c) for c in p.classes)
        assert not any(i + 1 in c for c in p.classes for i in c)
        # the unequal pairs join two different classes
        class_of = {i: k for k, c in enumerate(p.classes) for i in c}
        assert all(class_of[a] != class_of[b] for a, b in p.ne_pairs)
        partitions.append(frozenset(map(frozenset, p.classes)))
    assert len(set(partitions)) == len(partitions) == _bell(l)


def _bell(n):
    # Bell triangle: row k starts with the last entry of row k - 1
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def test_pieces_vanish_at_zero_coupling():
    m = redivide(
        SplitHamiltonian(energies=[0.0, 1.0, 2.1], perturbation=np.zeros((3, 3)))
    )
    for piece in (*second_order_pieces(m, 1.3), *third_order_pieces(m, 1.3)):
        assert np.all(piece.matrix == 0)


def test_second_order_pieces_sum(rng):
    m = redivide(random_offdiag_model(rng, 4))
    t = 0.9
    c_piece, n_piece = second_order_pieces(m, t)
    assert c_piece.diag_class == "D" and c_piece.time_class == "te"
    assert n_piece.diag_class == "N" and n_piece.time_class == "e"
    total = c_piece.matrix + n_piece.matrix
    term = tuples_term(m, 2, t)
    assert np.linalg.norm(total - term) / np.linalg.norm(term) < 1e-10


def test_second_order_two_state_anticontraction_vanishes():
    m = redivide(TwoStateExact(0.0, 1.0, 0.1).to_split_hamiltonian())
    t = 1.2
    c_piece, n_piece = second_order_pieces(m, t)
    # no third level exists, so every anti-contracted path dies
    assert np.all(n_piece.matrix == 0)
    term = series_term(m, 2, t).matrix
    assert np.linalg.norm(c_piece.matrix - term) < 1e-12


def test_third_order_pieces_sum(rng):
    for dim in (3, 5):
        m = redivide(random_offdiag_model(rng, dim))
        t = 0.7
        pieces = third_order_pieces(m, t)
        assert [p.label for p in pieces] == ["cc", "cn", "nc", "nn,c", "nn,n"]
        total = sum(p.matrix for p in pieces)
        term = tuples_term(m, 3, t)
        assert np.linalg.norm(total - term) / np.linalg.norm(term) < 1e-10


def test_third_order_cc_closed_form(rng):
    # anchor one piece to its explicit closed form
    m = redivide(random_offdiag_model(rng, 4))
    e, g = m.shifted_energies, m.offdiagonal
    t = 0.8
    cc = third_order_pieces(m, t)[0].matrix
    want = np.zeros_like(cc)
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            d = e[a] - e[b]
            ea, eb = np.exp(-1j * e[a] * t), np.exp(-1j * e[b] * t)
            bracket = (
                -2.0 * ea / d**3
                + 2.0 * eb / d**3
                + (-1j * t) * ea / d**2
                + (-1j * t) * eb / d**2
            )
            want[a, b] = bracket * abs(g[a, b]) ** 2 * g[a, b]
    assert np.max(np.abs(cc - want)) < 1e-12


def test_piece_sums_near_degenerate(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2.0
    np.fill_diagonal(h, 0.0)
    h *= 0.3
    t = 1.3
    # 1e-9 is the level gap of the benchmark's near-degenerate decompose models
    for gap in (1e-4, 1e-9):
        model = SplitHamiltonian(energies=[0.0, gap, 1.1, 2.4], perturbation=h)
        m = redivide(model)
        for l, pieces in ((2, second_order_pieces(m, t)), (3, third_order_pieces(m, t))):
            total = sum(p.matrix for p in pieces)
            for term in (tuples_term(m, l, t), oracle_block_order(m, l, t)):
                assert np.linalg.norm(total - term) / np.linalg.norm(term) < 1e-10
            # individual pieces stay finite even with the tiny gap
            assert all(np.all(np.isfinite(p.matrix)) for p in pieces)


@functools.cache
def _all_distinct_piece_at_60_digits():
    """A decompose-benchmark model, t = 0.37 and its nn,n piece to 60 digits.

    D = 12 levels on [0, 3] at least 0.5 / D apart, one pair moved to 1e-9
    apart, a Hermitian perturbation of largest entry 0.3 whose diagonal the
    levels absorb.
    """
    rng = np.random.default_rng(702)
    dim = 12
    while True:
        levels = np.sort(rng.uniform(0.0, 3.0, size=dim))
        if np.min(np.diff(levels)) >= 0.5 / dim:
            break
    j = int(rng.integers(1, dim))
    levels[j] = levels[j - 1] + 1e-9
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2.0
    h *= 0.3 / np.max(np.abs(h))
    m = redivide(SplitHamiltonian(energies=levels - np.diag(h).real, perturbation=h))
    t = 0.37
    # nn,n: the four tuple indices are pairwise distinct
    return m, t, mp_distinct_tuple_sum(m.shifted_energies, m.offdiagonal, 3, t)


def test_all_distinct_piece_matches_a_60_digit_tuple_sum():
    m, t, want = _all_distinct_piece_at_60_digits()
    (pattern,) = [p for p in enumerate_patterns(3) if str(p) == "nn,n"]
    got = pattern_piece_matrix(m.shifted_energies, m.offdiagonal, pattern, t)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_derived_all_distinct_piece_matches_a_60_digit_tuple_sum():
    # derived from the term, nn,n is accurate on the term's scale
    m, t, want = _all_distinct_piece_at_60_digits()
    nnn = third_order_pieces(m, t)[4]
    assert nnn.label == "nn,n"
    term = series_order_matrix(m.shifted_energies, m.offdiagonal, 3, t)
    assert np.max(np.abs(nnn.matrix - want)) <= 1e-14 * np.max(np.abs(term))


@pytest.mark.parametrize("shape", ["dense", "chain", "sparse", "star"])
def test_derived_pieces_match_their_tuple_sums(rng, shape):
    # every piece the decomposition takes from the term agrees with the
    # direct tuple sum of its pattern, on the term's scale, and is exactly
    # zero wherever that sum is
    for dim in (*range(2, 9), 12, 20):
        for pair in (False, True):
            levels = np.sort(rng.uniform(0.0, 3.0, size=dim))
            if pair:
                levels[1] = levels[0] + 1e-9
            h = random_coupling(rng, dim, shape)
            m = redivide(SplitHamiltonian(energies=levels, perturbation=h))
            e, g, t = m.shifted_energies, m.offdiagonal, 1.0
            for l, pieces in ((2, second_order_pieces(m, t)), (3, third_order_pieces(m, t))):
                scale = np.max(np.abs(series_order_matrix(e, g, l, t)))
                for piece, pattern in zip(pieces, enumerate_patterns(l)):
                    assert piece.pattern == pattern and piece.label == str(pattern)
                    want = pattern_piece_matrix(e, g, pattern, t)
                    where = (shape, dim, pair, piece.label)
                    assert np.max(np.abs(piece.matrix - want)) <= 1e-14 * scale, where
                    assert np.all(piece.matrix[want == 0] == 0), where


def _level_pair_model(rng, dim, shape, pair):
    levels = np.sort(rng.uniform(0.0, 3.0, size=dim))
    if pair:
        levels[1] = levels[0] + 1e-9
    m = redivide(
        SplitHamiltonian(energies=levels, perturbation=random_coupling(rng, dim, shape))
    )
    return m.shifted_energies, m.offdiagonal


def _count_table_calls(monkeypatch):
    """The row count of every dd_exp_batch call contraction makes, as a list."""
    calls = []
    real = contraction.dd_exp_batch

    def counting(nodes, t):
        calls.append(len(nodes))
        return real(nodes, t)

    monkeypatch.setattr(contraction, "dd_exp_batch", counting)
    return calls


@pytest.mark.parametrize("shape", ["dense", "chain", "sparse", "star"])
def test_shared_table_contractions_match_their_tuple_sums(rng, shape):
    # cc, cn and nc from the one shared divided-difference table agree with
    # the direct tuple sum of each pattern on the piece's own scale, at t = 9
    # past SERIES_RADIUS too, and are exactly zero wherever that sum is
    patterns = enumerate_patterns(3)[:3]
    assert [str(p) for p in patterns] == ["cc", "cn", "nc"]
    for dim in (*range(2, 10), 12, 20):
        for pair in (False, True):
            e, g = _level_pair_model(rng, dim, shape, pair)
            for t in (1.0, 9.0):
                pieces = _third_order_contractions(e, g, t)
                for piece, pattern in zip(pieces, patterns, strict=True):
                    want = pattern_piece_matrix(e, g, pattern, t)
                    where = (shape, dim, pair, t, str(pattern))
                    err = np.max(np.abs(piece - want))
                    assert err <= 1e-14 * np.max(np.abs(want)), where
                    assert np.all(piece[want == 0] == 0), where


def test_shared_table_does_not_depend_on_its_blocks(rng, monkeypatch):
    calls = _count_table_calls(monkeypatch)
    for dim in (9, 24):
        e, g = _level_pair_model(rng, dim, "dense", True)
        for t in (1.0, 9.0):
            calls.clear()
            want = _third_order_contractions(e, g, t)
            default_calls = len(calls)
            with monkeypatch.context() as patch:
                patch.setattr(propagator, "TUPLES_PER_CALL", 37)
                calls.clear()
                got = _third_order_contractions(e, g, t)
            # one level a call at 37 rows, more than at the default
            assert len(calls) == dim > default_calls
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b), (dim, t)


def test_shared_table_calls_hold_at_most_one_level_of_rows(rng, monkeypatch):
    # past TUPLES_PER_CALL a call takes one whole level x: its C(D - 1, 2)
    # triple rows and its D - 1 - x pair rows, at most C(D, 2) rows
    calls = _count_table_calls(monkeypatch)
    dim = 100
    e, g = _level_pair_model(rng, dim, "sparse", False)
    _third_order_contractions(e, g, 1.0)
    assert math.comb(dim, 2) > propagator.TUPLES_PER_CALL
    assert max(calls) <= math.comb(dim, 2) == 4950
    assert sum(calls) == math.comb(dim, 2) + dim * math.comb(dim - 1, 2)


def _count_calls(monkeypatch):
    """(name, args) of every call of the term, a reference piece, the tuple
    sum or the divided differences, as a list."""
    calls = []

    def counting(name, real):
        def stub(*args):
            calls.append((name, args))
            return real(*args)

        return stub

    monkeypatch.setattr(
        contraction, "pattern_piece_matrix",
        counting("piece", contraction.pattern_piece_matrix),
    )
    for module in (propagator, contraction):
        monkeypatch.setattr(
            module, "series_order_matrix", counting("term", module.series_order_matrix)
        )
        monkeypatch.setattr(module, "_tuple_sum", counting("sum", module._tuple_sum))
    for module in (coeff, propagator, contraction):
        monkeypatch.setattr(
            module, "dd_exp_batch", counting("dd", module.dd_exp_batch)
        )
    return calls


def test_decompose_evaluates_the_term_once_and_no_sum_past_d_to_the_l(
    rng, tmp_path, monkeypatch
):
    calls = _count_calls(monkeypatch)
    dim = 6
    path = tmp_path / "model.json"
    path.write_bytes(dump_model(random_offdiag_model(rng, dim, min_gap=0.1)))
    # order 3: C(D, 2) pair rows f[a,a,b,b] and D C(D-1, 2) triple rows
    # f[x,x,y,z], one shared table for cc, cn and nc
    table = math.comb(dim, 2) + dim * math.comb(dim - 1, 2)
    assert table == 75
    for order, rows in ((2, []), (3, [table])):
        calls.clear()
        argv = ["decompose", "--model", str(path), "--order", str(order),
                "--out", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0
        names = [name for name, _ in calls]
        assert names.count("term") == 1
        assert names.count("piece") == names.count("sum") == 0
        assert [len(args[0]) for name, args in calls if name == "dd"] == rows


def test_tuple_sums_take_one_divided_difference_call_per_chunk(rng, monkeypatch):
    calls = []
    real = propagator.dd_exp_batch

    def counting(nodes, t):
        calls.append(len(nodes))
        return real(nodes, t)

    monkeypatch.setattr(propagator, "dd_exp_batch", counting)
    # every piece and tuple-route term here has at most 6^4 <= TUPLES_PER_CALL
    # tuple ids
    dim = 6
    m = redivide(random_offdiag_model(rng, dim, min_gap=0.1))
    e, g = m.shifted_energies, m.offdiagonal
    for pattern in enumerate_patterns(3):
        calls.clear()
        pattern_piece_matrix(e, g, pattern, 0.8)
        assert len(calls) == 1, str(pattern)
    for l in (1, 2, 3):
        calls.clear()
        _order_matrix_tuples(e, g, l, 0.8)
        # one node list per distinct node multiset: the term holds
        # D (D - 1)^l tuples with a non-zero coupling product, and tuples
        # that visit the same levels in another order share a multiset
        assert len(calls) == 1 and calls[0] < dim * (dim - 1) ** l, l
    # past TUPLES_PER_CALL ids the pass takes ceil(D^(l+1) / TUPLES_PER_CALL)
    # calls: 20^4 ids of the order-3 term at D = 20 make 40 chunks
    dim, l, t = 20, 3, 0.8
    m = redivide(random_offdiag_model(rng, dim, min_gap=0.0))
    calls.clear()
    got = _order_matrix_tuples(m.shifted_energies, m.offdiagonal, l, t)
    assert len(calls) == math.ceil(dim ** (l + 1) / propagator.TUPLES_PER_CALL) == 40
    want = oracle_block_order(m, l, t)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_pieces_do_not_depend_on_the_chunk_size(rng, monkeypatch):
    # at 37 tuple ids per chunk every order-3 sum splits its node lists over
    # other divided-difference calls than at the default; each divided
    # difference is a function of its own nodes and t, so no bit moves,
    # near the series (t = 1) and past its radius (t = 9)
    m = redivide(random_offdiag_model(rng, 9, min_gap=0.05))
    e, g = m.shifted_energies, m.offdiagonal
    cases = [(p, t) for p in enumerate_patterns(3) for t in (1.0, 9.0)]
    default = [pattern_piece_matrix(e, g, p, t) for p, t in cases]
    monkeypatch.setattr(propagator, "TUPLES_PER_CALL", 37)
    for (p, t), want in zip(cases, default, strict=True):
        assert np.array_equal(pattern_piece_matrix(e, g, p, t), want), (str(p), t)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_pieces_reject_a_non_finite_time_at_zero_coupling(t):
    # no tuple has a non-zero coupling product, and t is checked all the same
    split = SplitHamiltonian(energies=[0.0, 1.0, 2.5], perturbation=np.zeros((3, 3)))
    m = redivide(split)
    evaluations = [
        lambda: second_order_pieces(m, t),
        lambda: third_order_pieces(m, t),
        lambda: mixed_second_order_pieces(split, t),
    ] + [
        lambda p=p: pattern_piece_matrix(m.shifted_energies, m.offdiagonal, p, t)
        for p in enumerate_patterns(4)
    ]
    for evaluate in evaluations:
        with pytest.raises(ValueError, match="^t must be finite$"):
            evaluate()


_LEVELS = [0.0, 1.0, 2.5]
_G = 0.1 * (np.ones((3, 3)) - np.eye(3))
_NOT_FINITE = "^energies and coupling must be finite$"


@pytest.mark.parametrize(
    "e, g, match",
    [
        ([0.0, np.nan, 2.5], _G, _NOT_FINITE),
        ([0.0, 1.0, np.inf], np.zeros((3, 3)), _NOT_FINITE),
        (_LEVELS, np.where(np.eye(3) == 1, np.nan, _G), _NOT_FINITE),
        (_LEVELS, np.where(np.eye(3) == 1, -np.inf, _G), _NOT_FINITE),
        (_LEVELS, _G[:2, :2], r"got \(3,\) and \(2, 2\)$"),
    ],
    ids=["e-nan", "e-inf-at-zero-coupling", "g-nan", "g-neg-inf", "g-2x2-for-3-levels"],
)
def test_raw_splits_reject_input_they_cannot_evaluate(e, g, match):
    evaluations = [lambda l=l: series_order_matrix(e, g, l, 0.8) for l in (2, 6)] + [
        lambda p=p: pattern_piece_matrix(e, g, p, 0.8) for p in enumerate_patterns(3)
    ]
    for evaluate in evaluations:
        with pytest.raises(ValueError, match=match):
            evaluate()


def test_third_order_regrouping_by_class(rng):
    # grouped piece content equals the class content of the whole term
    m = redivide(random_offdiag_model(rng, 5))
    e, g = m.shifted_energies, m.offdiagonal
    t = 0.6
    pieces = third_order_pieces(m, t)
    ext_total = extract_secular_coefficients(
        lambda s: series_order_matrix(e, g, 3, s), e, max_power=1
    )
    by_class = {}
    for p in pieces:
        coef = extract_secular_coefficients(
            lambda s, pp=p.pattern: _piece_at(m, pp, s), e, max_power=1
        )
        by_class[p.label] = coef
    summed = sum(by_class.values())
    assert np.max(np.abs(summed - ext_total)) < 1e-9
    # the e-only piece (nn,n) carries no secular part
    assert np.max(np.abs(by_class["nn,n"][:, :, :, 1])) < 1e-10


def _piece_at(m, pattern, t):
    return pattern_piece_matrix(m.shifted_energies, m.offdiagonal, pattern, t)


def test_mixed_second_order_pieces(rng):
    # pure diagonal coupling: only hh survives, with the explicit secular form
    e = np.array([0.0, 1.0, 2.2])
    hdiag = np.diag([0.3, -0.2, 0.5]).astype(complex)
    model = SplitHamiltonian(energies=e, perturbation=hdiag)
    t = 1.4
    pieces = mixed_second_order_pieces(model, t)
    labels = [p.label for p in pieces]
    assert labels == ["hh", "hg", "gh", "gg"]
    hh = pieces[0].matrix
    want = np.diag(((-1j * np.diag(hdiag).real * t) ** 2 / 2.0) * np.exp(-1j * e * t))
    assert np.max(np.abs(hh - want)) < 1e-13
    for p in pieces[1:]:
        assert np.all(p.matrix == 0)

    # purely off-diagonal coupling: only gg survives
    off = random_offdiag_model(rng, 3)
    pieces = mixed_second_order_pieces(off, t)
    assert np.all(pieces[0].matrix == 0)
    assert np.all(pieces[1].matrix == 0)
    assert np.all(pieces[2].matrix == 0)
    assert np.any(pieces[3].matrix != 0)

    # general split: the four pieces sum to the raw order-2 term
    model = random_hermitian_model(rng, 3)
    pieces = mixed_second_order_pieces(model, t)
    total = sum(p.matrix for p in pieces)
    term = series_order_matrix(model.energies, model.perturbation, 2, t)
    assert np.linalg.norm(total - term) / np.linalg.norm(term) < 1e-10
    # N pattern pieces keep a zero diagonal on a coupling that carries one
    for p in enumerate_patterns(3):
        if p.diag_class == "N":
            mat = pattern_piece_matrix(model.energies, model.perturbation, p, t)
            assert np.all(np.diag(mat) == 0), str(p)

    # each piece agrees with its tuple sum over V, with the equal and unequal
    # index positions that make each factor d or g, on its own scale: full
    # Hermitian V and every sparsity shape with some d_a = 0, a 1e-9 level
    # pair or none, and t = 9, where f[a, a, b] rows run past SERIES_RADIUS
    shapes = (
        (((0, 1, 2),), ()),
        (((0, 1), (2,)), ((1, 2),)),
        (((0,), (1, 2)), ((0, 1),)),
        (((0,), (1,), (2,)), ((0, 1), (1, 2))),
    )
    far = 0
    for dim in range(1, 12):
        for kind in ("hermitian", "dense", "chain", "sparse", "star"):
            for pair in (False, True) if dim > 1 else (False,):
                if kind == "hermitian":
                    h = random_hermitian_model(rng, dim)
                    e, v = np.array(h.energies), h.perturbation
                else:
                    e = rng.uniform(0.0, 3.0, size=dim)
                    d = rng.uniform(-0.3, 0.3, size=dim) * (rng.uniform(size=dim) < 0.7)
                    v = random_coupling(rng, dim, kind) + np.diag(d)
                if pair:
                    e[1] = e[0] + 1e-9
                model = SplitHamiltonian(energies=e, perturbation=v)
                e, v = model.energies, model.perturbation
                d, g = np.diag(v), v - np.diag(np.diag(v))
                for t in (1.0, 9.0):
                    rho = t * np.abs(np.subtract.outer(e, e)) / 2.0
                    far += np.count_nonzero(rho > coeff.SERIES_RADIUS)
                    pieces = mixed_second_order_pieces(model, t)
                    for piece, (classes, ne_pairs) in zip(pieces, shapes, strict=True):
                        want = _tuple_sum(e, v, classes, ne_pairs, t)
                        where = (dim, kind, pair, t, piece.label)
                        err = np.max(np.abs(piece.matrix - want))
                        assert err <= 1e-14 * np.max(np.abs(want)), where
                        assert np.all(piece.matrix[want == 0] == 0), where
                    hh, hg, gh, _ = (p.matrix for p in pieces)
                    assert np.all(hh[d == 0] == 0) and np.all(hg[d == 0] == 0)
                    assert np.all(gh[:, d == 0] == 0)
                    assert np.all(hg[g == 0] == 0) and np.all(gh[g == 0] == 0)
    # f[a, a, b] rows past the radius take the squared series
    assert far > 0


def test_mixed_pieces_take_one_table_and_one_term_and_no_tuple_sum(rng, monkeypatch):
    calls = _count_calls(monkeypatch)
    for dim in (1, 4, 9):
        calls.clear()
        mixed_second_order_pieces(random_hermitian_model(rng, dim), 0.8)
        # D rows f[a, a, a] and D (D - 1) rows f[a, a, b]
        assert [(name, len(args[0])) for name, args in calls if name == "dd"] == [
            ("dd", dim**2)
        ]
        assert [name for name, _ in calls if name != "dd"] == ["term"]


def test_mixed_pieces_refuse_d_683_before_the_table(monkeypatch):
    # gg is the order-2 term of g, whose block side 3 D passes MAX_BLOCK_SIDE
    calls = _count_table_calls(monkeypatch)
    dim = 683
    assert 3 * dim > propagator.MAX_BLOCK_SIDE >= 3 * (dim - 1)
    split = SplitHamiltonian(
        energies=np.arange(dim, dtype=float), perturbation=np.zeros((dim, dim))
    )
    with pytest.raises(propagator.BudgetExceededError):
        mixed_second_order_pieces(split, 0.8)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^t must be finite$"):
            mixed_second_order_pieces(split, t)
    assert calls == []


def test_redivided_closed_form_order2(rng):
    # diagonal coupling: amplitudes are pure shifted phases
    e = np.array([0.0, 1.0])
    model = SplitHamiltonian(energies=e, perturbation=np.diag([0.4, -0.1]).astype(complex))
    psi0 = basis_state(2, 0)
    t = 2.0
    amps = redivided_closed_form_order2(model, t, psi0)
    assert np.allclose(amps, np.exp(-1j * (e + [0.4, -0.1]) * t) * psi0.amplitudes)

    # free Hamiltonian
    free = SplitHamiltonian(energies=e, perturbation=np.zeros((2, 2)))
    amps = redivided_closed_form_order2(free, t, psi0)
    assert np.allclose(amps, np.exp(-1j * e * t) * psi0.amplitudes)

    # random model agrees with the truncated evolution on the redivided split
    model = random_hermitian_model(rng, 3, coupling=0.3)
    psi0 = basis_state(3, 1)
    m = redivide(model)
    got = redivided_closed_form_order2(model, 0.9, psi0)
    want = evolve(m, psi0, [0.9], L=2).amplitudes[0]
    assert np.max(np.abs(got - want)) < 1e-10


def test_extraction_recovers_synthetic_coefficients(rng):
    e = np.array([0.0, 0.9, 1.7, 3.0])
    ctrue = rng.standard_normal((4, 4, 4, 3)) + 1j * rng.standard_normal((4, 4, 4, 3))

    def sample(t):
        basis = np.exp(-1j * e * t)[:, None] * t ** np.arange(3)[None, :]
        return np.einsum("abjk,jk->ab", ctrue, basis)

    got = extract_secular_coefficients(sample, e, max_power=2)
    assert np.max(np.abs(got - ctrue)) < 1e-8


def test_aggregates_match_extraction(rng):
    model = random_offdiag_model(rng, 4, coupling=0.5)
    m = redivide(model)
    e, g = m.shifted_energies, m.offdiagonal
    for l in (4, 5, 6):
        agg = secular_aggregate_coefficients(m, l)
        ext = extract_secular_coefficients(
            lambda t: series_order_matrix(e, g, l, t), e, max_power=l // 2
        )
        for a, pred in agg.items():
            assert np.max(np.abs(pred - ext[:, :, :, a])) < 1e-8


def _class_terms(e, g, order, t):
    """Each t^a exp(-i E_j t) term of one series order, from its exact classes.

    The order-l term is the lam^l coefficient of sum_j P_j(lam)
    exp(-i (E_j + Delta_j(lam)) t), so its t^a class is (-i)^a / a! times
    sum_p P^(p) [lam^(l-p)] Delta^a, with Delta_j(lam) = sum_b E^(b)_j lam^b
    the Rayleigh-Schroedinger energy shift of level j through order l.
    """
    energies, states = improved._rs_series(e, g, order)
    classes = improved._projector_series(states, np.eye(e.size))
    delta = np.stack([np.zeros(e.size)] + energies[1:])  # [b, j]
    power = np.zeros_like(delta)  # [lam^b] Delta^a, from a = 0
    power[0] = 1.0
    terms = []
    for a in range(order + 1):
        cls = sum(classes[p] * power[order - p] for p in range(order + 1))
        terms.append((-1j * t) ** a / math.factorial(a) * cls * np.exp(-1j * e * t))
        power = np.stack([
            sum(power[i] * delta[b - i] for i in range(b + 1)) for b in range(order + 1)
        ])
    return np.stack(terms)  # [a, row, col, j]


def test_laurent_classes_rebuild_the_series_term(rng):
    models = [(redivide(random_offdiag_model(rng, dim)), range(1, 7)) for dim in (4, 5)]
    models.append(
        (redivide(random_offdiag_model(rng, 17, energy_spread=8.0, min_gap=0.1)), range(1, 4))
    )
    for m, orders in models:
        e, g = m.shifted_energies, m.offdiagonal
        for l in orders:
            for t in (0.37, 2.0):
                terms = _class_terms(e, g, l, t)
                want = oracle_block_order(m, l, t)
                # close levels make the classes cancel, so the error is
                # measured against the largest class term, not the sum
                err = np.max(np.abs(terms.sum(axis=(0, 3)) - want))
                assert err <= 1e-13 * np.max(np.abs(terms)), (m.dim, l, t)


def test_secular_aggregates_take_one_rs_run_per_call(rng, monkeypatch):
    calls = []
    real = improved._rs_series

    def counting(e, g, n):
        calls.append(n)
        return real(e, g, n)

    monkeypatch.setattr(improved, "_rs_series", counting)
    m = redivide(random_offdiag_model(rng, 4))
    for l in (4, 5, 6):
        calls.clear()
        secular_aggregate_coefficients(m, l)
        assert calls == [5]


def test_aggregates_call_no_divided_difference_exponential_or_fit(rng, monkeypatch):
    calls = []

    def counting(name, real):
        def stub(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return stub

    dd = counting("dd_exp_batch", coeff.dd_exp_batch)
    for module in (coeff, propagator, contraction):
        monkeypatch.setattr(module, "dd_exp_batch", dd)
    monkeypatch.setattr(scipy.linalg, "expm", counting("expm", scipy.linalg.expm))
    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    for dim in (5, 17):
        m = redivide(random_offdiag_model(rng, dim, energy_spread=8.0, min_gap=0.1))
        for l in (4, 5, 6):
            secular_aggregate_coefficients(m, l)
    assert calls == []


def test_aggregate_l4_secular_square_is_diagonal_revision(rng):
    model = random_offdiag_model(rng, 4, coupling=0.5)
    m = redivide(model)
    rev = revision_energies(m, max_order=2)
    agg = secular_aggregate_coefficients(m, 4)
    pred = agg[2]
    # only the diagonal, at the level's own frequency, with -(G2)^2/2
    for i in range(4):
        for j in range(4):
            for k in range(4):
                want = 0.0
                if i == j == k:
                    want = (-1j * rev.G[0, i]) ** 2 / 2.0
                assert abs(pred[i, j, k] - want) < 1e-14
    # and the time-domain pieces are diagonal-only for t^2 e
    pieces = secular_aggregates(m, 0.9, 4)
    t2e = {p.label: p for p in pieces}
    assert np.all(t2e["t2e-N"].matrix == 0)
    assert np.any(t2e["t2e-D"].matrix != 0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_aggregates_reject_a_non_finite_time(rng, t):
    m = redivide(random_offdiag_model(rng, 4))
    with pytest.raises(ValueError, match="t must be finite"):
        secular_aggregates(m, t, 4)


def test_aggregates_zero_coupling():
    model = SplitHamiltonian(energies=[0.0, 1.0, 2.1, 3.3], perturbation=np.zeros((4, 4)))
    m = redivide(model)
    for l in (4, 5, 6):
        for piece in secular_aggregates(m, 1.1, l):
            assert np.all(piece.matrix == 0)
