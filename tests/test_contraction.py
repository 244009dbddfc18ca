import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_hermitian_model, random_offdiag_model, tuples_term
from divexp import (
    SplitHamiltonian,
    TwoStateExact,
    basis_state,
    enumerate_patterns,
    evolve,
    extract_secular_coefficients,
    mixed_second_order_pieces,
    redivide,
    redivided_closed_form_order2,
    revision_energies,
    second_order_pieces,
    secular_aggregate_coefficients,
    secular_aggregates,
    series_term,
    third_order_pieces,
)
from divexp import coeff, contraction, propagator
from divexp.contraction import pattern_piece_matrix
from divexp.propagator import oracle_block_order, series_order_matrix

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


def test_tuple_sums_take_one_divided_difference_call_per_row(rng, monkeypatch):
    calls = []
    real = propagator.dd_exp_batch

    def counting(nodes, t):
        calls.append(len(nodes))
        return real(nodes, t)

    monkeypatch.setattr(propagator, "dd_exp_batch", counting)
    dim = 6
    m = redivide(random_offdiag_model(rng, dim, min_gap=0.1))
    e, g = m.shifted_energies, m.offdiagonal
    for pattern in enumerate_patterns(3):
        calls.clear()
        pattern_piece_matrix(e, g, pattern, 0.8)
        assert 0 < len(calls) <= dim, str(pattern)
    for l in (1, 2, 3):
        assert propagator._route(dim, l) == "tuples"
        calls.clear()
        series_order_matrix(e, g, l, 0.8)
        assert 0 < len(calls) <= dim, l
        # one node list per distinct node multiset: a row holds (D - 1)^l
        # tuples with a non-zero coupling product, and from order 2 on
        # several of them share a multiset
        if l > 1:
            assert max(calls) < (dim - 1) ** l


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
    """Each t^a exp(-i E_j t) term of one series order, from its exact classes."""
    coeffs = contraction._laurent_coefficients(e, g, order)
    return np.stack([
        (-1j * t) ** a / math.factorial(a) * coeffs[order - a] * np.exp(-1j * e * t)
        for a in range(order + 1)
    ])  # [a, row, col, j]


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


def test_aggregates_match_laurent_classes(rng):
    # the resummed G^(2..5) products against the exact classes of order l
    for dim in (4, 5):
        m = redivide(random_offdiag_model(rng, dim, coupling=0.3))
        e, g = m.shifted_energies, m.offdiagonal
        for l in (4, 5, 6):
            coeffs = contraction._laurent_coefficients(e, g, l)
            for a, pred in secular_aggregate_coefficients(m, l).items():
                want = (-1j) ** a / math.factorial(a) * coeffs[l - a]
                scale = np.max(np.abs(want))
                assert np.max(np.abs(pred - want)) <= 1e-12 * scale, (dim, l, a)


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
                    want = (-1j * rev.g2[i]) ** 2 / 2.0
                assert abs(pred[i, j, k] - want) < 1e-14
    # and the time-domain pieces are diagonal-only for t^2 e
    pieces = secular_aggregates(m, 0.9, 4)
    t2e = {p.label: p for p in pieces}
    assert np.all(t2e["t2e-N"].matrix == 0)
    assert np.any(t2e["t2e-D"].matrix != 0)


def test_aggregates_zero_coupling():
    model = SplitHamiltonian(energies=[0.0, 1.0, 2.1, 3.3], perturbation=np.zeros((4, 4)))
    m = redivide(model)
    for l in (4, 5, 6):
        for piece in secular_aggregates(m, 1.1, l):
            assert np.all(piece.matrix == 0)
