"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_hermitian_model, random_offdiag_model, tuples_term
from divexp import (
    NodeList,
    SplitHamiltonian,
    TwoStateExact,
    c_closed,
    enumerate_patterns,
    exact_transition,
    extract_secular_coefficients,
    improved_energy,
    improved_transition,
    oracle_eigensolve,
    redivide,
    revised_golden_rule,
    revision_energies,
    second_order_pieces,
    secular_aggregate_coefficients,
    series_term,
    third_order_pieces,
    truncated_propagator,
)
from divexp.cli import main as cli_main
from divexp.propagator import coupling_strength, series_order_matrix
from oracles import (
    binomial_expansion_tail,
    derivative_coefficients,
    oracle_block_order,
    oracle_dyson_order,
)
from test_propagator import richardson_derivative


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {desc}")


def test_criterion_01_identity_suite():
    with criterion(1, "power-sum identity over 1000 random node sets (< 5 s)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst_zero = 0.0
        worst_one = 0.0
        trials = 0
        while trials < 1000:
            l = int(rng.integers(1, 9))
            nodes = rng.uniform(-1.0, 1.0, size=l + 1)
            gaps = np.abs(nodes[:, None] - nodes[None, :]) + np.eye(l + 1)
            if gaps.min() < 1e-3:
                continue
            trials += 1
            nl = NodeList(tuple(nodes))
            for K in range(l):
                worst_zero = max(worst_zero, abs(c_closed(nl, K)))
            worst_one = max(worst_one, abs(c_closed(nl, l) - 1.0))
        elapsed = time.perf_counter() - start
        assert worst_zero < 1e-9, f"max |C_l^(K<l)| = {worst_zero:.3e}"
        assert worst_one < 1e-9, f"max |C_l^l - 1| = {worst_one:.3e}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f} s"


def test_criterion_02_binomial_expansion():
    with criterion(2, "operator-binomial completeness, 100 random 4x4 pairs, n <= 8"):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            for n in range(1, 9):
                full = np.linalg.matrix_power(A + B, n)
                resid = (
                    full
                    - np.linalg.matrix_power(A, n)
                    - binomial_expansion_tail(A, B, n)
                )
                worst = max(worst, np.linalg.norm(resid) / np.linalg.norm(full))
        assert worst < 1e-10, f"worst relative residual {worst:.3e}"


def test_criterion_03_propagator_convergence():
    with criterion(3, "truncation error < 1e-8 at L=12 and <= tail bound at every L"):
        rng = np.random.default_rng(303)
        model = random_hermitian_model(rng, 6)
        m = redivide(model)
        t = 1.0 / coupling_strength(m)
        exact = oracle_eigensolve(model, t)
        for L in range(13):
            U = truncated_propagator(m, L, t)
            err = np.linalg.norm(U.matrix - exact, 2)
            assert err <= U.tail_bound, f"L={L}: {err:.3e} > {U.tail_bound:.3e}"
        assert err < 1e-8, f"L=12 error {err:.3e}"


def test_criterion_04_order_equivalence():
    with criterion(4, "series terms match integration and block oracles (20 models)"):
        rng = np.random.default_rng(404)
        quad_tol = 1e-8
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            m = redivide(random_offdiag_model(rng, dim, coupling=0.5))
            t = float(rng.uniform(0.3, 1.0))
            for l in range(1, 5):
                a = tuples_term(m, l, t)
                scale = max(np.linalg.norm(a), 1e-30)
                b = oracle_block_order(m, l, t)
                assert np.linalg.norm(a - b) / scale < 1e-10
                c = oracle_dyson_order(m, l, t, quad_tol=quad_tol)
                assert np.linalg.norm(a - c) / scale < max(1e-6, quad_tol)


def test_criterion_05_contraction_completeness():
    with criterion(5, "piece sums rebuild the order-2/3 terms; counts 2/5/15/52/203"):
        for l, want in ((2, 2), (3, 5), (4, 15), (5, 52), (6, 203)):
            assert len(enumerate_patterns(l)) == want
        rng = np.random.default_rng(505)
        spectra = [
            np.array([0.0, 0.9, 1.7, 3.1]),
            np.array([0.0, 1e-4, 1.3, 2.4]),  # min gap 1e-4
        ]
        for energies in spectra:
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (h + h.conj().T) / 2.0
            np.fill_diagonal(h, 0.0)
            h *= 0.4
            m = redivide(SplitHamiltonian(energies=energies, perturbation=h))
            t = 1.1
            for l, pieces in (
                (2, second_order_pieces(m, t)),
                (3, third_order_pieces(m, t)),
            ):
                total = sum(p.matrix for p in pieces)
                for route, term in (
                    ("tuples", tuples_term(m, l, t)),
                    ("block", oracle_block_order(m, l, t)),
                ):
                    rel = np.linalg.norm(total - term) / np.linalg.norm(term)
                    assert rel < 1e-10, f"l={l} {route}: {rel:.3e}"


def test_criterion_06_resummed_aggregates():
    with criterion(6, "secular classes of orders 4-6 match their revision-energy forms"):
        rng = np.random.default_rng(606)
        for trial in range(2):
            model = random_offdiag_model(rng, 5, coupling=0.5)
            m = redivide(model)
            e, g = m.shifted_energies, m.offdiagonal
            for l in (4, 5, 6):
                agg = secular_aggregate_coefficients(m, l)
                ext = extract_secular_coefficients(
                    lambda t: series_order_matrix(e, g, l, t), e, max_power=l // 2
                )
                for a, pred in agg.items():
                    diff = np.max(np.abs(pred - ext[:, :, :, a]))
                    assert diff < 1e-8, f"l={l} power={a}: {diff:.3e}"
            # the order-4 t^2 class is the squared second revision energy,
            # diagonal only
            rev = revision_energies(m, max_order=2)
            pred = agg = secular_aggregate_coefficients(m, 4)[2]
            for i in range(5):
                for j in range(5):
                    for k in range(5):
                        want = (-1j * rev.G[0, i]) ** 2 / 2.0 if i == j == k else 0.0
                        assert abs(pred[i, j, k] - want) < 1e-12


def test_criterion_07_two_state_golden_values():
    with criterion(7, "two-state improved energy and shifted frequency golden values"):
        ts = TwoStateExact(0.0, 1.0, 0.1)
        model = ts.to_split_hamiltonian()
        e1_imp = improved_energy(model, 0, max_order=4)
        assert e1_imp == pytest.approx(-0.0099, abs=1e-15)
        e1_exact = ts.eigvals[0]
        assert abs(e1_imp - e1_exact) < 2 * abs(ts.v) ** 6 / ts.omega**5
        for v in (0.05, 0.1, 0.2):
            tsv = TwoStateExact(0.0, 1.0, v)
            rev = revision_energies(redivide(tsv.to_split_hamiltonian()), 4)
            w_shift = rev.shifted[1] - rev.shifted[0]
            assert abs(w_shift - tsv.omega_total) <= 5 * v**6 * tsv.omega


def test_criterion_08_improved_transition_dominance():
    with criterion(8, "improved transition beats the usual one on a long grid"):
        ts = TwoStateExact(0.0, 1.0, 0.1)
        m = redivide(ts.to_split_hamiltonian())
        times = np.linspace(0.0, 100.0 / ts.omega, 2001)
        rep = improved_transition(m, 0, 1, times)
        exact = np.array([exact_transition(ts, t) for t in times])
        err_improved = np.max(np.abs(rep.p_improved - exact))
        err_usual = np.max(np.abs(rep.p_usual - exact))
        assert err_improved < 2e-3, f"max |P_I - P_T| = {err_improved:.3e}"
        assert err_improved < err_usual, (
            f"improved {err_improved:.3e} not below usual {err_usual:.3e}"
        )


def test_criterion_09_derivative_relations():
    with criterion(9, "time derivatives at zero match coefficient matrices"):
        rng = np.random.default_rng(909)
        m = redivide(random_offdiag_model(rng, 3, coupling=0.4))

        def tail(t):
            return sum(series_term(m, l, t).matrix for l in range(1, 5))

        for K in range(1, 5):
            fd = richardson_derivative(tail, K)
            want = (-1j) ** K * sum(
                derivative_coefficients(m, l, K) for l in range(1, K + 1)
            )
            diff = np.max(np.abs(fd - want))
            assert diff < 1e-6, f"K={K}: {diff:.3e}"
        for K in range(0, 4):
            for l in range(K + 1, 6):
                assert np.all(derivative_coefficients(m, l, K) == 0)


def test_criterion_10_revised_golden_rule():
    with criterion(10, "rate correction matches refined quadrature"):
        v = 0.05
        h = np.zeros((3, 3), complex)
        h[0, 1] = h[1, 0] = v
        h[0, 2] = h[2, 0] = 0.8 * v
        m = redivide(SplitHamiltonian(energies=[0.0, 5.0, -5.0], perturbation=h))
        w = np.linspace(-2.0, 2.0, 41)
        rho = 0.5 + 0.3 * np.tanh(3 * (w + 0.8)) - 0.3 * np.tanh(3 * (w - 0.8))
        T = 6.0
        rep = revised_golden_rule(m, 0, (w, rho), T=T)

        # 10x-refined trapezoid of the same integrand, built independently
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(w, rho)
        gb2 = np.array([v**2, (0.8 * v) ** 2])
        w1 = np.array([5.0, -5.0])
        cs = float(gb2.mean())

        def integrand(om):
            out = np.empty_like(om)
            for i, x in enumerate(om):
                if abs(x) < 1e-9:
                    c1 = 1.0 - float((gb2 / w1**2).sum())
                    out[i] = float(interp(x)) * cs * T * (c1**2 - 1.0)
                else:
                    s = float((gb2 * (1.0 / (x - w1) + 1.0 / w1)).sum())
                    out[i] = (
                        2.0 * float(interp(x)) * cs
                        * (np.cos(x * T) - np.cos((x + s) * T))
                        / (T * x**2)
                    )
            return out

        xs = np.linspace(-2.0, 2.0, 2 ** 17 + 1)
        want = np.trapezoid(integrand(xs), xs)
        assert rep.rate_delta == pytest.approx(want, rel=1e-3)


def test_criterion_11_benchmark_emission(tmp_path):
    with criterion(11, "benchmark sweep emits well-formed CSV with errors (< 120 s)"):
        out = tmp_path / "bench.csv"
        start = time.perf_counter()
        rc = cli_main(
            ["bench", "--dims", "4,8,16", "--orders", "2,4,8", "--seed", "11",
             "--out", str(out)]
        )
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert elapsed < 120.0, f"bench took {elapsed:.1f} s"
        lines = out.read_text().splitlines()
        assert lines[0] == "dim,order_cap,method,wall_time_s,error_vs_oracle,tail_bound"
        seen = set()
        for line in lines[1:]:
            cells = line.split(",")
            dim, order = int(cells[0]), int(cells[1])
            assert cells[2] == "block"
            assert np.isfinite(float(cells[3]))
            assert np.isfinite(float(cells[4]))
            seen.add((dim, order))
        assert seen == {(d, o) for d in (4, 8, 16) for o in (2, 4, 8)}
