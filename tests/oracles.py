"""Independent routes that the tests check divexp's engine against.

Each function computes something divexp also computes, by another method:
power-sum coefficients by their recurrence, the operator-binomial tail by
enumeration, second-order amplitudes in closed form, series terms by
integrating the interaction-picture recurrence and by one dense block
exponential, their time derivatives at t = 0 from the operator words of
(H0' + g)^K, and divided differences, tuple sums and the propagator in
mpmath at 40-60 digits.  None calls divexp code; from divexp they take
only data types and error classes, so a change to the engine cannot move
them.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg

from divexp import (
    NodeList,
    RedividedHamiltonian,
    SingularNodesError,
    SplitHamiltonian,
    StateVector,
)

#: hard caps of binomial_expansion_tail, whose cost is exponential in n
BINOMIAL_MAX_POWER = 10
BINOMIAL_MAX_DIM = 8


def c_recurrence(nl: NodeList, n: int) -> float:
    """Power-sum coefficient C_l^n via the geometric-sum recurrence.

    C_1^n = sum_k x_1^k x_2^(n-1-k) and
    C_l^n = sum_{k=0}^{n-l} C_{l-1}^{n-k-1} x_{l+1}^k; the same contract as
    divexp.c_closed, including SingularNodesError on coincident nodes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(nl.nodes, dtype=float)
    if np.unique(x).size < x.size:
        raise SingularNodesError(f"coincident nodes in {nl.nodes}")
    l = x.size - 1
    if l == 0:
        return float(x[0] ** n)
    # row[j][m] = C_j^m for the leading j+1 nodes, m = 0..n
    prev = [
        math.fsum(x[0] ** k * x[1] ** (m - 1 - k) for k in range(m)) for m in range(n + 1)
    ]
    for j in range(2, l + 1):
        cur = []
        for m in range(n + 1):
            if m < j:
                cur.append(0.0)
            else:
                cur.append(
                    math.fsum(prev[m - 1 - k] * x[j] ** k for k in range(m - j + 1))
                )
        prev = cur
    return prev[n]


def binomial_expansion_tail(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Tail f^n(A, B) of (A+B)^n = A^n + f^n(A, B) by direct enumeration.

    Every term carries at least one B factor: for each count l the inner sum
    runs over exponents (k_1..k_l) with sum(k) + l <= n of
    (prod_i A^{k_i} B) A^{n - l - sum(k)}.  Exponential cost in n, so capped
    at BINOMIAL_MAX_POWER and BINOMIAL_MAX_DIM.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ValueError(f"operands must be square and same shape, got {A.shape} / {B.shape}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > BINOMIAL_MAX_POWER or A.shape[0] > BINOMIAL_MAX_DIM:
        raise ValueError(
            f"capped at n <= {BINOMIAL_MAX_POWER} and dim <= {BINOMIAL_MAX_DIM}"
        )
    dim = A.shape[0]
    out = np.zeros_like(A)
    if n == 0:
        return out
    apow = [np.eye(dim, dtype=complex)]
    for _ in range(n):
        apow.append(apow[-1] @ A)
    for l in range(1, n + 1):
        for ks in itertools.product(range(n - l + 1), repeat=l):
            rest = n - l - sum(ks)
            if rest < 0:
                continue
            term = np.eye(dim, dtype=complex)
            for k in ks:
                term = term @ apow[k] @ B
            out += term @ apow[rest]
    return out


def redivided_closed_form_order2(
    m: SplitHamiltonian, t: float, psi0: StateVector
) -> np.ndarray:
    """Second-order amplitudes with every level replaced by its shifted value.

    Direct evaluation of the closed shifted-level form (diagonal terms via the
    explicit confluent limits); must agree with evolving the redivided model
    truncated at order 2.
    """
    e = np.asarray(m.energies, dtype=float) + np.diag(m.perturbation).real
    g = m.perturbation.copy()
    np.fill_diagonal(g, 0.0)
    dim = e.size
    if psi0.dim != dim:
        raise ValueError("state dimension does not match model")
    ph = np.exp(-1j * e * t)
    K = np.diag(ph).astype(complex)
    for a in range(dim):
        for b in range(dim):
            if a != b:
                K[a, b] += (ph[a] - ph[b]) / (e[a] - e[b]) * g[a, b]
            for c in range(dim):
                w = g[a, c] * g[c, b]
                if w == 0:
                    continue
                if a == b:
                    # confluent bracket over (e_a, e_c, e_a)
                    d = e[a] - e[c]
                    K[a, b] += w * (
                        (-ph[a] + ph[c]) / d**2 + (-1j * t) * ph[a] / d
                    )
                else:
                    dab = e[a] - e[b]
                    dac = e[a] - e[c]
                    dcb = e[c] - e[b]
                    if c == a:
                        K[a, b] += w * ((-1j * t) * ph[a] / dab - (ph[a] - ph[b]) / dab**2)
                    elif c == b:
                        K[a, b] += w * ((-1j * t) * ph[b] / dab + (ph[a] - ph[b]) / dab**2)
                    else:
                        K[a, b] += w * (
                            ph[a] / (dac * dab) - ph[c] / (dac * dcb) + ph[b] / (dab * dcb)
                        )
    return K @ psi0.amplitudes


def oracle_dyson_order(
    m: RedividedHamiltonian, l: int, t: float, quad_tol: float = 1e-8
) -> np.ndarray:
    """Order-l term by adaptive integration of the interaction-picture recurrence.

    The recurrence d b^(j) / d tau = -i V_I(tau) b^(j-1) with constant coupling
    is integrated as one stacked non-stiff system; the order-l coefficient
    matrix is exp(-i H0' t) b^(l)(t).  RuntimeError when the integrator fails.
    """
    if not 1 <= l <= 4:
        raise ValueError("integration oracle supports 1 <= l <= 4")
    e = m.shifted_energies
    g = m.offdiagonal
    dim = e.size
    if not np.any(g):
        return np.zeros((dim, dim), dtype=complex)
    n = dim * dim

    def rhs(tau, y):
        phase = np.exp(1j * e * tau)
        v_i = (phase[:, None] * g) * phase.conj()[None, :]
        blocks = y.view(complex).reshape(l, dim, dim)
        out = np.empty_like(blocks)
        prev = np.eye(dim, dtype=complex)
        for j in range(l):
            out[j] = -1j * (v_i @ prev)
            prev = blocks[j]
        return out.reshape(-1).view(float)

    y0 = np.zeros(2 * l * n)
    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, float(t)),
        y0,
        method="DOP853",
        rtol=max(quad_tol, 1e-12),
        atol=max(quad_tol * 1e-2, 1e-14),
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"quadrature non-convergence: {sol.message}")
    b_l = sol.y[:, -1].view(complex).reshape(l, dim, dim)[l - 1]
    return np.exp(-1j * e * t)[:, None] * b_l


def oracle_block_order(m: RedividedHamiltonian, l: int, t: float) -> np.ndarray:
    """Order-l term as block (0, l) of one dense block exponential.

    The (l+1) x (l+1) block matrix carries diag(E') on its diagonal blocks
    and g / nu on the blocks above them; its exponential at -i t holds the
    order-j term over nu^j in block (0, j).  nu, the power of two nearest
    |t| ||g||_1, puts every block on the scale of its Dyson bound
    (|t| ||g||_1)^j / j!, so the exponential's error stays on each block's
    own scale, and scaling by a power of two is exact.  The matrix is laid
    out level by level rather than block by block: that order is not
    triangular wherever g has entries on both sides of its diagonal, so
    scipy takes its general squaring, not its triangular one, whose
    divided differences of exp cancel between close levels.
    """
    if l < 1:
        raise ValueError("order must be >= 1")
    e, g = m.shifted_energies, m.offdiagonal
    y = abs(t) * float(np.abs(g).sum(axis=0).max(initial=0.0))
    nu = 2.0 ** round(math.log2(y)) if y > 0 else 1.0
    H = np.kron(np.diag(e), np.eye(l + 1)) + np.kron(g / nu, np.eye(l + 1, k=1))
    return scipy.linalg.expm(-1j * t * H)[0 :: l + 1, l :: l + 1] * nu**l


def mp_dd_exp(nodes, t: float, dps: int = 40) -> complex:
    """Divided difference of exp(-i x t) over the nodes, to dps digits.

    The top-right entry of the mpmath expm of -i t (diag(x) + superdiag(1)),
    which holds for repeated and clustered nodes alike.  expm's squarings
    lose about log10 |t (x - x')| digits, so a large t needs a larger dps.
    """
    with mpmath.workdps(dps):
        m = len(nodes)
        tt = mpmath.mpf(float(t))
        A = mpmath.zeros(m, m)
        for i, x in enumerate(nodes):
            A[i, i] = -1j * tt * mpmath.mpf(float(x))
            if i + 1 < m:
                A[i, i + 1] = -1j * tt
        return complex(mpmath.expm(A)[0, m - 1])


def mp_propagator(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for a dense Hermitian H, by mpmath's expm at 40 digits."""
    with mpmath.workdps(40):
        tt = mpmath.mpf(float(t))
        A = mpmath.matrix([[-1j * tt * mpmath.mpc(complex(z)) for z in row] for row in H])
        return np.array(mpmath.expm(A).tolist(), dtype=complex)


def mp_distinct_tuple_sum(energies, coupling, l: int, t: float) -> np.ndarray:
    """Order-l tuple sum over pairwise distinct indices, to 60 digits.

    Entry (a, b) sums, over the tuples (a, .., b) of l + 1 pairwise distinct
    indices, the product of the coupling elements along the tuple times the
    divided difference of exp(-i x t) over their energies.  The nodes are
    distinct, so the divided difference is the alternating sum
    sum_i exp(-i x_i t) / prod_{j != i} (x_i - x_j), taken once per index set.
    """
    dim = len(energies)
    with mpmath.workdps(60):
        tt = mpmath.mpf(float(t))
        x = [mpmath.mpf(float(e)) for e in energies]
        phase = [mpmath.expj(-xi * tt) for xi in x]
        g = [[mpmath.mpc(complex(z)) for z in row] for row in coupling]
        dd = {}
        for subset in itertools.combinations(range(dim), l + 1):
            dd[subset] = mpmath.fsum(
                phase[i] / mpmath.fprod(x[i] - x[j] for j in subset if j != i)
                for i in subset
            )
        out = np.zeros((dim, dim), dtype=complex)
        for a, b in itertools.permutations(range(dim), 2):
            total = mpmath.mpc(0)
            rest = [k for k in range(dim) if k not in (a, b)]
            for middle in itertools.permutations(rest, l - 1):
                path = (a, *middle, b)
                w = mpmath.fprod(g[i][j] for i, j in zip(path, path[1:]))
                total += w * dd[tuple(sorted(path))]
            out[a, b] = complex(total)
        return out


def derivative_coefficients(m: RedividedHamiltonian, l: int, K: int) -> np.ndarray:
    """Coefficient matrix B_l(K): the part of (H0' + g)^K with exactly l coupling factors.

    Equals the tuple sum of power coefficients C_l^K times coupling products;
    here accumulated by splitting each length-K operator word on its last
    factor.  Zero whenever l > K.
    """
    if l < 1 or K < 0:
        raise ValueError("need l >= 1 and K >= 0")
    dim = m.dim
    if l > K:
        return np.zeros((dim, dim), dtype=complex)
    e = m.shifted_energies
    g = m.offdiagonal
    # rows[j] = B_j(k) as k advances from 0 to K
    rows = [np.eye(dim, dtype=complex)] + [
        np.zeros((dim, dim), dtype=complex) for _ in range(l)
    ]
    for _ in range(K):
        new = [rows[0] * e[None, :]]
        for j in range(1, l + 1):
            new.append(rows[j] * e[None, :] + rows[j - 1] @ g)
        rows = new
    return rows[l]
