"""Series terms of the propagator, truncation, evolution, and oracles.

The order-l contribution to <g| exp(-i H t) |g'> is a sum over index tuples
(g_1 .. g_{l+1}) of the exponential divided difference over the corresponding
energy tuple times the product of coupling matrix elements along the tuple.
One private kernel, _tuple_sum, evaluates every such sum: the series terms of
the tuple route and, with some indices forced equal and others unequal, the
contraction and mixed pieces of divexp.contraction.  It takes one time or a
time array; per row of the result it builds the tuples and their distinct node
multisets once and makes one dd_exp_batch call over every (time, multiset)
pair, so a grid of times costs one pass, not one per time.  Two
evaluation routes give the same terms: direct tuple enumeration (cost ~
D^(l+1) tuples) and the block-bidiagonal matrix exponential whose top block
row carries every order at once (cost ~ ((l+1) D)^3).  The route is fixed by
the dimension D and the order l: tuples when l == 1 or D^(l-2) <= (l+1)^2, the
block exponential otherwise.  The block route refuses matrices of side (l+1) D
above MAX_BLOCK_SIDE = 2048 with BudgetExceededError.  evolve always takes the
block route: the generator A does not depend on t, so one exponential exp(h A)
steps the state across an evenly spaced time grid, and each time off that grid
costs one more exponential; it raises BudgetExceededError whenever (L+1) D >
2048, at any L.  Three independent oracles (exact eigensolve, integrated
interaction-picture recurrence, block exponential) cross-check the assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .coeff import dd_exp_batch
from .model import RedividedHamiltonian, SplitHamiltonian, StateVector

MAX_BLOCK_SIDE = 2048
MAX_AUTO_ORDER = 16


class BudgetExceededError(RuntimeError):
    """The block exponential would exceed MAX_BLOCK_SIDE."""


class EigensolveError(RuntimeError):
    """Dense eigendecomposition failed or lost unitarity."""


class QuadratureError(RuntimeError):
    """Integration of the order-l recurrence did not converge."""


@dataclass(frozen=True)
class SeriesTerm:
    order: int
    matrix: np.ndarray
    t: float

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("series term is not finite")


@dataclass(frozen=True)
class TruncatedPropagator:
    t: float
    order_cap: int
    matrix: np.ndarray
    tail_bound: float


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    amplitudes: np.ndarray  # (n_times, D)
    order_cap: int
    tail_bounds: np.ndarray
    norm_drift: np.ndarray


# ---------------------------------------------------------------------------
# core engine on raw (energies, coupling) arrays
# ---------------------------------------------------------------------------


def _route(dim: int, l: int) -> str:
    """Evaluation route of an order-l term at dimension dim."""
    if l == 1 or dim ** (l - 2) <= (l + 1) ** 2:
        return "tuples"
    return "block"


def _tuple_sum(energies, coupling, classes, ne_pairs, t):
    """Sum over index tuples of the divided difference times the coupling product.

    Tuple positions 0..l in one group of ``classes`` share one index, and the
    positions of each pair in ``ne_pairs`` must differ.  Entry (a, b) sums over
    the tuples that start at a and end at b.  ``t`` is a scalar, giving a
    (D, D) matrix, or a 1-d array of T times, giving (T, D, D).  Each row a
    builds its tuples (at most D^(len(classes) - 1)) and their distinct node
    multisets once, folds the coupling products into S[u, b] per multiset u
    and end b, and takes one dd_exp_batch call over every (time, multiset)
    pair; row a at every time is then one product of those values with S.
    """
    dim = energies.size
    times = np.asarray(t, dtype=float)
    ts = times.reshape(-1)
    l = sum(map(len, classes)) - 1
    classes = sorted(classes, key=lambda c: 0 not in c)  # the class of a first
    class_of = np.empty(l + 1, dtype=np.intp)
    for cid, members in enumerate(classes):
        class_of[list(members)] = cid
    n_free = len(classes) - 1
    free = np.indices((dim,) * n_free).reshape(n_free, dim**n_free).T
    # a sorted tuple read as one base-D integer, while that fits in int64
    digits = dim ** np.arange(l, -1, -1) if dim ** (l + 1) < 2**63 else None
    out = np.zeros((ts.size, dim, dim), dtype=complex)
    for a in range(dim):
        idx = np.column_stack([np.full(len(free), a), free])[:, class_of]
        for i, j in ne_pairs:
            idx = idx[idx[:, i] != idx[:, j]]
        weights = np.ones(len(idx), dtype=complex)
        for j in range(l):
            weights *= coupling[idx[:, j], idx[:, j + 1]]
        nz = weights != 0
        if not np.any(nz):
            continue
        idx, weights = idx[nz], weights[nz]
        rows = np.sort(idx, axis=1)
        key = rows if digits is None else rows @ digits
        _, first, inv = np.unique(key, axis=0, return_index=True, return_inverse=True)
        n_sets = first.size
        S = np.zeros(n_sets * dim, dtype=complex)
        np.add.at(S, inv.reshape(-1) * dim + idx[:, l], weights)
        nodes = np.tile(energies[rows[first]], (ts.size, 1))
        vals, _, _ = dd_exp_batch(nodes, np.repeat(ts, n_sets))
        out[:, a] = vals.reshape(ts.size, n_sets) @ S.reshape(n_sets, dim)
    return out if times.ndim else out[0]


def _order_matrix_tuples(energies, coupling, l, t):
    return _tuple_sum(energies, coupling, [(p,) for p in range(l + 1)], (), t)


def _generator(energies, coupling, L):
    """Block-bidiagonal generator A = -i (I ⊗ diag(E) + S ⊗ g) of orders 0..L.

    Block (i, i + j) of exp(t A) is the order-j term at time t.
    """
    dim = energies.size
    side = (L + 1) * dim
    if side > MAX_BLOCK_SIDE:
        raise BudgetExceededError(
            f"block matrix of side {side} exceeds {MAX_BLOCK_SIDE}"
        )
    A = np.zeros((side, side), dtype=complex)
    h0 = -1j * np.diag(energies.astype(complex))
    v = -1j * coupling
    for j in range(L + 1):
        A[j * dim : (j + 1) * dim, j * dim : (j + 1) * dim] = h0
        if j < L:
            A[j * dim : (j + 1) * dim, (j + 1) * dim : (j + 2) * dim] = v
    return A


def _block_top_row(energies, coupling, L, t):
    """Top block row of the stacked bidiagonal exponential: orders 0..L."""
    dim = energies.size
    M = _generator(energies, coupling, L)
    M *= t  # in place: no second block-sized array
    E = scipy.linalg.expm(M)
    return [E[0:dim, j * dim : (j + 1) * dim] for j in range(L + 1)]


def series_order_matrix(energies, coupling, l: int, t: float) -> np.ndarray:
    """Order-l term matrix for arbitrary split (coupling may carry a diagonal)."""
    energies = np.asarray(energies, dtype=float)
    coupling = np.asarray(coupling, dtype=complex)
    if l < 1:
        raise ValueError("order must be >= 1")
    if _route(energies.size, l) == "tuples":
        return _order_matrix_tuples(energies, coupling, l, float(t))
    return _block_top_row(energies, coupling, l, float(t))[l]


def series_term(m: RedividedHamiltonian, l: int, t: float) -> SeriesTerm:
    """Order-l series term on the redivided split (strictly off-diagonal coupling)."""
    mat = series_order_matrix(m.shifted_energies, m.offdiagonal, l, t)
    return SeriesTerm(order=l, matrix=mat, t=float(t))


def _tail_bound(x: float, L: int) -> float:
    """(x^(L+1) / (L+1)!) * e^x, evaluated in logs to avoid overflow."""
    if x <= 0.0:
        return 0.0
    return math.exp((L + 1) * math.log(x) - math.lgamma(L + 2) + x)


def coupling_strength(m: RedividedHamiltonian) -> float:
    """Spectral norm of the off-diagonal coupling."""
    return float(np.linalg.norm(m.offdiagonal, 2))


def truncated_propagator(
    m: RedividedHamiltonian, L: int, t: float
) -> TruncatedPropagator:
    """diag(exp(-i E' t)) plus all series terms through order L."""
    if L < 0:
        raise ValueError("order cap must be >= 0")
    e = m.shifted_energies
    U = np.diag(np.exp(-1j * e * t)).astype(complex)
    if L > 0 and np.any(m.offdiagonal):
        if _route(e.size, L) == "block":
            row = _block_top_row(e, m.offdiagonal, L, t)
            for l in range(1, L + 1):
                U = U + row[l]
        else:
            for l in range(1, L + 1):
                U = U + _order_matrix_tuples(e, m.offdiagonal, l, t)
    return TruncatedPropagator(
        t=float(t),
        order_cap=L,
        matrix=U,
        tail_bound=_tail_bound(coupling_strength(m) * abs(t), L),
    )


def auto_order(m: RedividedHamiltonian, t_max: float, tol: float) -> int:
    """Smallest order cap whose tail bound beats tol; ValueError past MAX_AUTO_ORDER."""
    x = coupling_strength(m) * abs(t_max)
    for L in range(MAX_AUTO_ORDER + 1):
        bound = _tail_bound(x, L)
        if bound < tol:
            return L
    raise ValueError(
        f"no order cap up to {MAX_AUTO_ORDER} brings the tail bound below "
        f"tol={tol:.3g} at x=|g|*t={x:.6g}: the bound at order "
        f"{MAX_AUTO_ORDER} is {bound:.3g}"
    )


def evolve(m: RedividedHamiltonian, psi0: StateVector, times, L: int) -> EvolutionResult:
    """Amplitudes of the truncated evolution at each requested time.

    The amplitude at t is the top block of exp(t A) w, with A the generator
    of orders 0..L and w = (psi0, .., psi0).  One exponential of h A, h the
    mean spacing of times, walks exp(t_0 A) w across the points
    s_k = t_0 + k h; a time t_k other than s_k takes one more exponential of
    (t_k - s_k) A.  On an np.linspace grid that is at most the last point,
    off by an ulp.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size < 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a finite non-empty sequence")
    if psi0.dim != m.dim:
        raise ValueError("state dimension does not match model")
    if L < 0:
        raise ValueError("order cap must be >= 0")
    A = _generator(m.shifted_energies, m.offdiagonal, L)
    w = np.tile(psi0.amplitudes, L + 1)

    def advance(v, dt):
        return v if dt == 0 else scipy.linalg.expm(dt * A) @ v

    t0 = times[0]
    h = (times[-1] - t0) / (times.size - 1) if times.size > 1 else 0.0
    step = scipy.linalg.expm(h * A) if h else None
    v = advance(w, t0)
    amps = np.empty((times.size, m.dim), dtype=complex)
    for k, t in enumerate(times):
        if k and h:
            v = step @ v
        # exp(0 A) = I: a t = 0 row is psi0 exactly wherever it sits
        amps[k] = (w if t == 0 else advance(v, t - (t0 + k * h)))[: m.dim]
    g = coupling_strength(m)
    tails = np.array([_tail_bound(g * abs(t), L) for t in times])
    drift = np.abs(np.linalg.norm(amps, axis=1) - 1.0)
    return EvolutionResult(
        times=times, amplitudes=amps, order_cap=L, tail_bounds=tails, norm_drift=drift
    )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _total_matrix(m) -> np.ndarray:
    if isinstance(m, RedividedHamiltonian):
        return m.total()
    if isinstance(m, SplitHamiltonian):
        return m.total()
    return np.asarray(m, dtype=complex)


def oracle_eigensolve(m, t: float) -> np.ndarray:
    """exp(-i H t) through the unitary eigendecomposition of the total H."""
    H = _total_matrix(m)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigensolver failure: {exc}") from exc
    U = (V * np.exp(-1j * w * t)) @ V.conj().T
    drift = np.max(np.abs(U @ U.conj().T - np.eye(H.shape[0])))
    if drift > 1e-12 * max(1.0, H.shape[0]):
        raise EigensolveError(f"propagator unitarity drift {drift:.3e}")
    return U


def oracle_dyson_order(
    m: RedividedHamiltonian, l: int, t: float, quad_tol: float = 1e-8
) -> np.ndarray:
    """Order-l term by adaptive integration of the interaction-picture recurrence.

    The recurrence d b^(j) / d tau = -i V_I(tau) b^(j-1) with constant coupling
    is integrated as one stacked non-stiff system; the order-l coefficient
    matrix is exp(-i H0' t) b^(l)(t).
    """
    import scipy.integrate  # test-side oracle: kept out of the import of divexp

    if not 1 <= l <= 4:
        raise ValueError("integration oracle supports 1 <= l <= 4")
    dim = m.dim
    e = m.shifted_energies
    g = m.offdiagonal
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
        raise QuadratureError(f"quadrature non-convergence: {sol.message}")
    b_l = sol.y[:, -1].view(complex).reshape(l, dim, dim)[l - 1]
    return np.exp(-1j * e * t)[:, None] * b_l


def oracle_block_order(m: RedividedHamiltonian, l: int, t: float) -> np.ndarray:
    """Order-l term as the top-right block of the stacked bidiagonal exponential."""
    if l < 1:
        raise ValueError("order must be >= 1")
    return _block_top_row(m.shifted_energies, m.offdiagonal, l, float(t))[l]


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
