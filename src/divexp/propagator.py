"""Series terms of the propagator, truncation, evolution, and the eigensolve.

The order-l contribution to <g| exp(-i H t) |g'> is a sum over index tuples
(g_1 .. g_{l+1}) of the exponential divided difference over the corresponding
energy tuple times the product of coupling matrix elements along the tuple.
One private kernel, _tuple_sum, evaluates every such sum: the series terms of
the tuple route and, with some indices forced equal and others unequal, the
contraction and mixed pieces of divexp.contraction.  It walks the flat tuple
ids in chunks of TUPLES_PER_CALL and makes one dd_exp_batch call per chunk
over the chunk's distinct node multisets.  Two evaluation routes give the same
terms: direct tuple enumeration (cost ~ D^(l+1) tuples) and the
block-bidiagonal matrix exponential whose top block row carries every order
at once (cost ~ ((l+1) D)^3).  For one term, series_order_matrix fixes the
route by the dimension D and the order l: tuples when D^(l-2) <= (l+1)^2
(every D at l <= 2), the block exponential otherwise.  truncated_propagator
needs every order at once and always takes the block route.  The block route
refuses matrices of side (l+1) D above MAX_BLOCK_SIDE = 2048 with
BudgetExceededError.  evolve also takes the block route: the generator A does
not depend on t, so one exponential exp(h A) steps the state across an evenly
spaced time grid, and each time off that grid costs one more exponential.
evolve raises BudgetExceededError whenever (L+1) D > 2048, at any L, and
truncated_propagator does too unless L == 0 or the coupling is zero.
oracle_eigensolve, the exact propagator from a dense eigendecomposition, is
the reference `divexp bench` measures the truncation error against; the
other independent routes that check these terms live with the tests, in
tests/oracles.py.
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
# tuple ids per dd_exp_batch call in _tuple_sum: bounds its working memory
TUPLES_PER_CALL = 4096


class BudgetExceededError(RuntimeError):
    """The block exponential would exceed MAX_BLOCK_SIDE."""


class EigensolveError(RuntimeError):
    """Dense eigendecomposition failed or lost unitarity."""


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


def _split_arrays(energies, coupling):
    """The raw split as a float level vector and a complex coupling matrix.

    Raises ValueError unless the coupling is D x D for D levels and every
    entry of both is finite.
    """
    energies = np.asarray(energies, dtype=float)
    coupling = np.asarray(coupling, dtype=complex)
    if energies.ndim != 1 or coupling.shape != (energies.size,) * 2:
        raise ValueError(
            "want energies of shape (D,) and coupling of shape (D, D), got "
            f"{energies.shape} and {coupling.shape}"
        )
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(coupling))):
        raise ValueError("energies and coupling must be finite")
    return energies, coupling


def _route(dim: int, l: int) -> str:
    """Evaluation route of an order-l term at dimension dim."""
    if dim ** (l - 2) <= (l + 1) ** 2:
        return "tuples"
    return "block"


def _tuple_sum(energies, coupling, classes, ne_pairs, t):
    """Sum over index tuples of the divided difference times the coupling product.

    Tuple positions 0..l in one group of ``classes`` share one index, and the
    positions of each pair in ``ne_pairs`` must differ.  Entry (a, b) sums over
    the tuples that start at a and end at b, at the one time ``t``.  One pass
    walks the flat tuple ids 0 .. D^len(classes) - 1, TUPLES_PER_CALL at a
    time; each chunk keeps its tuples with a non-zero coupling product, finds
    their distinct node multisets and takes one dd_exp_batch call over them,
    even when no tuple is left, so a non-finite t always raises.
    """
    dim = energies.size
    l = sum(map(len, classes)) - 1
    class_of = np.empty(l + 1, dtype=np.intp)
    for cid, members in enumerate(classes):
        class_of[list(members)] = cid
    shape = (dim,) * len(classes)
    n_ids = math.prod(shape)
    # a sorted tuple read as one base-D integer, while that fits in int64
    digits = dim ** np.arange(l, -1, -1) if dim ** (l + 1) < 2**63 else None
    out = np.zeros((dim, dim), dtype=complex)
    for start in range(0, n_ids, TUPLES_PER_CALL):
        ids = np.arange(start, min(start + TUPLES_PER_CALL, n_ids))
        idx = np.column_stack(np.unravel_index(ids, shape))[:, class_of]
        for i, j in ne_pairs:
            idx = idx[idx[:, i] != idx[:, j]]
        weights = np.prod(coupling[idx[:, :-1], idx[:, 1:]], axis=1)
        nz = weights != 0
        idx, weights = idx[nz], weights[nz]
        rows = np.sort(idx, axis=1)
        key = rows if digits is None else rows @ digits
        _, first, inv = np.unique(key, axis=0, return_index=True, return_inverse=True)
        vals, _, _ = dd_exp_batch(energies[rows[first]], t)
        weights *= vals[inv.reshape(-1)]
        np.add.at(out.reshape(-1), idx[:, 0] * dim + idx[:, l], weights)
    return out


def _order_matrix_tuples(energies, coupling, l, t):
    return _tuple_sum(energies, coupling, [(p,) for p in range(l + 1)], (), t)


def _block_side(dim, L):
    """Side (L+1) D of the block generator; BudgetExceededError past MAX_BLOCK_SIDE."""
    side = (L + 1) * dim
    if side > MAX_BLOCK_SIDE:
        raise BudgetExceededError(
            f"block matrix of side {side} exceeds {MAX_BLOCK_SIDE}"
        )
    return side


def _generator(energies, coupling, L):
    """Block-bidiagonal generator A = -i (I ⊗ diag(E) + S ⊗ g) of orders 0..L.

    Block (i, i + j) of exp(t A) is the order-j term at time t.
    """
    dim = energies.size
    side = _block_side(dim, L)
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
    """Order-l term matrix for arbitrary split (coupling may carry a diagonal).

    t, the energies and the D x D coupling must be finite (ValueError
    otherwise, as for a coupling of another shape).
    """
    energies, coupling = _split_arrays(energies, coupling)
    if l < 1:
        raise ValueError("order must be >= 1")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if _route(energies.size, l) == "tuples":
        return _order_matrix_tuples(energies, coupling, l, float(t))
    return _block_top_row(energies, coupling, l, float(t))[l]


def series_term(m: RedividedHamiltonian, l: int, t: float) -> SeriesTerm:
    """Order-l series term on the redivided split (strictly off-diagonal coupling)."""
    mat = series_order_matrix(m.shifted_energies, m.offdiagonal, l, t)
    return SeriesTerm(order=l, matrix=mat, t=float(t))


def _tail_bound(x: float, L: int) -> float:
    """(x^(L+1) / (L+1)!) * e^x, evaluated in logs; inf past the float range."""
    if x <= 0.0:
        return 0.0
    try:
        return math.exp((L + 1) * math.log(x) - math.lgamma(L + 2) + x)
    except OverflowError:
        return math.inf


def coupling_strength(m: RedividedHamiltonian) -> float:
    """Spectral norm of the off-diagonal coupling."""
    return float(np.linalg.norm(m.offdiagonal, 2))


def truncated_propagator(
    m: RedividedHamiltonian, L: int, t: float
) -> TruncatedPropagator:
    """diag(exp(-i E' t)) plus all series terms through order L.

    Orders 1..L are the top block row of one block exponential, so t must be
    finite and (L+1) D at most MAX_BLOCK_SIDE (BudgetExceededError otherwise,
    unless L == 0 or the coupling is zero).
    """
    if L < 0:
        raise ValueError("order cap must be >= 0")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    e = m.shifted_energies
    U = np.diag(np.exp(-1j * e * t)).astype(complex)
    if L > 0 and np.any(m.offdiagonal):
        U = sum(_block_top_row(e, m.offdiagonal, L, t)[1:], U)
    return TruncatedPropagator(
        t=float(t),
        order_cap=L,
        matrix=U,
        tail_bound=_tail_bound(coupling_strength(m) * abs(t), L),
    )


def auto_order(m: RedividedHamiltonian, t_max: float, tol: float) -> int:
    """Smallest order cap whose tail bound beats tol; ValueError past MAX_AUTO_ORDER.

    tol must be finite and positive (ValueError otherwise): no bound beats
    a tol <= 0, and every bound beats an infinite one.  t_max must be finite
    (ValueError otherwise).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not math.isfinite(t_max):
        raise ValueError("t_max must be finite")
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
# exact reference and derivative coefficients
# ---------------------------------------------------------------------------


def oracle_eigensolve(
    m: SplitHamiltonian | RedividedHamiltonian, t: float
) -> np.ndarray:
    """exp(-i H t) through the unitary eigendecomposition of the model's total H."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    H = m.total()
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigensolver failure: {exc}") from exc
    U = (V * np.exp(-1j * w * t)) @ V.conj().T
    drift = np.max(np.abs(U @ U.conj().T - np.eye(H.shape[0])))
    if drift > 1e-12 * max(1.0, H.shape[0]):
        raise EigensolveError(f"propagator unitarity drift {drift:.3e}")
    return U


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
