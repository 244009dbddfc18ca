"""Series terms of the propagator, truncation, evolution, and the eigensolve.

The order-l term T_l of <g| exp(-i H t) |g'> is the eps^l coefficient of
exp(-i t (E' + eps g)).  With S the shift on orders 0..L, that is block
(0, l), in orders, of exp(t A) for the generator
A = -i (diag(E') (x) I + g (x) S).  In orders A is block upper-triangular
Toeplitz, so exp(t A) is fixed by its top block row E_0..E_L, and that row
lives in an algebra of L + 1 blocks of D x D whose product is the cut-off
convolution (PQ)_k = sum_{i+j=k} P_i Q_j (Van Loan, IEEE TAC 1978; Najfeld &
Havel, Adv. Appl. Math. 1995).  series_order_matrix takes T_l from
_algebra_top_row, which exponentiates in that algebra: a Taylor polynomial
at t A / 2^s and s squarings, with a degree and a scaling fixed by a stated
truncation bound and no matrix of side (L+1) D.  truncated_propagator and
evolve take the dense exponential of A instead (scipy.linalg.expm, laid out
level by level), whose row _block_top_row returns in the same (L+1, D, D)
shape.  All three refuse (L+1) D above MAX_BLOCK_SIDE = 2048 with
BudgetExceededError: evolve at any L, and truncated_propagator unless
L == 0 or the coupling is zero.  The generator does not depend on t, so
one step exp(h A) walks evolve's state across an evenly spaced time grid,
and each time off that grid costs one more exponential.  evolve lays each
of its exponentials out from a top row E_0..E_m(dt) alone: with
||E_l(dt)|| <= (||g|| |dt|)^l / l!, m is the least order <= L at which the
tail bound of the dropped blocks, summed over the N times the walk applies
that exponential, is under 2^-53, so the step of a 51-point grid at
||g|| h <= 0.03 takes scipy's expm on side at most 9 D, not (L+1) D.

The same term is a sum over index tuples (g_1 .. g_{l+1}) of the exponential
divided difference over the tuple's energies times the product of coupling
elements along it.  One private kernel, _tuple_sum, evaluates such sums with
some indices forced equal and others unequal, for the reference pieces of
divexp.contraction alone (pattern_piece_matrix): every other piece comes
from the term or from a shared divided-difference table.  It walks the
flat tuple ids in chunks of TUPLES_PER_CALL and makes one dd_exp_batch call
per chunk over the chunk's distinct node multisets.  oracle_eigensolve, the
exact propagator from a dense eigendecomposition, is the reference `divexp
bench` measures the truncation error against; the other independent routes
that check these terms live with the tests, in tests/oracles.py.
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
# tuple ids per dd_exp_batch call in _tuple_sum, and node rows per call in
# contraction._third_order_contractions (or one level): bounds their memory
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


def _block_side(dim, L):
    """Side (L+1) D of the block generator; BudgetExceededError past MAX_BLOCK_SIDE."""
    side = (L + 1) * dim
    if side > MAX_BLOCK_SIDE:
        raise BudgetExceededError(
            f"block matrix of side {side} exceeds {MAX_BLOCK_SIDE}"
        )
    return side


def _generator(energies, coupling, L):
    """Generator A = -i (diag(E) ⊗ I + g ⊗ S) of orders 0..L, S the shift.

    Index a (L+1) + j holds level a at order j.  Level by level, because
    block by block A is upper triangular, and there scipy's expm recomputes
    the superdiagonal by a difference quotient of exp that cancels between
    close levels.
    """
    side = _block_side(energies.size, L)
    A = np.kron(-1j * coupling, np.eye(L + 1, k=1))
    A.flat[:: side + 1] = np.repeat(-1j * energies, L + 1)
    return A


def _block_top_row(energies, coupling, L, t):
    """Top block row E_0..E_L of exp(t A), as an (L+1, D, D) array."""
    dim = energies.size
    M = _generator(energies, coupling, L)
    M *= t  # in place: no second block-sized array
    E = scipy.linalg.expm(M)
    return E[:: L + 1].reshape(dim, dim, L + 1).transpose(2, 0, 1)


def _algebra_top_row(energies, coupling, L, t):
    """Top block row E_0..E_L of exp(t A), as an (L+1, D, D) array.

    An element X of the algebra is its blocks X_0..X_L; tA has the diagonal
    block 0 -i t diag(E - c) and block 1 -i t g.  The levels are centred by
    c = max E / 2 + min E / 2, which does not overflow, and the scalar phase
    exp(-i t c) multiplies the row at the end.

    The bound: ||X|| = sum_k ||X_k||_1 / nu^k, with nu = |t| ||g||_1, is
    submultiplicative for every nu > 0, and ||tA|| <= theta = |t| r + 1 with
    r = max |E - c|.  At x = theta / 2^s < 1/2 the degree-m Taylor
    polynomial misses exp by at most
    rho_m(x) = sum_{j>m} x^j / j! <= x^(m+1) / (m+1)! * (m+2) / (m+2-x),
    and s squarings make that at most 2^s e^x rho_m(x) relative to
    ||exp(tA)||, which the Dyson bound ||E_k||_1 <= nu^k / k! puts below e.
    m is the least degree that brings 2^s e^x rho_m(x) below 2^-53, so the
    truncation stays under the rounding of each block on its own scale nu^k.
    Each Horner step is one column scaling and one batched product by the
    coupling block; each squaring is one batched convolution per block.  An
    entry of E_k that no walk of k coupling steps reaches stays exactly 0.
    """
    dim = energies.size
    c = energies.max() / 2.0 + energies.min() / 2.0
    theta = abs(t) * float(energies.max() - c) + 1.0
    if not math.isfinite(theta):
        raise ValueError("t times the level spread overflows")
    s = math.frexp(theta)[1] + 1
    x = math.ldexp(theta, -s)
    log_goal = math.log(2.0**-53) - s * math.log(2.0) - x
    m = 1
    while (
        (m + 1) * math.log(x) - math.lgamma(m + 2) + math.log((m + 2) / (m + 2 - x))
        > log_goal
    ):
        m += 1
    h = math.ldexp(t, -s)
    d = -1j * h * (energies - c)
    v = -1j * h * coupling
    eye = np.eye(dim, dtype=complex)
    P = np.zeros((L + 1, dim, dim), dtype=complex)
    P[0] = eye
    for j in range(m, 0, -1):
        Q = P * d
        Q[1:] += P[:-1] @ v
        Q /= j
        Q[0] += eye
        P = Q
    for _ in range(s):
        P = np.stack([(P[: k + 1] @ P[k::-1]).sum(axis=0) for k in range(L + 1)])
    return P * np.exp(-1j * t * c)


def series_order_matrix(energies, coupling, l: int, t: float) -> np.ndarray:
    """Order-l term matrix for arbitrary split (coupling may carry a diagonal).

    t, the energies and the D x D coupling must be finite (ValueError
    otherwise, as for a coupling of another shape), and (l+1) D at most
    MAX_BLOCK_SIDE (BudgetExceededError otherwise).
    """
    energies, coupling = _split_arrays(energies, coupling)
    if l < 1:
        raise ValueError("order must be >= 1")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    _block_side(energies.size, l)
    return _algebra_top_row(energies, coupling, l, float(t))[l]


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


def _step_order(x: float, L: int, uses: int) -> int:
    """Least m <= L with uses * _tail_bound(x, m) < 2^-53, and L if none.

    x is ||g|| |dt| of a step that the walk applies ``uses`` times: the
    blocks E_l(dt) with l > m that the step drops then sum, over the walk,
    to under one rounding unit.
    """
    return next((m for m in range(L) if uses * _tail_bound(x, m) < 2.0**-53), L)


def _step(energies, coupling, L, dt, g_norm, uses=1):
    """exp(dt A) of orders 0..L, level by level, with blocks past order m dropped.

    m is _step_order(||g|| |dt|, L, uses), and the row E_0..E_m(dt) is the
    one exponential of side (m+1) D that _block_top_row takes: truncating
    the orders is a quotient of the algebra, so those blocks are the first
    m + 1 of the order-L row.  Entry (a (L+1) + i, b (L+1) + j) is
    E_{j-i}(dt)[a, b] for 0 <= j - i <= m and 0 otherwise: block k fills
    the entries with j - i = k of a zero array, one write per block.
    """
    dim = energies.size
    m = _step_order(g_norm * abs(dt), L, uses)
    out = np.zeros((dim, L + 1, dim, L + 1), dtype=complex)
    for k, block in enumerate(_block_top_row(energies, coupling, m, dt)):
        out[:, range(L + 1 - k), :, range(k, L + 1)] = block
    return out.reshape((L + 1) * dim, (L + 1) * dim)


def evolve(m: RedividedHamiltonian, psi0: StateVector, times, L: int) -> EvolutionResult:
    """Amplitudes of the truncated evolution at each requested time.

    The amplitude of level a at t is entry a (L+1) of exp(t A) w, with A
    the generator of orders 0..L and w psi0 at every order of each level.
    One step exp(h A), h the mean spacing of times, walks exp(t_0 A) w
    across the points s_k of np.linspace(t_0, t_last, n); a time t_k other
    than s_k takes one more exponential of (t_k - s_k) A, so an
    np.linspace grid takes none.  Each exponential keeps the orders its
    step resolves: the least m <= L with N (x^(m+1) / (m+1)!) e^x < 2^-53,
    x = ||g|| |dt| and N the number of times the walk applies it (n - 1 for
    the step, 1 otherwise).  Since ||E_l(dt)|| <= x^l / l!, the blocks it
    drops sum, over the N steps, to under one rounding unit; the
    exponential is scipy's on side (m+1) D, not (L+1) D.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size < 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a finite non-empty sequence")
    if psi0.dim != m.dim:
        raise ValueError("state dimension does not match model")
    if L < 0:
        raise ValueError("order cap must be >= 0")
    _block_side(m.dim, L)
    e, g = m.shifted_energies, m.offdiagonal
    g_norm = coupling_strength(m)
    w = np.repeat(psi0.amplitudes, L + 1)

    def advance(v, dt):
        return v if dt == 0 else _step(e, g, L, dt, g_norm) @ v

    t0 = times[0]
    h = (times[-1] - t0) / (times.size - 1) if times.size > 1 else 0.0
    step = _step(e, g, L, h, g_norm, times.size - 1) if h else None
    v = advance(w, t0)
    grid = np.linspace(t0, times[-1], times.size)
    amps = np.empty((times.size, m.dim), dtype=complex)
    for k, t in enumerate(times):
        if k and h:
            v = step @ v
        # exp(0 A) = I: a t = 0 row is psi0 exactly wherever it sits
        amps[k] = (w if t == 0 else advance(v, t - grid[k]))[:: L + 1]
    tails = np.array([_tail_bound(g_norm * abs(t), L) for t in times])
    drift = np.abs(np.linalg.norm(amps, axis=1) - 1.0)
    return EvolutionResult(
        times=times, amplitudes=amps, order_cap=L, tail_bounds=tails, norm_drift=drift
    )


# ---------------------------------------------------------------------------
# exact reference
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

