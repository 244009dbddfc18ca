"""Denominators, power-sum coefficients, and exponential divided differences.

For a node list (x_1, ..., x_{m}) with m = l + 1 the denominators are

    d_i = prod_{j<i} (x_j - x_i) * prod_{k>i} (x_i - x_k),

so the alternating sum  sum_i (-1)^(i-1) f(x_i) / d_i  is exactly the divided
difference f[x_1, ..., x_m].  For f(x) = x^K it vanishes for K < l and equals
one at K = l; for f(x) = exp(-i x t) it is the closed time factor of the
order-l propagator term.  ``dd_exp`` evaluates the latter for arbitrary
(possibly repeated or clustered) nodes via the exponential of the associated
upper-bidiagonal matrix, which stays accurate where the alternating sum loses
digits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

#: relative pairwise gap (in units of the node scale) below which a node list
#: is treated as a confluent cluster
CLUSTER_RTOL = 1e-6

#: hard caps for the verification-only binomial expansion
BINOMIAL_MAX_POWER = 10
BINOMIAL_MAX_DIM = 8


class SingularNodesError(ValueError):
    """Coincident nodes where a distinct-node formula was requested."""


@dataclass(frozen=True)
class NodeList:
    """Energy tuple feeding denominators and divided differences."""

    nodes: tuple[float, ...]

    def __post_init__(self):
        nodes = tuple(float(x) for x in np.asarray(self.nodes, dtype=float).reshape(-1))
        if len(nodes) < 1:
            raise ValueError("node list must hold at least one node")
        if not all(math.isfinite(x) for x in nodes):
            raise ValueError("nodes must be finite")
        object.__setattr__(self, "nodes", nodes)

    @property
    def order(self) -> int:
        """Series order l associated with the list (length - 1)."""
        return len(self.nodes) - 1


@dataclass(frozen=True)
class DividedDifferenceResult:
    value: complex
    confluent_flag: bool
    est_error: float

    def __post_init__(self):
        if not (self.est_error >= 0.0):
            raise ValueError("est_error must be nonnegative")
        if not np.isfinite(self.value):
            raise ValueError("divided difference is not finite")


def _check_distinct(x: np.ndarray) -> None:
    m = x.size
    for i in range(m):
        for j in range(i + 1, m):
            if x[i] == x[j]:
                raise SingularNodesError(
                    f"coincident nodes at positions {i} and {j} (value {x[i]!r})"
                )


def denominators(nl: NodeList) -> np.ndarray:
    """All l+1 denominators d_i of a distinct node list."""
    x = np.asarray(nl.nodes, dtype=float)
    _check_distinct(x)
    diff = x[:, None] - x[None, :]
    m = x.size
    d = np.empty(m)
    for i in range(m):
        d[i] = np.prod(diff[:i, i]) * np.prod(diff[i, i + 1 :])
    return d


def _neumaier_sum(values) -> np.longdouble:
    s = np.longdouble(0.0)
    c = np.longdouble(0.0)
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def c_closed(nl: NodeList, n: int) -> float:
    """Power-sum coefficient C_l^n = sum_i (-1)^(i-1) x_i^n / d_i.

    Evaluated in extended precision with compensated summation: the identity
    values 0 (n < l) and 1 (n = l) survive heavy cancellation between huge
    alternating terms even for unluckily clustered nodes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(nl.nodes, dtype=float)
    _check_distinct(x)
    xl = x.astype(np.longdouble)
    m = x.size
    if m == 1:
        # zero-length product convention: d_1 = 1
        return float(xl[0] ** n)
    terms = []
    for i in range(m):
        d = np.longdouble(1.0)
        for j in range(m):
            if j == i:
                continue
            d *= (xl[i] - xl[j]) if j > i else (xl[j] - xl[i])
        terms.append(((-1.0) ** i) * xl[i] ** n / d)
    return float(_neumaier_sum(terms))


def c_recurrence(nl: NodeList, n: int) -> float:
    """Same contract as ``c_closed``, via the geometric-sum recurrence.

    C_1^n = sum_k x_1^k x_2^(n-1-k) and
    C_l^n = sum_{k=0}^{n-l} C_{l-1}^{n-k-1} x_{l+1}^k,
    an independent route used to cross-check the closed form.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(nl.nodes, dtype=float)
    _check_distinct(x)
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


# ---------------------------------------------------------------------------
# divided differences of exp(-i x t)
# ---------------------------------------------------------------------------


def _expm_batch_bidiagonal(z: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Top-right entries of expm(diag(z) + offdiag * superdiag(1)) for a batch.

    z : (B, m) complex with mean already removed per row; offdiag : (B,)
    complex, one superdiagonal value per row.  Scaling-squaring with a
    fixed-degree Taylor step; matrices are tiny (m <= ~9) and upper
    triangular, so plain batched matmuls are accurate and fast.
    """
    B, m = z.shape
    M = np.zeros((B, m, m), dtype=complex)
    idx = np.arange(m)
    M[:, idx, idx] = z
    if m > 1:
        M[:, idx[:-1], idx[1:]] = offdiag[:, None]
    # row-sum norm per matrix; scale so the Taylor argument stays <= 1/2
    norm = np.abs(M).sum(axis=2).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm, 1e-300) / 0.5))
    s = np.clip(s, 0, 60).astype(int)
    T = M / (2.0 ** s)[:, None, None]
    eye = np.broadcast_to(np.eye(m, dtype=complex), (B, m, m))
    # Horner evaluation of the degree-18 Taylor polynomial
    acc = eye / math.factorial(18)
    for k in range(17, -1, -1):
        acc = np.matmul(T, acc) + eye / math.factorial(k)
    remaining = s.copy()
    while np.any(remaining > 0):
        active = remaining > 0
        acc[active] = np.matmul(acc[active], acc[active])
        remaining[active] -= 1
    return acc[:, 0, m - 1], s


def dd_exp_batch(nodes: np.ndarray, t):
    """Vectorized divided differences of exp(-i x t) over many node lists.

    nodes : (B, m) real; t : one time for every row, or one per row, shape
    (B,).  Returns (values (B,), confluent flags (B,), error estimates
    (B,)).  Rows whose minimum pairwise gap exceeds the cluster tolerance go
    through the alternating closed sum; clustered or confluent rows go
    through the bidiagonal matrix exponential.  A row with m > 1 nodes at
    t = 0 is the divided difference of a constant: exactly 0, estimate 0.
    Every row is evaluated on its own, so a batch of per-row times gives
    bitwise the values of one scalar-time call per distinct time.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    B, m = nodes.shape
    t = np.full(B, t, dtype=float)
    values = np.zeros(B, dtype=complex)
    errs = np.zeros(B)
    if m == 1:
        values[:] = np.exp(-1j * nodes[:, 0] * t)
        errs[:] = _EPS
        return values, np.zeros(B, dtype=bool), errs

    diff = nodes[:, :, None] - nodes[:, None, :]
    iu = np.triu_indices(m, 1)
    min_gap = np.abs(diff[:, iu[0], iu[1]]).min(axis=1)
    scale = np.maximum(np.abs(nodes).max(axis=1), 1.0)
    clustered = min_gap <= CLUSTER_RTOL * scale

    # t = 0 rows keep value 0 and estimate 0
    moving = t != 0.0
    confluent = clustered & moving
    plain = ~clustered & moving
    if np.any(plain):
        d = diff[plain]
        # signed product over j != i of (x_i - x_j); row-wise via masked prod
        ii = np.arange(m)
        d[:, ii, ii] = 1.0
        denom = d.prod(axis=2)  # (Bp, m)
        est = _EPS * m * (1.0 / np.abs(denom)).sum(axis=1)
        # cancellation beyond ~1e-12 absolute: reroute through the stable path
        bad = est > 1e-12
        phase = np.exp(-1j * nodes[plain] * t[plain, None])
        vals_plain = (phase / denom).sum(axis=1)
        idx_plain = np.flatnonzero(plain)
        values[idx_plain] = vals_plain
        errs[idx_plain] = est
        confluent[idx_plain[bad]] = True
    if np.any(confluent):
        sub = nodes[confluent]
        tc = t[confluent]
        mu = sub.mean(axis=1)
        z = (-1j * tc)[:, None] * (sub - mu[:, None])
        top, s = _expm_batch_bidiagonal(z, -1j * tc)
        values[confluent] = np.exp(-1j * mu * tc) * top
        errs[confluent] = _EPS * (m ** 2) * (2.0 ** s)
    return values, clustered, errs


def dd_exp(nl: NodeList, t: float) -> DividedDifferenceResult:
    """Divided difference of exp(-i x t) over the node list.

    Equals sum_i (-1)^(i-1) exp(-i x_i t) / d_i for distinct nodes and the
    confluent (derivative) limit for repeated ones; total on finite input.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    vals, flags, errs = dd_exp_batch(np.asarray(nl.nodes)[None, :], t)
    return DividedDifferenceResult(
        value=complex(vals[0]), confluent_flag=bool(flags[0]), est_error=float(errs[0])
    )


# ---------------------------------------------------------------------------
# operator-binomial expansion tail (verification oracle only)
# ---------------------------------------------------------------------------


def binomial_expansion_tail(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Tail f^n(A, B) of (A+B)^n = A^n + f^n(A, B) by direct enumeration.

    Every term carries at least one B factor: for each count l the inner sum
    runs over exponents (k_1..k_l) with sum(k) + l <= n of
    (prod_i A^{k_i} B) A^{n - l - sum(k)}.  Exponential cost in n by design;
    capped, since this exists purely as a verification oracle.
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
