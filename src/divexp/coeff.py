"""Denominators, power-sum coefficients, and exponential divided differences.

For a node list (x_1, ..., x_{m}) with m = l + 1 the denominators are

    d_i = prod_{j<i} (x_j - x_i) * prod_{k>i} (x_i - x_k),

so the signed sum  sum_i (-1)^(i-1) f(x_i) / d_i  is exactly the divided
difference f[x_1, ..., x_m].  For f(x) = x^K it vanishes for K < l and equals
one at K = l; for f(x) = exp(-i x t) it is the closed time factor of the
order-l propagator term.  ``dd_exp_batch`` evaluates the latter for arbitrary
(possibly repeated or clustered) nodes from one series, the complete
homogeneous symmetric polynomials of the nodes centred at their midpoint
(McCurdy, Ng & Parlett, Math. Comp. 1984; Zivcovich, Dolomites Res. Notes
Approx. 2019).  By a row's radius rho = |t| (max x - min x) / 2:

* up to rho = SERIES_RADIUS = 2 the series runs at t through SERIES_TERMS = 24
  terms, accurate relative to the value whatever the gaps between the nodes;
* past it the series runs at time t / 2^s, s = ceil(log2(rho / 2)), over
  every sub-list, and that table of divided differences is squared s times.

Each value comes with an absolute error bound in the value's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

#: relative pairwise gap (in units of the node scale) below which a node list
#: is treated as a confluent cluster
CLUSTER_RTOL = 1e-6

#: Radius rho = |t| (max x - min x) / 2 up to which dd_exp_batch sums the
#: centred series.  Derivation: centre the m nodes at their midpoint mu and
#: put u = t (x - mu), so |u_i| <= rho.  Then f[x] = e^{-i mu t}
#: (-i t)^{m-1} / (m-1)! S with S = sum_k (-i)^k h_k(u) (m-1)! / (m-1+k)!,
#: and the k-th term of S is at most rho^k / k!, so the computed S carries
#: an absolute rounding error of about eps (m + K) e^rho after K terms.  By
#: Hermite-Genocchi, S is also the mean of e^{-i t (xi - mu)} over the
#: B-spline density of xi on [min x, max x].  That density is log-concave,
#: hence unimodal, and Khinchine's form xi = c + U Z (U uniform on [0, 1])
#: bounds the cancellation: |S| >= sin(rho) / rho cos(rho / 2) for
#: rho < pi.  The relative error is therefore at most eps (m + K) kappa(rho)
#: with kappa(rho) = rho e^rho / (sin(rho) cos(rho / 2)), which is 1 at
#: rho = 0, 9 at 1.5, 30 at 2, 161 at 2.5 and infinite at pi.  The radius is
#: the largest multiple of 1/2 with kappa <= 32, a loss of at most five bits
#: beyond eps (m + K).
SERIES_RADIUS = 2.0

#: Terms K of S past k = 0 that every row sums: the least K with
#: rho^K / K! < eps at rho = SERIES_RADIUS.  The terms left out sum to at
#: most rho^(K+1) / (K+1)! (K+2) / (K+2-rho) = 2.3e-18 = 0.011 eps there,
#: which the error bound covers with one more eps e^rho.
SERIES_TERMS = 24


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


def _denominators(x: np.ndarray) -> np.ndarray:
    """d_i of distinct nodes x, in x's precision: row i of the symmetric signed
    differences x_min(i,j) - x_max(i,j), multiplied in index order."""
    same = np.argwhere(np.triu(x[:, None] == x[None, :], 1))
    if same.size:
        i, j = same[0]
        raise SingularNodesError(
            f"coincident nodes at positions {i} and {j} (value {np.float64(x[i])!r})"
        )
    up = np.triu(x[:, None] - x[None, :], 1)
    d = np.ones_like(x)
    for column in up + up.T + np.eye(x.size, dtype=x.dtype):
        d *= column
    return d


def denominators(nl: NodeList) -> np.ndarray:
    """All l+1 denominators d_i of a distinct node list."""
    return _denominators(np.asarray(nl.nodes, dtype=float))


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
    xl = np.asarray(nl.nodes, dtype=np.longdouble)
    d = _denominators(xl)
    terms = [((-1.0) ** i) * xl[i] ** n / d[i] for i in range(xl.size)]
    return float(_neumaier_sum(terms))


# ---------------------------------------------------------------------------
# divided differences of exp(-i x t)
# ---------------------------------------------------------------------------


def _series(nodes: np.ndarray, t):
    """Divided differences of exp(-i x t), with bounds, per row of nodes (B, m)
    within SERIES_RADIUS at t (one time, or one per row).

    With mu the midpoint and u = t (x - mu), f[x] = e^{-i mu t} (-i t)^{m-1}
    / (m-1)! S, S = sum_k (-i)^k h_k(u) (m-1)! / (m-1+k)!.  h_k is the
    complete homogeneous symmetric polynomial of degree k; its prefix values
    h_k(u_0..u_j) are the running sum over j of u_j h_{k-1}(u_0..u_j), so
    each term is one product and m - 1 additions over the whole batch, added
    to S in the same pass.  Every row sums k = 0..SERIES_TERMS, so its value
    and bound depend on its own nodes, in their order, and time alone, not
    on its batch.  mu and the radius come from halved nodes, which do not
    overflow; halving is exact for |x| >= 2^-1021.
    """
    m = nodes.shape[1]
    xt = np.ascontiguousarray(nodes.T)  # one column per row: fast reductions
    lo, hi = xt.min(axis=0) / 2.0, xt.max(axis=0) / 2.0  # halved: no overflow
    mu = lo + hi
    u = t * (xt - mu)
    h = np.ones(u.shape)
    S = np.ones(u.shape[1], dtype=complex)
    c = 1.0  # (m-1)! / (m-1+k)!
    for k in range(1, SERIES_TERMS + 1):
        np.multiply(u, h, out=h)
        for j in range(1, m):
            h[j] += h[j - 1]
        c /= m - 1 + k
        S += (c * (1, -1j, -1, 1j)[k % 4]) * h[-1]  # (-i)^k
    pref = (-1j * t) ** (m - 1) / math.factorial(m - 1)
    rho = np.abs(t) * (hi - lo)
    err = np.abs(pref) * _EPS * ((m + SERIES_TERMS + 1) * np.exp(rho) + np.abs(mu * t))
    return np.exp(-1j * mu * t) * pref * S, err


def _squared_series(srt: np.ndarray, t: float, rho: np.ndarray):
    """Divided differences of exp(-i x t) per row of sorted nodes (B, m) of
    radius rho > SERIES_RADIUS, with bounds, by squaring a scaled table.

    With J = diag(x) + superdiag(1), entry (i, j >= i) of g(J) is the divided
    difference g[x_i .. x_j] (Opitz), and exp(-i t J) is the 2^s-th power,
    s = ceil(log2(rho / SERIES_RADIUS)), of exp(-i t J / 2^s), whose entries
    _series gives with bounds E.  Squaring the computed F + D, |D| <= E,
    gives F^2 + D (F + D) + (F + D) D - D D plus the rounding of complex
    inner products of length m, at most gamma |F + D| |F + D| with
    gamma = (m + 2) u / (1 - (m + 2) u), u = eps / 2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.6).  With
    A = |F + D| the new bound is therefore (gamma A + E) A + (A + E) E:
    nonnegative terms, rounded by a few eps.
    """
    B, m = srt.shape
    steps = np.ceil(np.log2(rho / SERIES_RADIUS)).astype(int)
    mid = srt[:, 0] / 2.0 + srt[:, -1] / 2.0
    # sorted evens, then sorted odds: every sub-list of two or more nodes
    # spans much of the range, where exp(-i x t) has small divided
    # differences, so the squarings' sums of products cancel little
    x = srt[:, np.r_[0:m:2, 1:m:2]] - mid[:, None]
    F = np.zeros((B, m, m), dtype=complex)
    E = np.zeros((B, m, m))
    for k in range(1, m + 1):  # the sub-lists of k nodes
        i = np.arange(m - k + 1)
        sub = np.lib.stride_tricks.sliding_window_view(x, k, axis=1).reshape(-1, k)
        vals, errs = _series(sub, np.repeat(t / 2.0**steps, i.size))
        F[:, i, i + k - 1], E[:, i, i + k - 1] = vals.reshape(B, -1), errs.reshape(B, -1)
    gamma = (m + 2) * _EPS / (2.0 - (m + 2) * _EPS)
    for step in range(steps.max()):
        on = steps > step
        Fa, Ea = F[on], E[on]
        A = np.abs(Fa)
        E[on] = (gamma * A + Ea) @ A + (A + Ea) @ Ea
        F[on] = Fa @ Fa
    top = F[:, 0, -1]
    return np.exp(-1j * mid * t) * top, E[:, 0, -1] + _EPS * np.abs(mid * t * top)


def dd_exp_batch(nodes: np.ndarray, t: float):
    """Vectorized divided differences of exp(-i x t) over many node lists.

    nodes : (B, m) real, t real, both finite (ValueError otherwise).  Returns
    (values (B,), confluent flags (B,), error bounds (B,)).  A row is flagged
    confluent when its minimum pairwise gap is at most CLUSTER_RTOL times
    max(1, max |x|).  By the row's radius rho = |t| (max x - min x) / 2:

    * rho <= SERIES_RADIUS: the centred series
      f[x] = e^{-i mu t} sum_k (-i t)^{m-1+k} / (m-1+k)! h_k(x - mu), mu the
      midpoint, k = 0..SERIES_TERMS, accurate relative to the value whatever
      the gaps;
    * larger rho: the centred series at t / 2^s over every sub-list,
      s = ceil(log2(rho / SERIES_RADIUS)), and s squarings of that table.

    Every kernel takes the row sorted, so each row's value, flag and bound
    are bitwise functions of its node multiset and t alone.  Midpoints,
    spreads and gaps come from halved nodes, so finite nodes near the float
    range give finite values.  The confluent flag only reports the row; it
    picks no kernel.  The error bound is absolute, in the value's units, and
    includes the phase error eps |x t| of the exponentials.  With m > 1
    nodes at t = 0 every row is the divided difference of a constant:
    exactly 0, bound 0.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    B, m = nodes.shape
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("nodes must be finite")
    values = np.zeros(B, dtype=complex)
    errs = np.zeros(B)
    if m == 1:
        values[:] = np.exp(-1j * nodes[:, 0] * t)
        errs[:] = _EPS * (1.0 + np.abs(nodes[:, 0] * t))
        return values, np.zeros(B, dtype=bool), errs

    srt = np.sort(nodes, axis=1)
    st = np.ascontiguousarray(srt.T)  # one column per row: fast reductions
    lo, hi = st[0], st[-1]
    half = st / 2.0  # gaps and spreads of halved nodes do not overflow
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)  # max |x|, at least 1
    clustered = np.diff(half, axis=0).min(axis=0) <= CLUSTER_RTOL / 2.0 * scale
    if t == 0.0:
        return values, clustered, errs

    rho = abs(t) * (half[-1] - half[0])
    near = rho <= SERIES_RADIUS
    if np.any(near):
        values[near], errs[near] = _series(srt[near], t)
    far = ~near
    if np.any(far):
        values[far], errs[far] = _squared_series(srt[far], t, rho[far])
    return values, clustered, errs


def dd_exp(nl: NodeList, t: float) -> DividedDifferenceResult:
    """Divided difference of exp(-i x t) over the node list.

    Equals sum_i (-1)^(i-1) exp(-i x_i t) / d_i for distinct nodes and the
    confluent (derivative) limit for repeated ones; total on finite input,
    and a non-finite t raises ValueError as in dd_exp_batch.
    """
    vals, flags, errs = dd_exp_batch(np.asarray(nl.nodes)[None, :], t)
    return DividedDifferenceResult(
        value=complex(vals[0]), confluent_flag=bool(flags[0]), est_error=float(errs[0])
    )

