"""Contraction / anti-contraction decomposition of coupling products.

An order-l term sums products of l strictly off-diagonal coupling elements
over index tuples (g_1 .. g_{l+1}).  Decomposing each non-adjacent index pair
into an equal (delta, "c") and an unequal (eta, "n") part splits the term into
pieces whose apparent energy-denominator singularities cancel by construction.
Stage j of the decomposition works on pairs (g_k, g_{k+1+j}); a pair whose
relation is already forced by earlier constraints (or by the off-diagonal
coupling, which keeps adjacent indices distinct) is marked "k" and not split.
This reproduces exactly 2 / 5 / 15 / 52 / 203 nontrivial pieces for orders
2 through 6.

Each piece is a tuple sum with its equal-index classes and unequal pairs,
evaluated by the propagator's tuple-sum kernel on confluent divided
differences, so repeated nodes (the delta-contracted indices) are handled as
limits rather than 0/0.

The resummed secular aggregates take the t^0 classes of the lower orders
exactly, from the Laurent series of the resolvent at each shifted level: a few
cut-off power-series products per level, with no time sampling, divided
difference or matrix exponential.  extract_secular_coefficients, a
least-squares fit of sampled terms on a time stencil, stays as the
independent check of those classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import improved
from .model import RedividedHamiltonian, SplitHamiltonian, StateVector
from .propagator import _tuple_sum

# unused here; kept only because perfbench/spans.py wraps both names in this module
from .coeff import dd_exp_batch  # noqa: F401
from .propagator import series_order_matrix  # noqa: F401

MIN_PATTERN_ORDER = 2
MAX_PATTERN_ORDER = 6

_TIME_CLASSES = ("e", "te", "t2e", "t3e")


@dataclass(frozen=True)
class ContractionPattern:
    """One nontrivial term of the staged decomposition at a given order.

    ``groups[j-1]`` is the stage-j string over {c, n, k} (length order - j);
    ``classes`` are the equal-index groups and ``ne_pairs`` the explicitly
    unequal index pairs implied by the c/n decisions (indices run 0..order
    for the tuple positions g_1..g_{l+1}).
    """

    order: int
    groups: tuple[str, ...]
    classes: tuple[tuple[int, ...], ...]
    ne_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.groups) != self.order - 1:
            raise ValueError("one group per decomposition stage expected")
        for j, s in enumerate(self.groups, start=1):
            if len(s) != self.order - j or set(s) - {"c", "n", "k"}:
                raise ValueError(f"bad stage-{j} group {s!r}")

    def __str__(self):
        shown = [s for s in self.groups if set(s) != {"k"}]
        return ",".join(shown) if shown else "k" * (self.order - 1)

    @property
    def diag_class(self) -> str:
        c0 = next(c for c in self.classes if 0 in c)
        return "D" if self.order in c0 else "N"

    @property
    def time_class(self) -> str:
        power = max(len(c) for c in self.classes) - 1
        return _TIME_CLASSES[power]


@dataclass(frozen=True)
class TermPiece:
    label: str
    matrix: np.ndarray
    time_class: str
    diag_class: str | None
    pattern: ContractionPattern | None = None

    def __post_init__(self):
        if self.time_class not in _TIME_CLASSES:
            raise ValueError(f"unknown time class {self.time_class!r}")
        if self.diag_class not in ("D", "N", None):
            raise ValueError(f"unknown diagonal class {self.diag_class!r}")
        off = self.matrix - np.diag(np.diag(self.matrix))
        if self.diag_class == "D" and np.any(off != 0):
            raise ValueError("D piece must be diagonal")
        if self.diag_class == "N" and np.any(np.diag(self.matrix) != 0):
            raise ValueError("N piece must have zero diagonal")


class _Constraints:
    """Union-find over tuple positions plus known-unequal root pairs."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        # adjacent positions always carry distinct indices (coupling is
        # strictly off-diagonal)
        self.unequal = {frozenset((i, i + 1)) for i in range(n - 1)}

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def copy(self) -> "_Constraints":
        c = _Constraints.__new__(_Constraints)
        c.parent = list(self.parent)
        c.unequal = set(self.unequal)
        return c

    def relation(self, a: int, b: int) -> str | None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return "eq"
        if frozenset((ra, rb)) in self.unequal:
            return "ne"
        return None

    def merge(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self.parent[rb] = ra
        renamed = set()
        for pair in self.unequal:
            renamed.add(frozenset(self.find(x) for x in pair))
        self.unequal = renamed

    def forbid(self, a: int, b: int) -> None:
        self.unequal.add(frozenset((self.find(a), self.find(b))))


def _stage_pairs(l: int):
    for j in range(1, l):
        yield [(k, k + 1 + j) for k in range(l - j)]


def enumerate_patterns(l: int) -> list[ContractionPattern]:
    """All nontrivial contraction / anti-contraction patterns of order l."""
    if not MIN_PATTERN_ORDER <= l <= MAX_PATTERN_ORDER:
        raise ValueError(
            f"unsupported order {l}: patterns are defined for "
            f"{MIN_PATTERN_ORDER} <= l <= {MAX_PATTERN_ORDER}"
        )
    stages = list(_stage_pairs(l))
    flat_pairs = [p for stage in stages for p in stage]
    out: list[ContractionPattern] = []

    def rec(pos: int, cons: _Constraints, letters: list[str], ne_pairs: list):
        if pos == len(flat_pairs):
            groups, k = [], 0
            for stage in stages:
                groups.append("".join(letters[k : k + len(stage)]))
                k += len(stage)
            roots = {}
            for i in range(l + 1):
                roots.setdefault(cons.find(i), []).append(i)
            out.append(
                ContractionPattern(
                    order=l,
                    groups=tuple(groups),
                    classes=tuple(tuple(v) for v in roots.values()),
                    ne_pairs=tuple(ne_pairs),
                )
            )
            return
        a, b = flat_pairs[pos]
        rel = cons.relation(a, b)
        if rel is not None:
            letters.append("k")
            rec(pos + 1, cons, letters, ne_pairs)
            letters.pop()
            return
        eq = cons.copy()
        eq.merge(a, b)
        letters.append("c")
        rec(pos + 1, eq, letters, ne_pairs)
        letters.pop()
        ne = cons.copy()
        ne.forbid(a, b)
        letters.append("n")
        rec(pos + 1, ne, letters, ne_pairs + [(a, b)])
        letters.pop()

    rec(0, _Constraints(l + 1), [], [])
    return out


# ---------------------------------------------------------------------------
# piece evaluation
# ---------------------------------------------------------------------------


def pattern_piece_matrix(
    energies, coupling, pattern: ContractionPattern, t: float
) -> np.ndarray:
    """Matrix of one decomposition piece on a raw (energies, coupling) split."""
    ne_pairs = pattern.ne_pairs
    if pattern.diag_class == "N":
        # first and last index differ even where a diagonal coupling would
        # otherwise join them
        ne_pairs += ((0, pattern.order),)
    return _tuple_sum(
        np.asarray(energies, dtype=float),
        np.asarray(coupling, dtype=complex),
        pattern.classes,
        ne_pairs,
        t,
    )


def _pattern_pieces(m: RedividedHamiltonian, t: float, order: int) -> list[TermPiece]:
    return [
        TermPiece(
            label=str(p),
            matrix=pattern_piece_matrix(m.shifted_energies, m.offdiagonal, p, t),
            time_class=p.time_class,
            diag_class=p.diag_class,
            pattern=p,
        )
        for p in enumerate_patterns(order)
    ]


def second_order_pieces(m: RedividedHamiltonian, t: float) -> tuple[TermPiece, TermPiece]:
    """Contraction and anti-contraction pieces of the order-2 term.

    The contraction piece carries the secular (-i t) part and the squared
    denominators; their sum equals the plain order-2 series term.
    """
    c_piece, n_piece = _pattern_pieces(m, t, 2)
    return c_piece, n_piece


def third_order_pieces(m: RedividedHamiltonian, t: float) -> list[TermPiece]:
    """The five order-3 pieces (cc, cn, nc, nn-c, nn-n), summing to the term."""
    return _pattern_pieces(m, t, 3)


def mixed_second_order_pieces(m: SplitHamiltonian, t: float) -> list[TermPiece]:
    """Order-2 pieces of the un-redivided split by diagonal/off-diagonal factors.

    Splitting each coupling factor into its diagonal part h and off-diagonal
    part g yields four pieces (hh, hg, gh, gg) whose sum is the order-2 term
    of the original split.  A factor V[a, b] of the raw coupling is h when
    a == b and g otherwise, so each piece is a tuple sum over V with the
    matching equal and unequal index positions.
    """
    e = np.asarray(m.energies, dtype=float)
    v = np.asarray(m.perturbation, dtype=complex)
    shapes = (
        ("hh", ((0, 1, 2),), (), "t2e", "D"),
        ("hg", ((0, 1), (2,)), ((1, 2),), "te", "N"),
        ("gh", ((0,), (1, 2)), ((0, 1),), "te", "N"),
        ("gg", ((0,), (1,), (2,)), ((0, 1), (1, 2)), "te", None),
    )
    return [
        TermPiece(
            label=label,
            matrix=_tuple_sum(e, v, classes, ne_pairs, t),
            time_class=time_class,
            diag_class=diag_class,
        )
        for label, classes, ne_pairs, time_class, diag_class in shapes
    ]


def redivided_closed_form_order2(
    m: SplitHamiltonian, t: float, psi0: StateVector
) -> np.ndarray:
    """Second-order amplitudes with every level replaced by its shifted value.

    Direct evaluation of the closed shifted-level form (diagonal terms via the
    explicit confluent limits), independent of the series engine; must agree
    with evolving the redivided model truncated at order 2.
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


# ---------------------------------------------------------------------------
# secular coefficient extraction and resummed aggregates
# ---------------------------------------------------------------------------


def extract_secular_coefficients(
    sample_fn,
    energies,
    max_power: int,
    oversample: int = 4,
    t_scale: float | None = None,
) -> np.ndarray:
    """Fit matrices to sum_{j,a} c[.., j, a] t^a exp(-i E_j t) on a t stencil.

    sample_fn(t) must return a (D, D) matrix analytic in t.  The stencil must
    span several oscillation periods of the smallest level gap or the basis
    functions are numerically collinear; the default window is 8 pi over that
    gap, and the (oversampled, column-normalized) generalized Vandermonde
    system is solved by least squares.  Returns the coefficient array of
    shape (D, D, D, max_power + 1) indexed (row, col, frequency, power).
    An independent check of the exact classes of secular_aggregate_coefficients.
    """
    e = np.asarray(energies, dtype=float)
    dim = e.size
    if t_scale is None:
        if dim > 1:
            gaps = np.abs(e[:, None] - e[None, :]) + np.diag(np.full(dim, np.inf))
            min_gap = float(gaps.min())
        else:
            min_gap = 1.0
        if min_gap <= 0.0:
            raise ValueError("coefficient extraction needs distinct level energies")
        t_scale = 8.0 * math.pi / min_gap
    n_basis = dim * (max_power + 1)
    n_samples = max(oversample * n_basis, n_basis + 4)
    ts = t_scale * np.arange(1, n_samples + 1) / n_samples
    phases = np.exp(-1j * np.outer(ts, e))  # (N, D)
    powers = ts[:, None] ** np.arange(max_power + 1)[None, :]
    design = (phases[:, :, None] * powers[:, None, :]).reshape(n_samples, n_basis)
    col_scale = np.linalg.norm(design, axis=0)
    samples = np.stack([np.asarray(sample_fn(t), dtype=complex) for t in ts])
    coef, *_ = np.linalg.lstsq(
        design / col_scale, samples.reshape(n_samples, -1), rcond=None
    )
    coef = (coef / col_scale[:, None]).reshape(dim, max_power + 1, dim, dim)
    return np.transpose(coef, (2, 3, 0, 1))


def _ordered_g_tuples(total: int, count: int):
    """Ordered tuples of revision orders (each 2..5) with the given sum."""
    if count == 0:
        if total == 0:
            yield ()
        return
    for b in range(2, 6):
        rest = total - b
        if 2 * (count - 1) <= rest <= 5 * (count - 1):
            for tail in _ordered_g_tuples(rest, count - 1):
                yield (b,) + tail


def secular_classes_for_order(l: int) -> tuple[int, ...]:
    """Secular powers with closed resummed forms at order l."""
    if l in (4, 5):
        return (1, 2)
    if l == 6:
        return (2, 3)
    raise ValueError("resummed aggregates are defined for l in {4, 5, 6}")


def _laurent_coefficients(e: np.ndarray, g: np.ndarray, m: int) -> np.ndarray:
    """Coefficients [w^0 .. w^m] of Q_j(w) (g Q_j(w))^m at every level j.

    Returns an array (m + 1, D, D, D) indexed [k, row, col, j]; see
    secular_aggregate_coefficients for Q_j.  Q_j is diagonal, so each of the
    m cut-off series products is a product by g and a column scaling.  The
    t^a exp(-i e_j t) class of the order-m term is (-i)^a / a! times
    coefficient m - a.
    """
    eye = np.eye(e.size)
    r = improved._masked_reciprocal(e)  # 1 / (e_j - e_k), zero at k = j
    # q[n, j, k]: the w^n coefficient of the diagonal of Q_j
    q = np.stack([eye] + [-((-r) ** n) for n in range(1, m + 1)])
    series = (q[:, :, None, :] * eye).astype(complex)  # [n, j, row, col]
    for _ in range(m):
        tail = series @ g
        series = np.stack([
            sum(tail[p] * q[n - p, :, None, :] for p in range(n + 1))
            for n in range(m + 1)
        ])
    return np.moveaxis(series, 1, 3)


def secular_aggregate_coefficients(
    m: RedividedHamiltonian, l: int
) -> dict[int, np.ndarray]:
    """Predicted coefficient arrays of t^a exp(-i E_j t) classes at order l.

    The resummation rule: the t^a class of the order-l term is
    (-i)^a / a! * sum over ordered revision-order tuples (b_1..b_a) and a
    lower order m with b_1 + .. + b_a + m = l of prod_i G^(b_i) at the
    frequency level times the t^0 class of the order-m term.  That class is
    exact: the residue at z = E'_j of exp(-i z t) R (g R)^m, R = (z - E')^-1,
    whose t^0 part is the w^m coefficient of Q_j(w) (g Q_j(w))^m with
    Q_j(w) = P_j + sum_{n>=1} (-1)^(n-1) S_j^n w^n, P_j = e_j e_j^T and
    S_j = diag(1 / (E'_j - E'_k)), zero at k = j (Kato's Laurent series of
    the resolvent).  Requires a nondegenerate shifted spectrum.
    """
    rev = improved.revision_energies(m, max_order=5)
    gvals = {2: rev.g2, 3: rev.g3, 4: rev.g4, 5: rev.g5}
    powers = secular_classes_for_order(l)
    e, g = m.shifted_energies, m.offdiagonal
    e_class = [
        _laurent_coefficients(e, g, order)[order]
        for order in range(max(l - 2 * min(powers), 0) + 1)
    ]
    out = {}
    for a in powers:
        pred = np.zeros((m.dim, m.dim, m.dim), dtype=complex)
        for m_low in range(0, l - 2 * a + 1):
            for btuple in _ordered_g_tuples(l - m_low, a):
                gprod = np.ones(m.dim)
                for b in btuple:
                    gprod = gprod * gvals[b]
                pred += e_class[m_low] * gprod[None, None, :]
        out[a] = pred * (-1j) ** a / math.factorial(a)
    return out


def secular_aggregates(m: RedividedHamiltonian, t: float, l: int) -> list[TermPiece]:
    """Resummed t^a exp classes of the order-l term as diagonal/off-diagonal pieces."""
    coeffs = secular_aggregate_coefficients(m, l)
    phases = np.exp(-1j * m.shifted_energies * t)
    pieces = []
    for a, coef in sorted(coeffs.items()):
        mat = (coef * phases[None, None, :]).sum(axis=2) * (t**a)
        diag = np.diag(np.diag(mat))
        pieces.append(
            TermPiece(
                label=f"t{a}e-D",
                matrix=diag,
                time_class=_TIME_CLASSES[a],
                diag_class="D",
            )
        )
        pieces.append(
            TermPiece(
                label=f"t{a}e-N",
                matrix=mat - diag,
                time_class=_TIME_CLASSES[a],
                diag_class="N",
            )
        )
    return pieces
