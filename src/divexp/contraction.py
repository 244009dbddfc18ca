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

Each piece is a tuple sum with its equal-index classes and unequal pairs
on confluent divided differences, so repeated nodes (the delta-contracted
indices) are limits rather than 0/0.  The propagator's tuple-sum kernel
evaluates it only in pattern_piece_matrix, the reference that checks every
piece.  second_order_pieces and third_order_pieces evaluate the term T_l
once and take two pieces from it: the one pattern that reaches the
diagonal is diag(T_l), and the one with all l + 1 indices distinct is the
off-diagonal of T_l less cc, cn and nc at order 3, which come from one
shared table f[a,a,b,b], f[x,x,y,z] (_third_order_contractions, O(D^3)
work).  A piece taken from T_l is accurate to a few eps of max |T_l|
rather than of its own size.  The mixed pieces take one table f[a,a,b]
and one term.

The resummed secular aggregates take the t^0 classes of the lower orders
exactly, as the series coefficients of each level's spectral projector
(divexp.improved, which builds its improved kernels from the same classes):
one Rayleigh-Schroedinger run gives both these classes and the revision
energies they multiply, with no time sampling, divided difference or matrix
exponential.  The projector form needs a Hermitian coupling, which every
model has.  extract_secular_coefficients, a least-squares fit of sampled
terms on a time stencil, stays as the independent check of those classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import improved, propagator
from .coeff import dd_exp_batch
from .model import RedividedHamiltonian, SplitHamiltonian
from .propagator import _split_arrays, _tuple_sum, series_order_matrix

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


def enumerate_patterns(l: int) -> list[ContractionPattern]:
    """All nontrivial contraction / anti-contraction patterns of order l.

    One recursion over the stage pairs, in stage order, carrying ``label``:
    ``label[i]`` is the equal-index class of tuple position i.  A pair is
    forced ("k") when its ends share a label, or when an adjacent pair
    (distinct, since the coupling is strictly off-diagonal) or an earlier
    "n" pair already joins the same two labels.  Otherwise it branches: "c"
    relabels the class of b to the class of a, "n" records (a, b) as
    unequal.  The classes are the positions grouped by label, in order of
    first occurrence.
    """
    if not MIN_PATTERN_ORDER <= l <= MAX_PATTERN_ORDER:
        raise ValueError(
            f"unsupported order {l}: patterns are defined for "
            f"{MIN_PATTERN_ORDER} <= l <= {MAX_PATTERN_ORDER}"
        )
    pairs = [(k, k + 1 + j) for j in range(1, l) for k in range(l - j)]
    adjacent = [(i, i + 1) for i in range(l)]
    out: list[ContractionPattern] = []

    def rec(label: list[int], letters: str, ne_pairs: list[tuple[int, int]]):
        if len(letters) == len(pairs):
            groups, start = [], 0
            for j in range(1, l):
                groups.append(letters[start : start + l - j])
                start += l - j
            classes: dict[int, list[int]] = {}
            for i, c in enumerate(label):
                classes.setdefault(c, []).append(i)
            out.append(
                ContractionPattern(
                    order=l,
                    groups=tuple(groups),
                    classes=tuple(map(tuple, classes.values())),
                    ne_pairs=tuple(ne_pairs),
                )
            )
            return
        a, b = pairs[len(letters)]
        ends = {label[a], label[b]}
        if len(ends) == 1 or any(
            {label[x], label[y]} == ends for x, y in adjacent + ne_pairs
        ):
            rec(label, letters + "k", ne_pairs)
            return
        rec([label[a] if c == label[b] else c for c in label], letters + "c", ne_pairs)
        rec(label, letters + "n", ne_pairs + [(a, b)])

    rec(list(range(l + 1)), "", [])
    return out


# ---------------------------------------------------------------------------
# piece evaluation
# ---------------------------------------------------------------------------


def pattern_piece_matrix(
    energies, coupling, pattern: ContractionPattern, t: float
) -> np.ndarray:
    """Matrix of one decomposition piece on a raw (energies, coupling) split.

    The energies and the D x D coupling must be finite (ValueError otherwise,
    as for a coupling of another shape or a non-finite t).
    """
    ne_pairs = pattern.ne_pairs
    if pattern.diag_class == "N":
        # first and last index differ even where a diagonal coupling would
        # otherwise join them
        ne_pairs += ((0, pattern.order),)
    energies, coupling = _split_arrays(energies, coupling)
    return _tuple_sum(energies, coupling, pattern.classes, ne_pairs, t)


def _third_order_contractions(energies, coupling, t):
    """cc, cn and nc of order 3 from one table of divided differences.

    The coupling g must be strictly off-diagonal.  With W = g o g^T, the
    pair rows P[a, b] = f[a, a, b, b] and the triple rows
    F[x; y, z] = f[x, x, y, z] (x, y, z distinct, symmetric in y and z):

        cc = P o g o W,   cn[a, c] = g[a, c] V[a, c],   nc[a, b] = g[a, b] V[b, a],

    V[x, y] = sum_z W[x, z] F[x; y, z].  A divided difference is symmetric in
    its nodes, and dd_exp_batch gives every ordering of a row the same bits,
    so each value is bitwise the tuple route's; pattern_piece_matrix stays
    the independent check of the three pieces.
    The triple rows go to dd_exp_batch in blocks of the doubled level x, at
    most TUPLES_PER_CALL rows a call but at least one level, and the pair
    rows with the first block, so a call holds O(D^2) rows.  The first call
    is made even when it has no row, so a non-finite t always raises.
    """
    dim = energies.size
    w = coupling * coupling.T
    a, b = np.triu_indices(dim, 1)
    pairs = np.column_stack((a, a, b, b))
    # the pairs y < z of the other levels of x, from those of 0 .. D - 2
    y, z = np.triu_indices(dim - 1, 1)
    per_call = propagator.TUPLES_PER_CALL
    first, step = (
        (max(1, (per_call - len(pairs)) // y.size), max(1, per_call // y.size))
        if y.size
        else (dim, dim)
    )
    bounds = [0, *range(first, dim, step), dim]
    P = np.zeros((dim, dim), dtype=complex)
    V = np.empty((dim, dim), dtype=complex)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        x = np.arange(start, stop)[:, None]
        ys, zs = y + (y >= x), z + (z >= x)
        xs = np.broadcast_to(x, ys.shape)
        triples = np.stack((xs, xs, ys, zs), axis=-1).reshape(-1, 4)
        rows = pairs if start == 0 else pairs[:0]
        vals, _, _ = dd_exp_batch(energies[np.concatenate((rows, triples))], t)
        if start == 0:
            P[a, b] = P[b, a] = vals[: len(pairs)]
        F = np.zeros((stop - start, dim, dim), dtype=complex)
        block = vals[len(rows) :].reshape(ys.shape)
        F[x - start, ys, zs] = F[x - start, zs, ys] = block
        V[start:stop] = np.einsum("xz,xyz->xy", w[start:stop], F)
    return P * coupling * w, coupling * V, coupling * V.T


def _third_order_counts(coupling) -> np.ndarray:
    """Entry (a, b): the number of tuples (a, i, j, b) of pairwise distinct
    indices, but for a = b on the diagonal, whose coupling product is non-zero.

    These are the tuples of nn,c on the diagonal and of nn,n off it.  With
    B the non-zero mask of the coupling, whose diagonal is zero, (B^3)[a, b]
    counts every walk a -> i -> j -> b, so adjacent indices differ.  On the
    diagonal that is the count.  Off it, the walks with j = a number
    s_a B[a, b], s_a = sum_i B[a, i] B[i, a], those with i = b number
    B[a, b] s_b, and a -> b -> a -> b is among both.
    """
    mask = (coupling != 0).astype(float)  # counts stay exact in float64
    s = (mask * mask.T).sum(axis=1)
    return mask @ mask @ mask - mask * (s[:, None] + s[None, :] - mask.T)


def _pieces_from_term(
    m: RedividedHamiltonian, t: float, order: int, term: np.ndarray
) -> list[TermPiece]:
    """The order-2 or order-3 pieces, two of them derived from the term T_l.

    The pieces of order l sum to T_l.  Only a pattern that joins the first
    and last positions (diagonal class D) reaches the diagonal, and orders 2
    and 3 have one such pattern, so it is diag(T_l).  One pattern puts all
    l + 1 positions in separate classes; it is the off-diagonal of T_l less
    every other N piece.  Those others are cc, cn and nc at order 3, none at
    order 2, and all three come from one shared table of divided differences
    (_third_order_contractions, O(D^3) work), so no sum here runs over
    D^(l+1).  A derived entry carries an absolute rounding error on the
    scale of max |T_l|.  At order 3 a derived entry is set to exactly 0
    where its pattern has no tuple with a non-zero coupling product (every
    nn,n entry at D <= 3), as the direct sum gives; at order 2 the term is
    already exactly 0 there, where no walk of two coupling steps joins the
    row and the column.
    """
    patterns = enumerate_patterns(order)
    diag = np.diag(np.diag(term))
    off = term - diag
    matrices = {}
    if order == 3:
        g = m.offdiagonal
        # enumeration order puts cc, cn and nc first
        pieces = _third_order_contractions(m.shifted_energies, g, t)
        for p, piece in zip(patterns, pieces):
            matrices[p] = piece
            off -= piece
        zero = _third_order_counts(g) == 0
        diag[zero] = off[zero] = 0.0
    for p in patterns:
        if p not in matrices:
            matrices[p] = diag if p.diag_class == "D" else off
    return [
        TermPiece(
            label=str(p),
            matrix=matrices[p],
            time_class=p.time_class,
            diag_class=p.diag_class,
            pattern=p,
        )
        for p in patterns
    ]


def _pieces(m: RedividedHamiltonian, t: float, order: int) -> list[TermPiece]:
    term = series_order_matrix(m.shifted_energies, m.offdiagonal, order, t)
    return _pieces_from_term(m, t, order, term)


def second_order_pieces(m: RedividedHamiltonian, t: float) -> tuple[TermPiece, TermPiece]:
    """Contraction and anti-contraction pieces of the order-2 term.

    The contraction piece carries the secular (-i t) part and the squared
    denominators; their sum equals the plain order-2 series term.  Both come
    from that term: c is its diagonal and n the rest.
    """
    c_piece, n_piece = _pieces(m, t, 2)
    return c_piece, n_piece


def third_order_pieces(m: RedividedHamiltonian, t: float) -> list[TermPiece]:
    """The five order-3 pieces (cc, cn, nc, nn-c, nn-n), summing to the term.

    cc, cn and nc come from one shared table of divided differences, and
    their tuple sums (pattern_piece_matrix) are the independent check; nn-c
    is the diagonal of the order-3 term and nn-n its off-diagonal less cc,
    cn and nc.
    """
    return _pieces(m, t, 3)


def mixed_second_order_pieces(m: SplitHamiltonian, t: float) -> list[TermPiece]:
    """Order-2 pieces of the un-redivided split by diagonal/off-diagonal factors.

    Each factor of the coupling V = diag(d) + g is its diagonal part d or its
    off-diagonal part g, so the order-2 term of the split is the sum of four
    pieces.  With F[a, b] = f[a, a, b], one dd_exp_batch table of D^2 rows,
    hh = diag(F[a, a] d_a^2), hg[a, b] = F[a, b] d_a g[a, b] and
    gh[a, b] = F[b, a] g[a, b] d_b; gg is the order-2 term of g
    (series_order_matrix).  gg goes first, so 3 D above MAX_BLOCK_SIDE
    (D >= 683) raises BudgetExceededError before the table is built.
    """
    e, v = m.energies, m.perturbation
    d = np.diag(v)
    g = v - np.diag(d)
    gg = series_order_matrix(e, g, 2, t)
    a, b = np.indices(v.shape)
    F = dd_exp_batch(e[np.stack((a, a, b), axis=-1).reshape(-1, 3)], t)[0]
    F = F.reshape(v.shape)
    pieces = (
        ("hh", np.diag(np.diag(F) * d**2), "t2e", "D"),
        ("hg", F * d[:, None] * g, "te", "N"),
        ("gh", F.T * g * d, "te", "N"),
        ("gg", gg, "te", None),
    )
    return [TermPiece(*piece) for piece in pieces]


# ---------------------------------------------------------------------------
# secular coefficient extraction and resummed aggregates
# ---------------------------------------------------------------------------


def extract_secular_coefficients(sample_fn, energies, max_power: int) -> np.ndarray:
    """Fit matrices to sum_{j,a} c[.., j, a] t^a exp(-i E_j t) on a t stencil.

    sample_fn(t) must return a (D, D) matrix analytic in t.  The stencil must
    span several oscillation periods of the smallest level gap or the basis
    functions are numerically collinear, so its window is 8 pi over that gap,
    and the fourfold oversampled, column-normalized generalized Vandermonde
    system is solved by least squares.  Returns the coefficient array of
    shape (D, D, D, max_power + 1) indexed (row, col, frequency, power).
    An independent check of the exact classes of secular_aggregate_coefficients.
    """
    e = np.asarray(energies, dtype=float)
    dim = e.size
    if dim > 1:
        gaps = np.abs(e[:, None] - e[None, :]) + np.diag(np.full(dim, np.inf))
        min_gap = float(gaps.min())
    else:
        min_gap = 1.0
    if min_gap <= 0.0:
        raise ValueError("coefficient extraction needs distinct level energies")
    t_scale = 8.0 * math.pi / min_gap
    n_basis = dim * (max_power + 1)
    n_samples = max(4 * n_basis, n_basis + 4)
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


def secular_classes_for_order(l: int) -> tuple[int, ...]:
    """Secular powers with closed resummed forms at order l."""
    if l in (4, 5):
        return (1, 2)
    if l == 6:
        return (2, 3)
    raise ValueError("resummed aggregates are defined for l in {4, 5, 6}")


def secular_aggregate_coefficients(
    m: RedividedHamiltonian, l: int
) -> dict[int, np.ndarray]:
    """Predicted coefficient arrays of t^a exp(-i E_j t) classes at order l.

    The resummation rule: the t^a class of the order-l term is
    (-i)^a / a! * sum over lower orders p of [lam^(l-p)] Delta_j(lam)^a times
    the t^0 class of the order-p term, where
    Delta_j(lam) = sum_{b=2..5} G^(b)_j lam^b at the frequency level j.  The
    order-p class at level j is the lam^p coefficient of that level's
    spectral projector of diag(E') + lam g, psi_j psi_j^H / (psi_j^H psi_j)
    for the Rayleigh-Schroedinger state psi_j and a Hermitian g.  One
    Rayleigh-Schroedinger run gives these classes and the G^(b).  Requires a
    nondegenerate shifted spectrum.
    """
    powers = secular_classes_for_order(l)
    rev, states = improved._revision_series(m, 5)
    low = l - 2 * min(powers)
    classes = improved._projector_series(states[: low + 1], np.eye(m.dim))
    # delta[b] and power[b]: the lam^b coefficients of Delta and of Delta^a
    delta = np.zeros((l + 1, m.dim))
    delta[2:6] = rev.G[: l - 1]
    power = np.zeros_like(delta)
    power[0] = 1.0
    out = {}
    for a in range(1, max(powers) + 1):
        power, previous = np.zeros_like(power), power
        for i in range(l + 1):
            power[i:] += previous[i] * delta[: l + 1 - i]
        if a in powers:
            pred = sum(classes[p] * power[l - p] for p in range(l - 2 * a + 1))
            out[a] = pred * (-1j) ** a / math.factorial(a)
    return out


def secular_aggregates(m: RedividedHamiltonian, t: float, l: int) -> list[TermPiece]:
    """Resummed t^a exp classes of the order-l term as diagonal/off-diagonal pieces.

    t must be finite (ValueError otherwise).
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
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
