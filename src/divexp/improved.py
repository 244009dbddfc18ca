"""Improved perturbation scheme: revision energies and resummed solutions.

Secular contributions (powers of t times oscillatory factors) of the higher
series orders resum into level-dependent phase shifts.  The order-a shift of
level g is the revision energy G^(a)_g; adding them to the exponents yields
improved perturbed solutions, transition probabilities (and a revised golden
rule), and improved perturbed energies and states.  Everything here assumes a
nondegenerate shifted spectrum and gates on it.

One recursion carries the whole scheme.  The Rayleigh-Schroedinger
recursion, run for every level at once, gives the revision energies (the
order-a energies) and the perturbed states psi_j.  For a Hermitian coupling
the spectral projector of level j is psi_j psi_j^H / (psi_j^H psi_j), and its
order-k coefficient is the t^0 class of the order-k series term at level j:
the improved kernel of solution order k is that class times the shifted
phases exp(-i freq t), and divexp.contraction takes the secular aggregates
from the same classes.  The kernel is linear in the phases, so an improved
solution on a time grid is one Rayleigh-Schroedinger run, a D x D matrix N
of classes applied to psi0, and one phase-matrix product exp(-i t freq) @ N^T.
The recursion runs to any order (a diverged, non-finite term raises
ValueError); only the improved solutions stop, at SCHEME_ORDER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    HERMITICITY_RTOL,
    RedividedHamiltonian,
    SplitHamiltonian,
    StateVector,
    _require_distinct_levels,
    redivide,
    require_nondegenerate,
)

REALITY_TOL = 1e-10

#: halvings of the golden-rule trapezoid step after the first 64 panels
MAX_REFINE = 18

#: relative change of successive Richardson values that ends the refinement
REL_TOL = 1e-4

#: order of the improved scheme: its solutions run over orders 0..SCHEME_ORDER,
#: and the one of order k takes G^(2..SCHEME_ORDER + 2 - k) into its exponent
SCHEME_ORDER = 3


class GoldenRuleError(RuntimeError):
    """Revised-golden-rule input or refinement failure."""


@dataclass(frozen=True)
class RevisionEnergies:
    """Row a - 2 of G, shape (max_order - 1, D), is G^(a); shifted is E' + its rows."""

    G: np.ndarray
    shifted: np.ndarray
    max_order: int


@dataclass(frozen=True)
class ImprovedSolution:
    order: int
    times: np.ndarray
    amplitudes: np.ndarray  # (n_times, D)
    revisions: RevisionEnergies


@dataclass(frozen=True)
class TransitionReport:
    times: np.ndarray | None = None
    p_usual: np.ndarray | None = None
    p_improved: np.ndarray | None = None
    delta: np.ndarray | None = None
    rate_usual: float | None = None
    rate_delta: float | None = None


def _rs_series(e: np.ndarray, g: np.ndarray, n: int):
    """Rayleigh-Schroedinger energies and states of every level through order n.

    With S[k, j] = 1 / (e_j - e_k), zero at k = j, and Psi^(0) = I:
    E^(k) = diag(g Psi^(k-1)) and
    Psi^(k) = S o (g Psi^(k-1) - sum_{b=1..k} Psi^(k-b) E^(b)),
    where column j of Psi^(k) is the order-k state correction of level j
    (zero on level j itself).  Returns the lists [E^(0) .. E^(n)], E^(0) = e,
    and [Psi^(0) .. Psi^(n)].  Past the nearest branch point the series
    diverges, and an order-k term that is no longer finite raises ValueError.
    """
    diff = e[:, None] - e[None, :]
    np.fill_diagonal(diff, np.inf)
    s = -1.0 / diff
    energies = [e]
    states = [np.eye(e.size, dtype=complex)]
    for k in range(1, n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            g_psi = g @ states[k - 1]
            energies.append(np.diag(g_psi))
            # the b = k term, Psi^(0) E^(k), is diagonal, where S vanishes
            lower = sum(states[k - b] * energies[b] for b in range(1, k))
            states.append(s * (g_psi - lower))
        if not (np.isfinite(energies[k]).all() and np.isfinite(states[k]).all()):
            raise ValueError(f"the order-{k} Rayleigh-Schroedinger term is not finite")
    return energies, states


def _projector_series(states: list, right: np.ndarray) -> list:
    """Coefficients [P^(0) .. P^(n)] of every level's spectral projector.

    ``states`` are the Rayleigh-Schroedinger states [Psi^(0) .. Psi^(n)] of
    diag(e) + lam g.  For a Hermitian g the left eigenvector of level j is
    the conjugate series, so P_j(lam) = psi_j phi_j^T with
    phi_j = conj(psi_j) / (psi_j^H psi_j) and
    psi_j = sum_k lam^k Psi^(k)[:, j] (Kato II 2).  With the norm series
    N_k = sum_{a+b=k} diag(Psi^(a)^H Psi^(b)), N_0 = 1, phi^(s) follows from
    sum_{c=0..s} N_c phi^(s-c) = conj(Psi^(s)), and P^(k) at level j is
    sum_{a+s=k} Psi^(a)[:, j] (x) phi^(s)[:, j], the t^0 class of the
    order-k series term.  Returns (D, C, D) arrays [row, col, j] of P^(k)
    applied to the (D, C) ``right``.
    """
    psi = np.stack(states)  # [k, row, j]
    gram = (psi.conj()[:, None] * psi).sum(axis=2)  # [a, b, j]
    norm = [sum(gram[a, k - a] for a in range(k + 1)) for k in range(len(psi))]
    phi = right.T @ psi.conj()  # [s, col, j]
    for s in range(1, len(psi)):
        for c in range(1, s + 1):
            phi[s] -= norm[c] * phi[s - c]
    return [
        (psi[: k + 1, :, None] * phi[k::-1, None]).sum(axis=0) for k in range(len(psi))
    ]


def _real_checked(values: np.ndarray, what: str) -> np.ndarray:
    scale = np.maximum(np.abs(values), 1.0)
    worst = float(np.max(np.abs(values.imag) / scale, initial=0.0))
    if worst > REALITY_TOL:
        raise ValueError(f"{what} acquired imaginary residue {worst:.3e}")
    return values.real.copy()


def _revision_series(
    m: RedividedHamiltonian, max_order: int
) -> tuple[RevisionEnergies, list]:
    """revision_energies and the states [Psi^(0) .. Psi^(max_order)] of its run."""
    if max_order < 2:
        raise ValueError(f"max_order must be >= 2, got {max_order}")
    require_nondegenerate(m)
    e = m.shifted_energies
    energies, states = _rs_series(e, m.offdiagonal, max_order)
    G = _real_checked(np.array(energies[2:]), f"G^(2..{max_order})")
    return RevisionEnergies(G=G, shifted=sum(G, e), max_order=max_order), states


def revision_energies(m: RedividedHamiltonian, max_order: int = 5) -> RevisionEnergies:
    """Per-level revision energies G^(2..max_order) and the shifted levels.

    G^(a) is the order-a Rayleigh-Schroedinger energy of each level on the
    redivided split (the coupling has no diagonal, so the order-1 energy
    vanishes); it is row a - 2 of ``G``.  All values are real for a Hermitian
    coupling.  Raises DegeneracyError when two shifted levels lie within
    default_gap_tol(m), and ValueError for max_order < 2 or a diverged term.
    Past the nearest branch point the sums are finite and wrong before any
    term diverges, and nothing warns: levels 0 and 1 coupled by |V| = 1 give
    level 0 the energies 0.0, 3.0 and 3760.0 at max_order 5, 9 and 21,
    against the exact -0.618.  No error bound is reported yet (ROADMAP item
    4 derives one from Kato's radius).
    """
    return _revision_series(m, max_order)[0]


def _finite_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    return times


def improved_kernel(
    e: np.ndarray, g: np.ndarray, freq: np.ndarray, order: int, t: float
) -> np.ndarray:
    """Kernel matrix of one improved solution order at time t.

    The t^0 classes of the order-k series term, one per level j, each times
    exp(-i freq_j t).  A class is the order-k coefficient of the level's
    spectral projector, which needs a Hermitian ``g`` (to HERMITICITY_RTOL
    of its largest entry; ValueError otherwise).  ``freq`` holds the
    (shifted) exponent frequencies; denominators use the unshifted ``e``.
    With freq == e this is the pure oscillatory class of the plain term.
    Any order k >= 0 is accepted.  A non-finite entry of ``t``, ``e``, ``g``
    or ``freq``, or a diverged term, raises ValueError, and two levels of
    ``e`` within the gate of default_gap_tol, 1e-8 max(max |e|, 1), raise
    DegeneracyError.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if not all(np.all(np.isfinite(a)) for a in (e, g, freq)):
        raise ValueError("e, g and freq must be finite")
    g = np.asarray(g, dtype=complex)
    asym = np.max(np.abs(g - g.conj().T), initial=0.0)
    if asym > HERMITICITY_RTOL * np.max(np.abs(g), initial=0.0):
        raise ValueError(f"g is not Hermitian: max |g - g^H| = {asym:.3e}")
    _require_distinct_levels(e)
    _, states = _rs_series(e, g, order)
    classes = _projector_series(states, np.eye(e.size))[order]
    return classes @ np.exp(-1j * freq * t)


def improved_solution(
    m: RedividedHamiltonian, psi0: StateVector, times, order: int
) -> ImprovedSolution:
    """Order-k improved amplitudes with revision-shifted exponents.

    Order k in 0..SCHEME_ORDER (ValueError otherwise) takes the revision
    energies G^(2..SCHEME_ORDER + 2 - k) into its exponent; differences in
    denominators keep the unshifted (redivided) energies.  At t = 0 each
    order reduces exactly to its plain counterpart.

    The kernel is linear in its phase vector exp(-i freq t), so the matrix N
    whose column j is the t^0 class of level j applied to psi0 serves every
    time: N comes from the states of the one Rayleigh-Schroedinger run that
    also gives the revision energies, and the amplitudes are
    exp(-i outer(times, freq)) @ N^T.
    """
    if not 0 <= order <= SCHEME_ORDER:
        raise ValueError(f"order must be 0..{SCHEME_ORDER}")
    if psi0.dim != m.dim:
        raise ValueError("state dimension does not match model")
    times = _finite_times(times)
    rev, states = _revision_series(m, SCHEME_ORDER + 2)
    freq = m.shifted_energies + rev.G[: SCHEME_ORDER + 1 - order].sum(axis=0)
    N = _projector_series(states[: order + 1], psi0.amplitudes[:, None])[order][:, 0]
    out = np.exp(-1j * np.outer(times, freq)) @ N.T
    return ImprovedSolution(order=order, times=times, amplitudes=out, revisions=rev)


def improved_transition(
    m: RedividedHamiltonian, from_level: int, to_level: int, times
) -> TransitionReport:
    """First-order transition probabilities with and without shifted frequency.

    p_improved replaces the oscillation frequency by the revision-shifted one
    (the order-1 solution's depth, G^(2..SCHEME_ORDER + 1)) while keeping
    the unshifted amplitude prefactor.  delta = p_improved - p_usual is
    evaluated as the product 4 |g|^2 sin((w + w~) t / 2) sin((w~ - w) t / 2)
    / w^2, with w~ - w the difference of the two levels' shifts, so it stays
    accurate relative to itself where the shift is tiny and the difference
    of the two probabilities cancels.
    """
    dim = m.dim
    if not (0 <= from_level < dim and 0 <= to_level < dim):
        raise IndexError("level index out of range")
    if from_level == to_level:
        raise ValueError("transition requires distinct levels")
    times = _finite_times(times)
    shift = revision_energies(m, SCHEME_ORDER + 1).G.sum(axis=0)
    e = m.shifted_energies
    omega = e[to_level] - e[from_level]
    omega_t = omega + shift[to_level] - shift[from_level]
    dshift = shift[to_level] - shift[from_level]  # omega_t - omega, uncancelled
    amp = abs(m.offdiagonal[to_level, from_level]) ** 2
    p_usual = amp * np.sin(omega * times / 2.0) ** 2 / (omega / 2.0) ** 2
    p_improved = amp * np.sin(omega_t * times / 2.0) ** 2 / (omega / 2.0) ** 2
    delta = (
        4.0 * amp * np.sin((omega + omega_t) * times / 2.0)
        * np.sin(dshift * times / 2.0) / omega**2
    )
    return TransitionReport(
        times=times, p_usual=p_usual, p_improved=p_improved, delta=delta
    )


def _trapezoid_refine(f, lo, hi):
    n = 64
    xs = np.linspace(lo, hi, n + 1)
    vals = f(xs)
    coarse = np.trapezoid(vals, xs)
    prev_richardson = None
    for _ in range(MAX_REFINE):
        mids = (xs[:-1] + xs[1:]) / 2.0
        fm = f(mids)
        fine = coarse / 2.0 + np.sum(fm) * (xs[1] - xs[0]) / 2.0
        richardson = (4.0 * fine - coarse) / 3.0
        if prev_richardson is not None:
            scale = max(abs(richardson), 1e-300)
            if abs(richardson - prev_richardson) <= REL_TOL * scale:
                return richardson
        merged = np.empty(xs.size + mids.size)
        merged[0::2] = xs
        merged[1::2] = mids
        xs = merged
        coarse = fine
        prev_richardson = richardson
    raise GoldenRuleError("non-convergent refinement of the rate correction")


def revised_golden_rule(
    m: RedividedHamiltonian, from_level: int, rho, T: float
) -> TransitionReport:
    """Usual golden-rule rate plus the frequency-shift correction integral.

    ``rho`` is a tabulated density of final states, (energies, values), on a
    window containing the initial level; it is interpolated with a monotone
    cubic.  The continuum coupling |g|^2 is the mean of |g_{beta k}|^2 over
    the other levels k.  The shift of the final-state frequency is taken
    through second order, with continuum states coupling to the ladder like
    the initial level does; the correction integral runs over the tabulated
    window via trapezoid sums with Richardson refinement to a relative
    change of REL_TOL, halving the step at most MAX_REFINE times.  With no
    other level both rates are 0.  The shift has a pole at every other
    level, so a level whose shifted energy lies in the closed density window
    raises GoldenRuleError naming it, before any quadrature.
    """
    if not (math.isfinite(T) and T > 0):
        raise GoldenRuleError(f"T must be finite and positive, got {T}")
    dim = m.dim
    if not 0 <= from_level < dim:
        raise IndexError("level index out of range")
    require_nondegenerate(m)
    rho_e = np.asarray(rho[0], dtype=float).reshape(-1)
    rho_v = np.asarray(rho[1], dtype=float).reshape(-1)
    if rho_e.size != rho_v.size or rho_e.size < 4:
        raise GoldenRuleError("density table needs matching arrays of length >= 4")
    if not (np.all(np.isfinite(rho_e)) and np.all(np.isfinite(rho_v))):
        raise GoldenRuleError("density energies and values must be finite")
    if np.any(np.diff(rho_e) <= 0):
        raise GoldenRuleError("density energies must be strictly increasing")
    if np.any(rho_v < 0):
        raise GoldenRuleError("density values must be nonnegative")
    e = m.shifted_energies
    e_beta = e[from_level]
    if not (rho_e[0] <= e_beta <= rho_e[-1]):
        raise GoldenRuleError(
            f"density window [{rho_e[0]:g}, {rho_e[-1]:g}] does not contain the "
            f"initial level energy {e_beta:g}"
        )
    poles = [k for k in range(dim) if k != from_level and rho_e[0] <= e[k] <= rho_e[-1]]
    if poles:
        raise GoldenRuleError(
            f"levels {poles} lie in the density window [{rho_e[0]:g}, {rho_e[-1]:g}]: "
            "the frequency shift has a pole there"
        )
    # imported here: the rest of divexp needs no scipy.interpolate
    from scipy.interpolate import PchipInterpolator

    density = PchipInterpolator(rho_e, rho_v, extrapolate=False)

    others = [i for i in range(dim) if i != from_level]
    gb2 = np.abs(m.offdiagonal[from_level, others]) ** 2
    coupling_sq = float(gb2.mean()) if others else 0.0
    w1 = e[others] - e_beta  # ladder frequencies relative to the initial level

    def integrand(om):
        # 2 (cos(om T) - cos((om + shift) T)) / (T om^2) as a product of
        # sincs, with q = shift / om regular at om = 0; np.sinc(x) is
        # sin(pi x) / (pi x)
        q = (gb2 / (w1 * (om[:, None] - w1))).sum(axis=-1)
        rho_here = np.nan_to_num(density(om + e_beta), nan=0.0)
        x = om * T / (2.0 * np.pi)
        sincs = np.sinc((2.0 + q) * x) * np.sinc(q * x)
        return rho_here * coupling_sq * T * (2.0 + q) * q * sincs

    rate_usual = 2.0 * math.pi * float(density(e_beta)) * coupling_sq
    rate_delta = float(
        _trapezoid_refine(integrand, rho_e[0] - e_beta, rho_e[-1] - e_beta)
    )
    return TransitionReport(rate_usual=rate_usual, rate_delta=rate_delta)


def improved_energy(m: SplitHamiltonian, level: int, max_order: int = 5) -> float:
    """Improved perturbed energy: shifted level plus revision energies.

    The scheme's own first- and second-order residual corrections vanish, so
    the sum E'_level + G^(2..max_order) already carries the high-order
    content.  Any max_order >= 2 is accepted, as in revision_energies; past
    the nearest branch point the sum is finite and wrong, with no warning.
    """
    red = redivide(m)
    if not 0 <= level < red.dim:
        raise IndexError("level index out of range")
    rev = revision_energies(red, max_order=max_order)
    return float(rev.shifted[level])


def improved_state_coefficients(
    m: RedividedHamiltonian, level: int, order: int
) -> np.ndarray:
    """Order-k perturbed-state coefficients for one level, any order k >= 1.

    Column ``level`` of the order-k Rayleigh-Schroedinger state correction.
    The component on the reference level stays at its zeroth-order value
    (no normalization correction), so the returned vector is zero there.
    Raises ValueError for k < 1 or a diverged term.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0 <= level < m.dim:
        raise IndexError("level index out of range")
    require_nondegenerate(m)
    _, states = _rs_series(m.shifted_energies, m.offdiagonal, order)
    return states[order][:, level]
