"""Improved perturbation scheme: revision energies and resummed solutions.

Secular contributions (powers of t times oscillatory factors) of the higher
series orders resum into level-dependent phase shifts.  The order-a shift of
level g is the revision energy G^(a)_g, built from off-diagonal couplings and
shifted-level differences; adding them to the exponents yields improved
perturbed solutions, transition probabilities (and a revised golden rule),
and improved perturbed energies and states.  Everything here assumes a
nondegenerate shifted spectrum and gates on it.

An improved solution is a phase-matrix product: its kernel is linear in the
phase vector exp(-i freq t), so D kernel builds on unit phase vectors give a
D x D matrix N, and the amplitudes on a time grid are exp(-i t freq) @ N^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .model import (
    RedividedHamiltonian,
    SplitHamiltonian,
    StateVector,
    default_gap_tol,
    redivide,
    require_nondegenerate,
)

REALITY_TOL = 1e-10

#: halvings of the golden-rule trapezoid step after the first 64 panels
MAX_REFINE = 18

#: highest revision order entering the exponent of each improved solution order
SHIFT_DEPTH = {0: 5, 1: 4, 2: 3, 3: 2}


class GoldenRuleError(RuntimeError):
    """Revised-golden-rule input or refinement failure."""


@dataclass(frozen=True)
class RevisionEnergies:
    g2: np.ndarray
    g3: np.ndarray
    g4: np.ndarray
    g5: np.ndarray
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


def _masked_reciprocal(e: np.ndarray) -> np.ndarray:
    """R[i, j] = 1 / (e_i - e_j) with zero diagonal."""
    diff = e[:, None] - e[None, :]
    np.fill_diagonal(diff, 1.0)
    r = 1.0 / diff
    np.fill_diagonal(r, 0.0)
    return r


def _real_checked(values: np.ndarray, what: str) -> np.ndarray:
    scale = np.maximum(np.abs(values), 1.0)
    worst = float(np.max(np.abs(values.imag) / scale, initial=0.0))
    if worst > REALITY_TOL:
        raise ValueError(f"{what} acquired imaginary residue {worst:.3e}")
    return values.real.copy()


def revision_energies(
    m: RedividedHamiltonian, max_order: int = 5, gap_tol: float | None = None
) -> RevisionEnergies:
    """Per-level revision energies G^(2..max_order) and the shifted levels.

    G^(2)_g sums |g_{g g1}|^2 over inverse level differences; G^(3) is the
    closed triple loop; G^(4) and G^(5) combine the loop sums with their
    pair-product counter-terms so only genuine (anti-contracted) paths
    contribute.  All values are real for a Hermitian coupling.
    """
    if not 2 <= max_order <= 5:
        raise ValueError("max_order must lie in 2..5")
    require_nondegenerate(m, default_gap_tol(m) if gap_tol is None else gap_tol)
    e = m.shifted_energies
    g = m.offdiagonal
    dim = m.dim
    R = _masked_reciprocal(e)
    R2 = R * R
    absg2 = np.abs(g) ** 2

    g2 = (absg2 * R).sum(axis=1)
    g3 = g4 = g5 = np.zeros(dim)
    W = g * R
    if max_order >= 3:
        Wg = W @ g
        g3 = _real_checked(np.einsum("ij,ij,ji->i", Wg, R, g), "G^(3)")
    if max_order >= 4:
        Y = R * g.T  # Y[i, k] = g[k, i] / (e_i - e_k)
        loops = Y @ g.T  # loops[i, j] = sum_k g[j, k] g[k, i] / (e_i - e_k)
        s2 = (absg2 * R2).sum(axis=1)
        term1 = np.einsum("ij,ij,ij->i", Wg, loops, R)
        g4 = _real_checked(term1, "G^(4)") - s2 * g2
    if max_order >= 5:
        term1 = np.einsum("ij,jk,ik->i", Wg * R, g, loops * R)
        W2g = (g * R2) @ g
        # the two asymmetric-denominator loop sums are conjugates of each
        # other; only their sum is real
        g3_21 = np.einsum("ij,ij,ji->i", W2g, R, g)
        g3_12 = np.einsum("ij,ij,ji->i", Wg, R2, g)
        g5 = _real_checked(
            term1 - (s2 * g3 + g2 * (g3_21 + g3_12)), "G^(5)"
        )

    parts = {2: g2, 3: g3, 4: g4, 5: g5}
    shifted = e.copy()
    for a in range(2, max_order + 1):
        shifted = shifted + parts[a]
    return RevisionEnergies(
        g2=g2, g3=g3, g4=g4, g5=g5, shifted=shifted, max_order=max_order
    )


def _finite_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    return times


def _shift_sum(rev: RevisionEnergies, depth: int) -> np.ndarray:
    parts = {2: rev.g2, 3: rev.g3, 4: rev.g4, 5: rev.g5}
    s = np.zeros_like(rev.g2)
    for a in range(2, depth + 1):
        s = s + parts[a]
    return s


def improved_kernel(
    e: np.ndarray, g: np.ndarray, freq: np.ndarray, order: int, t: float
) -> np.ndarray:
    """Kernel matrix of one improved solution order at time t.

    ``freq`` holds the (shifted) exponent frequencies; level differences in
    denominators always use the unshifted ``e``.  With freq == e this is the
    pure oscillatory class of the plain order-k term.
    """
    return _kernel(e, g, np.exp(-1j * freq * t), order)


def _kernel(e: np.ndarray, g: np.ndarray, ph: np.ndarray, order: int) -> np.ndarray:
    """Order-k kernel matrix for the phase vector ph; linear in ph."""
    dim = e.size
    R = _masked_reciprocal(e)
    R2 = R * R
    W = g * R
    absg2 = np.abs(g) ** 2
    offmask = 1.0 - np.eye(dim)
    if order == 0:
        return np.diag(ph)
    if order == 1:
        return ph[:, None] * W - W * ph[None, :]
    if order == 2:
        diag = ph * (R2 * absg2).sum(axis=1) - (R2 * absg2) @ ph
        gW = g @ W
        M = ph[:, None] * ((W @ g) * R) - (W * ph[None, :]) @ W + (gW * R) * ph[None, :]
        return -np.diag(diag) + M * offmask
    if order == 3:
        Wg = W @ g
        W2 = g * R2
        W2g = W2 @ g
        gW = g @ W
        g2 = (absg2 * R).sum(axis=1)
        s2q = (R2 * absg2).sum(axis=1)
        Q1 = Wg * R
        # diagonal block: frequencies on the outer level, then the two inner
        u1 = np.einsum("ij,ij,ji->i", Wg, R2, g)
        u1b = np.einsum("ij,ij,ji->i", W2g, R, g)
        u2 = np.einsum("ij,j,ji->i", W2, ph, Wg)
        u3 = np.einsum("ij,j,ij,ji->i", gW, ph, R2, g)
        diag = -ph * (u1 + u1b) + u2 - u3
        # column-frequency loop sums (over the final level's ladder)
        q1 = (absg2.T * R).sum(axis=0)
        q2 = (absg2.T * R2).sum(axis=0)
        Ma = -(ph * g2)[:, None] * (R2 * g) - (ph * s2q)[:, None] * W
        Mb = W * (q2 * ph)[None, :] + (R2 * g) * (q1 * ph)[None, :]
        v1 = ph[:, None] * ((Q1 @ g) * R)
        v2 = (W * ph[None, :]) @ Q1
        v3 = ((gW * R) * ph[None, :]) @ W
        v4 = -(g @ (gW * R)) * R * ph[None, :]
        return np.diag(diag) + (Ma + Mb + v1 - v2 + v3 + v4) * offmask
    raise ValueError("order must be 0..3")


def improved_solution(
    m: RedividedHamiltonian,
    psi0: StateVector,
    times,
    order: int,
    gap_tol: float | None = None,
) -> ImprovedSolution:
    """Order-k improved amplitudes with revision-shifted exponents.

    The shift depth decreases with the solution order (order 0 uses
    G^(2..5), order 1 G^(2..4), order 2 G^(2..3), order 3 G^(2)); level
    differences in denominators keep the unshifted (redivided) energies.
    At t = 0 each order reduces exactly to its plain counterpart.

    The kernel is linear in its phase vector ph = exp(-i freq t), so the
    matrix N whose column j is kernel(unit_j) @ psi0 serves every time: the
    amplitudes are exp(-i outer(times, freq)) @ N^T, D kernel builds and one
    matrix product in place of one kernel per time.  That is more work only
    with fewer times than levels (T < D), which no caller in the package or
    its benchmark asks for.
    """
    if order not in SHIFT_DEPTH:
        raise ValueError("order must be 0..3")
    if psi0.dim != m.dim:
        raise ValueError("state dimension does not match model")
    times = _finite_times(times)
    rev = revision_energies(m, max_order=5, gap_tol=gap_tol)
    e = m.shifted_energies
    g = m.offdiagonal
    a0 = psi0.amplitudes
    freq = e + _shift_sum(rev, SHIFT_DEPTH[order])
    N = np.column_stack(
        [_kernel(e, g, unit, order) @ a0 for unit in np.eye(m.dim, dtype=complex)]
    )
    out = np.exp(-1j * np.outer(times, freq)) @ N.T
    return ImprovedSolution(order=order, times=times, amplitudes=out, revisions=rev)


def improved_transition(
    m: RedividedHamiltonian,
    from_level: int,
    to_level: int,
    times,
    gap_tol: float | None = None,
) -> TransitionReport:
    """First-order transition probabilities with and without shifted frequency.

    p_improved replaces the oscillation frequency by the revision-shifted one
    (depth G^(2..4)) while keeping the unshifted amplitude prefactor; delta is
    evaluated through the cosine-difference identity and equals
    p_improved - p_usual to machine precision.
    """
    dim = m.dim
    if not (0 <= from_level < dim and 0 <= to_level < dim):
        raise IndexError("level index out of range")
    if from_level == to_level:
        raise ValueError("transition requires distinct levels")
    times = _finite_times(times)
    rev = revision_energies(m, max_order=4, gap_tol=gap_tol)
    e = m.shifted_energies
    shift = _shift_sum(rev, 4)
    omega = e[to_level] - e[from_level]
    omega_t = omega + shift[to_level] - shift[from_level]
    amp = abs(m.offdiagonal[to_level, from_level]) ** 2
    p_usual = amp * np.sin(omega * times / 2.0) ** 2 / (omega / 2.0) ** 2
    p_improved = amp * np.sin(omega_t * times / 2.0) ** 2 / (omega / 2.0) ** 2
    delta = 2.0 * amp * (np.cos(omega * times) - np.cos(omega_t * times)) / omega**2
    return TransitionReport(
        times=times, p_usual=p_usual, p_improved=p_improved, delta=delta
    )


def _trapezoid_refine(f, lo, hi, rel_tol):
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
            if abs(richardson - prev_richardson) <= rel_tol * scale:
                return richardson
        merged = np.empty(xs.size + mids.size)
        merged[0::2] = xs
        merged[1::2] = mids
        xs = merged
        coarse = fine
        prev_richardson = richardson
    raise GoldenRuleError("non-convergent refinement of the rate correction")


def revised_golden_rule(
    m: RedividedHamiltonian,
    from_level: int,
    rho,
    T: float,
    rel_tol: float = 1e-4,
    sin_product: bool = False,
    zero_shift: bool = False,
    gap_tol: float | None = None,
) -> TransitionReport:
    """Usual golden-rule rate plus the frequency-shift correction integral.

    ``rho`` is a tabulated density of final states, (energies, values), on a
    window containing the initial level; it is interpolated with a monotone
    cubic.  The continuum coupling |g|^2 is the mean of |g_{beta k}|^2 over
    the other levels k.  The shift of the final-state frequency is taken
    through second order, with continuum states coupling to the ladder like
    the initial level does; the correction integral runs over the tabulated
    window via trapezoid sums with Richardson refinement to ``rel_tol``
    (finite and positive), halving the step at most MAX_REFINE times.  With
    ``sin_product`` the cosine difference is replaced by the small-shift
    product approximation.  ``zero_shift`` evaluates the same integral with
    the shift switched off (the integrand then vanishes identically).
    """
    if not T > 0:
        raise GoldenRuleError("T must be positive")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise GoldenRuleError(f"rel_tol must be finite and positive, got {rel_tol}")
    dim = m.dim
    if not 0 <= from_level < dim:
        raise IndexError("level index out of range")
    require_nondegenerate(m, default_gap_tol(m) if gap_tol is None else gap_tol)
    rho_e = np.asarray(rho[0], dtype=float).reshape(-1)
    rho_v = np.asarray(rho[1], dtype=float).reshape(-1)
    if rho_e.size != rho_v.size or rho_e.size < 4:
        raise GoldenRuleError("density table needs matching arrays of length >= 4")
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
    density = PchipInterpolator(rho_e, rho_v, extrapolate=False)

    others = [i for i in range(dim) if i != from_level]
    gb2 = np.abs(m.offdiagonal[from_level, others]) ** 2
    coupling_sq = float(gb2.mean()) if others else 0.0
    w1 = e[others] - e_beta  # ladder frequencies relative to the initial level

    def shift(omega):
        if zero_shift or not others:
            return np.zeros_like(np.asarray(omega, dtype=float))
        om = np.asarray(omega, dtype=float)[..., None]
        return (gb2 * (1.0 / (om - w1) + 1.0 / w1)).sum(axis=-1)

    slope0 = 0.0 if (zero_shift or not others) else float(-(gb2 / w1**2).sum())

    def integrand(omega):
        om = np.asarray(omega, dtype=float)
        s = shift(om)
        rho_here = np.nan_to_num(density(om + e_beta), nan=0.0)
        out = np.empty_like(om)
        tiny = np.abs(om) < 1e-9
        if sin_product:
            cosdiff = T * s * np.sin(s * T)
        else:
            cosdiff = np.cos(om * T) - np.cos((om + s) * T)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * rho_here * coupling_sq * cosdiff / (T * om**2)
        if np.any(tiny):
            if sin_product:
                limit = 2.0 * coupling_sq * slope0**2 * T
            else:
                c1 = 1.0 + slope0
                limit = coupling_sq * T * (c1**2 - 1.0)
            out = np.where(tiny, rho_here * limit, out)
        return out

    rate_usual = 2.0 * math.pi * float(density(e_beta)) * coupling_sq
    rate_delta = float(
        _trapezoid_refine(integrand, rho_e[0] - e_beta, rho_e[-1] - e_beta, rel_tol)
    )
    return TransitionReport(rate_usual=rate_usual, rate_delta=rate_delta)


def improved_energy(
    m: SplitHamiltonian, level: int, max_order: int = 5, gap_tol: float | None = None
) -> float:
    """Improved perturbed energy: shifted level plus revision energies.

    The scheme's own first- and second-order residual corrections vanish, so
    the sum E'_level + G^(2..max_order) already carries the high-order
    content.
    """
    red = redivide(m)
    if not 0 <= level < red.dim:
        raise IndexError("level index out of range")
    rev = revision_energies(red, max_order=max_order, gap_tol=gap_tol)
    return float(rev.shifted[level])


def improved_state_coefficients(
    m: RedividedHamiltonian, level: int, order: int, gap_tol: float | None = None
) -> np.ndarray:
    """Order-1 or order-2 perturbed-state coefficients for one level.

    The component on the reference level stays at its zeroth-order value
    (no normalization correction), so the returned vector is zero there.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    dim = m.dim
    if not 0 <= level < dim:
        raise IndexError("level index out of range")
    require_nondegenerate(m, default_gap_tol(m) if gap_tol is None else gap_tol)
    e = m.shifted_energies
    g = m.offdiagonal
    R = _masked_reciprocal(e)
    col = R[:, level]  # 1/(e_g - e_level), zero at the level itself
    if order == 1:
        return -g[:, level] * col
    inner = g[:, level] * col
    return col * (g @ inner)
