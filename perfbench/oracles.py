"""Reference computations the benchmark checks divexp's outputs against.

They use numpy and scipy directly and call no divexp code, so a change to
the package cannot move its own yardstick.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.interpolate import PchipInterpolator


def split(energies, h1):
    """Shifted levels E + Re diag(h1) and the off-diagonal coupling."""
    h1 = np.asarray(h1, dtype=complex)
    g = h1.copy()
    np.fill_diagonal(g, 0.0)
    return np.asarray(energies, dtype=float) + np.diag(h1).real, g


class Eigensolve:
    """exp(-i H t) for H = diag(E) + h1 from one Hermitian eigendecomposition."""

    def __init__(self, energies, h1):
        H = np.diag(np.asarray(energies, dtype=complex)) + np.asarray(h1, dtype=complex)
        self.w, self.V = np.linalg.eigh(H)

    def matrix(self, t: float) -> np.ndarray:
        return (self.V * np.exp(-1j * self.w * t)) @ self.V.conj().T

    def evolve(self, psi0, times) -> np.ndarray:
        """Amplitudes (n_times, D) of exp(-i H t) psi0."""
        coef = self.V.conj().T @ np.asarray(psi0, dtype=complex)
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), self.w))
        return (phases * coef[None, :]) @ self.V.T


def block_order(shifted, g, l: int, t: float) -> np.ndarray:
    """Order-l series term: top-right block of the bidiagonal block exponential."""
    dim = shifted.size
    side = (l + 1) * dim
    M = np.zeros((side, side), dtype=complex)
    for j in range(l + 1):
        M[j * dim : (j + 1) * dim, j * dim : (j + 1) * dim] = np.diag(-1j * t * shifted)
        if j < l:
            M[j * dim : (j + 1) * dim, (j + 1) * dim : (j + 2) * dim] = -1j * t * g
    return scipy.linalg.expm(M)[:dim, l * dim :]


def secular_fit(shifted, g, l: int, max_power: int) -> np.ndarray:
    """Coefficients c[row, col, j, a] of t^a exp(-i E_j t) in the order-l term.

    Least squares over a stencil spanning 8 pi over the smallest level gap,
    oversampled fourfold, with the order-l term sampled by ``block_order``.
    """
    dim = shifted.size
    gaps = np.abs(shifted[:, None] - shifted[None, :]) + np.diag(np.full(dim, np.inf))
    span = 8.0 * math.pi / float(gaps.min())
    n_basis = dim * (max_power + 1)
    ts = span * np.arange(1, 4 * n_basis + 1) / (4 * n_basis)
    design = (
        np.exp(-1j * np.outer(ts, shifted))[:, :, None]
        * (ts[:, None] ** np.arange(max_power + 1))[:, None, :]
    ).reshape(ts.size, n_basis)
    scale = np.linalg.norm(design, axis=0)
    rhs = np.stack([block_order(shifted, g, l, t).ravel() for t in ts])
    coef, *_ = np.linalg.lstsq(design / scale, rhs, rcond=None)
    coef = (coef / scale[:, None]).reshape(dim, max_power + 1, dim, dim)
    return np.transpose(coef, (2, 3, 0, 1))


def golden_rule_delta(shifted, g, from_level, rho_e, rho_v, T, n=2**17 + 1):
    """Rate correction of the revised golden rule by a fine trapezoid sum.

    The final-state frequency shift is taken through second order with the
    continuum coupling like the initial level, as in the acceptance suite.
    """
    density = PchipInterpolator(rho_e, rho_v, extrapolate=False)
    e_beta = shifted[from_level]
    others = [i for i in range(shifted.size) if i != from_level]
    gb2 = np.abs(g[from_level, others]) ** 2
    w1 = shifted[others] - e_beta
    cs = float(gb2.mean())
    om = np.linspace(rho_e[0] - e_beta, rho_e[-1] - e_beta, n)
    rho = np.nan_to_num(density(om + e_beta), nan=0.0)
    s = (gb2 * (1.0 / (om[:, None] - w1) + 1.0 / w1)).sum(axis=1)
    tiny = np.abs(om) < 1e-9
    safe = np.where(tiny, 1.0, om)
    vals = 2.0 * rho * cs * (np.cos(om * T) - np.cos((om + s) * T)) / (T * safe**2)
    c1 = 1.0 - float((gb2 / w1**2).sum())
    vals = np.where(tiny, rho * cs * T * (c1**2 - 1.0), vals)
    rate_usual = 2.0 * math.pi * float(density(e_beta)) * cs
    return rate_usual, float(np.trapezoid(vals, om))
