"""Hard-coded two-state system with closed-form exact quantities.

Golden reference for the whole stack: exact eigenpairs, the exact transition
probability, and the standard second-order perturbed quantities, all as
explicit formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelValidationError, SplitHamiltonian


@dataclass(frozen=True)
class TwoStateExact:
    e1: float
    e2: float
    v: complex  # coupling <1|V|2>

    def __post_init__(self):
        object.__setattr__(self, "e1", float(self.e1))
        object.__setattr__(self, "e2", float(self.e2))
        object.__setattr__(self, "v", complex(self.v))
        if not all(np.isfinite((self.e1, self.e2, self.v))):
            raise ValueError("e1, e2 and v must be finite")
        if not self.e2 > self.e1:
            raise ModelValidationError("requires e2 > e1")

    @property
    def omega(self) -> float:
        return self.e2 - self.e1

    @property
    def omega_total(self) -> float:
        """Exact level splitting sqrt(4 |v|^2 + omega^2)."""
        return float(np.hypot(2.0 * abs(self.v), self.omega))

    @property
    def eigvals(self) -> tuple[float, float]:
        s = self.e1 + self.e2
        return ((s - self.omega_total) / 2.0, (s + self.omega_total) / 2.0)

    @property
    def eigvecs(self) -> np.ndarray:
        """Columns are the exact eigenvectors (orthonormal)."""
        v21 = np.conj(self.v)
        w, wt = self.omega, self.omega_total
        cols = []
        for branch in (wt, -wt):
            raw = np.array([w + branch, -2.0 * v21], dtype=complex)
            cols.append(raw / np.linalg.norm(raw))
        return np.stack(cols, axis=1)

    def to_split_hamiltonian(self) -> SplitHamiltonian:
        h1 = np.array([[0.0, self.v], [np.conj(self.v), 0.0]], dtype=complex)
        return SplitHamiltonian(energies=[self.e1, self.e2], perturbation=h1)


def exact_transition(ts: TwoStateExact, t: float) -> float:
    """Exact probability of ending in state 2 having started in state 1.

    t must be finite (ValueError otherwise).
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    half = ts.omega_total / 2.0
    if half == 0.0:
        return 0.0
    return float(abs(ts.v) ** 2 * np.sin(half * t) ** 2 / half**2)


@dataclass(frozen=True)
class UsualPerturbation:
    e1_p: float
    e2_p: float
    probability: object  # t -> first-order transition probability


def usual_pt_quantities(ts: TwoStateExact) -> UsualPerturbation:
    """Second-order perturbed energies and the first-order transition law."""
    v2 = abs(ts.v) ** 2
    w = ts.omega

    def probability(t):
        return v2 * np.sin(w * np.asarray(t) / 2.0) ** 2 / (w / 2.0) ** 2

    return UsualPerturbation(
        e1_p=ts.e1 - v2 / w, e2_p=ts.e2 + v2 / w, probability=probability
    )
