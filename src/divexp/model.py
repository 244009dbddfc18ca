"""Split-Hamiltonian model: validation, ingestion, and redivision.

Everything lives in the eigenbasis of the solvable part: ``energies`` are its
eigenvalues E_gamma and ``perturbation`` is the remainder V written as a dense
complex matrix in that basis (hbar = 1, times in inverse energy units).
Basis order is file order; levels are never sorted.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_RTOL = 1e-12
NORM_TOL = 1e-10


class ModelError(ValueError):
    """Base class for model construction failures."""


class ModelParseError(ModelError):
    """Model file could not be decoded."""


class ModelValidationError(ModelError):
    """Model content violates an invariant (Hermiticity, shapes, finiteness)."""


class DegeneracyError(ValueError):
    """Shifted levels too close for the improved perturbation scheme."""

    def __init__(self, pairs, gap_tol):
        self.pairs = list(pairs)
        self.gap_tol = float(gap_tol)
        listing = ", ".join(f"({i},{j})" for i, j in self.pairs)
        super().__init__(
            f"near-degenerate level pairs within gap_tol={gap_tol:g}: {listing}"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SplitHamiltonian:
    """H = H0 + H1 with H0 = diag(energies) known and H1 dense Hermitian.

    The perturbation is symmetrized to (H1 + H1^dagger)/2 at construction;
    asymmetry beyond ``HERMITICITY_RTOL`` relative to the largest entry is
    rejected.
    """

    energies: np.ndarray
    perturbation: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float).reshape(-1)
        if e.size < 1:
            raise ModelValidationError("need at least one level")
        if not np.all(np.isfinite(e)):
            raise ModelValidationError("energies must be finite")
        v = np.asarray(self.perturbation, dtype=complex)
        if v.shape != (e.size, e.size):
            raise ModelValidationError(
                f"perturbation shape {v.shape} does not match dim {e.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ModelValidationError("perturbation entries must be finite")
        scale = max(np.max(np.abs(v)), 1.0) if v.size else 1.0
        asym = np.max(np.abs(v - v.conj().T)) if v.size else 0.0
        if asym > HERMITICITY_RTOL * scale:
            raise ModelValidationError(
                f"perturbation is not Hermitian: max |V - V^H| = {asym:.3e} "
                f"exceeds {HERMITICITY_RTOL:g} * {scale:.3e}"
            )
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != e.size:
                raise ModelValidationError("labels length does not match dim")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "energies", _readonly(e))
        object.__setattr__(self, "perturbation", _readonly((v + v.conj().T) / 2.0))

    @property
    def dim(self) -> int:
        return self.energies.size

    def total(self) -> np.ndarray:
        """Dense total Hamiltonian diag(E) + H1."""
        return np.diag(self.energies.astype(complex)) + self.perturbation


@dataclass(frozen=True)
class RedividedHamiltonian:
    """Split with the perturbation's diagonal absorbed into the levels.

    shifted_energies[g] = energies[g] + Re V[g, g]; offdiagonal is V with an
    exactly zero diagonal, so diag(shifted) + offdiagonal reconstructs the
    total Hamiltonian entry for entry.
    """

    base: SplitHamiltonian
    shifted_energies: np.ndarray = field(init=False)
    offdiagonal: np.ndarray = field(init=False)

    def __post_init__(self):
        v = self.base.perturbation
        diag = np.diag(v)
        scale = max(np.max(np.abs(v)), 1.0) if v.size else 1.0
        if np.max(np.abs(diag.imag), initial=0.0) > HERMITICITY_RTOL * scale:
            raise ModelValidationError("perturbation diagonal is not real")
        g = v.copy()
        np.fill_diagonal(g, 0.0)
        object.__setattr__(
            self, "shifted_energies", _readonly(self.base.energies + diag.real)
        )
        object.__setattr__(self, "offdiagonal", _readonly(g))

    @property
    def dim(self) -> int:
        return self.base.dim

    def total(self) -> np.ndarray:
        return np.diag(self.shifted_energies.astype(complex)) + self.offdiagonal


@dataclass(frozen=True)
class StateVector:
    """Expansion amplitudes of a pure state over the unperturbed basis."""

    amplitudes: np.ndarray
    normalize: bool = False

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if a.size < 1 or not np.all(np.isfinite(a)):
            raise ModelValidationError("amplitudes must be a finite non-empty vector")
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > NORM_TOL:
            if not self.normalize:
                raise ModelValidationError(
                    f"state norm {nrm:.12g} deviates from 1 by more than {NORM_TOL:g}"
                )
            if nrm == 0.0:
                raise ModelValidationError("cannot normalize the zero vector")
            a = a / nrm
        object.__setattr__(self, "amplitudes", _readonly(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def basis_state(dim: int, index: int) -> StateVector:
    """Unperturbed basis vector |index> as a StateVector."""
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} is outside 0..{dim - 1}")
    a = np.zeros(dim, dtype=complex)
    a[index] = 1.0
    return StateVector(a)


def _as_complex_matrix(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelParseError(
            "h1 must be a square matrix of [re, im] pairs, got shape "
            f"{arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def load_model(source) -> SplitHamiltonian:
    """Read a model file (UTF-8 JSON) into a validated SplitHamiltonian.

    ``source`` may be bytes, text, or a readable (binary or text) stream.
    Expected object: {"energies": [r, ...], "h1": [[[re, im], ...], ...]}
    with an optional "labels" list. Complex entries are [re, im] pairs.
    """
    if isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    elif isinstance(source, str):
        raw = source.encode("utf-8")
    elif hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    else:
        raise ModelParseError(f"unsupported model source type {type(source)!r}")

    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelParseError(f"malformed model file: {exc}") from exc

    if not isinstance(doc, dict):
        raise ModelParseError("model file must contain a JSON object")
    missing = {"energies", "h1"} - doc.keys()
    if missing:
        raise ModelParseError(f"model file missing keys: {sorted(missing)}")

    try:
        energies = np.asarray(doc["energies"], dtype=float)
        h1 = _as_complex_matrix(doc["h1"])
    except (TypeError, ValueError) as exc:
        raise ModelParseError(f"malformed model content: {exc}") from exc
    if energies.ndim != 1 or h1.shape[0] != energies.size:
        raise ModelValidationError(
            f"dim mismatch: {energies.size} energies vs h1 {h1.shape}"
        )

    return SplitHamiltonian(
        energies=energies, perturbation=h1, labels=doc.get("labels")
    )


def load_model_path(path) -> SplitHamiltonian:
    with open(path, "rb") as fh:
        return load_model(fh)


def dump_model(m: SplitHamiltonian) -> bytes:
    """Serialize back to the JSON model format (round-trips within 1e-12)."""
    doc = {
        "energies": [float(x) for x in m.energies],
        "h1": [
            [[float(z.real), float(z.imag)] for z in row] for row in m.perturbation
        ],
    }
    if m.labels is not None:
        doc["labels"] = list(m.labels)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def redivide(m: SplitHamiltonian) -> RedividedHamiltonian:
    """Absorb the perturbation diagonal into the unperturbed levels."""
    return RedividedHamiltonian(base=m)


def require_nondegenerate(m: RedividedHamiltonian, gap_tol: float) -> None:
    """Raise DegeneracyError unless all shifted-level gaps exceed gap_tol."""
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    e = m.shifted_energies
    pairs = [
        (i, j)
        for i in range(e.size)
        for j in range(i + 1, e.size)
        if abs(e[i] - e[j]) <= gap_tol
    ]
    if pairs:
        raise DegeneracyError(pairs, gap_tol)


def default_gap_tol(m: RedividedHamiltonian) -> float:
    """Default degeneracy gate: 1e-8 times the energy scale of the model."""
    scale = max(float(np.max(np.abs(m.shifted_energies), initial=0.0)), 1.0)
    return 1e-8 * scale
