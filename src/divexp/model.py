"""Split-Hamiltonian model: validation, ingestion, and redivision.

Everything lives in the eigenbasis of the solvable part: ``energies`` are its
eigenvalues E_gamma and ``perturbation`` is the remainder V written as a dense
complex matrix in that basis (hbar = 1, times in inverse energy units).
Basis order is file order; levels are never sorted.
"""

from __future__ import annotations

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

    The perturbation is symmetrized to (H1 + H1^dagger)/2 at construction,
    halving each term first where their sum overflows, so any finite
    Hermitian H1 is stored finite; asymmetry beyond ``HERMITICITY_RTOL``
    relative to the largest entry is rejected.
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
        q = v / 4.0  # |q - q^H| cannot overflow, and the test is the same in quarters
        scale = max(float(np.max(np.abs(q))), 0.25)
        asym = float(np.max(np.abs(q - q.conj().T)))
        if asym > HERMITICITY_RTOL * scale:
            raise ModelValidationError(
                f"perturbation is not Hermitian: max |V - V^H| = {4 * asym:.3e} "
                f"exceeds {HERMITICITY_RTOL:g} * {4 * scale:.3e}"
            )
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != e.size:
                raise ModelValidationError("labels length does not match dim")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "energies", _readonly(e))
        with np.errstate(over="ignore", invalid="ignore"):
            h1 = (v + v.conj().T) / 2.0
        if not np.all(np.isfinite(h1)):  # halved first only where the sum overflows
            h1 = np.where(np.isfinite(h1), h1, v / 2.0 + v.conj().T / 2.0)
        object.__setattr__(self, "perturbation", _readonly(h1))

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
    total Hamiltonian entry for entry: the base stores (V + V^H) / 2, whose
    diagonal imaginary parts are exactly b + (-b) = 0.
    """

    base: SplitHamiltonian
    shifted_energies: np.ndarray = field(init=False)
    offdiagonal: np.ndarray = field(init=False)

    def __post_init__(self):
        v = self.base.perturbation
        diag = np.diag(v)
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
    """Expansion amplitudes of a pure state over the unperturbed basis.

    The amplitudes must have unit norm to within NORM_TOL; they are not
    rescaled.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if a.size < 1 or not np.all(np.isfinite(a)):
            raise ModelValidationError("amplitudes must be a finite non-empty vector")
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ModelValidationError(
                f"state norm {nrm:.12g} deviates from 1 by more than {NORM_TOL:g}"
            )
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


def _complex_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs, the inverse of _as_complex_matrix."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def load_model(source) -> SplitHamiltonian:
    """Read a model file (UTF-8 JSON) into a validated SplitHamiltonian.

    ``source`` is the file's bytes; any other type raises ModelParseError.
    Expected object: {"energies": [r, ...], "h1": [[[re, im], ...], ...]}
    with an optional "labels" list. Complex entries are [re, im] pairs.
    """
    if not isinstance(source, (bytes, bytearray)):
        raise ModelParseError(f"unsupported model source type {type(source)!r}")
    try:
        doc = json.loads(source.decode("utf-8"))
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
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise ModelParseError("labels must be a list of strings")

    return SplitHamiltonian(energies=energies, perturbation=h1, labels=labels)


def load_model_path(path) -> SplitHamiltonian:
    with open(path, "rb") as fh:
        return load_model(fh.read())


def dump_model(m: SplitHamiltonian) -> bytes:
    """Serialize back to the JSON model format (round-trips within 1e-12)."""
    doc = {
        "energies": [float(x) for x in m.energies],
        "h1": _complex_pairs(m.perturbation),
    }
    if m.labels is not None:
        doc["labels"] = list(m.labels)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def redivide(m: SplitHamiltonian) -> RedividedHamiltonian:
    """Absorb the perturbation diagonal into the unperturbed levels."""
    return RedividedHamiltonian(base=m)


def require_nondegenerate(m: RedividedHamiltonian) -> None:
    """Raise DegeneracyError unless all shifted-level gaps exceed the gate.

    The gate is default_gap_tol(m), and the error reports it as ``gap_tol``.
    """
    _require_distinct_levels(m.shifted_energies)


def default_gap_tol(m: RedividedHamiltonian) -> float:
    """The degeneracy gate: 1e-8 times the energy scale of the model."""
    return _gap_tol(m.shifted_energies)


def _gap_tol(e: np.ndarray) -> float:
    return 1e-8 * max(float(np.max(np.abs(e), initial=0.0)), 1.0)


def _require_distinct_levels(e: np.ndarray) -> None:
    """The degeneracy gate on the levels e, for callers that hold no model."""
    gap_tol = _gap_tol(e)
    pairs = [
        (i, j)
        for i in range(e.size)
        for j in range(i + 1, e.size)
        if abs(e[i] - e[j]) <= gap_tol
    ]
    if pairs:
        raise DegeneracyError(pairs, gap_tol)
