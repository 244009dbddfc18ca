import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divexp import (
    DegeneracyError,
    ModelParseError,
    ModelValidationError,
    SplitHamiltonian,
    StateVector,
    basis_state,
    default_gap_tol,
    dump_model,
    load_model,
    redivide,
    require_nondegenerate,
)
from divexp.model import HERMITICITY_RTOL


def as_pairs(mat):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, complex)]


def model_bytes(energies, h1, labels=None):
    doc = {"energies": list(energies), "h1": as_pairs(h1)}
    if labels is not None:
        doc["labels"] = labels
    return json.dumps(doc).encode()


def test_load_two_level_file():
    m = load_model(model_bytes([0.0, 1.0], [[0, 0.1], [0.1, 0]]))
    assert m.dim == 2
    assert np.allclose(m.energies, [0.0, 1.0])
    assert m.perturbation[0, 1] == pytest.approx(0.1)


def test_load_zero_perturbation_is_valid():
    m = load_model(model_bytes([0.0, 1.0, 2.0], np.zeros((3, 3))))
    assert np.all(m.perturbation == 0)


def test_hermiticity_violation_rejected():
    # the second residue V - V^H overflows: rejected with no overflow warning
    for h1 in ([[0, 0.1], [0.2, 0]], [[0, 1.7e308], [-1.7e308, 0]]):
        with pytest.raises(ModelValidationError):
            load_model(model_bytes([0.0, 1.0], h1))


def test_parse_errors():
    with pytest.raises(ModelParseError):
        load_model(b"{not json")
    with pytest.raises(ModelParseError):
        load_model(b"[1, 2, 3]")
    with pytest.raises(ModelParseError):
        load_model(json.dumps({"energies": [0, 1]}).encode())
    # a model is read from bytes only
    with pytest.raises(ModelParseError):
        load_model(model_bytes([0.0, 1.0], np.zeros((2, 2))).decode())


@pytest.mark.parametrize("labels", [5, "ab", ["a", 2], {"a": "b"}])
def test_labels_must_be_a_list_of_strings(labels):
    with pytest.raises(ModelParseError, match="labels"):
        load_model(model_bytes([0.0, 1.0], np.zeros((2, 2)), labels=labels))


def test_nan_and_dim_mismatch_rejected():
    with pytest.raises(ModelValidationError):
        SplitHamiltonian(energies=[0.0, np.nan], perturbation=np.zeros((2, 2)))
    with pytest.raises(ModelValidationError):
        load_model(model_bytes([0.0, 1.0, 2.0], np.zeros((2, 2))))
    with pytest.raises(ModelValidationError):
        SplitHamiltonian(
            energies=[0.0, 1.0], perturbation=np.full((2, 2), np.inf + 0j)
        )


def test_roundtrip_through_bytes():
    h1 = np.array([[0.2, 0.1 + 0.05j], [0.1 - 0.05j, -0.4]])
    m = SplitHamiltonian(energies=[0.0, 2.0], perturbation=h1, labels=["g", "e"])
    m2 = load_model(dump_model(m))
    assert np.allclose(m2.energies, m.energies)
    assert np.allclose(m2.perturbation, m.perturbation, atol=1e-15)
    assert m2.labels == ("g", "e")


def test_redivide_worked_example():
    m = load_model(model_bytes([0.0, 1.0], [[0.3, 0.1], [0.1, -0.3]]))
    r = redivide(m)
    assert np.allclose(r.shifted_energies, [0.3, 0.7])
    assert np.allclose(r.offdiagonal, [[0, 0.1], [0.1, 0]])
    assert np.all(np.diag(r.offdiagonal) == 0)


def test_redivide_fixed_point_and_pure_shift():
    off = load_model(model_bytes([0.0, 1.0], [[0, 0.1], [0.1, 0]]))
    r = redivide(off)
    assert np.array_equal(r.shifted_energies, off.energies)
    assert np.array_equal(r.offdiagonal, off.perturbation)

    diag = load_model(model_bytes([0.0, 1.0], [[0.5, 0], [0, -0.5]]))
    r = redivide(diag)
    assert np.allclose(r.shifted_energies, [0.5, 0.5])
    assert np.all(r.offdiagonal == 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_redivision_reconstructs_total_exactly(dim, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2.0
    m = SplitHamiltonian(energies=rng.standard_normal(dim), perturbation=h)
    r = redivide(m)
    # entrywise exact: same float operations on both sides
    assert np.array_equal(r.total(), m.total())
    # redividing the already-redivided split changes nothing
    m2 = SplitHamiltonian(energies=r.shifted_energies, perturbation=r.offdiagonal)
    r2 = redivide(m2)
    assert np.array_equal(r2.shifted_energies, r.shifted_energies)
    assert np.array_equal(r2.offdiagonal, r.offdiagonal)


def test_stored_perturbation_diagonal_is_exactly_real(rng):
    # (V + V^H) / 2 has diagonal imaginary parts b + (-b) = 0 for finite V,
    # so redivision needs no check that the diagonal is real: perturbation
    # scales from 1e-320 to 1e300, imaginary diagonal parts up to what the
    # Hermiticity check accepts, and redivide rebuilds total() exactly
    for _ in range(2000):
        dim = int(rng.integers(1, 7))
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 10.0 ** rng.uniform(-320.0, 300.0) * (h + h.conj().T) / 2.0
        tol = HERMITICITY_RTOL * max(np.max(np.abs(h)), 1.0)
        h[np.diag_indices(dim)] += 0.5j * tol * rng.uniform(-1.0, 1.0, size=dim)
        m = SplitHamiltonian(energies=rng.standard_normal(dim), perturbation=h)
        assert np.all(np.diag(m.perturbation).imag == 0)
        assert np.array_equal(redivide(m).total(), m.total())
    # V + V^H overflows off and on the diagonal: each term is halved first
    # there, so the Hermitian V is stored as it is
    for h in ([[0, 1.7e308], [1.7e308, 0]], [[1.7e308, 0], [0, -1.7e308]]):
        m = SplitHamiltonian(energies=[0.0, 1.0], perturbation=h)
        assert np.array_equal(m.perturbation, np.asarray(h, dtype=complex))
        assert np.all(np.diag(m.perturbation).imag == 0)
        assert np.array_equal(redivide(m).total(), m.total())


def test_require_nondegenerate():
    ok = redivide(load_model(model_bytes([0.0, 1.0], np.zeros((2, 2)))))
    require_nondegenerate(ok)

    equal = redivide(load_model(model_bytes([0.5, 0.5], np.zeros((2, 2)))))
    with pytest.raises(DegeneracyError) as exc:
        require_nondegenerate(equal)
    assert (0, 1) in exc.value.pairs

    # the gate is default_gap_tol: 1e-8 times the energy scale
    near = redivide(load_model(model_bytes([0.0, 1e-9], np.zeros((2, 2)))))
    with pytest.raises(DegeneracyError) as exc:
        require_nondegenerate(near)
    assert exc.value.gap_tol == default_gap_tol(near) == 1e-8
    far = redivide(load_model(model_bytes([1e3, 1e3 + 1e-6], np.zeros((2, 2)))))
    with pytest.raises(DegeneracyError) as exc:
        require_nondegenerate(far)
    assert exc.value.gap_tol == default_gap_tol(far)


def test_basis_state_index_range():
    assert basis_state(3, 2).amplitudes[2] == 1.0
    for index in (-1, -3, 3):
        with pytest.raises(IndexError):
            basis_state(3, index)


def test_state_vector_normalization():
    StateVector([1.0, 0.0])
    with pytest.raises(ModelValidationError):
        StateVector([1.0, 1.0])
    with pytest.raises(ModelValidationError):
        StateVector([0.0, 0.0])


def test_immutability():
    m = load_model(model_bytes([0.0, 1.0], [[0, 0.1], [0.1, 0]]))
    with pytest.raises(ValueError):
        m.energies[0] = 5.0
    with pytest.raises(ValueError):
        m.perturbation[0, 0] = 1.0
