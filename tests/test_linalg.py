import numpy as np
import pytest

from conftest import (
    apply_filtered,
    matrix_sqrt_eigs,
    random_hermitian,
    random_psd,
    reconstruct,
)
from copra_beam.linalg import hermitian_evd


def test_identity_eigensystem():
    es = hermitian_evd(np.eye(3))
    assert np.allclose(es.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(es.u.conj().T @ es.u, np.eye(3), atol=1e-12)


def test_diagonal_input_sorted_descending():
    es = hermitian_evd(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(es.eigenvalues, [3.0, 2.0, 1.0])
    # eigenvectors of a diagonal matrix are a signed permutation
    assert np.allclose(np.abs(es.u), np.eye(3)[:, [0, 2, 1]], atol=1e-12)


def test_2x2_complex_hermitian():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    es = hermitian_evd(a)
    assert np.allclose(es.eigenvalues, [3.0, 1.0], atol=1e-12)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        hermitian_evd(np.ones((2, 3)))


def test_non_hermitian_rejected():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        hermitian_evd(a)


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = random_hermitian(rng, 10)
        es = hermitian_evd(a)
        # hermitian_evd clamps negatives, so compare against the clamped form
        recon = reconstruct(es)
        ref = a.copy()
        w = np.linalg.eigvalsh(a)
        if w.min() >= 0:
            assert np.linalg.norm(recon - ref) <= 1e-10 * np.linalg.norm(ref)
        defect = np.linalg.norm(es.u.conj().T @ es.u - np.eye(10))
        assert defect <= 1e-10 * 10


def test_psd_reconstruction_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_psd(rng, 8)
        es = hermitian_evd(a)
        assert np.all(es.eigenvalues >= 0)
        err = np.linalg.norm(reconstruct(es) - a) / np.linalg.norm(a)
        assert err < 1e-10


def test_negative_roundoff_clamped():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 10, rank=4)  # rank deficient, tiny negative round-off
    es = hermitian_evd(a)
    assert np.all(es.eigenvalues >= 0.0)


def test_shift_invariance():
    rng = np.random.default_rng(5)
    a = random_psd(rng, 9)
    gamma = 0.37
    es = hermitian_evd(a)
    es_shift = hermitian_evd(a + gamma * np.eye(9))
    assert np.allclose(es_shift.eigenvalues, es.eigenvalues + gamma, atol=1e-9)


def test_matrix_sqrt_eigs():
    rng = np.random.default_rng(9)
    es = hermitian_evd(np.diag([4.0, 1.0, 0.0]))
    assert np.allclose(matrix_sqrt_eigs(es), [2.0, 1.0, 0.0])
    es = hermitian_evd(np.eye(5))
    assert np.allclose(matrix_sqrt_eigs(es), np.ones(5))
    a = random_psd(rng, 7)
    es = hermitian_evd(a)
    assert np.allclose(matrix_sqrt_eigs(es) ** 2, es.eigenvalues, atol=1e-12)


def test_apply_filtered_identity_map():
    rng = np.random.default_rng(13)
    a = random_psd(rng, 6)
    es = hermitian_evd(a)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = apply_filtered(es, lambda lam: lam, v)
    assert np.allclose(out, a @ v, atol=1e-10 * np.linalg.norm(a @ v))


def test_apply_filtered_constant_one_is_identity():
    rng = np.random.default_rng(17)
    a = random_psd(rng, 10)
    es = hermitian_evd(a)
    for _ in range(10):
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        out = apply_filtered(es, lambda lam: np.ones_like(lam), v)
        assert np.linalg.norm(out - v) <= 1e-10 * np.linalg.norm(v)


def test_apply_filtered_resolvent_matches_dense_solve():
    rng = np.random.default_rng(19)
    a = random_psd(rng, 2)
    gamma = 0.8
    es = hermitian_evd(a)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    out = apply_filtered(es, lambda lam: 1.0 / (lam + gamma), v)
    expected = np.linalg.solve(a + gamma * np.eye(2), v)
    assert np.allclose(out, expected, atol=1e-12)


def test_apply_filtered_dimension_mismatch():
    es = hermitian_evd(np.eye(3))
    with pytest.raises(ValueError):
        apply_filtered(es, lambda lam: lam, np.ones(4))


def test_apply_filtered_nonfinite_map_rejected():
    es = hermitian_evd(np.diag([1.0, 0.0]))
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            apply_filtered(es, lambda lam: 1.0 / lam, np.ones(2))


def test_stack_flags_only_its_failed_lanes(monkeypatch):
    # lane 0 is not Hermitian and lane 2's eigh does not converge, which
    # fails the stacked eigh as a whole: each failed lane carries its own
    # error and the zero matrix's eigensystem, and lane 1 keeps its bits
    rng = np.random.default_rng(23)
    stack = np.stack([random_psd(rng, 4) for _ in range(3)])
    stack[0, 0, 1] += 1.0
    target = stack[2].copy()
    real = np.linalg.eigh

    def eigh(a):
        if any(np.array_equal(m, target) for m in a.reshape(-1, *target.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    es = hermitian_evd(stack)
    assert isinstance(es.errors[0], ValueError) and "not Hermitian" in str(es.errors[0])
    assert isinstance(es.errors[2], np.linalg.LinAlgError)
    assert es.errors[1] is None
    for lane in (0, 2):
        assert not es.eigenvalues[lane].any()
        assert np.array_equal(es.u[lane], np.eye(4))
    alone = hermitian_evd(stack[1])
    assert alone.errors[()] is None
    assert es.eigenvalues[1].tobytes() == alone.eigenvalues.tobytes()
    assert es.u[1].tobytes() == alone.u.tobytes()
    # a single matrix still raises its failure
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_evd(stack[0])
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        hermitian_evd(stack[2])
