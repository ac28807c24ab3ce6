"""Matrix primitive tests: vec/kron, the commutation oracle, thin SVD, pinv, generators."""

import json
import re

import numpy as np
import pytest

from helpers import commutation_matrix, penrose_residuals, vec
from mpjl import matcore as mc
from mpjl.errors import BadSpectrum, DegenerateSpectrum, ShapeMismatch


def test_vec_column_stacking():
    assert np.array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])


def test_vec_column_vector_is_identity():
    col = np.arange(5.0).reshape(5, 1)
    assert np.array_equal(vec(col), np.arange(5.0))


def test_kron_vec_identity():
    # vec(B X A') = kron(A, B) vec(X), checked by direct evaluation.
    rng = mc.make_rng(2)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 2))
    x = rng.standard_normal((2, 2))
    lhs = vec(b @ x @ a.T)
    rhs = np.kron(a, b) @ vec(x)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_commutation_matrix_trivial():
    assert np.array_equal(commutation_matrix(1, 1), [[1.0]])


def test_commutation_matrix_2x2_swaps_middle():
    k = commutation_matrix(2, 2)
    perm = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(k, perm)


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (4, 4), (1, 5)])
def test_commutation_matrix_on_all_basis_matrices(n, m):
    # Brute-force oracle: check K vec(E_ij) = vec(E_ij') for every E_ij.
    k = commutation_matrix(m, n)
    for i in range(n):
        for j in range(m):
            e = np.zeros((n, m))
            e[i, j] = 1.0
            assert np.array_equal(k @ vec(e), vec(e.T))


def test_commutation_matrix_inverse_pairs():
    for m in range(1, 7):
        for n in range(1, 7):
            prod = commutation_matrix(m, n) @ commutation_matrix(n, m)
            assert np.array_equal(prod, np.eye(m * n))


def test_svd_thin_diagonal():
    factors, info = mc.svd_thin(np.diag([3.0, 2.0]))
    assert info.rank == 2
    np.testing.assert_allclose(factors.s, [3.0, 2.0])
    np.testing.assert_allclose(np.abs(factors.u), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        (factors.u * factors.s) @ factors.v.T, np.diag([3.0, 2.0]), atol=1e-12
    )


def test_svd_thin_rank_one_frobenius():
    # Single singular value of a rank-1 matrix equals its Frobenius norm.
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    factors, info = mc.svd_thin(x)
    assert info.rank == 1
    np.testing.assert_allclose(factors.s, [np.linalg.norm(x)], rtol=1e-14)


def test_svd_thin_zero_matrix_empty_factors():
    factors, info = mc.svd_thin(np.zeros((3, 2)))
    assert info.rank == 0
    assert factors.u.shape == (3, 0)
    assert factors.s.shape == (0,)
    assert factors.v.shape == (2, 0)


def test_svd_thin_rejects_tied_spectrum():
    with pytest.raises(DegenerateSpectrum):
        mc.svd_thin(np.eye(3))


def test_svd_thin_factor_invariants():
    rng = mc.make_rng(14)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(q, 9))
        m = int(rng.integers(q, 9))
        x = mc.random_rank_q(n, m, q, rng)
        factors, info = mc.svd_thin(x)
        assert info.rank == q
        assert np.max(np.abs(factors.u.T @ factors.u - np.eye(q))) <= 1e-12
        assert np.max(np.abs(factors.v.T @ factors.v - np.eye(q))) <= 1e-12
        assert np.all(np.diff(factors.s) < 0) or q == 1
        err = np.linalg.norm((factors.u * factors.s) @ factors.v.T - x) / np.linalg.norm(x)
        assert err <= 1e-10


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        mc.as_matrix([[1.0, np.nan]])
    with pytest.raises(ShapeMismatch):
        mc.as_matrix([1.0, 2.0])


def test_pinv_identity_and_diagonal():
    np.testing.assert_allclose(mc.pinv(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(mc.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_rank_one_formula():
    # Oracle: for rank-1 X the pseudoinverse is X' / ||X||_F^2.
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    expected = x.T / np.linalg.norm(x) ** 2
    np.testing.assert_allclose(mc.pinv(x), expected, rtol=1e-12)
    np.testing.assert_allclose(mc.pinv(x), [[0.02, 0.06], [0.04, 0.12]], rtol=1e-12)
    assert max(penrose_residuals(x, mc.pinv(x))) <= 1e-12


def test_penrose_residuals_identity():
    assert penrose_residuals(np.eye(2), np.eye(2)) == (0.0, 0.0, 0.0, 0.0)


def test_penrose_residuals_detect_wrong_inverse():
    x = np.array([[2.0, 0.0], [0.0, 0.0]])
    residuals = penrose_residuals(x, x.T)
    assert residuals[0] > 1.0  # X X' X = 4 X


def test_penrose_residuals_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        penrose_residuals(np.eye(2), np.ones((3, 2)))


def test_penrose_random_rank_q_sweep():
    rng = mc.make_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        q = int(rng.integers(1, min(n, m) + 1))
        x = mc.random_rank_q(n, m, q, rng)
        assert max(penrose_residuals(x, mc.pinv(x))) <= 1e-10


def test_pinv_spectrum_reciprocal_reversed():
    d = np.array([4.0, 2.0, 0.5])
    x = mc.random_rank_q(5, 4, 3, mc.make_rng(5), spectrum=d)
    s = np.linalg.svd(mc.pinv(x), compute_uv=False)[:3]
    np.testing.assert_allclose(s, 1.0 / d[::-1], rtol=1e-10)


def test_pinv_involution():
    rng = mc.make_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        q = int(rng.integers(1, min(n, m) + 1))
        x = mc.random_rank_q(n, m, q, rng)
        np.testing.assert_allclose(mc.pinv(mc.pinv(x)), x, rtol=0, atol=1e-8 * np.linalg.norm(x))


def test_random_stiefel_square_is_orthogonal():
    h = mc.random_stiefel(3, 3, mc.make_rng(7))
    assert abs(abs(np.linalg.det(h)) - 1.0) <= 1e-12
    np.testing.assert_allclose(h.T @ h, np.eye(3), atol=1e-12)


def test_random_stiefel_rectangular_frame():
    h = mc.random_stiefel(5, 2, mc.make_rng(8))
    np.testing.assert_allclose(h.T @ h, np.eye(2), atol=1e-12)


def test_random_stiefel_deterministic():
    a = mc.random_stiefel(4, 2, mc.make_rng(9))
    b = mc.random_stiefel(4, 2, mc.make_rng(9))
    assert np.array_equal(a, b)


def test_random_rank_q_spectrum_roundtrip():
    x = mc.random_rank_q(4, 3, 2, mc.make_rng(10), spectrum=(3.0, 1.0))
    factors, info = mc.svd_thin(x)
    assert info.rank == 2
    np.testing.assert_allclose(factors.s, [3.0, 1.0], rtol=1e-10)


def test_random_rank_q_rank_one_norm():
    x = mc.random_rank_q(2, 2, 1, mc.make_rng(11), spectrum=(2.0,))
    assert abs(np.linalg.norm(x, 2) - 2.0) <= 1e-12


def test_random_rank_q_full_rank_left_inverse():
    x = mc.random_rank_q(5, 3, 3, mc.make_rng(12))
    np.testing.assert_allclose(mc.pinv(x) @ x, np.eye(3), atol=1e-12)


def test_random_rank_q_rejects_bad_spectrum():
    rng = mc.make_rng(13)
    with pytest.raises(BadSpectrum):
        mc.random_rank_q(3, 3, 2, rng, spectrum=(1.0, 2.0))
    with pytest.raises(BadSpectrum):
        mc.random_rank_q(3, 3, 2, rng, spectrum=(2.0, -1.0))
    with pytest.raises(BadSpectrum):
        mc.random_rank_q(3, 3, 2, rng, spectrum=(2.0, 2.0))


def test_sorted_spectra_sort_a_stack_as_each_draw_alone():
    # C-contiguous, since numpy's log and pow may round a strided view differently.
    draws = [mc.make_rng(15, t).uniform(0.5, 2.5, size=4) for t in range(3)]
    d = mc.sorted_spectra(draws)
    assert d.flags.c_contiguous and mc.sample_spectrum(4, mc.make_rng(15, 0)).flags.c_contiguous
    for row, t in zip(d, range(3)):
        assert np.array_equal(row, mc.sample_spectrum(4, mc.make_rng(15, t)))
    draws[1][2] = draws[1][0] * (1 + 1e-7)
    draws[2][3] = draws[2][1]
    tied = np.sort(draws[1])[::-1].tolist()
    with pytest.raises(DegenerateSpectrum, match=re.escape(f"tied values: {tied}")) as stack:
        mc.sorted_spectra(draws)
    assert stack.value.slices == [1, 2]  # every tied slice of the stack, for its retry
    with pytest.raises(DegenerateSpectrum) as one:
        mc.sorted_spectra(draws[2])
    assert one.value.slices == [0]


def test_matrix_json_exact_roundtrip():
    a = np.array([[1.0 / 3.0, 0.1], [1e-300, -7.25], [2.0 ** -1074, 3.0]])
    text = json.dumps(mc.matrix_to_json(a))
    obj = json.loads(text)
    back = np.reshape(obj["data"], (obj["rows"], obj["cols"]))
    assert np.array_equal(back, a)  # bitwise: repr floats round-trip binary64
