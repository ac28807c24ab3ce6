"""Matrix primitive tests: vec/kron, the commutation oracle, pinv, generators."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    commutation_matrix, penrose_residuals, qr_frames, qr_gram, random_rank_q, random_stiefel, vec,
)
from mpjl import matcore as mc
from mpjl.errors import BadSpectrum, DegenerateSpectrum, RankMismatch, ShapeMismatch


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
    # svd_pinv, thin and full: numpy's factors, the rank profile, pinv's bits, and q refused
    # with require_rank's message.
    for full in (False, True):
        u, info, vt, y = mc.svd_pinv(x, 1, full_matrices=full)
        for got, want in zip((u, info.singular_values, vt), np.linalg.svd(x, full_matrices=full)):
            assert np.array_equal(got, want)
        assert info.rank == 1 and np.array_equal(y, mc.pinv(x))
        with pytest.raises(RankMismatch, match=r"^numerical rank 1 != requested q=2$"):
            mc.svd_pinv(x, 2, full_matrices=full)
    wide = np.hstack([x, x])  # u and vt: thin 2 x 2 and 2 x 4, full 2 x 2 and 4 x 4
    assert [a.shape for a in mc.svd_pinv(wide)[::2]] == [(2, 2), (2, 4)]
    assert [a.shape for a in mc.svd_pinv(wide, full_matrices=True)[::2]] == [(2, 2), (4, 4)]


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
        x = random_rank_q(n, m, q, rng)
        assert max(penrose_residuals(x, mc.pinv(x))) <= 1e-10


def test_pinv_spectrum_reciprocal_reversed():
    d = np.array([4.0, 2.0, 0.5])
    x = random_rank_q(5, 4, 3, mc.make_rng(5), spectrum=d)
    s = np.linalg.svd(mc.pinv(x), compute_uv=False)[:3]
    np.testing.assert_allclose(s, 1.0 / d[::-1], rtol=1e-10)


def test_pinv_involution():
    rng = mc.make_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        q = int(rng.integers(1, min(n, m) + 1))
        x = random_rank_q(n, m, q, rng)
        np.testing.assert_allclose(mc.pinv(mc.pinv(x)), x, rtol=0, atol=1e-8 * np.linalg.norm(x))


@given(st.integers(1, 9), st.integers(1, 9), st.none() | st.integers(1, 45), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(1, 1, None, False, 0)
@example(1, 1, 45, True, 0)
@example(9, 4, 45, True, 1)  # tall
@example(4, 9, 45, True, 2)  # wide
@example(6, 6, 1, False, 3)  # square
def test_qr_kernels_give_numpy_qr_bits(n, m, stack, transposed, seed):
    # orthonormal_frames and gram_qr call numpy's QR kernels; np.linalg.qr runs the same
    # two and is their reference, bit for bit, on a matrix or a stack of C-ordered or
    # transposed (F-ordered) slices.
    shape = (n, m) if stack is None else (stack, n, m)
    rng = mc.make_rng(seed)
    if transposed:
        a = rng.standard_normal(shape[:-2] + (m, n)).swapaxes(-1, -2)
    else:
        a = rng.standard_normal(shape)
    assert np.array_equal(mc.orthonormal_frames(a), qr_frames(a))
    for got, want in zip(mc.gram_qr(a), qr_gram(a)):
        assert np.array_equal(got, want) and got.shape == want.shape


def test_random_stiefel_square_is_orthogonal():
    h = random_stiefel(3, 3, mc.make_rng(7))
    assert abs(abs(np.linalg.det(h)) - 1.0) <= 1e-12
    np.testing.assert_allclose(h.T @ h, np.eye(3), atol=1e-12)


def test_random_stiefel_rectangular_frame():
    h = random_stiefel(5, 2, mc.make_rng(8))
    np.testing.assert_allclose(h.T @ h, np.eye(2), atol=1e-12)


def test_random_stiefel_deterministic():
    a = random_stiefel(4, 2, mc.make_rng(9))
    b = random_stiefel(4, 2, mc.make_rng(9))
    assert np.array_equal(a, b)


def test_random_rank_q_spectrum_roundtrip():
    x = random_rank_q(4, 3, 2, mc.make_rng(10), spectrum=(3.0, 1.0))
    info = mc.rank_profile(x)
    assert info.rank == 2
    np.testing.assert_allclose(info.singular_values[:2], [3.0, 1.0], rtol=1e-10)


def test_random_rank_q_rank_one_norm():
    x = random_rank_q(2, 2, 1, mc.make_rng(11), spectrum=(2.0,))
    assert abs(np.linalg.norm(x, 2) - 2.0) <= 1e-12


def test_random_rank_q_full_rank_left_inverse():
    x = random_rank_q(5, 3, 3, mc.make_rng(12))
    np.testing.assert_allclose(mc.pinv(x) @ x, np.eye(3), atol=1e-12)


def test_random_rank_q_rejects_bad_spectrum():
    rng = mc.make_rng(13)
    with pytest.raises(BadSpectrum):
        random_rank_q(3, 3, 2, rng, spectrum=(1.0, 2.0))
    with pytest.raises(BadSpectrum):
        random_rank_q(3, 3, 2, rng, spectrum=(2.0, -1.0))
    with pytest.raises(BadSpectrum):
        random_rank_q(3, 3, 2, rng, spectrum=(2.0, 2.0))


def test_random_rank_q_refuses_a_wrong_count_as_the_cli_does():
    # validate_spectrum checks the count, with the message a configuration gets.
    with pytest.raises(BadSpectrum, match=r"^spectrum has 3 values but q=2$"):
        random_rank_q(3, 3, 2, mc.make_rng(13), [3, 2, 1])


def test_sorted_spectra_sort_a_stack_as_each_draw_alone():
    # C-contiguous, since numpy's log and pow may round a strided view differently.
    draws = [mc.make_rng(15, t).uniform(*mc.SPECTRUM_RANGE, size=4) for t in range(3)]
    d = mc.sorted_spectra(draws)
    assert d.flags.c_contiguous and mc.sorted_spectra(draws[0]).flags.c_contiguous
    for row, draw in zip(d, draws):
        assert np.array_equal(row, mc.sorted_spectra(draw))
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
