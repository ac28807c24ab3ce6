"""Measure-density factor tests: anchors, identities, and the invariance split."""

import numpy as np
import pytest

from mpjl import matcore as mc, measures as ms, witnesses as wt
from mpjl.differential import FdConfig
from mpjl.errors import BadSpectrum, NotFullColumnRank, SingularInput


def test_density_anchor_2x2_rank1():
    assert ms.hausdorff_density(2, 2, [2.0]) == 2.0


def test_density_anchor_3x2_rank2():
    assert ms.hausdorff_density(3, 2, [2.0, 1.0]) == 1.5


def test_density_rejects_ties_and_nonpositive():
    with pytest.raises(BadSpectrum):
        ms.hausdorff_density(3, 3, [2.0, 2.0])
    with pytest.raises(BadSpectrum):
        ms.hausdorff_density(3, 3, [2.0, -1.0])
    with pytest.raises(BadSpectrum):
        ms.hausdorff_density(3, 3, [1.0, 2.0])


def test_density_scaling_exponent():
    # Scaling D by c multiplies the density by c^(q(n+m-2q) + q(q-1)).
    rng = mc.make_rng(60)
    for _ in range(10):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(q, 9))
        m = int(rng.integers(q, 9))
        d = mc.sample_spectrum(q, rng)
        c = float(rng.uniform(0.5, 3.0))
        expected = c ** (q * (n + m - 2 * q) + q * (q - 1)) * ms.hausdorff_density(n, m, d)
        got = ms.hausdorff_density(n, m, c * d)
        assert abs(got - expected) <= 1e-10 * expected


def test_density_increasing_in_gaps():
    base = ms.hausdorff_density(4, 4, [2.0, 1.0])
    widened = ms.hausdorff_density(4, 4, [2.5, 1.0])
    assert widened > base > 0


def test_pinv_spectrum_values():
    np.testing.assert_allclose(ms.pinv_spectrum([2.0]), [0.5])
    np.testing.assert_allclose(ms.pinv_spectrum([4.0, 1.0]), [1.0, 0.25])


def test_pinv_spectrum_involution():
    d = np.array([3.0, 1.5, 0.25])
    np.testing.assert_allclose(ms.pinv_spectrum(ms.pinv_spectrum(d)), d, rtol=1e-15)


def test_factor_anchors():
    assert ms.nonfullrank_jacobian_factor(2, 2, [2.0]) == 1.0 / 64.0
    assert ms.nonfullrank_jacobian_factor(3, 2, [2.0, 1.0]) == 1.0 / 64.0
    assert ms.nonfullrank_jacobian_factor(5, 7, [1.0]) == 1.0


def test_ratio_check_hand_chain():
    # density_Y * (1/4) / density_X = (1/2 * 1/4) * (1/4) / 2 = 1/64.
    rep = ms.hausdorff_ratio_check(2, 2, [2.0], 1e-12)
    assert rep.values["density_x"] == 2.0
    assert rep.values["density_y"] == 0.125
    assert rep.values["jacobian_factor"] == 1.0 / 64.0
    assert rep.residuals["identity"] <= 1e-12


def test_ratio_check_mixed_shape():
    rep = ms.hausdorff_ratio_check(3, 2, [2.0, 1.0], 1e-12)
    assert rep.residuals["identity"] <= 1e-12


def test_ratio_check_sweep():
    rng = mc.make_rng(61)
    for _ in range(50):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(q, 9))
        m = int(rng.integers(q, 9))
        rep = ms.hausdorff_ratio_check(n, m, mc.sample_spectrum(q, rng), 1e-10)
        assert rep.residuals["identity"] <= 1e-10


def _loop_density(n, m, d):
    # The per-spectrum loop the stacked product replaced: scalar powers,
    # factors multiplied left to right.
    q = len(d)
    value = 2.0 ** (-q) * np.prod(d) ** (n + m - 2 * q)
    for i in range(q):
        for j in range(i + 1, q):
            value *= d[i] ** 2 - d[j] ** 2
    return value


def test_linear_values_keep_the_bits_of_the_loops():
    rng = mc.make_rng(64)
    for _ in range(40):
        q = int(rng.integers(1, 9))
        n, m = int(rng.integers(q, 12)), int(rng.integers(q, 12))
        d = np.array([mc.sample_spectrum(q, rng) for _ in range(4)])
        density = ms.hausdorff_density(n, m, d)
        factor = ms.nonfullrank_jacobian_factor(n, m, d)
        for row, got_density, got_factor in zip(d, density, factor):
            assert got_density == _loop_density(n, m, row)
            product = 1.0
            for v in row:
                product *= v ** (-2.0 * (n + m - q))
            assert got_factor == product


def test_ratio_check_stack_matches_per_spectrum():
    # One stacked pass gives each spectrum the report, bits included, of its own call.
    rng = mc.make_rng(63)
    for q in (1, 3, 8):
        d = np.array([mc.sample_spectrum(q, rng) for _ in range(5)])
        stacked = ms.hausdorff_ratio_check(9, 8, d)
        assert len(stacked) == 5
        for row, report in zip(d, stacked):
            assert report.to_json() == ms.hausdorff_ratio_check(9, 8, row).to_json()


def test_linear_values_only_where_finite_and_normal():
    # At 60 x 50 rank 20 every linear value leaves the float range; the
    # identity holds between the logs.
    d = np.geomspace(1.0, 0.1, 20)
    assert ms.hausdorff_density(60, 50, d) == 0.0
    assert ms.nonfullrank_jacobian_factor(60, 50, d) == np.inf
    rep = ms.hausdorff_ratio_check(60, 50, d)
    assert list(rep.values) == ["log_density_x", "log_density_y", "log_jacobian_factor"]
    assert rep.values["log_jacobian_factor"] == -2 * (60 + 50 - 20) * np.log(d).sum()
    assert rep.passed
    # Here prod d^-4 ends normal, 1.6e-12 off exp(log), after a first factor
    # 1e-312 that is subnormal: the factor is left out, the densities kept.
    d = np.array([1e78, 1e-76])
    assert ms.nonfullrank_jacobian_factor(2, 2, d) >= np.finfo(float).tiny
    rep = ms.hausdorff_ratio_check(2, 2, d)
    assert list(rep.values) == ["density_x", "density_y", "log_density_x", "log_density_y",
                                "log_jacobian_factor"]
    assert rep.values["density_x"] == ms.hausdorff_density(2, 2, d)
    assert rep.passed


def test_symmetric_matrix_exact_symmetry():
    rng = mc.make_rng(62)
    raw = rng.standard_normal((4, 4))
    full = ms.symmetric_part(raw + raw.T)
    assert np.array_equal(full, full.T)


def test_symmetric_inverse_scalar():
    s = ms.symmetric_part([[4.0]])
    assert ms.symmetric_inverse_jacobian_formula(s) == 1.0 / 16.0
    fd = ms.symmetric_inverse_fd_det(s)
    assert abs(fd - 1.0 / 16.0) <= 1e-4 / 16.0


def test_symmetric_inverse_identity():
    s = ms.symmetric_part(np.eye(3))
    assert ms.symmetric_inverse_jacobian_formula(s) == 1.0


def test_symmetric_inverse_rejects_singular():
    s = ms.symmetric_part(np.diag([1.0, 0.0]))
    with pytest.raises(SingularInput):
        ms.symmetric_inverse_jacobian_formula(s)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_symmetric_inverse_formula_vs_fd(order):
    for trial in range(5):
        rng = mc.make_rng(63, order, trial)
        frame = mc.random_stiefel(order, order, rng)
        s = ms.symmetric_part((frame * rng.uniform(0.5, 2.5, order)) @ frame.T)
        formula = ms.symmetric_inverse_jacobian_formula(s)
        fd = ms.symmetric_inverse_fd_det(s)
        assert abs(formula - fd) <= 1e-4 * formula


def _symmetric_inverse_fd_det_per_direction(s):
    # Oracle of the stacked symmetric_inverse_fd_det: one complex point at a time.
    m = s.shape[0]
    h = 1e-20 * np.max(np.abs(s))
    coords = list(zip(*np.triu_indices(m)))
    jac = np.empty((len(coords), len(coords)))
    for k, (i, j) in enumerate(coords):
        e = np.zeros((m, m))
        e[i, j] = 1.0
        e[j, i] = 1.0
        jac[:, k] = ms.vech(np.linalg.inv(s + 1j * h * e).imag / h)
    return float(abs(np.linalg.det(jac)))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_symmetric_inverse_fd_det_matches_per_direction_loop(order):
    for trial in range(10):
        rng = mc.make_rng(64, order, trial)
        frame = mc.random_stiefel(order, order, rng)
        s = ms.symmetric_part((frame * rng.uniform(0.5, 2.5, order)) @ frame.T)
        assert ms.symmetric_inverse_fd_det(s) == _symmetric_inverse_fd_det_per_direction(s)


def test_vech_of_a_stack():
    stack = np.arange(18.0).reshape(2, 3, 3)
    assert np.array_equal(ms.vech(stack), [ms.vech(stack[0]), ms.vech(stack[1])])
    assert np.array_equal(ms.vech(stack[0]), [0.0, 1.0, 2.0, 4.0, 5.0, 8.0])


def test_exterior_chain_orthonormal_columns():
    x = mc.random_stiefel(5, 3, mc.make_rng(64))
    rep = ms.exterior_chain_check(x)
    assert rep.passed
    assert abs(rep.values["assembled"] - 1.0) <= 1e-10
    assert abs(rep.values["closed_form"] - 1.0) <= 1e-10


def test_exterior_chain_anchor():
    rep = ms.exterior_chain_check(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    assert rep.passed
    assert abs(rep.values["assembled"] - 36.0 ** -3) <= 1e-12 * 36.0 ** -3


def test_exterior_chain_sweep():
    for trial in range(20):
        x = mc.random_rank_q(5, 3, 3, mc.make_rng(65, trial))
        rep = ms.exterior_chain_check(x)
        assert rep.residuals["inverse_identity"] <= 1e-10
        assert rep.residuals["determinant_algebra"] <= 1e-12
        assert rep.residuals["operator_match"] <= 1e-8


def test_exterior_chain_rejects_wide_or_deficient():
    with pytest.raises(NotFullColumnRank):
        ms.exterior_chain_check(mc.random_rank_q(2, 4, 2, mc.make_rng(66)))
    with pytest.raises(NotFullColumnRank):
        ms.exterior_chain_check(np.array([[1.0, 2.0], [3.0, 6.0], [0.0, 0.0]]))


def test_invariance_identity_sandwich():
    x = mc.random_rank_q(3, 3, 2, mc.make_rng(67))
    rep = ms.orthogonal_invariance_check(x, 2, np.eye(3), np.eye(3))
    assert abs(rep.values["abs_det"] - 1.0) <= 1e-9


def test_invariance_full_chart():
    rng = mc.make_rng(68)
    x = mc.random_rank_q(3, 2, 2, rng)
    h = mc.random_stiefel(3, 3, rng)
    q = mc.random_stiefel(2, 2, rng)
    rep = ms.orthogonal_invariance_check(x, 2, h, q)
    assert rep.passed
    assert rep.values["deviation"] <= 1e-6


def test_invariance_rotation_witness():
    c = np.cos(np.pi / 4)
    s = np.sin(np.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = ms.orthogonal_invariance_check(x, 1, rot, rot)
    assert rep.values["deviation"] > 0.1
    assert rep.passed  # deficient charts report evidence, no bound


def test_invariance_rejects_nonorthogonal_factor():
    x = mc.random_rank_q(3, 3, 2, mc.make_rng(69))
    with pytest.raises(ValueError):
        ms.orthogonal_invariance_check(x, 2, np.eye(3) * 1.001, np.eye(3))


def test_witness_fixtures_reproduce_exactly():
    witnesses = wt.load_witnesses()
    assert {(w["n"], w["m"], w["q"]) for w in witnesses} == {(2, 2, 1), (3, 2, 1), (3, 3, 2)}
    for w in witnesses:
        rep = wt.reproduce(w)
        assert rep.values["abs_det"] == w["abs_det"]
        assert rep.values["deviation"] == w["deviation"]
        assert rep.values["deviation"] > 0.05


def test_fd_config_step_bounds():
    with pytest.raises(ValueError):
        FdConfig(step=1.0)
    with pytest.raises(ValueError):
        FdConfig(step=1e-12)
