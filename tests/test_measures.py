"""Measure-density factor tests: anchors, identities, and the invariance split."""

import math
import re

import mpmath
import numpy as np
import pytest

from helpers import (
    check, log_gaussian_mass, random_rank_q, random_stiefel, report_json,
    symmetric_inverse_complex_step, vech,
)
from mpjl import matcore as mc, measures as ms, suites, witnesses as wt
from mpjl.errors import BadSpectrum, RankMismatch, ShapeMismatch
from test_mutants import _density_without_2_to_minus_q


def test_density_anchor_2x2_rank1():
    assert abs(ms.log_hausdorff_density(2, 2, [2.0]) - np.log(2.0)) <= 1e-15


def test_density_anchor_3x2_rank2():
    assert abs(ms.log_hausdorff_density(3, 2, [2.0, 1.0]) - np.log(1.5)) <= 1e-15


def test_density_rejects_ties_and_nonpositive():
    with pytest.raises(BadSpectrum):
        ms.log_hausdorff_density(3, 3, [2.0, 2.0])
    with pytest.raises(BadSpectrum):
        ms.log_hausdorff_density(3, 3, [2.0, -1.0])
    with pytest.raises(BadSpectrum):
        ms.log_hausdorff_density(3, 3, [1.0, 2.0])


def test_density_scaling_exponent():
    # Scaling D by c adds (q(n+m-2q) + q(q-1)) log c to the log density.
    rng = mc.make_rng(60)
    for _ in range(10):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(q, 9))
        m = int(rng.integers(q, 9))
        d = mc.sorted_spectra(rng.uniform(*mc.SPECTRUM_RANGE, size=q))
        c = float(rng.uniform(0.5, 3.0))
        exponent = q * (n + m - 2 * q) + q * (q - 1)
        expected = exponent * np.log(c) + ms.log_hausdorff_density(n, m, d)
        got = ms.log_hausdorff_density(n, m, c * d)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))


def test_density_increasing_in_gaps():
    base = ms.log_hausdorff_density(4, 4, [2.0, 1.0])
    widened = ms.log_hausdorff_density(4, 4, [2.5, 1.0])
    assert widened > base


def test_factor_anchors():
    # log 1/64 = -6 log 2, as -2(n+m-q) sum log D.
    assert ms.log_nonfullrank_jacobian_factor(2, 2, [2.0]) == -6.0 * np.log(2.0)
    assert ms.log_nonfullrank_jacobian_factor(3, 2, [2.0, 1.0]) == -6.0 * np.log(2.0)
    assert ms.log_nonfullrank_jacobian_factor(5, 7, [1.0]) == 0.0


def test_ratio_check_hand_chain():
    # density_Y * (1/4) / density_X = (1/2 * 1/4) * (1/4) / 2 = 1/64.
    [rep] = check("hausdorff", ([[2.0]],), n=2, m=2, tol=1e-12)
    assert list(rep.values) == ["log_density_x", "log_density_y", "log_jacobian_factor"]
    assert abs(rep.values["log_density_x"] - np.log(2.0)) <= 1e-15
    assert abs(rep.values["log_density_y"] - np.log(0.125)) <= 1e-15
    assert rep.values["log_jacobian_factor"] == -6.0 * np.log(2.0)
    assert rep.residuals["identity"] <= 1e-12


def test_ratio_check_mixed_shape():
    [rep] = check("hausdorff", ([[2.0, 1.0]],), n=3, m=2, tol=1e-12)
    assert rep.residuals["identity"] <= 1e-12


def test_ratio_check_sweep():
    rng = mc.make_rng(61)
    for _ in range(50):
        q = int(rng.integers(1, 5))
        n = int(rng.integers(q, 9))
        m = int(rng.integers(q, 9))
        d = mc.sorted_spectra(rng.uniform(*mc.SPECTRUM_RANGE, size=q))
        [rep] = check("hausdorff", (d[None],), n=n, m=m, tol=1e-10)
        assert rep.residuals["identity"] <= 1e-10


def _loop_log_density(n, m, d):
    # The per-spectrum loop: each pair as log(d_i - d_j) + log(d_i + d_j).
    q = len(d)
    value = -q * np.log(2.0) + (n + m - 2 * q) * sum(np.log(v) for v in d)
    for i in range(q):
        for j in range(i + 1, q):
            value += np.log(d[i] - d[j]) + np.log(d[i] + d[j])
    return value


def _mp_log_density(n, m, d):
    # 50-digit log of 2^-q (prod d)^(n+m-2q) prod_{i<j}(d_i^2 - d_j^2) at the float d.
    with mpmath.workdps(50):
        d = [mpmath.mpf(float(v)) for v in d]
        q = len(d)
        pairs = (d[i] ** 2 - d[j] ** 2 for i in range(q) for j in range(i + 1, q))
        return float(mpmath.log(mpmath.mpf(2) ** -q * mpmath.fprod(d) ** (n + m - 2 * q)
                                * mpmath.fprod(pairs)))


def test_linear_densities_match_mpmath():
    # Close singular values: a difference of rounded squares cancelled to
    # 1.1e-11 at trial 1609 (smallest gap 4.2e-6 of d_1); each pair taken
    # as (d_i - d_j)(d_i + d_j) keeps the log of the linear product to rounding.
    for t in range(1560, 1660):
        d = mc.sorted_spectra(mc.make_rng(7, t).uniform(*mc.SPECTRUM_RANGE, size=20))
        [rep] = check("hausdorff", (d[None],), n=40, m=32)
        assert rep.passed
        for key, (n, m, e) in (("log_density_x", (40, 32, d)),
                               ("log_density_y", (32, 40, 1.0 / d[..., ::-1]))):
            want = _mp_log_density(n, m, e)
            assert abs(rep.values[key] - want) <= 1e-13 * abs(want), (t, key)


def test_linear_density_may_be_a_subnormal_chain():
    # The linear density of Y at trial 621 is 3.5e-323, below the normal
    # range, where a float product keeps no signal.  Only its log is
    # reported, and it holds to rounding.
    d = mc.sorted_spectra(mc.make_rng(7, 621).uniform(*mc.SPECTRUM_RANGE, size=20))
    e = 1.0 / d[..., ::-1]
    want = _mp_log_density(32, 40, e)
    assert np.exp(want) < np.finfo(float).tiny
    [rep] = check("hausdorff", (d[None],), n=40, m=32)
    assert list(rep.values) == ["log_density_x", "log_density_y", "log_jacobian_factor"]
    assert rep.passed
    assert abs(rep.values["log_density_y"] - want) <= 1e-13 * abs(want)
    assert ms.log_hausdorff_density(32, 40, e) == rep.values["log_density_y"]


def test_log_values_keep_the_bits_of_the_loops():
    # A stack of spectra gives each the bits of its own call, a stack of one,
    # and agrees with the per-spectrum loop to rounding.
    rng = mc.make_rng(64)
    for _ in range(40):
        q = int(rng.integers(1, 9))
        n, m = int(rng.integers(q, 12)), int(rng.integers(q, 12))
        d = mc.sorted_spectra(rng.uniform(*mc.SPECTRUM_RANGE, size=(4, q)))
        density = ms.log_hausdorff_density(n, m, d)
        factor = ms.log_nonfullrank_jacobian_factor(n, m, d)
        for row, got_density, got_factor in zip(d, density, factor):
            assert got_density == ms.log_hausdorff_density(n, m, row)
            assert got_factor == ms.log_nonfullrank_jacobian_factor(n, m, row)
            want = _loop_log_density(n, m, row)
            assert abs(got_density - want) <= 1e-14 * max(1.0, abs(want))
            want = -2.0 * (n + m - q) * sum(np.log(v) for v in row)
            assert abs(got_factor - want) <= 1e-14 * max(1.0, abs(want))


def test_ratio_check_stack_matches_per_spectrum():
    # One stacked pass gives each spectrum the report, bits included, of its own call.
    rng = mc.make_rng(63)
    for q in (1, 3, 8):
        d = mc.sorted_spectra(rng.uniform(*mc.SPECTRUM_RANGE, size=(5, q)))
        stacked = check("hausdorff", (d,), n=9, m=8)
        assert len(stacked) == 5
        for row, report in zip(d, stacked):
            assert report_json(report) == report_json(
                check("hausdorff", (row[None],), n=9, m=8)[0])


def test_log_values_hold_beyond_the_float_range():
    # At 60 x 50 rank 20 every linear value leaves the float range; the
    # identity holds between the logs.
    d = np.geomspace(1.0, 0.1, 20)
    [rep] = check("hausdorff", (d[None],), n=60, m=50)
    assert list(rep.values) == ["log_density_x", "log_density_y", "log_jacobian_factor"]
    assert rep.values["log_jacobian_factor"] == -2 * (60 + 50 - 20) * np.log(d).sum()
    assert rep.passed
    # prod d^-4 here runs through a subnormal first factor 1e-312.
    d = np.array([1e78, 1e-76])
    [rep] = check("hausdorff", (d[None],), n=2, m=2)
    assert list(rep.values) == ["log_density_x", "log_density_y", "log_jacobian_factor"]
    assert rep.values["log_density_x"] == ms.log_hausdorff_density(2, 2, d)
    assert rep.passed


@pytest.mark.parametrize("n, m, q", [(2, 2, 2), (3, 2, 2), (3, 3, 3), (5, 3, 3), (3, 2, 1),
                                     (5, 2, 1), (3, 3, 1), (4, 3, 1), (4, 3, 2), (6, 3, 2)])
def test_density_constants_give_the_gaussian_mass(n, m, q):
    # Every other check of the density is local, and its 2^-q, the sign
    # covering of the SVD, cancels from each.  The Gaussian mass of all n x m
    # matrices, (2 pi)^(nm/2), is global: the Stiefel volumes times the
    # density's integral over the ordered spectrum, at full rank and through
    # the rank-q split (helpers.log_gaussian_mass).  Measured within 3.0e-14
    # of its log at 40 and 48 nodes per axis; the density without its 2^-q
    # (test_mutants' mutant) misses by p log 2, 1.39 at p = 2 and 2.08 at 3.
    mass = log_gaussian_mass(n, m, q, ms.log_hausdorff_density)
    assert abs(mass - n * m / 2 * math.log(2 * math.pi)) <= 1e-12
    dropped = log_gaussian_mass(n, m, q, _density_without_2_to_minus_q(ms.log_hausdorff_density))
    assert abs(dropped - mass - min(n, m) * math.log(2.0)) <= 1e-12


def test_symmetric_matrix_exact_symmetry():
    rng = mc.make_rng(62)
    raw = rng.standard_normal((4, 4))
    full = ms.symmetric_part(raw + raw.T)
    assert np.array_equal(full, full.T)


def test_symmetric_inverse_scalar():
    # log 1/16 = -2 log 4.
    s = ms.symmetric_part([[4.0]])
    assert ms.log_symmetric_inverse_jacobian(s) == -2.0 * np.log(4.0)
    fd = ms.symmetric_inverse_fd_det(s)
    assert abs(fd - np.log(1.0 / 16.0)) <= 1e-4


def test_symmetric_inverse_identity():
    s = ms.symmetric_part(np.eye(3))
    assert ms.log_symmetric_inverse_jacobian(s) == 0.0


def test_symmetric_inverse_rejects_singular():
    s = ms.symmetric_part(np.diag([1.0, 0.0]))
    with pytest.raises(RankMismatch, match="numerical rank 1 != requested q=2"):
        ms.log_symmetric_inverse_jacobian(s)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_symmetric_inverse_formula_vs_fd(order):
    for trial in range(5):
        rng = mc.make_rng(63, order, trial)
        frame = random_stiefel(order, order, rng)
        s = ms.symmetric_part((frame * rng.uniform(0.5, 2.5, order)) @ frame.T)
        formula = ms.log_symmetric_inverse_jacobian(s)
        fd = ms.symmetric_inverse_fd_det(s)
        assert abs(formula - fd) <= 1e-4


def _symmetric_inverse_fd_det_per_direction(s):
    # Oracle of the gathered symmetric_inverse_fd_det: one tangent P dS P at a time, from
    # the inverse of one symmetric matrix.
    p = np.linalg.inv(ms.symmetric_part(s))
    coords = list(zip(*np.triu_indices(p.shape[0])))
    jac = np.empty((len(coords), len(coords)))
    for k, (i, j) in enumerate(coords):
        tangent = np.outer(p[:, i], p[j]) + np.outer(p[:, j], p[i])
        jac[:, k] = vech(tangent) * (0.5 if i == j else 1.0)
    return float(np.linalg.slogdet(jac)[1])


def _symmetric_stack(seed, order, trials, eigenvalues):
    # ``trials`` matrices F diag(e) F', F a random orthogonal frame, e = eigenvalues(rng).
    rngs = [mc.make_rng(seed, order, t) for t in range(trials)]
    frames = np.array([random_stiefel(order, order, rng) for rng in rngs])
    eigs = np.array([eigenvalues(rng) for rng in rngs])
    return (frames * eigs[:, None, :]) @ frames.swapaxes(-1, -2)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_symmetric_inverse_fd_det_matches_per_direction_loop(order):
    # A stack of 10 gives each slice the bits of a stack of one, and of one direction at a
    # time.
    s = _symmetric_stack(64, order, 10, lambda rng: rng.uniform(0.5, 2.5, order))
    stacked = ms.symmetric_inverse_fd_det(s)
    for t in range(10):
        alone = ms.symmetric_inverse_fd_det(s[t])
        assert stacked[t] == alone == _symmetric_inverse_fd_det_per_direction(s[t])


# Worst |tangent - complex step| over seeds 1-3 x 8 trials and orders 1-8, at signed
# eigenvalues: 1.4e-14 drawn from [0.5, 2.5], 1.3e-8 at geomspace(1, 1e-4, m) and 8.0e-7 at
# geomspace(1, 1e-5, m).  Both lose like eps * cond(S)^2.
COMPLEX_STEP_BOUNDS = {None: 1e-13, 1e4: 5e-8, 1e5: 5e-6}


@pytest.mark.parametrize("cond", list(COMPLEX_STEP_BOUNDS))
@pytest.mark.parametrize("order", range(1, 9))
def test_symmetric_inverse_fd_det_matches_complex_step(order, cond):
    def eigenvalues(rng):
        signs = rng.choice([-1.0, 1.0], size=order)
        if cond is None:
            return signs * rng.uniform(0.5, 2.5, order)
        return signs * np.geomspace(1.0, 1.0 / cond, order)

    for seed in (1, 2, 3):
        s = _symmetric_stack(seed, order, 8, eigenvalues)
        error = np.abs(ms.symmetric_inverse_fd_det(s) - symmetric_inverse_complex_step(s))
        assert np.all(error <= COMPLEX_STEP_BOUNDS[cond])


def test_symmetric_inverse_takes_one_real_inverse_per_stack(inv_inputs):
    for m in (1, 4):
        inv_inputs.clear()
        cfg = suites.validate_config(suites.RunConfig(m=m, trials=5, seed=65), "symmetric-inverse")
        assert all(r.passed for r in suites._run_stack("symmetric-inverse", cfg, range(5)))
        assert inv_inputs == [((5, m, m), np.float64)]


def test_vech_of_a_stack():
    stack = np.arange(18.0).reshape(2, 3, 3)
    assert np.array_equal(vech(stack), [vech(stack[0]), vech(stack[1])])
    assert np.array_equal(vech(stack[0]), [0.0, 1.0, 2.0, 4.0, 5.0, 8.0])


def test_exterior_chain_orthonormal_columns():
    # Orthonormal frames scaled by singular values a request gap apart from 1:
    # log|X'X|^-n is -2n sum log d, near 0.
    rng = mc.make_rng(64)
    d = np.array([1.0 + 4e-6, 1.0 + 2e-6, 1.0])
    [rep] = check("exterior-chain", (d[None], rng.standard_normal((1, 5, 3)),
                                     rng.standard_normal((1, 3, 3))), n=5, m=3)
    want = -10.0 * np.log(d).sum()
    assert rep.passed
    assert abs(rep.values["log_closed_form"] - want) <= 1e-12


def test_exterior_chain_anchor():
    # X = diag(3, 2) over a zero row: frames eye(3)[:, :2] and eye(2), |X'X| = 36.
    [rep] = check("exterior-chain", ([(3.0, 2.0)], np.eye(3)[None, :, :2], np.eye(2)[None]),
                   n=3, m=2)
    assert rep.passed
    assert abs(rep.values["log_closed_form"] - np.log(36.0 ** -3)) <= 1e-12


def test_exterior_chain_sweep():
    for trial in range(20):
        [rep] = check("exterior-chain", mc.draw_rank_q(5, 3, 3, [mc.make_rng(65, trial)]),
                      n=5, m=3)
        assert rep.residuals["inverse_identity"] <= 1e-10


def test_exterior_chain_rejects_wide_or_deficient():
    with pytest.raises(RankMismatch):
        check("exterior-chain", mc.draw_rank_q(2, 4, 2, [mc.make_rng(66)]), n=2, m=4)
    with pytest.raises(RankMismatch):
        check("exterior-chain", mc.draw_rank_q(3, 2, 1, [mc.make_rng(66)]), n=3, m=2)


def test_invariance_identity_sandwich():
    x = random_rank_q(3, 3, 2, mc.make_rng(67))
    [rep] = suites.judge_invariance(x, 2, np.eye(3), np.eye(3))
    assert abs(rep.values["abs_det"] - 1.0) <= 1e-9


def test_invariance_full_chart():
    rng = mc.make_rng(68)
    x = random_rank_q(3, 2, 2, rng)
    h = random_stiefel(3, 3, rng)
    q = random_stiefel(2, 2, rng)
    [rep] = suites.judge_invariance(x, 2, h, q)
    assert rep.passed
    assert rep.values["deviation"] <= 1e-12
    # Both chart volumes are 0, so |det| = 1 is the whole area formula: one residual.
    assert rep.tolerances == {"deviation": 1e-12} and list(rep.residuals) == ["deviation"]


def test_invariance_rotation_witness():
    c = np.cos(np.pi / 4)
    s = np.sin(np.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    [rep] = suites.judge_invariance(x, 1, rot, rot)
    assert rep.values["deviation"] > 0.1
    assert rep.passed  # a deficient chart's deviation is a value, evidence with no bound
    assert rep.tolerances == {"volume": 1e-9} and list(rep.residuals) == ["volume"]
    assert rep.residuals["volume"] <= 1e-15  # |det| = 1/2 = exp(V_in - V_out)


def test_invariance_volume_is_the_closed_form_of_the_chart_jacobian():
    # The rotation witness by hand: X = e1 e1', H = Q = R(pi/4).  X's chart
    # has W = Z = 0, so V_in = 0; H X Q = u v' with u = (c, s), v = (c, -s),
    # c = s = 1/sqrt 2, pivots at an entry of magnitude 1/2 with W = Z = +-1,
    # so V_out = 1/2 log 2 + 1/2 log 2 and |det| = exp(-log 2) = 1/2.
    c = np.cos(np.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    [rep] = suites.judge_invariance(x, 1, rot, rot)
    assert abs(rep.values["abs_det"] - 0.5) <= 1e-15
    rng = mc.make_rng(70)
    for n, m, q in [(5, 4, 2), (3, 5, 2), (8, 6, 3), (4, 4, 4)]:
        x = np.array([random_rank_q(n, m, q, rng) for _ in range(4)])
        h = mc.orthonormal_frames(rng.standard_normal((4, n, n)))
        qmat = mc.orthonormal_frames(rng.standard_normal((4, m, m)))
        reports = suites.judge_invariance(x, q, h, qmat)
        assert len(reports) == 4
        for r in reports:
            key = "deviation" if q == min(n, m) else "volume"  # V_in = V_out = 0 on a full chart
            assert r.passed and r.residuals[key] <= 1e-13
            assert r.values["full_chart"] == (q == min(n, m))


def test_invariance_rejects_nonorthogonal_factor():
    x = random_rank_q(3, 3, 2, mc.make_rng(69))
    with pytest.raises(ValueError):
        suites.judge_invariance(x, 2, np.eye(3) * 1.001, np.eye(3))


def test_invariance_refuses_a_factor_that_is_not_square_or_not_finite():
    # Each factor is coerced, then tested square, then orthogonal, left before right.
    x = random_rank_q(3, 3, 2, mc.make_rng(69))
    with pytest.raises(ShapeMismatch, match=re.escape("left factor must be square, got (2, 3)")):
        suites.judge_invariance(x, 2, np.eye(2, 3), np.eye(3))
    with pytest.raises(ShapeMismatch, match=re.escape("right factor must be square, got (3, 2)")):
        suites.judge_invariance(x, 2, np.eye(3), np.eye(3, 2))
    bad = np.eye(3)
    bad[1, 2] = np.inf
    for factors in ((bad, np.eye(3)), (np.eye(3), bad)):
        with pytest.raises(ValueError) as raised:
            suites.judge_invariance(x, 2, *factors)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "matrix entries must be finite"


def test_invariance_refuses_a_stack_in_which_one_factor_is_not_orthogonal():
    rng = mc.make_rng(72)
    x = np.array([random_rank_q(4, 3, 2, rng) for _ in range(3)])
    h = mc.orthonormal_frames(rng.standard_normal((3, 4, 4)))
    qmat = mc.orthonormal_frames(rng.standard_normal((3, 3, 3)))
    assert all(r.passed for r in suites.judge_invariance(x, 2, h, qmat))
    qmat[1] *= 1.001  # Q'Q = 1.001^2 I
    with pytest.raises(ValueError, match=re.escape("right factor deviates from orthogonality "
                                                   "by 2.00e-03")):
        suites.judge_invariance(x, 2, h, qmat)
    for t in (0, 2):
        assert suites.judge_invariance(x[t], 2, h[t], qmat[t])[0].passed


def test_witness_fixtures_reproduce_exactly():
    witnesses = wt.load_witnesses()
    assert {(w["n"], w["m"], w["q"]) for w in witnesses} == {(2, 2, 1), (3, 2, 1), (3, 3, 2)}
    for w in witnesses:
        rep = wt.reproduce(w)
        assert rep.values["abs_det"] == w["abs_det"]
        assert rep.values["deviation"] == w["deviation"]
        assert rep.values["deviation"] > 0.05
