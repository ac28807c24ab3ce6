"""Property sweeps: the closed-form operator spectrum against the dense
operator and its pair blocks, the pair-block reads of the operator's
factors against the dense operator, the tangent chart Jacobian of pinv
against the area formula and the tangent against the tests' complex step, the
pivots of ``decompose`` against the greedy loop, the complex-step oracles of
the differential and of the symmetric inverse against their closed forms and
slice by slice, the log values
of the hausdorff check against a 50-digit mpmath evaluation, pinv(X)' on X's
chart against X's W and Z and its chart determinant against the operator's,
the charts of X and H X Q pivoted as one stack against each pivoted alone,
and stacked draws against the draws of one generator."""

import mpmath
import numpy as np
from hypothesis import assume, example, given, strategies as st

from helpers import (
    check, dense_pair_reads, jacobian_operator, operator_spectrum, pinv_chart_log_det,
    pinv_complex_step, random_rank_q, random_stiefel,
)
from mpjl import chart, differential as df, matcore as mc, measures, suites
from mpjl.reports import TOLERANCES


def _case(n, m, q, scale, seed):
    return n, m, q, scale * random_rank_q(n, m, q, mc.make_rng(seed))


@st.composite
def instances(draw):
    """(n, m, q, X): shapes up to 6x6, any rank, spectrum scaled by 1e-2 to 1e2."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, min(n, m)))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    return _case(n, m, q, scale, draw(st.integers(0, 2**31 - 1)))


@given(instances())
@example(_case(1, 5, 1, 0.25, 1))
@example(_case(5, 1, 1, 4.0, 2))
@example(_case(6, 6, 2, 1.0, 3))
@example(_case(6, 6, 6, 0.01, 4))
@example(_case(4, 6, 3, 100.0, 5))
def test_operator_spectrum_matches_dense_operator(case):
    n, m, q, x = case
    op = jacobian_operator(x)
    assert np.array_equal(op, op.T)
    dx = mc.make_rng(n, m, q).standard_normal((n, m))
    image = df.pinv_differential(x, dx).T.ravel()
    np.testing.assert_allclose(op @ dx.ravel(), image, rtol=0,
                               atol=1e-12 * np.linalg.norm(op) * np.linalg.norm(dx))
    info = mc.rank_profile(x)
    spectrum = operator_spectrum(x, info)
    k = n * q + m * q - q * q
    assert spectrum.size == k == mc.rank_profile(op).rank
    # Three spectra agree: the operator's 1x1 and 2x2 pair blocks in the
    # basis of X's SVD, built as the operator-rank suite builds them; the
    # whole operator's absolute eigenvalues; and the closed form, padded
    # with the nm - k zeros of the kernel.
    u, _, vt, y = mc.svd_pinv(x[None], full_matrices=True)
    pairs, (norm, _, leak) = df.pair_block_profile(
        u.swapaxes(-1, -2) @ x @ vt.swapaxes(-1, -2), vt @ y @ u, q)
    whole = np.sort(np.abs(np.linalg.eigvalsh(op)))[::-1]
    closed = np.concatenate([spectrum, np.zeros(n * m - k)])
    assert pairs.rank == k
    for values in (pairs.singular_values[0], whole):
        np.testing.assert_allclose(values, closed, rtol=0, atol=1e-12 * closed[0])
    # What the pair blocks leave of the rotated operator is rounding only.
    assert leak[0] <= TOLERANCES["operator-rank"]["leak"] * np.linalg.norm(op)
    np.testing.assert_allclose(norm, np.linalg.norm(op), rtol=1e-14, atol=0)
    singular = np.linalg.svd(op, compute_uv=False)
    np.testing.assert_allclose(whole[:k], singular[:k], rtol=1e-12, atol=0)
    np.testing.assert_allclose(spectrum, singular[:k], rtol=1e-10, atol=0)
    d = info.singular_values[:q]
    log_factor = measures.log_nonfullrank_jacobian_factor(n, m, d)
    assert abs(np.log(spectrum).sum() - log_factor) <= 1e-10 * max(1.0, abs(log_factor))
    if q == min(n, m):
        log_det = np.linalg.slogdet(op)[1]
        assert abs(log_factor - log_det) <= 1e-8 * max(1.0, abs(log_det))


def _pair_case(n, m, q, cond, t, rotated, seed):
    # A stack of t pairs: the rotated pair (U'XV, V'YU) of rank-q X with
    # spectrum geomspace(1, 1/cond, q), scaled by e^+-3, or Gaussian (X, Y).
    rng = mc.make_rng(seed)
    if not rotated:
        return n, m, q, rng.standard_normal((t, n, m)), rng.standard_normal((t, m, n))
    d = np.exp(rng.uniform(-3.0, 3.0)) * np.geomspace(1.0, 1.0 / cond, q)
    x = mc.rank_q_from_draw(np.stack([d] * t), rng.standard_normal((t, n, q)),
                            rng.standard_normal((t, m, q)))
    u, _, vt, y = mc.svd_pinv(x, full_matrices=True)
    return n, m, q, u.swapaxes(-1, -2) @ x @ vt.swapaxes(-1, -2), vt @ y @ u


@st.composite
def pair_cases(draw):
    """Stacks of 1 to 4 pairs up to 8x8, any q, cond 1 to 1e6, rotated or Gaussian."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return _pair_case(n, m, draw(st.integers(1, min(n, m))), 10.0 ** draw(st.floats(0.0, 6.0)),
                      draw(st.integers(1, 4)), draw(st.booleans()),
                      draw(st.integers(0, 2**31 - 1)))


@given(pair_cases())
@example(_pair_case(24, 20, 8, 1e3, 1, True, 1))
@example(_pair_case(24, 20, 8, 1e6, 2, True, 2))
@example(_pair_case(6, 5, 5, 1.0, 3, True, 3))
@example(_pair_case(1, 1, 1, 1.0, 2, True, 4))
def test_pair_block_profile_reads_what_the_dense_operator_holds(case):
    # pair_block_profile against the dense pair_operator of the same pairs:
    # pair values and rank bit for bit, and ||S||, S on the rows l, k >= q
    # and S off the pair pattern within 1e-14 ||S||.
    n, m, q, x, y = case
    info, norms = df.pair_block_profile(x, y, q)
    values, *dense = dense_pair_reads(x, y, q)
    assert np.array_equal(info.singular_values, values)
    assert info.singular_values.flags.c_contiguous
    assert np.array_equal(info.rank, mc._rank_info(values, (n * m, n * m)).rank)
    for got, want in zip(norms, dense):
        assert np.all(np.abs(got - want) <= 1e-14 * dense[0])


def _tangent_case(n, m, q, scale, cond, trials, seed):
    spectrum = scale * np.geomspace(1.0, 1.0 / cond, q)
    return np.array([random_rank_q(n, m, q, mc.make_rng(seed, t), spectrum)
                     for t in range(trials)]), q


@st.composite
def tangent_cases(draw):
    """(X, q): stacks of 1 or 3, n, m <= 8, every q whose chart has k <= 40 coordinates,
    spectra geomspace(s, s/c, q) with s from 1e-3 to 1e3 and c from 1 (q = 1) or 2 to 1e4."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    q = draw(st.sampled_from([q for q in range(1, min(n, m) + 1) if q * (n + m - q) <= 40]))
    cond = 10.0 ** draw(st.floats(0.3, 4.0)) if q > 1 else 1.0
    return _tangent_case(n, m, q, 10.0 ** draw(st.floats(-3.0, 3.0)), cond,
                         draw(st.sampled_from([1, 3])), draw(st.integers(0, 2**31 - 1)))


@given(tangent_cases())
@example(_tangent_case(8, 5, 4, 2.8, 8.7e3, 3, 1))
@example(_tangent_case(7, 8, 3, 1e2, 9.7e3, 1, 2))
@example(_tangent_case(1, 8, 1, 1e-3, 1.0, 3, 3))
def test_pinv_chart_tangent_matches_the_complex_step(case):
    # The tangent along every unit direction against the tests' complex step,
    # entry by entry relative to the largest entry of the slice, and the two
    # chart Jacobians in log|det|.  Measured over 3000 such draws: up to
    # 5.9e-13 per entry and 2.2e-9 in log|det| relative to max(1, |log|),
    # both at cond ~1e4, where the Jacobian's entries span cond^2.
    x, q = case
    b = chart.decompose(x, q)
    k = len(b)
    units = np.moveaxis(np.broadcast_to(np.eye(k), x.shape[:-2] + (k, k)), -2, 0)
    want = pinv_complex_step(b, units)
    got = chart.pinv_chart_derivative(b, units)
    scale = np.max(np.abs(want), axis=(0, -2, -1))[:, None, None]
    assert np.all(np.abs(got - want) <= 1e-11 * scale)
    log_det = np.linalg.slogdet(chart.pinv_chart_jacobian(b))[1]
    want_log_det = np.linalg.slogdet(np.moveaxis(b.coordinates(want.swapaxes(-1, -2)), 0, -1))[1]
    assert np.all(np.abs(log_det - want_log_det) <= 2e-8 * np.maximum(1.0, np.abs(want_log_det)))


@st.composite
def chart_instances(draw):
    """(X, q): shapes up to 6x5, any rank, spectrum scale 1e-3 to 1e3."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    q = draw(st.integers(1, min(n, m)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * random_rank_q(n, m, q, mc.make_rng(draw(st.integers(0, 2**31 - 1)))), q


@given(chart_instances())
@example((random_rank_q(6, 5, 3, mc.make_rng(1)), 3))
@example((1e-3 * random_rank_q(5, 5, 5, mc.make_rng(2)), 5))
@example((1e3 * random_rank_q(1, 5, 1, mc.make_rng(3)), 1))
def test_pinv_chart_jacobian_matches_the_area_formula(case):
    # log|det| of the tangent chart Jacobian of X -> pinv(X) against
    # -2(n+m-q) sum log d: on X's own chart the two charts' volumes cancel.
    x, q = case
    jac = chart.pinv_chart_jacobian(chart.decompose(x, q))
    sign, log_det = np.linalg.slogdet(jac)
    want, size = pinv_chart_log_det(x, q)
    assert sign != 0
    assert abs(log_det - want) <= 1e-12 * max(size, 1.0)


def _greedy_pivots(x, q):
    """Oracle of decompose's permutations: complete pivoting over index lists.

    The largest remaining entry of the eliminated working copy, first in
    row-major order among the remaining rows and columns, becomes the next
    pivot; the remaining rows and columns follow in original order.
    """
    n, m = x.shape
    work = x.copy()
    rows, cols = list(range(n)), list(range(m))
    pivot_rows, pivot_cols = [], []
    for _ in range(q):
        sub = np.abs(work[np.ix_(rows, cols)])
        i, j = divmod(int(np.argmax(sub)), len(cols))
        pr, pc = rows[i], cols[j]
        pivot_rows.append(pr)
        pivot_cols.append(pc)
        rows.remove(pr)
        cols.remove(pc)
        if rows and cols:
            factors = work[np.ix_(rows, [pc])] / work[pr, pc]
            work[np.ix_(rows, cols)] -= factors @ work[np.ix_([pr], cols)]
    return pivot_rows + rows, pivot_cols + cols


def _check_pivots(x, q):
    b = chart.decompose(x, q)
    assert (b.row_perm.tolist(), b.col_perm.tolist()) == _greedy_pivots(x, q)
    xp = x[np.ix_(b.row_perm, b.col_perm)]
    for block, want in [(b.x11, xp[:q, :q]), (b.x12, xp[:q, q:]), (b.x21, xp[q:, :q])]:
        assert block.flags.c_contiguous and np.array_equal(block, want)


@st.composite
def scaled_instances(draw):
    """(X or pinv(X), q): shapes up to 8x8, any rank, spectrum scale 1e-3 to 1e3."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    q = draw(st.integers(1, min(n, m)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    x = scale * random_rank_q(n, m, q, mc.make_rng(draw(st.integers(0, 2**31 - 1))))
    return (mc.pinv(x) if draw(st.booleans()) else x), q


@given(scaled_instances())
def test_decompose_pivots_match_greedy_loop(case):
    _check_pivots(*case)


@st.composite
def integer_products(draw):
    """(A B, q) with small-integer A (n x q) and B (q x m): exact ties everywhere."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    q = draw(st.integers(1, min(n, m)))
    ints = st.integers(-2, 2)
    a = np.array(draw(st.lists(ints, min_size=n * q, max_size=n * q)), float).reshape(n, q)
    b = np.array(draw(st.lists(ints, min_size=q * m, max_size=q * m)), float).reshape(q, m)
    return a @ b, q


@given(integer_products())
@example((np.ones((3, 4)), 1))
@example((np.array([[1.0, 1.0], [1.0, -1.0]]), 2))
@example((np.array([[2.0, -2.0, 0.0], [0.0, 2.0, -2.0], [2.0, 0.0, -2.0]]), 2))
def test_decompose_pivots_match_greedy_loop_on_ties(case):
    x, q = case
    assume(mc.rank_profile(x).rank == q)
    _check_pivots(x, q)


@given(scaled_instances(), st.integers(0, 2**31 - 1), st.booleans())
def test_pinv_complex_step_matches_the_differential(case, seed, free):
    # Along tangent directions at every rank, and along free ones at full
    # rank, where the chart reads every entry.
    x, q = case
    n, m = x.shape
    rng = mc.make_rng(seed)
    b = chart.decompose(x, q)
    if free and q == min(n, m):
        dx = rng.standard_normal((n, m))
    else:
        dx = chart.tangent_perturbation(b, rng.standard_normal((q, q)),
                                        rng.standard_normal((q, m - q)),
                                        rng.standard_normal((n - q, q)))
    dx /= np.linalg.norm(dx)
    oracle = pinv_complex_step(b, b.coordinates(dx))
    analytic = df.pinv_differential(x, dx)
    assert np.linalg.norm(oracle - analytic) <= 1e-12 * np.linalg.norm(analytic)


@given(scaled_instances(), st.integers(0, 2**31 - 1))
def test_pinv_complex_step_stack_matches_per_slice(case, seed):
    # A stack of X and its row- and column-reversed copies, pivoted apart,
    # moved along two chart directions each: every slice has the bits of
    # its 2-D call.
    x, q = case
    stack = np.array([x, x[::-1], -x[:, ::-1]])
    b = chart.decompose(stack, q)
    deltas = mc.make_rng(seed).standard_normal((2, 3, len(b)))
    got = pinv_complex_step(b, deltas)
    assert got.shape == (2, 3) + x.shape[::-1]
    for t, one in enumerate(stack):
        want = pinv_complex_step(chart.decompose(one, q), deltas[:, t])
        assert np.array_equal(got[:, t], want)
        assert np.array_equal(np.signbit(got[:, t]), np.signbit(want))


@st.composite
def indefinite_symmetric(draw):
    """A symmetric m x m matrix, m <= 8: eigenvalues of either sign and
    modulus 0.5 to 2.5, scaled by 1e-3 to 1e3, in a random frame."""
    m = draw(st.integers(1, 8))
    rng = mc.make_rng(draw(st.integers(0, 2**31 - 1)))
    eigs = rng.uniform(0.5, 2.5, m) * rng.choice([-1.0, 1.0], m)
    frame = random_stiefel(m, m, rng)
    return measures.symmetric_part(10.0 ** draw(st.floats(-3.0, 3.0)) * (frame * eigs) @ frame.T)


@given(indefinite_symmetric())
def test_symmetric_inverse_complex_step_matches_the_formula(s):
    formula = measures.log_symmetric_inverse_jacobian(s)
    assert abs(measures.symmetric_inverse_fd_det(s) - formula) <= 1e-12


def _mp_log_density(n, m, d):
    # 50-digit log of 2^-q (prod d)^(n+m-2q) prod_{i<j}(d_i^2 - d_j^2) at the float d.
    d = [mpmath.mpf(float(v)) for v in d]
    q = len(d)
    pairs = (mpmath.log(d[i] ** 2 - d[j] ** 2) for i in range(q) for j in range(i + 1, q))
    log_d = mpmath.fsum(map(mpmath.log, d))
    return -q * mpmath.log(2) + (n + m - 2 * q) * log_d + mpmath.fsum(pairs)


@st.composite
def hausdorff_stacks(draw):
    """(n, m, D): shapes up to 12x12, any rank, a (3, q) stack of sampled
    spectra, each scaled by 1e-3 to 1e3."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    q = draw(st.integers(1, min(n, m)))
    rng = mc.make_rng(draw(st.integers(0, 2**31 - 1)))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
    return n, m, scales[:, None] * np.sort(rng.uniform(0.5, 2.5, (3, q)))[:, ::-1]


@given(hausdorff_stacks())
@example((60, 50, np.geomspace(1.0, 1e-5, 20)[None]))
@example((2, 2, np.array([[2.0], [1e-3], [1e3]])))
def test_hausdorff_logs_match_mpmath(case):
    # Near 0 a log's absolute error is its linear value's relative error,
    # so the bound is relative to max(1, |log|).
    n, m, d = case
    # The check gap-tests its spectra as the suite's draws are (matcore.REQUEST_GAP).
    assume(np.all(d[:, :-1] - d[:, 1:] >= mc.REQUEST_GAP * d[:, :1]))
    reports = check("hausdorff", (d,), n=n, m=m)
    with mpmath.workdps(50):
        for spectrum, report in zip(d, reports):
            log_d = mpmath.fsum(mpmath.log(mpmath.mpf(float(v))) for v in spectrum)
            expected = {
                "log_density_x": _mp_log_density(n, m, spectrum),
                "log_density_y": _mp_log_density(m, n, 1.0 / spectrum[..., ::-1]),
                "log_jacobian_factor": -2 * (n + m - d.shape[1]) * log_d,
            }
            for key, value in expected.items():
                assert abs(report.values[key] - value) <= 1e-12 * max(1, abs(value)), key
            assert report.residuals["identity"] <= 1e-10
            assert report.passed


@st.composite
def pinv_stacks(draw):
    """(X, pinv(X), q): 1 or 3 rank-q slices, shapes up to 8x8, any rank, each slice's
    spectrum scaled by 1e-3 to 1e3."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    q = draw(st.integers(1, min(n, m)))
    size, seed = draw(st.sampled_from([1, 3])), draw(st.integers(0, 2**31 - 1))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=size,
                                            max_size=size)))
    x = np.array([s * random_rank_q(n, m, q, mc.make_rng(seed, t))
                  for t, s in enumerate(scales)])
    return x, mc.pinv(x), q


@given(pinv_stacks())
@example((np.array([random_rank_q(4, 3, 2, mc.make_rng(5))]),
          mc.pinv(random_rank_q(4, 3, 2, mc.make_rng(5)))[None], 2))
def test_a_chart_of_x_is_a_chart_of_pinv_transposed_with_the_factor_as_its_determinant(case):
    # With X = U D V', pinv(X)' = U D^-1 V' has X's column and row spaces, so on X's pivots
    # W = X11^-1 X12 and Z = X21 X11^-1 do not depend on D: pinv(X)' gathered at X's
    # permutations passes the pivot test and has X's W and Z, and the chart determinant of
    # X -> pinv(X) is the operator's log pseudo-determinant, the factor of X's retained
    # singular values, with no volume terms.
    # Measured over 39000 such draws: W and Z within 2.1e-14 relative to max(1, max|W|)
    # (max|Z|), the log determinant within 2.1e-14 relative to max(1, |log|).
    x, y, q = case
    b = chart._pivot(x, q)
    t = np.arange(len(x))[:, None, None]
    yp = y.swapaxes(-1, -2)[t, b.row_perm[:, :, None], b.col_perm[:, None, :]]
    c = chart.BlockDecomposition(yp[:, :q, :q], yp[:, :q, q:], yp[:, q:, :q], b.row_perm,
                                 b.col_perm)
    for got, want in ((c.w, b.w), (c.z, b.z)):
        scale = np.maximum(1.0, np.max(np.abs(want), axis=(-2, -1), initial=0.0))
        assert np.all(np.max(np.abs(got - want), axis=(-2, -1), initial=0.0) <= 1e-12 * scale)
    log_det = np.linalg.slogdet(chart.pinv_chart_jacobian(b))[1]
    n, m = x.shape[-2:]
    want = measures.log_nonfullrank_jacobian_factor(n, m, mc.rank_profile(x).singular_values[:, :q])
    assert np.all(np.abs(log_det - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@given(pinv_stacks(), st.booleans(), st.integers(0, 2**31 - 1))
@example((np.array([random_rank_q(4, 3, 2, mc.make_rng(5))]),
          mc.pinv(random_rank_q(4, 3, 2, mc.make_rng(5)))[None], 2), True, 5)
def test_joint_chart_of_x_and_its_sandwich_has_the_bits_of_each_chart_alone(case, volumes, seed):
    # invariance pivots [X; H X Q] as one stack: each slice has the permutations, blocks,
    # W, Z and log volume of X and of H X Q pivoted alone, whether W and Z were taken on
    # the joint stack (invariance's volumes) or on each chart.
    x, _, q = case
    (size, n, m), rng = x.shape, mc.make_rng(seed)
    h = mc.orthonormal_frames(rng.standard_normal((size, n, n)))
    qmat = mc.orthonormal_frames(rng.standard_normal((size, m, m)))
    sides = x, h @ x @ qmat
    joint = chart._pivot(np.array(sides), q)
    joint_volumes = chart.log_chart_volume(joint) if volumes else None
    for side, a in enumerate(sides):
        for t in range(size):
            got, alone = joint[side, t], chart._pivot(a[t], q)
            for name in ("row_perm", "col_perm", "x11", "x12", "x21", "w", "z"):
                want = getattr(alone, name)
                assert np.array_equal(getattr(got, name), want), name
                assert getattr(got, name).shape == want.shape, name
            volume = chart.log_chart_volume(alone)
            assert chart.log_chart_volume(got) == volume
            if volumes:
                assert joint_volumes[side, t] == volume


@given(st.sampled_from(suites.SUITE_NAMES), st.integers(1, 6), st.integers(1, 6), st.data())
def test_stacked_draw_gives_each_trial_the_bits_of_its_draw_alone(suite, n, m, data):
    # Each suite's draw on T generators, against its draw on each one alone.
    q = m if suite == "symmetric-inverse" else data.draw(st.integers(1, min(n, m)))
    seed, size = data.draw(st.integers(0, 2**31 - 1)), data.draw(st.integers(1, 5))
    spectrum = None
    if suite != "symmetric-inverse" and data.draw(st.booleans()):
        spectrum = tuple(np.geomspace(2.0, 0.5, q))
    draw = suites._SUITES[suite][0]
    stacked = draw(n, m, q, mc.make_rngs(seed, range(size)), spectrum)
    for t in range(size):
        alone = draw(n, m, q, [mc.make_rng(seed, t)], spectrum)
        assert len(alone) == len(stacked)
        for got, want in zip(stacked, alone):
            assert got.shape == (size, *want.shape[1:]) and np.array_equal(got[t], want[0])


@given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_drawn_spectra_are_the_values_of_uniform(q, seed, size):
    # Generator.random fills scaled once per stack give uniform(0.5, 2.5)'s bits.
    d = mc.draw_rank_q(q + 1, q, q, mc.make_rngs(seed, range(size)))[0]
    for t in range(size):
        assert np.array_equal(d[t], mc.make_rng(seed, t).uniform(0.5, 2.5, q))
