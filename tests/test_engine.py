"""Gradient map and iteration engine: hand-checked steps, the closed-form
quadratic oracle, stop reasons, and batch/single equivalence."""

import tracemalloc

import numpy as np
import pytest

from descentlab import (
    ContractViolationError,
    DiagonalQuadratic,
    GradientMap,
    NesterovExample,
    NumericalFailureError,
    Objective,
    QuarticCopositive,
    StopPolicy,
    StopReason,
    StronglyConvexQuadratic,
    Trajectory,
    alpha_from_theta,
    closed_form_quadratic,
    descent_violations,
    run,
    run_many,
)
from descentlab.engine import (
    _BLOCK_ROWS,
    _TRIAL_ENTRIES,
    _backtrack,
    _columns_within,
    _row_norms,
    _squared_tolerance,
    _sum_squares,
)
from descentlab.inverse import invert, roundtrip_check
from descentlab.zoo import _PAIRWISE_FROM

RECORD_ALL = StopPolicy(tol=0.0, divergence_radius=1e300, max_iters=50)


def test_step_by_hand_on_diagonal_quadratic():
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    np.testing.assert_allclose(gmap.step(np.array([1.0, 1.0])), [0.5, 1.5])


def test_step_by_hand_outside_certified_regime():
    # alpha * L = 1.1 needs the validation bypass; the algebra still holds
    gmap = GradientMap(NesterovExample(), 0.1, validate=False)
    np.testing.assert_allclose(gmap.step(np.array([1.0, 2.0])), [0.9, 1.4])


def test_jacobian_by_hand():
    gmap = GradientMap(DiagonalQuadratic([2.0, -0.5]), 0.25)
    np.testing.assert_allclose(
        gmap.jacobian(np.array([0.0, 0.0])), np.diag([0.5, 1.125])
    )
    identity = GradientMap(NesterovExample(), 0.0, validate=False)
    np.testing.assert_allclose(identity.jacobian(np.array([1.0, 2.0])), np.eye(2))


def test_alpha_times_lipschitz_must_stay_below_one():
    with pytest.raises(ContractViolationError):
        GradientMap(DiagonalQuadratic([1.0, -1.0]), 1.0)
    with pytest.raises(ContractViolationError):
        GradientMap(DiagonalQuadratic([1.0, -1.0]), 1.5)
    with pytest.raises(ContractViolationError):
        GradientMap(NesterovExample(), 0.1)
    with pytest.raises(ContractViolationError):
        GradientMap(NesterovExample(), -0.01)
    assert GradientMap(NesterovExample(), 0.09).alpha == 0.09


def test_alpha_from_theta():
    assert alpha_from_theta(NesterovExample(), 0.99) == pytest.approx(0.09, abs=1e-15)
    assert alpha_from_theta(DiagonalQuadratic([2.0, -0.5]), 0.5) == 0.25
    with pytest.raises(ContractViolationError):
        alpha_from_theta(NesterovExample(), 1.0)
    with pytest.raises(ContractViolationError):
        alpha_from_theta(NesterovExample(), 0.0)
    with pytest.raises(ContractViolationError):
        alpha_from_theta(QuarticCopositive(np.zeros((1, 1))), 0.5)


def test_closed_form_quadratic_by_hand():
    np.testing.assert_allclose(
        closed_form_quadratic([1.0, -1.0], 0.5, [1.0, 0.0], 3), [0.125, 0.0]
    )
    np.testing.assert_allclose(
        closed_form_quadratic([1.0, -1.0], 0.5, [0.0, 1.0], 3), [0.0, 3.375]
    )
    np.testing.assert_allclose(
        closed_form_quadratic([1.0, -1.0], 0.5, [1.0, 1.0], 0), [1.0, 1.0]
    )
    with pytest.raises(ContractViolationError):
        closed_form_quadratic([1.0], 0.5, [1.0], -1)
    with pytest.raises(ContractViolationError):
        closed_form_quadratic([1.0, 2.0], 0.5, [1.0], 4)


def test_engine_matches_closed_form_oracle_bitwise_for_dyadic_steps():
    # alpha * lambda in {0.5, -0.5}: per-step arithmetic rounds identically
    obj = DiagonalQuadratic([1.0, -1.0])
    gmap = GradientMap(obj, 0.5)
    rng = np.random.default_rng(11)
    for x0 in rng.uniform(-2.0, 2.0, size=(20, 2)):
        traj = run(gmap, x0, RECORD_ALL)
        assert traj.n_steps == 50
        for k in (1, 7, 50):
            oracle = closed_form_quadratic(obj.lambdas, 0.5, x0, k)
            assert np.array_equal(traj.iterates[k], oracle)


def test_engine_matches_closed_form_oracle_generic_spectrum():
    obj = DiagonalQuadratic([1.3, -0.7])
    gmap = GradientMap(obj, 0.3)
    rng = np.random.default_rng(12)
    for x0 in rng.uniform(-2.0, 2.0, size=(20, 2)):
        traj = run(gmap, x0, RECORD_ALL)
        oracle = closed_form_quadratic(obj.lambdas, 0.3, x0, 50)
        scale = np.maximum(1.0, np.abs(oracle))
        assert np.max(np.abs(traj.iterates[50] - oracle) / scale) <= 1e-12


def test_recorded_iterates_follow_the_map_bitwise():
    gmap = GradientMap(NesterovExample(), 0.09)
    traj = run(gmap, np.array([0.7, -0.4]), StopPolicy(tol=0.0, max_iters=30))
    for k in range(traj.n_steps):
        assert np.array_equal(traj.iterates[k + 1], gmap.step(traj.iterates[k]))
    np.testing.assert_array_equal(traj.f_values, gmap.objective.value(traj.iterates))


def test_critical_points_are_fixed_points():
    gmap = GradientMap(NesterovExample(), 0.09)
    for point in gmap.objective.known_critical_points():
        np.testing.assert_array_equal(gmap.step(point.location), point.location)


def test_stop_reason_grad_norm_below_tol():
    gmap = GradientMap(DiagonalQuadratic([1.0, 2.0]), 0.4)
    traj = run(gmap, np.array([1.0, 1.0]))
    assert traj.stop_reason is StopReason.GRAD_NORM_BELOW_TOL
    assert traj.final_grad_norm <= 1e-10
    np.testing.assert_allclose(traj.final_x, [0.0, 0.0], atol=1e-10)


def test_stop_reason_diverged_on_expanding_mode():
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    traj = run(gmap, np.array([0.0, 1.0]))
    assert traj.stop_reason is StopReason.DIVERGED
    assert float(np.sqrt(np.sum(traj.final_x**2))) >= 1e6
    # 1.5^k first exceeds 1e6 at k = 35
    assert traj.n_steps == 35


def test_stop_reason_max_iters():
    gmap = GradientMap(DiagonalQuadratic([1.0, 2.0]), 0.4)
    traj = run(gmap, np.array([1.0, 1.0]), StopPolicy(tol=0.0, max_iters=5))
    assert traj.stop_reason is StopReason.MAX_ITERS
    assert traj.n_steps == 5


def test_stop_reason_left_domain_box_when_certificate_is_local():
    obj = NesterovExample(domain_box=[[-0.5, 0.5], [-0.5, 0.5]])
    assert obj.lipschitz_bound() == 1.0
    gmap = GradientMap(obj, 0.9)
    traj = run(gmap, np.array([0.0, 0.4]))
    assert traj.stop_reason is StopReason.LEFT_DOMAIN_BOX
    # y <- y(1.9 - 0.9 y^2) pushes 0.4 to 0.7024 in one step
    np.testing.assert_allclose(traj.final_x, [0.0, 0.7024])


def test_quadratics_may_leave_the_box_without_stopping():
    # global certificate: the diverging mode passes ||x|| = 2 silently
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    traj = run(gmap, np.array([0.0, 1.0]))
    assert not np.all(gmap.objective.contains(traj.iterates))
    assert traj.stop_reason is StopReason.DIVERGED


def test_start_outside_local_box_rejected():
    gmap = GradientMap(NesterovExample(), 0.09)
    with pytest.raises(ContractViolationError):
        run(gmap, np.array([3.0, 0.0]))
    with pytest.raises(ContractViolationError):
        run(gmap, np.array([1.0, 2.0, 3.0]))


def test_stop_policy_validation():
    with pytest.raises(ContractViolationError):
        StopPolicy(tol=-1e-3)
    with pytest.raises(ContractViolationError):
        StopPolicy(divergence_radius=0.0)
    with pytest.raises(ContractViolationError):
        StopPolicy(max_iters=-1)
    # NaN fails every range check; an infinite tolerance or radius is valid
    for nan_field in ({"tol": float("nan")}, {"divergence_radius": float("nan")}):
        with pytest.raises(ContractViolationError):
            StopPolicy(**nan_field)
    StopPolicy(tol=float("inf"), divergence_radius=float("inf"))
    for not_an_integer in (2.5, 3.0, True, None):
        with pytest.raises(ContractViolationError):
            StopPolicy(max_iters=not_an_integer)


def test_run_many_matches_single_runs_bitwise():
    gmap = GradientMap(NesterovExample(), 0.09)
    rng = np.random.default_rng(5)
    x0s = rng.uniform(-2.0, 2.0, size=(12, 2))
    policy = StopPolicy(tol=1e-10, max_iters=4000)
    batch = run_many(gmap, x0s, policy)
    for i, x0 in enumerate(x0s):
        traj = run(gmap, x0, policy)
        assert np.array_equal(batch.final_x[i], traj.final_x)
        assert batch.final_f[i] == traj.f_values[-1]
        assert batch.final_grad_norm[i] == traj.final_grad_norm
        assert batch.iterations[i] == traj.n_steps
        assert batch.stop_reasons[i] is traj.stop_reason


def test_run_many_mixed_stop_reasons():
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    x0s = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch = run_many(gmap, x0s, StopPolicy(tol=1e-10, divergence_radius=1e6))
    assert batch.stop_reasons[0] is StopReason.GRAD_NORM_BELOW_TOL
    assert batch.stop_reasons[1] is StopReason.DIVERGED


def _assert_rows_match_single_runs(gmap, x0s, policy):
    batch = run_many(gmap, x0s, policy)
    for i, x0 in enumerate(x0s):
        traj = run(gmap, x0, policy)
        assert np.array_equal(batch.final_x[i], traj.final_x)
        assert batch.final_f[i] == traj.f_values[-1]
        assert batch.final_grad_norm[i] == traj.final_grad_norm
        assert batch.iterations[i] == traj.n_steps
        assert batch.stop_reasons[i] is traj.stop_reason
    return batch


def test_run_many_tol_wins_over_the_cap_on_the_same_iteration():
    gmap = GradientMap(DiagonalQuadratic([1.0, 2.0]), 0.4)
    x0s = np.array([[1.0, 1.0], [0.5, -0.25], [2.0, 2.0]])
    cap = run(gmap, x0s[0]).n_steps
    batch = _assert_rows_match_single_runs(gmap, x0s, StopPolicy(max_iters=cap))
    # row 0 meets the tolerance exactly at the cap
    assert batch.iterations[0] == cap
    assert batch.final_grad_norm[0] <= 1e-10
    assert batch.stop_reasons[0] is StopReason.GRAD_NORM_BELOW_TOL
    assert batch.stop_reasons[1] is StopReason.GRAD_NORM_BELOW_TOL
    assert batch.iterations[1] < cap
    assert batch.stop_reasons[2] is StopReason.MAX_ITERS


class _RowCountingQuadratic(DiagonalQuadratic):
    """Counts the batch rows passed to ``_gradient``."""

    rows = 0

    def _gradient(self, x):
        self.rows += x.shape[0]
        return super()._gradient(x)


def test_two_rows_step_one_iterate_a_block_and_the_last_row_steps_alone():
    # at alpha = 0.5 each iterate halves, so the rows meet 2^-30 at
    # iterates 10 and 30; the batch takes one step a block while both
    # run, so _gradient sees both rows for iterates 0..10 only, and the
    # last row then steps single-row blocks in Python floats, as run does
    obj = _RowCountingQuadratic([1.0])
    gmap = GradientMap(obj, 0.5)
    x0s = np.array([[2.0 ** -20], [1.0]])
    policy = StopPolicy(tol=2.0 ** -30)
    batch = run_many(gmap, x0s, policy)
    assert obj.rows == 2 * 11
    assert batch.iterations.tolist() == [10, 30]
    _assert_rows_match_single_runs(gmap, x0s, policy)


def test_run_many_divergence_wins_over_a_box_exit_on_the_same_iteration():
    obj = NesterovExample(domain_box=[[-0.5, 0.5], [-0.5, 0.5]])
    gmap = GradientMap(obj, 0.9)
    x0s = np.array([[0.0, 0.4], [0.0, 0.3], [0.1, -0.45], [0.2, 0.0]])
    policy = StopPolicy(divergence_radius=0.6)
    batch = _assert_rows_match_single_runs(gmap, x0s, policy)
    # 0.4 -> 0.7024 and -0.45 -> -0.773 leave the box beyond the radius
    for i in (0, 2):
        assert batch.stop_reasons[i] is StopReason.DIVERGED
        assert not obj.contains(batch.final_x[i])
    # 0.3 -> 0.5457 leaves the box inside the radius
    assert batch.stop_reasons[1] is StopReason.LEFT_DOMAIN_BOX
    assert float(np.sqrt(np.sum(batch.final_x[1] ** 2))) < 0.6
    # on the stable axis the row settles at the saddle
    assert batch.stop_reasons[3] is StopReason.GRAD_NORM_BELOW_TOL


def test_run_many_matches_single_runs_bitwise_in_high_dimension():
    # from 8 terms up np.sum adds pairwise, so a row norm summed column by
    # column would round differently from run's in the last bits; repeated
    # eigenvalues keep many gradient components of one size to the end
    lambdas = np.array([1.0, 1.0, -0.5, 1.0, 1.0, -0.5, 1.0, 1.0, -0.5, 1.0, -0.5, 1.0])
    gmap = GradientMap(DiagonalQuadratic(lambdas), 0.45)
    x0s = np.random.default_rng(3).uniform(-2.0, 2.0, size=(64, lambdas.size))
    x0s[::2, lambdas < 0] = 0.0  # even rows have no expanding component
    batch = _assert_rows_match_single_runs(gmap, x0s, StopPolicy(max_iters=5000))
    reasons = set(batch.stop_reasons)
    assert reasons == {StopReason.GRAD_NORM_BELOW_TOL, StopReason.DIVERGED}


def test_run_many_is_bitwise_for_any_memory_layout_of_the_batch():
    # a column-major batch kept its layout through the steps, and from 8
    # columns on numpy sums its rows in another order than run's points
    gmap = GradientMap(StronglyConvexQuadratic([1.0] * 6 + [2.0] * 6), 0.4)
    x0s = np.random.default_rng(3).uniform(-2.0, 2.0, size=(40, 12))
    wide = np.repeat(np.repeat(x0s, 2, axis=0), 2, axis=1)
    for batch in (x0s, np.asfortranarray(x0s), wide[::2, ::2], np.asfortranarray(wide)[::2, ::2]):
        assert np.array_equal(batch, x0s)
        _assert_rows_match_single_runs(gmap, batch, StopPolicy())


@pytest.mark.parametrize("box", [[[-0.5, 0.5], [-0.8, 0.8]], [[-0.8, 0.8], [-0.8, 0.8]]],
                         ids=["unequal-box", "uniform-box"])
def test_run_many_settling_every_step_matches_single_runs_bitwise(box):
    # more than 32 rows run to the cap; run_many settles after every step
    # while two or more rows are active, and run settles blocks of up to
    # 64 steps; f = x^2/2 + y^4/4 - y^2/2 at alpha = 0.5 halves x exactly
    # and moves y away from 0
    cap = 40
    obj = NesterovExample(domain_box=box)
    gmap = GradientMap(obj, 0.5)
    policy = StopPolicy(tol=2.0 ** -(cap + 1), divergence_radius=0.85, max_iters=cap)
    rng = np.random.default_rng(8)
    # on the saddle's stable axis x_k = 2^-(j + k): a tolerance stop at
    # iterate cap + 1 - j, so the first meets the tolerance at the cap
    on_axis = np.stack([2.0 ** -np.arange(1, cap + 2), np.zeros(cap + 1)], axis=1)
    # too close to the axis to leave the box or settle before the cap
    slow = np.stack([rng.uniform(-0.5, 0.5, 40),
                     rng.choice([-1.0, 1.0], 40) * np.geomspace(1e-12, 1e-8, 40)], axis=1)
    out_at_cap = np.array([[0.0, 1e-7], [0.0, -1e-7]])  # leave the box at the cap
    # leave the box, beyond the radius or inside it, over many iterations
    leaving = np.stack([np.linspace(-0.5, 0.5, 60),
                        np.resize([1.0, -1.0], 60) * np.geomspace(1e-6, 0.79, 60)], axis=1)
    x0s = np.concatenate([out_at_cap, on_axis, slow, leaving])
    batch = _assert_rows_match_single_runs(gmap, x0s, policy)
    reasons = np.array([r.value for r in batch.stop_reasons])
    assert set(reasons) == {r.value for r in StopReason}
    assert np.count_nonzero(batch.iterations == cap) > 32
    assert batch.iterations[2] == cap
    assert batch.stop_reasons[2] is StopReason.GRAD_NORM_BELOW_TOL
    outside = ~obj.contains(batch.final_x)
    assert np.all(outside[:2]) and np.all(reasons[:2] == StopReason.MAX_ITERS.value)
    # a divergence at the iterate that leaves the box, and exits inside the radius
    assert np.any((reasons == StopReason.DIVERGED.value) & outside)
    exits = reasons == StopReason.LEFT_DOMAIN_BOX.value
    assert np.all(outside[exits]) and np.all(_row_norms(batch.final_x[exits]) < 0.85)
    assert np.unique(batch.iterations).size > 30


BOUND_ENTRIES = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("rows", [1, 10_000])
@pytest.mark.parametrize(
    "lo, hi",
    [([-1.0, -1.0], [1.0, 1.0]), ([0.0, -0.0], [0.5, 0.5]), ([-0.0, 0.0], [-0.0, 0.0]),
     ([-0.5, -1.0], [0.5, 1.0]), ([-1.0, 0.0], [0.25, 1.0]), ([-1.0, 0.5], [0.25, 1.0])],
    ids=["uniform", "uniform-zero-lo", "uniform-zero-box", "unequal", "unequal-zero",
         "unequal-disjoint"],
)
def test_whole_block_box_test_gives_the_per_column_answer(rows, lo, hi):
    # the loop tests a block against the bounds every column shares; on
    # unequal bounds a True must still mean inside, and a False falls
    # back to the exact per-row test
    lo, hi = np.array(lo), np.array(hi)
    shared_lo, shared_hi = float(lo.max()), float(hi.min())
    uniform = lo[0] == lo[1] and hi[0] == hi[1]
    rng = np.random.default_rng(rows)
    for trial in range(200):
        x = rng.uniform(-1.0, 1.0, (rows, 2))
        # a few entries on a bound, signed zeros, infinities or NaN
        picks = np.concatenate([BOUND_ENTRIES[:7], lo, hi]) if trial % 2 else BOUND_ENTRIES
        x[rng.integers(0, rows, 4), rng.integers(0, 2, 4)] = rng.choice(picks, 4)
        if trial % 3 == 0:
            x = np.clip(x, lo, hi)  # inside or on a bound, but for a NaN
        elif trial % 3 == 1 and shared_lo <= shared_hi:
            x = np.clip(x, shared_lo, shared_hi)
        inside = bool(np.all((x >= lo) & (x <= hi)))
        within_shared = bool(np.all((x >= shared_lo) & (x <= shared_hi)))
        got = _columns_within(x, shared_lo, shared_hi)
        assert got is within_shared
        assert got is inside if uniform else (inside or not got)


ROUNDINGS = {
    "": (_row_norms, lambda x: np.sqrt(np.sum(x * x, axis=-1))),
    # a square root can map two sums to one norm, so the sums are pinned too
    "sums-": (_sum_squares, lambda x: np.sum(x * x, axis=-1)),
}


# every width up to four past the threshold, 1..12 on numpy 2.4
SUM_WIDTHS = range(1, _PAIRWISE_FROM + 5)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "kind, d", [(kind, d) for kind in ROUNDINGS for d in SUM_WIDTHS],
    ids=[f"{kind}{d}" for kind in ROUNDINGS for d in SUM_WIDTHS],
)
def test_row_norms_round_as_np_sum(kind, d):
    # below _PAIRWISE_FROM columns _sum_squares adds them one by one, which
    # matches np.sum only while numpy adds a short last axis sequentially;
    # a numpy that adds pairwise from fewer terms fails here
    reduce, reference = ROUNDINGS[kind]
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4000, d)) * np.exp(rng.uniform(-30.0, 30.0, (4000, d)))
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200, np.nan, 1.0])
    x[:500] = rng.choice(specials, (500, d))
    x[500] = np.resize(specials, d)  # one row of every special value
    for batch in (x, x[:1], x[500:501], x[-1:], x[0], x[500], x[-1]):
        got = np.asarray(reduce(batch))
        want = np.asarray(reference(batch))
        assert got.shape == want.shape
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, f"d={d}: {differ.size} rows round unlike np.sum"


def test_numpy_adds_pairwise_from_the_threshold():
    # one term fewer than _PAIRWISE_FROM is added from 0.0 one term after
    # another, the threshold's width is not: with the test above, a numpy
    # that moves the threshold either way fails tier-1
    rng = np.random.default_rng(8)
    for d in (_PAIRWISE_FROM - 1, _PAIRWISE_FROM):
        x = rng.standard_normal((4000, d)) * np.exp(rng.uniform(-30.0, 30.0, (4000, d)))
        sequential = 0.0 + x[:, 0]
        for j in range(1, d):
            sequential = sequential + x[:, j]
        reduced = np.add.reduce(x, axis=-1)
        same = np.array_equal(reduced.view(np.uint64), sequential.view(np.uint64))
        assert same == (d < _PAIRWISE_FROM), d


def _quartic_gradient_by_reduction(q, x):
    # the broadcast formula that QuarticCopositive._gradient adds by columns
    m = q + q.T
    return 2.0 * x * np.add.reduce(m * (x * x)[..., None, :], axis=-1)


@pytest.mark.parametrize("sign", ["mixed", "nonnegative"])
@pytest.mark.parametrize("d", SUM_WIDTHS)
def test_quartic_gradient_rounds_as_the_reduction(d, sign):
    # a non-symmetric Q with zeros of both signs; its first column decides
    # whether the column sum starts from 0.0, so both kinds are covered
    rng = np.random.default_rng(200 + d)
    q = rng.standard_normal((d, d)) * np.exp(rng.uniform(-3.0, 3.0, (d, d)))
    q[rng.random((d, d)) < 0.2] = 0.0
    q[0, 0] = -0.0
    if sign == "nonnegative":
        q = np.abs(q)
    obj = QuarticCopositive(q)
    x = rng.standard_normal((60, d)) * np.exp(rng.uniform(-30.0, 30.0, (60, d)))
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200, np.nan, np.inf, 1.0])
    x[:24] = rng.choice(specials, (24, d))
    x[24] = np.resize(specials, d)
    x[25] = 0.0
    with np.errstate(all="ignore"):
        # a point, an (n, d) batch and a (w, m, d) stack of line-search trials
        for block in (x[0], x[25], x[30], x, x.reshape(5, 12, d), x[::3]):
            got = obj._gradient(block)
            want = _quartic_gradient_by_reduction(q, block)
            assert got.shape == want.shape
            differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            assert differ.size == 0, f"d={d}, {block.shape}: {differ.size} entries differ"


def _zoo_member(kind, d, rng):
    if kind == "diagonal":
        return DiagonalQuadratic(rng.uniform(-2.0, 2.0, d))
    if kind == "strongly_convex":
        return StronglyConvexQuadratic(rng.uniform(0.1, 2.0, d))
    if kind == "quartic":
        return QuarticCopositive(rng.standard_normal((d, d)))
    return NesterovExample()


BLOCK_EVALUATIONS = {
    "value": lambda obj, x: obj._value(x),
    "gradient": lambda obj, x: obj._gradient(x),
    "sum_squares": lambda obj, x: _sum_squares(x),
    "row_norms": lambda obj, x: _row_norms(x),
}
ZOO_DIMENSIONS = [(kind, d) for kind in ("diagonal", "strongly_convex", "quartic")
                  for d in range(1, 13)] + [("nesterov", 2)]


@pytest.mark.parametrize("kind, d", ZOO_DIMENSIONS, ids=[f"{k}{d}" for k, d in ZOO_DIMENSIONS])
def test_a_block_of_iterates_evaluates_each_row_as_one_point(kind, d):
    # the stepping loop settles a block of b steps on m rows with one call
    # each on a (b * m, d) batch; each row must get the bits of a (1, d) call
    rng = np.random.default_rng(100 + d)
    obj = _zoo_member(kind, d, rng)
    b, m = 37, 3
    x = rng.standard_normal((b * m, d)) * np.exp(rng.uniform(-30.0, 30.0, (b * m, d)))
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200, np.nan, 1.0])
    x[:20] = rng.choice(specials, (20, d))
    with np.errstate(all="ignore"):
        for name, evaluate in BLOCK_EVALUATIONS.items():
            want = np.stack([evaluate(obj, x[i:i + 1].copy())[0] for i in range(b * m)])
            for block in (x, x.reshape(b, m, d)):
                got = evaluate(obj, block).reshape(want.shape)
                # a NaN raises in the loop, so only its sign may differ
                unlike = got.view(np.uint64) != want.view(np.uint64)
                unlike &= ~(np.isnan(got) & np.isnan(want))
                differ = np.flatnonzero(unlike.reshape(b * m, -1).any(axis=1))
                assert differ.size == 0, f"{name} on {block.shape}: rows {differ} differ"


@pytest.mark.filterwarnings("error")
def test_run_many_diverges_where_the_row_norm_overflows():
    # from |x| ~ 1.3e154 on, x * x overflows and the norm reads inf, while
    # f = lambda x^2 / 2 with a tiny lambda stays finite: run stops there
    gmap = GradientMap(DiagonalQuadratic([-1e-10]), 0.5e10)
    policy = StopPolicy(tol=0.0, divergence_radius=1e300)
    batch = _assert_rows_match_single_runs(gmap, np.array([[1.0], [-0.5]]), policy)
    assert batch.stop_reasons == [StopReason.DIVERGED, StopReason.DIVERGED]
    assert np.all(np.abs(batch.final_x) < 1e300)


def test_run_many_validates_batch_shape():
    gmap = GradientMap(NesterovExample(), 0.09)
    with pytest.raises(ContractViolationError):
        run_many(gmap, np.zeros((4, 3)))
    with pytest.raises(ContractViolationError):
        run_many(gmap, np.array([[3.0, 0.0]]))


def test_descent_inequality_holds_along_certified_runs():
    for obj, alpha in [
        (NesterovExample(), 0.09),
        (DiagonalQuadratic([1.0, 2.0]), 0.4),
        (QuarticCopositive(np.eye(2)), 0.99 / 12.0),
    ]:
        traj = run(GradientMap(obj, alpha), 0.25 * np.ones(obj.dimension),
                   StopPolicy(tol=0.0, max_iters=500))
        assert descent_violations(traj, obj) == 0


def test_descent_violations_counts_fabricated_increase():
    obj = DiagonalQuadratic([1.0, 1.0])
    traj = Trajectory(
        iterates=np.array([[1.0, 0.0], [1.0, 0.0]]),
        f_values=np.array([0.5, 0.9]),
        grad_norms=np.array([1.0, 1.0]),
        stop_reason=StopReason.MAX_ITERS,
        alpha=0.1,
    )
    assert descent_violations(traj, obj) == 1


def test_descent_violations_refuses_an_objective_of_another_dimension():
    traj = run(GradientMap(NesterovExample(), 0.09), np.array([0.5, 0.3]))
    with pytest.raises(ContractViolationError, match="objective must have the trajectory's dim"):
        descent_violations(traj, DiagonalQuadratic([1.0, -1.0, 2.0]))


def _reference_run(gmap, x0, policy):
    """One point stepped with the exact stop tests in order, no batch shortcuts."""
    obj = gmap.objective
    x = np.array(x0, dtype=float)
    iterates, f_values, grad_norms = [], [], []
    k = 0
    while True:
        f, g = obj.value(x), obj.gradient(x)
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            raise NumericalFailureError(f"non-finite value or gradient at iterate {k}", k)
        gn = float(np.sqrt(np.sum(g * g)))
        iterates.append(x.copy())
        f_values.append(float(f))
        grad_norms.append(gn)
        if gn <= policy.tol:
            reason = StopReason.GRAD_NORM_BELOW_TOL
        elif float(np.sqrt(np.sum(x * x))) >= policy.divergence_radius:
            reason = StopReason.DIVERGED
        elif k == policy.max_iters:
            reason = StopReason.MAX_ITERS
        elif not obj.lipschitz_global and not obj.contains(x):
            reason = StopReason.LEFT_DOMAIN_BOX
        else:
            x = x - gmap.alpha * g
            k += 1
            continue
        return np.array(iterates), np.array(f_values), np.array(grad_norms), reason


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize(
    "obj, alpha, policy, x0",
    [
        (NesterovExample(), 0.09, StopPolicy(), [0.7, -0.4]),
        (NesterovExample(), 0.09, StopPolicy(), [0.5, 0.0]),
        (NesterovExample(domain_box=[[-0.5, 0.5], [-0.5, 0.5]]), 0.9, StopPolicy(), [0.0, 0.3]),
        (NesterovExample(domain_box=[[-0.5, 0.5], [-0.5, 0.5]]), 0.9,
         StopPolicy(divergence_radius=0.6), [0.0, 0.4]),
        (DiagonalQuadratic([1.0, -1.0]), 0.5, StopPolicy(), [0.1, 1.0]),
        (DiagonalQuadratic([-1e-10]), 0.5e10, StopPolicy(tol=0.0, divergence_radius=1e300), [1.0]),
        (DiagonalQuadratic(np.linspace(-0.5, 1.0, 12)), 0.9, StopPolicy(max_iters=300),
         np.linspace(-1.0, 1.0, 12)),
        (QuarticCopositive(np.eye(3)), 0.05, StopPolicy(tol=0.0, max_iters=400), [0.5, -0.3, 0.2]),
        # M u summed by the reduction, from _PAIRWISE_FROM columns on
        (QuarticCopositive(np.random.default_rng(9).standard_normal((9, 9))), 0.01,
         StopPolicy(tol=0.0, max_iters=300), np.linspace(-0.18, 0.16, 9)),
        # a first column of M with negative entries: M u starts from 0.0
        (QuarticCopositive([[-1.0, 0.5, 0.0], [-0.5, 2.0, 0.3], [0.0, 0.3, 1.0]]), 0.03,
         StopPolicy(tol=0.0, max_iters=300), [-0.0, 0.6, -0.4]),
    ],
)
def test_run_matches_the_single_point_reference_bitwise(obj, alpha, policy, x0):
    gmap = GradientMap(obj, alpha)
    traj = run(gmap, np.array(x0, dtype=float), policy)
    iterates, f_values, grad_norms, reason = _reference_run(gmap, x0, policy)
    assert np.array_equal(traj.iterates, iterates)
    assert np.array_equal(traj.f_values, f_values)
    assert np.array_equal(traj.grad_norms, grad_norms)
    assert traj.stop_reason is reason


@pytest.mark.parametrize(
    "obj, alpha, policy, x0s, reasons",
    [
        # starts at a minimum, on the saddle's axis and off it
        (NesterovExample(), 0.09, StopPolicy(),
         [[0.0, 1.0], [0.5, 0.0], [0.3, -0.2]], {StopReason.GRAD_NORM_BELOW_TOL}),
        # one start already beyond the radius, one that grows past it
        (DiagonalQuadratic([1.0, -1.0]), 0.5, StopPolicy(divergence_radius=10.0),
         [[0.0, 11.0], [0.2, 1.0], [0.0, 0.0]],
         {StopReason.DIVERGED, StopReason.GRAD_NORM_BELOW_TOL}),
        (DiagonalQuadratic([1.0, 2.0]), 0.4, StopPolicy(tol=0.0, max_iters=0),
         [[1.0, 1.0], [0.0, 0.0]], {StopReason.MAX_ITERS, StopReason.GRAD_NORM_BELOW_TOL}),
        (NesterovExample(domain_box=[[-0.5, 0.5], [-0.5, 0.5]]), 0.9, StopPolicy(),
         [[0.0, 0.4], [0.2, 0.0], [0.0, 0.0]],
         {StopReason.LEFT_DOMAIN_BOX, StopReason.GRAD_NORM_BELOW_TOL}),
    ],
)
def test_run_is_run_many_on_one_row_for_every_stop_reason(obj, alpha, policy, x0s, reasons):
    gmap = GradientMap(obj, alpha)
    batch = _assert_rows_match_single_runs(gmap, np.array(x0s), policy)
    assert set(batch.stop_reasons) == reasons
    assert 0 in batch.iterations  # some row stops before its first step


@pytest.mark.parametrize("n_iterates", [
    1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
    2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1, 4 * _BLOCK_ROWS + 1,
])
def test_history_is_whole_across_block_boundaries(n_iterates):
    # a single run steps blocks of _BLOCK_ROWS iterates, the last cut at the cap
    obj = NesterovExample()
    gmap = GradientMap(obj, 0.09)
    traj = run(gmap, np.array([0.7, -0.4]), StopPolicy(tol=0.0, max_iters=n_iterates - 1))
    assert traj.stop_reason is StopReason.MAX_ITERS
    assert traj.iterates.shape == (n_iterates, 2)
    assert traj.f_values.shape == traj.grad_norms.shape == (n_iterates,)
    for k in range(traj.n_steps):
        assert np.array_equal(traj.iterates[k + 1], gmap.step(traj.iterates[k]))
    np.testing.assert_array_equal(traj.f_values, obj.value(traj.iterates))
    grads = obj.gradient(traj.iterates)
    np.testing.assert_array_equal(traj.grad_norms, np.sqrt(np.sum(grads * grads, axis=-1)))


def test_a_huge_iteration_cap_allocates_nothing_by_the_cap():
    gmap = GradientMap(DiagonalQuadratic([1.0, 2.0]), 0.4)
    tracemalloc.start()
    try:
        traj = run(gmap, np.array([1.0, 1.0]), StopPolicy(max_iters=10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.stop_reason is StopReason.GRAD_NORM_BELOW_TOL
    assert traj.n_steps < 100
    assert peak < 1_000_000


@pytest.mark.filterwarnings("error")
def test_non_finite_values_name_the_iterate_and_the_trial():
    # f = -x^2 / 2 overflows to -inf after one step of size 1e200
    gmap = GradientMap(DiagonalQuadratic([-1.0]), 1e200, validate=False)
    with pytest.raises(NumericalFailureError) as single:
        run(gmap, np.array([1.0]))
    assert str(single.value) == "non-finite value or gradient at iterate 1"
    assert single.value.iterate_index == 1
    with pytest.raises(NumericalFailureError) as batch:
        run_many(gmap, np.array([[0.0], [1.0]]))
    assert str(batch.value) == "non-finite value or gradient at iterate 1 (trial 1)"
    # f = (1e-100 * 1e250) * 1e250 overflows while the gradient, 1e150, and
    # its norm stay finite; the error comes before the divergence stop
    gmap = GradientMap(DiagonalQuadratic([1e-100]), 0.5)
    with pytest.raises(NumericalFailureError) as start:
        run(gmap, np.array([1e250]))
    assert str(start.value) == "non-finite value or gradient at iterate 0"
    with pytest.raises(NumericalFailureError) as batch:
        run_many(gmap, np.array([[0.5], [1e250]]))
    assert str(batch.value) == "non-finite value or gradient at iterate 0 (trial 1)"


def test_trajectory_csv_layout(tmp_path):
    gmap = GradientMap(NesterovExample(), 0.09)
    traj = run(gmap, np.array([0.5, 0.3]), StopPolicy(tol=0.0, max_iters=4))
    path = tmp_path / "trajectory.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,x_1,x_2,f,grad_norm"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.5
    assert float(first[4]) == traj.grad_norms[0]


class _Poisoned(Objective):
    """``base`` with a NaN value or gradient (``part``) at each row of ``markers``."""

    def __init__(self, base, markers, part):
        self.base, self.markers, self.part = base, np.atleast_2d(markers), part
        self.name, self.dimension = base.name, base.dimension
        self.domain_box, self.lipschitz_global = base.domain_box, base.lipschitz_global

    def lipschitz_bound(self):
        return self.base.lipschitz_bound()

    def _hit(self, x):
        return (x[..., None, :] == self.markers).all(axis=-1).any(axis=-1)

    def _value(self, x):
        f = self.base._value(x)
        return np.where(self._hit(x), np.nan, f) if self.part == "value" else f

    def _gradient(self, x):
        g = self.base._gradient(x)
        return np.where(self._hit(x)[..., None], np.nan, g) if self.part == "gradient" else g


def _orbit(obj, alpha, x0, k):
    """Iterate k of the gradient map from x0, one public step at a time."""
    gmap = GradientMap(obj, alpha, validate=False)
    x = np.array(x0, dtype=float)
    for _ in range(k):
        x = gmap.step(x)
    return x


def _stopping_at(reason, stop):
    """``(objective, alpha, policy, x0, other)``: the run from x0 stops for
    ``reason`` at iterate ``stop``; the run from ``other`` takes longer and
    never meets an iterate of the first."""
    if reason is StopReason.GRAD_NORM_BELOW_TOL:  # x_k = 2^-k exactly
        return DiagonalQuadratic([1.0]), 0.5, StopPolicy(tol=2.0**-stop), [1.0], [3.0]
    if reason is StopReason.MAX_ITERS:
        return DiagonalQuadratic([1.0]), 0.5, StopPolicy(tol=0.0, max_iters=stop), [1.0], [3.0]
    if reason is StopReason.DIVERGED:  # |x_k| grows by 1.5 per step
        obj = DiagonalQuadratic([-1.0])
        x = _orbit(obj, 0.5, [1.0], stop)[0]
        return obj, 0.5, StopPolicy(divergence_radius=float(np.sqrt(x * x))), [1.0], [0.5]
    # y grows by about 1.5 per step off the saddle and leaves [-y, y] for
    # y = y_{stop - 1}, near 0.5, where alpha * L = 0.5
    x0 = [0.0, 0.5 / 1.5 ** (stop - 1)]
    edge = _orbit(NesterovExample(), 0.5, x0, stop - 1)[1]
    obj = NesterovExample(domain_box=[[-1.0, 1.0], [-edge, edge]])
    return obj, 0.5, StopPolicy(tol=0.0), x0, [0.0, x0[1] / 2]


def _block_iterates():
    """Iterates at the first, a middle and the last offset of the first
    three blocks of a single row, ``_BLOCK_ROWS`` steps wide, and of three
    spans half as wide, which fall inside those blocks.  A batch of two
    rows settles after every step, so each of these is also the first and
    the last iterate of one of its blocks."""
    return sorted({start + offset for width in (_BLOCK_ROWS, _BLOCK_ROWS // 2)
                   for start in (0, width, 2 * width)
                   for offset in (0, width // 2, width - 1)})


def _first_failure(call):
    with pytest.raises(NumericalFailureError) as failure:
        call()
    return str(failure.value), failure.value.iterate_index


# stop iterate and poisoned iterate, relative to the block offset
SCENARIOS = {
    "stop": (0, None),
    "non-finite-before-stop": (3, 0),
    "non-finite-after-stop": (0, 1),
    "non-finite-at-stop": (0, 0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("reason", list(StopReason), ids=[r.value for r in StopReason])
def test_stops_and_failures_at_block_boundaries(reason, scenario):
    # run steps one row in blocks of _BLOCK_ROWS and run_many here two,
    # one step a block, so their blocks differ; each is checked at and
    # inside run's blocks against the single-point reference and run
    # against run_many, for a value and a gradient
    stop_shift, poison_shift = SCENARIOS[scenario]
    for k in _block_iterates():
        stop = k + stop_shift
        if reason is StopReason.LEFT_DOMAIN_BOX and stop == 0:
            continue  # a start outside the box is refused
        base, alpha, policy, x0, other = _stopping_at(reason, stop)
        for part in ("value", "gradient") if poison_shift is not None else ("value",):
            obj = base
            if poison_shift is not None:
                marker = _orbit(base, alpha, x0, k + poison_shift)
                obj = _Poisoned(base, marker, part)
            gmap = GradientMap(obj, alpha)
            x0s = np.array([other, x0])
            if scenario in ("stop", "non-finite-after-stop"):
                iterates, f_values, grad_norms, want = _reference_run(gmap, x0, policy)
                traj = run(gmap, np.array(x0), policy)
                assert (traj.stop_reason, traj.n_steps) == (reason, stop)
                assert traj.stop_reason is want
                assert np.array_equal(traj.iterates, iterates)
                assert np.array_equal(traj.f_values, f_values)
                assert np.array_equal(traj.grad_norms, grad_norms)
                batch = _assert_rows_match_single_runs(gmap, x0s, policy)
                assert batch.iterations[0] > stop or reason is StopReason.MAX_ITERS
                continue
            message, index = _first_failure(lambda: _reference_run(gmap, x0, policy))
            assert index == k
            assert _first_failure(lambda: run(gmap, np.array(x0), policy)) == (message, k)
            failure = _first_failure(lambda: run_many(gmap, x0s, policy))
            assert failure == (f"{message} (trial 1)", k)
            # trial 0 turns bad one iterate later, or at the same one
            for later, trial in ((1, 1), (0, 0)):
                both = GradientMap(
                    _Poisoned(base, [marker, _orbit(base, alpha, other, k + later)], part), alpha)
                failure = _first_failure(lambda: run_many(both, x0s, policy))
                assert failure == (f"{message} (trial {trial})", k)


# 1.5217407325925063e-157 squares to a subnormal whose square root is above
# it, so the search steps down from the square
_TOLERANCES = [0.0, 5e-324, 1e-300, 1.5217407325925063e-157, 1e-10, 1.0, 1e154,
               np.finfo(float).max, np.inf, -1e-10, -np.inf, np.nan]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("tol", _TOLERANCES)
def test_the_squared_tolerance_decides_as_the_norm_does(tol):
    tol2 = _squared_tolerance(tol)
    square = np.float64(tol) * np.float64(tol)
    candidates = {tol2, np.nextafter(tol2, 0.0), np.nextafter(tol2, np.inf),
                  square, np.nextafter(square, 0.0), np.nextafter(square, np.inf),
                  0.0, 5e-324, 1.0, np.finfo(float).max, np.inf, np.nan}
    # squares are never negative; a negative or NaN tolerance passes none
    for t in (np.float64(t) for t in candidates if not t < 0):
        assert (np.sqrt(t) <= tol) == (t <= tol2), (tol, t)
    if not tol >= 0:
        return
    # the largest such double
    assert np.sqrt(np.float64(tol2)) <= tol
    above = np.nextafter(tol2, np.inf)
    assert tol2 == np.inf or not np.sqrt(above) <= tol or above == np.inf


class _Uncertified(NesterovExample):
    finite_on_box = False


class _Counted(NesterovExample):
    """The Nesterov example, counting the points its value is taken at."""

    def __init__(self, domain_box=None):
        super().__init__(domain_box)
        self.points = 0

    def _value(self, x):
        self.points += x.size // x.shape[-1]
        return super()._value(x)


@pytest.mark.parametrize("box, alpha, policy", [
    (None, 0.09, StopPolicy()),
    (None, 0.09, StopPolicy(tol=1e-6, max_iters=100)),
    (None, 0.09, StopPolicy(tol=0.0, max_iters=0)),
    (None, 0.09, StopPolicy(divergence_radius=1.5)),
    ([[-0.6, 0.6], [-0.6, 0.6]], 0.5, StopPolicy()),
    ([[-2.0, 2.0], [-0.6, 0.6]], 0.5, StopPolicy(tol=1e-8)),
])
def test_the_certificate_changes_no_bit_of_a_batch(box, alpha, policy):
    # the same starts stepped with f at every iterate and with f only at
    # the stops; on the small boxes the rows off the x-axis leave, which
    # mixes both settles in one run
    certified, uncertified = NesterovExample(box), _Uncertified(box)
    assert certified.finite_on_box and not uncertified.finite_on_box
    x0s = np.random.default_rng(7).uniform(-0.6, 0.6, (2000, 2))
    x0s[::4, 1] = 0.0
    lean = run_many(GradientMap(certified, alpha), x0s, policy)
    full = run_many(GradientMap(uncertified, alpha), x0s, policy)
    for field in ("final_x", "final_f", "final_grad_norm", "iterations"):
        assert np.array_equal(getattr(lean, field), getattr(full, field)), field
    assert lean.stop_reasons == full.stop_reasons


def test_a_certified_batch_in_its_box_takes_f_only_at_the_stops():
    obj = _Counted()
    x0s = np.random.default_rng(3).uniform(-2.0, 2.0, (500, 2))
    batch = run_many(GradientMap(obj, alpha_from_theta(obj, 0.99)), x0s)
    assert set(batch.stop_reasons) == {StopReason.GRAD_NORM_BELOW_TOL}
    assert obj.points == len(x0s)
    # a single run records f at every iterate
    obj.points = 0
    traj = run(GradientMap(obj, 0.09), x0s[0])
    assert obj.points >= traj.n_steps + 1


def test_a_run_takes_f_at_its_stop_and_then_once_over_its_iterates(monkeypatch):
    # the loop hands run bare iterates, so a run inside a certified box
    # takes the lean path too; run reads f off the iterates once, at the end
    obj = QuarticCopositive([[0.25]])
    batches = []
    value = obj._value
    monkeypatch.setattr(obj, "_value", lambda x: batches.append(x.shape[0]) or value(x))
    traj = run(GradientMap(obj, 0.1), [0.6], StopPolicy(tol=0.0, max_iters=10_000))
    assert traj.stop_reason is StopReason.MAX_ITERS
    assert batches == [1, 10_001]


_OBJ = NesterovExample()


@pytest.mark.parametrize("call", [
    lambda: StopPolicy(tol=None),
    lambda: StopPolicy(tol=True),
    lambda: StopPolicy(tol="1e-10"),
    lambda: StopPolicy(divergence_radius="x"),
    lambda: StopPolicy(divergence_radius=np.bool_(True)),
    lambda: GradientMap(_OBJ, "x"),
    lambda: GradientMap(_OBJ, None),
    lambda: GradientMap(_OBJ, True, validate=False),
    lambda: alpha_from_theta(_OBJ, None),
    lambda: alpha_from_theta(_OBJ, False),
    lambda: invert(GradientMap(_OBJ, 0.09), [0.1, 0.2], tol=None),
    lambda: invert(GradientMap(_OBJ, 0.09), [0.1, 0.2], tol=[1e-10]),
    lambda: roundtrip_check(GradientMap(_OBJ, 0.09), 10, tol=True),
], ids=["tol-None", "tol-True", "tol-str", "radius-str", "radius-np-bool", "alpha-str",
        "alpha-None", "alpha-True", "theta-None", "theta-False", "invert-tol-None",
        "invert-tol-list", "roundtrip-tol-True"])
def test_scalar_parameters_that_are_not_real_numbers_are_refused(call):
    with pytest.raises(ContractViolationError, match="must be a real number, got "):
        call()


def sequential_backtrack(residual, x, direction, rows, tries, decrease, out):
    """Reference: the line search that halves the step one evaluation at a time."""
    accepted = np.zeros(x.shape[0], dtype=bool)
    step = np.ones(x.shape[0])
    for _ in range(tries):
        if not rows.size:
            break
        trial = x[rows] - step[rows, None] * direction[rows]
        trial_residual = residual(trial, rows)
        trial_merit = _sum_squares(trial_residual)
        ok = np.isfinite(trial_merit) & decrease(trial_merit, rows, step[rows])
        taken = rows[ok]
        for buffer, values in zip(out, (trial, trial_residual, trial_merit)):
            buffer[taken] = values[ok]
        accepted[taken] = True
        rows = rows[~ok]
        step[rows] *= 0.5
    return accepted


def _line_search_rows(n):
    """``(x, direction, bound)`` for n rows that cycle through the outcomes.

    The merit of a trial point is s**2 ||direction||**2 (the residual is
    the trial's offset from x), and a row passes where it falls below
    ``bound``, so a unit direction with bound 1.5 * 4**-k first passes at
    s = 2**-k.  Rows with k = 0, 1, 5 and 39; rows that never pass (bound
    0, and a NaN direction); and a direction of 1e160, whose merit is inf
    for every s above about 2**-20 and first passes at 2**-25.
    """
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    angle = rng.uniform(0.0, 2 * np.pi, n)
    direction = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    norms = _sum_squares(direction)
    kinds = np.arange(n) % 7
    first = np.array([0, 1, 5, 39, 0, 0, 25])[kinds]
    bound = 1.5 * np.ldexp(1.0, -2 * first) * norms
    bound[kinds == 4] = 0.0
    direction[kinds == 5] = np.nan
    direction[kinds == 6] *= 1e160
    bound[kinds == 6] = 1.5 * (np.ldexp(1e160, -25)) ** 2 * norms[kinds == 6]
    return x, direction, bound


def _run_line_search(search, x, direction, rows, tries, bound, accept_all=False):
    """``(accepted, out, calls)``: a search's outcome and its residual calls' sizes."""
    calls = []
    start = x.copy()

    def residual(trial, rows):
        calls.append(trial.size)
        return trial - start[rows]

    def decrease(trial_merit, rows, step):
        return np.full(trial_merit.shape, True) if accept_all else trial_merit < bound[rows]

    out = tuple(np.full(shape, -7.0) for shape in (x.shape, x.shape, x.shape[:1]))
    with np.errstate(over="ignore", invalid="ignore"):
        accepted = search(residual, x, direction, rows, tries, decrease, out)
    return accepted, out, calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, rows, tries, accept_all", [
    (70, "all", 40, False),  # s = 1, 2**-1, 2**-5, 2**-39, never, NaN, inf
    (70, "odd", 40, False),  # a subset of the rows
    (70, "all", 1, True),  # the inversion's fallback: one step, any finite merit
    (70, "all", 1, False),
    (70, "none", 40, False),
    (210, "all", 40, False),  # more steps than one stack holds
    (4200, "all", 40, False),  # more rows than two steps each fit
], ids=["mixed", "subset", "one-try", "one-try-decrease", "no-rows", "chunked", "huge"])
def test_the_line_search_takes_each_rows_sequential_step_bit_for_bit(n, rows, tries, accept_all):
    x, direction, bound = _line_search_rows(n)
    rows = {"all": np.arange(n), "odd": np.arange(1, n, 2), "none": np.arange(0)}[rows]
    want = _run_line_search(sequential_backtrack, x, direction, rows, tries, bound, accept_all)
    got = _run_line_search(_backtrack, x, direction, rows, tries, bound, accept_all)
    np.testing.assert_array_equal(got[0], want[0])
    for got_buffer, want_buffer in zip(got[1], want[1]):
        assert got_buffer.tobytes() == want_buffer.tobytes()
    if rows.size and tries == 40 and not accept_all:
        # every outcome happens, the non-finite merits included
        assert want[0][rows].any() and not want[0][rows].all()
    # The full step is one call on the rows; each later call holds at most
    # _TRIAL_ENTRIES coordinates or one step of every row left, so a small
    # batch settles in two calls where halving one step at a time takes 40.
    calls = got[2]
    m, d = rows.size, x.shape[1]
    assert len(calls) <= len(want[2])
    assert calls[:1] == want[2][:1]
    assert all(size <= max(_TRIAL_ENTRIES, m * d) for size in calls[1:])
    if m * d * (tries - 1) <= _TRIAL_ENTRIES:
        assert len(calls) <= min(2, tries)
    if m * d * 2 > _TRIAL_ENTRIES and len(calls) > 1:
        # too large for two steps per row: the next step alone
        assert calls[1] == want[2][1]
