"""Critical-point search, classification, and stable-set sampling."""

import numpy as np
import pytest

from descentlab import (
    Classification,
    ContractViolationError,
    DiagonalQuadratic,
    GradientMap,
    NesterovExample,
    QuarticCopositive,
    StopPolicy,
    StronglyConvexQuadratic,
    assign_basin,
    classify,
    find_critical_points,
    run,
    run_many,
    sample_local_stable_set,
    stable_subspace,
)
from descentlab import critical
from descentlab.critical import (BASIN_TOL, DEGENERACY_TOL, MAX_GRID, NEWTON_BUDGET, NEWTON_TOL,
                                 _newton_roots, grid_spacing)
from descentlab.inverse import roundtrip_check


def scalar_newton_root(objective, x0, tol, max_iters=120):
    """Reference: the one-seed-at-a-time Newton loop the batched search replaced."""
    x = x0.copy()
    grad = objective.gradient(x)
    merit = float(np.sum(grad * grad))
    hit_tol = False
    for _ in range(max_iters):
        grad_norm = np.sqrt(merit)
        if grad_norm <= tol:
            hit_tol = True
        if not np.isfinite(merit):
            return None
        hess = objective.hessian(x)
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = hess @ grad
            if not np.any(direction):
                return x if hit_tol else None
        step = 1.0
        accepted = False
        for _ in range(40):
            x_new = x - step * direction
            grad_new = objective.gradient(x_new)
            merit_new = float(np.sum(grad_new * grad_new))
            if np.isfinite(merit_new) and merit_new < merit:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return x if hit_tol else None
        moved = float(np.max(np.abs(x_new - x)))
        x, grad, merit = x_new, grad_new, merit_new
        if hit_tol and moved <= 1e-12:
            return x
    return x if hit_tol and np.sqrt(merit) <= tol else None


def assert_roots_match_scalar_loop(objective, seeds, max_iters=120, tol=NEWTON_TOL):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(critical, "NEWTON_BUDGET", max_iters)
        patch.setattr(critical, "NEWTON_TOL", tol)
        roots = _newton_roots(objective, seeds)
    expected = [scalar_newton_root(objective, x0, tol, max_iters) for x0 in seeds]
    assert [r is None for r in roots] == [e is None for e in expected]
    for root, oracle in zip(roots, expected):
        if oracle is not None:
            assert root.tobytes() == oracle.tobytes()
    return roots


def test_classify_saddle_of_nesterov_example():
    rec = classify(NesterovExample(), np.array([0.0, 0.0]))
    assert rec.classification is Classification.STRICT_SADDLE
    assert rec.is_strict_saddle
    assert not rec.is_degenerate
    np.testing.assert_allclose(rec.hessian_eigenvalues, [-1.0, 1.0])
    assert rec.stable_dimension == 1
    # stable direction is the x-axis (eigenvalue +1)
    np.testing.assert_allclose(np.abs(rec.stable_subspace_basis[:, 0]), [1.0, 0.0])


def test_classify_minimum_of_nesterov_example():
    rec = classify(NesterovExample(), np.array([0.0, 1.0]))
    assert rec.classification is Classification.LOCAL_MIN
    assert not rec.is_strict_saddle
    assert not rec.is_degenerate
    np.testing.assert_allclose(rec.hessian_eigenvalues, [1.0, 2.0])
    assert rec.stable_dimension == 2


def test_classify_degenerate_quartic_origin():
    rec = classify(QuarticCopositive(np.eye(2)), np.array([0.0, 0.0]))
    assert rec.classification is Classification.DEGENERATE
    assert rec.is_degenerate
    assert not rec.is_strict_saddle
    np.testing.assert_allclose(rec.hessian_eigenvalues, [0.0, 0.0], atol=1e-15)
    assert rec.stable_dimension == 2


def test_classify_local_max_also_flags_strict_saddle():
    # the min-eigenvalue test is what the avoidance theory consumes, and a
    # maximum satisfies it; the headline class still says LocalMax
    rec = classify(DiagonalQuadratic([-1.0, -2.0]), np.array([0.0, 0.0]))
    assert rec.classification is Classification.LOCAL_MAX
    assert rec.is_strict_saddle
    assert rec.stable_dimension == 0
    assert rec.stable_subspace_basis.shape == (2, 0)


def test_classify_saddle_with_degenerate_direction():
    rec = classify(DiagonalQuadratic([-1.0, 0.0]), np.array([0.0, 0.0]))
    assert rec.classification is Classification.STRICT_SADDLE
    assert rec.is_strict_saddle
    assert rec.is_degenerate
    assert rec.stable_dimension == 1


def test_classify_rejects_noncritical_points():
    with pytest.raises(ContractViolationError):
        classify(NesterovExample(), np.array([0.5, 0.5]))
    # within a loosened gradient tolerance the same call goes through
    rec = classify(DiagonalQuadratic([1.0, 1.0]), np.array([1e-7, 0.0]))
    assert rec.grad_norm <= 1e-6


@pytest.mark.parametrize("x, message", [
    ([[0.0, 0.0], [0.0, 1.0]], r"x must have shape \(2,\)"),
    ([0.0], r"x must have shape \(2,\)"),
    ([0.0, float("inf")], "x must be finite"),
    ([[0.0], [0.0, 1.0]], "x must be numbers"),
])
def test_classify_refuses_a_point_that_is_not_one_finite_point(x, message):
    with pytest.raises(ContractViolationError, match=message):
        classify(NesterovExample(), x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [[1e200, 0.0], [0.0, 1e200]])
def test_classify_refuses_a_far_point_without_a_warning(x):
    # the norm of the first and the gradient of the second overflow
    with pytest.raises(ContractViolationError, match="is not critical: grad norm inf"):
        classify(NesterovExample(), x)


def test_record_spectral_factorization_invariants():
    obj = NesterovExample()
    for point in obj.known_critical_points():
        rec = classify(obj, point.location)
        w, v = rec.hessian_eigenvalues, rec.hessian_eigenvectors
        hess = obj.hessian(rec.location)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - hess)) <= 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(2))) <= 1e-12
        assert np.all(np.diff(w) >= 0.0)


def test_record_to_dict_is_json_friendly():
    rec = classify(NesterovExample(), np.array([0.0, 0.0]))
    d = rec.to_dict()
    assert d["classification"] == "StrictSaddle"
    assert d["location"] == [0.0, 0.0]
    assert d["stable_dimension"] == 1
    assert isinstance(d["hessian_eigenvalues"][0], float)


def test_find_critical_points_of_nesterov_example():
    records = find_critical_points(NesterovExample(), n_seeds=100, seed=0)
    assert len(records) == 3
    locations = np.array([rec.location for rec in records])
    np.testing.assert_allclose(
        locations, [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]], atol=1e-9
    )
    assert [rec.classification for rec in records] == [
        Classification.LOCAL_MIN,
        Classification.STRICT_SADDLE,
        Classification.LOCAL_MIN,
    ]
    assert all(rec.grad_norm <= NEWTON_TOL for rec in records)
    assert records.n_seeds == 100
    assert records.n_dropped == 0


def test_find_critical_points_of_quadratic():
    records = find_critical_points(DiagonalQuadratic([1.0, -1.0]), n_seeds=40, seed=1)
    assert len(records) == 1
    np.testing.assert_allclose(records[0].location, [0.0, 0.0], atol=1e-10)
    assert records[0].classification is Classification.STRICT_SADDLE


def test_find_critical_points_of_degenerate_quartic():
    # Newton contracts only linearly at the quartic's flat origin; the
    # polish phase must still pin every seed to one deduplicated root
    records = find_critical_points(QuarticCopositive(np.eye(2)), n_seeds=60, seed=2)
    assert len(records) == 1
    np.testing.assert_allclose(records[0].location, [0.0, 0.0], atol=1e-8)
    assert records[0].classification is Classification.DEGENERATE


# The steepest 1-D quartic the constructors accept, to 1e-9 relative:
# one 1e-9 steeper overflows d * (L * B)**2 and is refused.
STEEPEST_QUARTIC = 1.1173173274950273e153


def test_the_steepest_quartic_is_at_the_refusal_bound():
    QuarticCopositive([[STEEPEST_QUARTIC]])
    with pytest.raises(ContractViolationError, match="too large for float arithmetic"):
        QuarticCopositive([[STEEPEST_QUARTIC * (1 + 1e-9)]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [
    [[1e100]], [[1e150]], [[STEEPEST_QUARTIC]], [[-STEEPEST_QUARTIC]],
    [[STEEPEST_QUARTIC / np.sqrt(2.0), 0.0], [0.0, -3.0]],
], ids=["1e100", "1e150", "steepest", "steepest-max", "steepest-2d"])
def test_a_steep_quartic_reports_its_origin_without_a_warning(q):
    # Newton contracts the degenerate origin by 2/3 per step, so a steep
    # quartic needs about 311 iterations to reach the gradient tolerance,
    # far past the 120 of the old budget
    objective = QuarticCopositive(q)
    records = find_critical_points(objective)
    assert len(records) == 1 and records.n_dropped == 0
    assert np.max(np.abs(records[0].location)) <= 1e-30
    assert records[0].grad_norm <= NEWTON_TOL
    seeds = np.random.default_rng(9).uniform(-1.0, 1.0, (20, objective.dimension))
    assert all(root is not None for root in assert_roots_match_scalar_loop(
        objective, seeds, max_iters=NEWTON_BUDGET))
    gmap = GradientMap(objective, 0.5 / objective.lipschitz_bound())
    report = roundtrip_check(gmap, 200, seed=1)
    assert report.max_backward_residual <= 1e-9


STEEPEST_2D = STEEPEST_QUARTIC / np.sqrt(2.0)  # the bound with d = 2


@pytest.mark.parametrize("q", [
    [[1e100]], [[-1e100]], [[-1e150]], [[STEEPEST_QUARTIC]], [[-STEEPEST_QUARTIC]],
    [[1e100, 0.0], [0.0, 1e100]], [[-1e100, 0.0], [0.0, -1e100]],
    [[STEEPEST_2D, 0.0], [0.0, STEEPEST_2D]], [[-STEEPEST_2D, 0.0], [0.0, -STEEPEST_2D]],
], ids=["1e100", "-1e100", "-1e150", "steepest", "-steepest",
        "2d-1e100", "2d--1e100", "2d-steepest", "2d--steepest"])
def test_the_origin_of_a_steep_quartic_is_degenerate(q):
    # at the polished origin the Hessian is still far from zero in absolute
    # terms (about 5e26 for 1e100), but it moves far more than that within
    # DEDUP_TOL of the root
    objective = QuarticCopositive(q)
    (record,) = find_critical_points(objective)
    assert record.classification is Classification.DEGENERATE
    assert record.is_degenerate and not record.is_strict_saddle
    assert record.stable_dimension == objective.dimension
    assert record.degeneracy_tol == DEGENERACY_TOL  # the caller's value, not the band
    basis = stable_subspace(GradientMap(objective, 0.5 / objective.lipschitz_bound()), record)
    assert basis.shape == (objective.dimension, objective.dimension)


@pytest.mark.parametrize("lambdas, expected", [
    # a quadratic's Hessian does not move, so the band is the absolute
    # 1e-8 whatever the other eigenvalue (a band of 1e-8 * L would be 1e-5)
    ([1e3, 9e-9], Classification.DEGENERATE),
    ([1e3, -9e-9], Classification.DEGENERATE),
    ([1e3, 1.1e-8], Classification.LOCAL_MIN),
    ([1e3, -1.1e-8], Classification.STRICT_SADDLE),
    ([0.5, 9e-9], Classification.DEGENERATE),
    ([0.5, 1.1e-8], Classification.LOCAL_MIN),
])
def test_a_small_eigenvalue_is_read_against_the_absolute_band_on_a_quadratic(lambdas, expected):
    objective = DiagonalQuadratic(lambdas)
    record = classify(objective, np.zeros(2))
    assert record.classification is expected
    assert record.is_degenerate is (abs(lambdas[1]) <= DEGENERACY_TOL)
    assert record.is_strict_saddle is (lambdas[1] < -DEGENERACY_TOL)
    # spectrum mapping: the Jacobian's stable subspace is the record's
    basis = stable_subspace(GradientMap(objective, 0.5 / objective.lipschitz_bound()), record)
    record_basis = record.stable_subspace_basis
    np.testing.assert_allclose(basis @ basis.T, record_basis @ record_basis.T, atol=1e-12)


@pytest.mark.parametrize("objective, x, expected", [
    (DiagonalQuadratic([1e9, -1.0]), [0.0, 0.0], Classification.STRICT_SADDLE),
    (StronglyConvexQuadratic([1e9, 1.0]), [0.0, 0.0], Classification.LOCAL_MIN),
    (NesterovExample([[-1e4, 1e4]] * 2), [0.0, 0.0], Classification.STRICT_SADDLE),
    (NesterovExample([[-1e4, 1e4]] * 2), [0.0, 1.0], Classification.LOCAL_MIN),
], ids=["saddle-1e9", "min-1e9", "nesterov-saddle-1e4-box", "nesterov-min-1e4-box"])
def test_a_large_eigenvalue_or_box_does_not_make_a_point_degenerate(objective, x, expected):
    # eigenvalues of 1 beside one of 1e9, or on a box where L is about 3e8
    record = classify(objective, x)
    assert record.classification is expected
    assert not record.is_degenerate
    assert record.is_strict_saddle is (expected is Classification.STRICT_SADDLE)
    assert record.stable_dimension == (1 if record.is_strict_saddle else 2)


def test_the_label_of_a_point_does_not_depend_on_the_domain_box():
    for x in ([0.0, 0.0], [0.0, -1.0], [0.0, 1.0]):
        small = classify(NesterovExample(), x)
        large = classify(NesterovExample([[-1e4, 1e4]] * 2), x)
        assert large.to_dict() == small.to_dict()


def _pairwise_dedup(roots, dedup_tol):
    """Reference: each root against every root kept before it, one pair at a time."""
    kept = []
    for root in roots:
        if not any(np.max(np.abs(root - known)) <= dedup_tol for known in kept):
            kept.append(root)
    return kept


@pytest.mark.parametrize("dedup_tol", [1e-6, 0.0])
def test_deduplication_keeps_the_first_root_of_each_cluster(monkeypatch, dedup_tol):
    # a chain a, b, c with a ~ b and b ~ c but not a ~ c: first come keeps
    # a and c; NaN coordinates merge with nothing
    a = np.array([0.0, 0.0])
    found = [a, None, a + 0.9e-6, a + [1.8e-6, 0.0], a.copy(), None,
             np.array([np.nan, 0.0]), np.array([np.nan, 0.0]), a - [0.0, 1e-6]]
    monkeypatch.setattr(critical, "DEDUP_TOL", dedup_tol)
    monkeypatch.setattr(critical, "_newton_roots", lambda *args: list(found))
    monkeypatch.setattr(critical, "classify", lambda objective, root: root)
    records = find_critical_points(DiagonalQuadratic([1.0, 1.0]), n_seeds=len(found))
    want = _pairwise_dedup([root for root in found if root is not None], dedup_tol)
    want.sort(key=lambda r: tuple(np.round(r, 9)))
    assert records.n_dropped == 2
    assert [r.tobytes() for r in records] == [r.tobytes() for r in want]


def test_zero_and_infinite_tolerances_are_accepted(monkeypatch):
    obj = QuarticCopositive(np.eye(2))
    monkeypatch.setattr(critical, "DEGENERACY_TOL", 0.0)
    monkeypatch.setattr(critical, "GRAD_TOL", 0.0)
    assert classify(obj, np.zeros(2)).classification is Classification.DEGENERATE
    monkeypatch.setattr(critical, "DEGENERACY_TOL", np.inf)
    assert classify(obj, np.zeros(2)).classification is Classification.DEGENERATE
    monkeypatch.undo()
    # wider than the box: every root merges into the first
    monkeypatch.setattr(critical, "DEDUP_TOL", 10.0)
    assert len(find_critical_points(NesterovExample())) == 1


ZOO_CLASSES = [
    DiagonalQuadratic([1.0, -1.0]),
    StronglyConvexQuadratic([1.0, 3.0]),
    NesterovExample(),
    QuarticCopositive(np.eye(2)),
]


@pytest.mark.parametrize("objective", ZOO_CLASSES, ids=lambda o: o.name)
def test_batched_newton_matches_scalar_loop_bitwise(objective):
    rng = np.random.default_rng(5)
    lo, hi = objective.domain_box[:, 0], objective.domain_box[:, 1]
    seeds = lo + rng.random((100, objective.dimension)) * (hi - lo)
    roots = assert_roots_match_scalar_loop(objective, seeds)
    records = find_critical_points(objective, n_seeds=100, seed=5)
    assert records.n_dropped == sum(root is None for root in roots)
    assert all(record.grad_norm <= NEWTON_TOL for record in records)


# one instance of each regime of the zoo: a saddle, a singular Hessian
# (a line of minima), three dimensions, a strongly convex bowl, the
# Nesterov example on its own and on a wide box, and the quartic with a
# degenerate origin, symmetric and not
SEARCHED = {
    "saddle": DiagonalQuadratic([1.0, -1.0]),
    "singular-hessian": DiagonalQuadratic([1.0, 0.0]),
    "saddle-3d": DiagonalQuadratic([1.0, -1.0, 2.0]),
    "strongly-convex": StronglyConvexQuadratic([1.0, 3.0]),
    "nesterov": NesterovExample(),
    "nesterov-1e4-box": NesterovExample([[-1e4, 1e4]] * 2),
    "quartic": QuarticCopositive(np.eye(2)),
    "quartic-asymmetric": QuarticCopositive([[1.0, 0.2], [0.0, 0.5]]),
}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", SEARCHED)
def test_every_root_of_the_search_meets_the_newton_tolerance(name, seed):
    # so the one gradient gate of classify, GRAD_TOL far above NEWTON_TOL,
    # refuses no root of the search
    records = find_critical_points(SEARCHED[name], seed=seed)
    assert records
    assert all(record.grad_norm <= NEWTON_TOL for record in records)


@pytest.mark.parametrize("tol", [0.0, 1e-14, 1e-6, 1e-2])
@pytest.mark.parametrize("objective", ZOO_CLASSES, ids=lambda o: o.name)
def test_batched_newton_matches_scalar_loop_at_other_tolerances(objective, tol):
    # when a short budget runs out, the tolerance decides which rows are
    # roots (on the Nesterov example at 4 iterations, 39 of these seeds
    # are dropped at a zero tolerance and 10 at 1e-2); a zero tolerance
    # takes only an exact zero of the gradient or a stalled step
    rng = np.random.default_rng(12)
    lo, hi = objective.domain_box[:, 0], objective.domain_box[:, 1]
    seeds = lo + rng.random((40, objective.dimension)) * (hi - lo)
    for max_iters in (4, NEWTON_BUDGET):
        assert_roots_match_scalar_loop(objective, seeds, max_iters=max_iters, tol=tol)


def test_batched_newton_with_some_singular_hessians():
    # the quartic's Hessian is diag(12 x^2): singular exactly where a
    # coordinate is zero, so these rows take the hess @ grad fallback on
    # every iteration while the others take Newton steps; the origin's
    # fallback direction is zero and ends its row at once
    objective = QuarticCopositive(np.eye(2))
    rng = np.random.default_rng(8)
    seeds = rng.uniform(-1.0, 1.0, size=(30, 2))
    seeds[::3, 0] = 0.0
    seeds[1::5, 1] = 0.0
    seeds[7] = 0.0
    roots = assert_roots_match_scalar_loop(objective, seeds)
    assert roots[7] is not None


def test_batched_newton_with_a_short_budget_and_bad_seeds():
    # a two-iteration budget leaves the slow degenerate rows unresolved;
    # a non-finite seed drops out before its first Hessian
    objective = QuarticCopositive(np.eye(2))
    seeds = np.random.default_rng(4).uniform(-1.0, 1.0, size=(20, 2))
    seeds[3] = [np.inf, 0.5]
    with np.errstate(invalid="ignore"):
        roots = assert_roots_match_scalar_loop(objective, seeds, max_iters=2)
    assert roots[3] is None
    assert all(root is None for root in roots)
    roots = assert_roots_match_scalar_loop(NesterovExample(), seeds, max_iters=3)
    assert any(root is None for root in roots) and any(root is not None for root in roots)


@pytest.mark.parametrize("max_iters", [*range(9), NEWTON_BUDGET])
def test_batched_newton_matches_scalar_loop_at_every_small_budget(max_iters):
    # rows leave by every rule, often in the same round: a non-finite seed
    # before its first Hessian, a singular Hessian with a zero fallback
    # direction, a refused line search, a stalled step at an exact or a
    # polished root, and the rest when the budget is spent; the steep
    # quartic's steps stall below 1e-12 before its rows hit the tolerance
    rng = np.random.default_rng(11)
    nesterov = rng.uniform(-2.0, 2.0, size=(24, 2))
    nesterov[::4, 1] = np.array([1.0, -1.0] * 3) / np.sqrt(3.0)
    nesterov[1], nesterov[2], nesterov[3] = [0.0, 0.0], [0.0, 1.0], [np.nan, 0.5]
    quartic = rng.uniform(-1.0, 1.0, size=(24, 2))
    quartic[::3, 0] = 0.0
    quartic[1::5, 1] = 0.0
    quartic[7], quartic[8] = [0.0, 0.0], [np.inf, 0.5]
    steep = rng.uniform(-1.0, 1.0, size=(4, 1))
    with np.errstate(invalid="ignore"):
        for objective, seeds in ((NesterovExample(), nesterov),
                                 (QuarticCopositive(np.eye(2)), quartic),
                                 (QuarticCopositive([[1e100]]), steep)):
            assert_roots_match_scalar_loop(objective, seeds, max_iters=max_iters)


def test_batched_newton_drops_seeds_whose_line_search_fails():
    # on y = +-1/sqrt(3) the Nesterov Hessian is singular up to rounding,
    # so the Newton step is about 1e15 long and no halving of it lowers the
    # merit: those seeds are dropped, the rest of the batch converges
    seeds = np.random.default_rng(3).uniform(-2.0, 2.0, size=(30, 2))
    seeds[::4, 1] = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]) / np.sqrt(3.0)
    roots = assert_roots_match_scalar_loop(NesterovExample(), seeds)
    assert [root is None for root in roots] == [i % 4 == 0 for i in range(30)]


def test_find_critical_points_validates_seed_count():
    with pytest.raises(ContractViolationError):
        find_critical_points(NesterovExample(), n_seeds=0)


def test_jacobian_spectrum_is_one_minus_alpha_times_hessian_spectrum():
    from descentlab import eigh_jacobi

    obj = NesterovExample()
    gmap = GradientMap(obj, 0.09)
    for point in obj.known_critical_points():
        rec = classify(obj, point.location)
        mu, _ = eigh_jacobi(gmap.jacobian(rec.location))
        expected = np.sort(1.0 - gmap.alpha * rec.hessian_eigenvalues)
        np.testing.assert_allclose(mu, expected, atol=1e-10)


def test_stable_subspace_of_saddle_is_the_contracting_axis():
    obj = NesterovExample()
    rec = classify(obj, np.array([0.0, 0.0]))
    # alpha = 0.1 sits outside the certified regime on the default box but
    # the subspace algebra is step-size independent; check both ways
    for gmap in [GradientMap(obj, 0.1, validate=False), GradientMap(obj, 0.09)]:
        basis = stable_subspace(gmap, rec)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)


def test_stable_subspace_of_minimum_is_everything():
    obj = NesterovExample()
    rec = classify(obj, np.array([0.0, 1.0]))
    basis = stable_subspace(GradientMap(obj, 0.09), rec)
    assert basis.shape == (2, 2)
    assert np.max(np.abs(basis.T @ basis - np.eye(2))) <= 1e-12


def test_stable_subspace_matches_record_basis_span():
    obj = DiagonalQuadratic([1.0, -1.0])
    rec = classify(obj, np.array([0.0, 0.0]))
    basis = stable_subspace(GradientMap(obj, 0.5), rec)
    record_basis = rec.stable_subspace_basis
    # same subspace: equal orthogonal projectors
    np.testing.assert_allclose(
        basis @ basis.T, record_basis @ record_basis.T, atol=1e-12
    )


def test_stable_subspace_of_degenerate_point_is_full():
    obj = QuarticCopositive(np.eye(2))
    rec = classify(obj, np.array([0.0, 0.0]))
    basis = stable_subspace(GradientMap(obj, 0.05), rec)
    assert basis.shape == (2, 2)


def test_stable_set_sample_of_nesterov_saddle_lies_on_axis():
    obj = NesterovExample()
    gmap = GradientMap(obj, 0.09)
    rec = classify(obj, np.array([0.0, 0.0]))
    sample = sample_local_stable_set(gmap, rec, radius=0.5, grid=41)
    assert sample.grid_spacing == pytest.approx(0.025)
    hits = sample.converged_points
    # every converging start sits exactly on the x-axis: one grid row
    assert hits.shape[0] == 41
    assert np.all(hits[:, 1] == 0.0)
    assert sample.max_subspace_distance <= 1e-12
    assert sample.max_subspace_distance <= sample.grid_spacing


def test_stable_set_sample_radius_zero_is_the_saddle_itself():
    obj = NesterovExample()
    gmap = GradientMap(obj, 0.09)
    rec = classify(obj, np.array([0.0, 0.0]))
    sample = sample_local_stable_set(gmap, rec, radius=0.0)
    assert sample.points.shape == (1, 2)
    np.testing.assert_array_equal(sample.points[0], rec.location)
    assert sample.converged.tolist() == [True]
    assert sample.max_subspace_distance == 0.0


def test_stable_set_sample_of_an_empty_trimmed_grid_is_empty():
    # the four points of a 2 x 2 grid all lie outside the ball
    obj = NesterovExample()
    rec = classify(obj, np.array([0.0, 0.0]))
    sample = sample_local_stable_set(GradientMap(obj, 0.09), rec, radius=0.5, grid=2)
    assert sample.points.shape == (0, 2)
    assert sample.converged.dtype == bool and sample.converged.shape == (0,)
    assert sample.max_subspace_distance == 0.0


@pytest.mark.filterwarnings("error")
def test_stable_set_grid_of_a_huge_radius_is_trimmed_without_overflow():
    # squared offsets near 1e300 overflow, which once trimmed every point
    # but the center; trimmed exactly, the grid leaves the domain box
    obj = NesterovExample()
    rec = classify(obj, np.array([0.0, 0.0]))
    with pytest.raises(ContractViolationError, match="outside domain_box"):
        sample_local_stable_set(GradientMap(obj, 0.09), rec, radius=1e300, grid=3)


@pytest.mark.parametrize("grid, chunk, sizes", [
    (41, 100, [100] * 12 + [57]),  # a tail chunk
    (41, 1256, [1256, 1]),  # a chunk of one row, on the single-row stepping path
    (2, 7, [0]),  # the empty grid is one empty chunk
])
def test_a_stable_set_in_chunks_of_a_few_rows_matches_one_batch_of_the_grid(
    monkeypatch, grid, chunk, sizes
):
    # at 200 iterations the x-axis runs end within the tolerance of the
    # saddle before the gradient certificate, and the others away from it
    obj = NesterovExample()
    gmap = GradientMap(obj, 0.09)
    rec = classify(obj, np.array([0.0, 0.0]))
    policy = StopPolicy(max_iters=200)
    stepped = []

    def recorded(gmap, x0s, policy):
        stepped.append(len(x0s))
        return run_many(gmap, x0s, policy)

    monkeypatch.setattr(critical, "CHUNK", chunk)
    monkeypatch.setattr(critical, "run_many", recorded)
    sample = sample_local_stable_set(gmap, rec, radius=0.5, grid=grid, policy=policy)
    assert stepped == sizes
    # one batch of the whole grid, labelled by the census's rule against the saddle
    whole = run_many(gmap, sample.points, policy)
    left = [reason.value in ("Diverged", "LeftDomainBox") for reason in whole.stop_reasons]
    near = np.max(np.abs(whole.final_x - rec.location), axis=1, initial=0.0) <= BASIN_TOL
    assert np.array_equal(sample.converged, ~np.array(left, dtype=bool) & near
                          & (whole.final_grad_norm <= BASIN_TOL))
    assert np.count_nonzero(sample.converged) == (41 if grid == 41 else 0)


@pytest.mark.parametrize("policy", [None, StopPolicy(max_iters=200)],
                         ids=["default", "max_iters_200"])
def test_a_grid_point_converges_exactly_when_its_census_trial_lands_at_the_saddle(policy):
    # at 200 iterations the axis runs stop on the cap, not the certificate
    obj = NesterovExample()
    gmap = GradientMap(obj, 0.09)
    records = find_critical_points(obj)
    saddle = next(i for i, record in enumerate(records) if record.is_strict_saddle)
    sample = sample_local_stable_set(gmap, records[saddle], radius=0.5, grid=21, policy=policy)
    landed = [assign_basin(run(gmap, point, policy), records) == saddle
              for point in sample.points]
    assert sample.converged.tolist() == landed
    assert len(landed) == 317 and sum(landed) == 21


def test_a_stable_set_refuses_a_grid_outside_the_box_before_any_chunk(monkeypatch):
    # in chunks of two rows, the grid points (-1, 0), (0, -1), (0, 0) and
    # (0, 1) lie inside the box and the last one, (1, 0), does not
    obj = NesterovExample(domain_box=[[-1.0, 0.5], [-2.0, 2.0]])
    rec = classify(obj, np.array([0.0, 0.0]))

    def no_work(*args, **kwargs):
        raise AssertionError("a chunk was stepped")

    monkeypatch.setattr(critical, "CHUNK", 2)
    monkeypatch.setattr(critical, "run_many", no_work)
    with pytest.raises(ContractViolationError) as refused:
        sample_local_stable_set(GradientMap(obj, 0.09), rec, radius=1.0, grid=3)
    assert str(refused.value) == "some starting points lie outside domain_box"


def test_stable_set_sample_on_exact_linear_dynamics():
    obj = DiagonalQuadratic([1.0, -1.0])
    gmap = GradientMap(obj, 0.5)
    rec = classify(obj, np.array([0.0, 0.0]))
    sample = sample_local_stable_set(gmap, rec, radius=1.0, grid=21)
    hits = sample.converged_points
    assert hits.shape[0] == 21
    assert np.all(hits[:, 1] == 0.0)
    assert sample.max_subspace_distance == 0.0


def test_stable_set_sampling_rejects_bad_inputs():
    obj = NesterovExample()
    gmap = GradientMap(obj, 0.09)
    minimum = classify(obj, np.array([0.0, 1.0]))
    saddle = classify(obj, np.array([0.0, 0.0]))
    with pytest.raises(ContractViolationError):
        sample_local_stable_set(gmap, minimum, radius=0.5)
    with pytest.raises(ContractViolationError):
        sample_local_stable_set(gmap, saddle, radius=-0.1)
    with pytest.raises(ContractViolationError):
        sample_local_stable_set(gmap, saddle, radius=0.5, grid=0)
    # a grid at the cap is spaced, and one over it refused
    assert grid_spacing(1.0, MAX_GRID) == 2.0 / (MAX_GRID - 1)
    with pytest.raises(ContractViolationError, match=f"^grid must be at most {MAX_GRID}, got "):
        sample_local_stable_set(gmap, saddle, radius=0.5, grid=MAX_GRID + 1)
    # a spacing that overflows would fill the grid with inf and NaN
    for radius in (np.inf, 1.5e308):
        with pytest.raises(ContractViolationError, match="too large"):
            sample_local_stable_set(gmap, saddle, radius=radius, grid=3)
    obj3 = DiagonalQuadratic([1.0, -1.0, 1.0])
    rec3 = classify(obj3, np.zeros(3))
    with pytest.raises(ContractViolationError):
        sample_local_stable_set(GradientMap(obj3, 0.5), rec3, radius=0.5)


def test_stable_set_csv_layout(tmp_path):
    obj = DiagonalQuadratic([1.0, -1.0])
    gmap = GradientMap(obj, 0.5)
    rec = classify(obj, np.array([0.0, 0.0]))
    sample = sample_local_stable_set(gmap, rec, radius=0.5, grid=5)
    path = tmp_path / "stable_set.csv"
    sample.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_1,x_2,converged_to_saddle"
    assert len(lines) == 1 + sample.points.shape[0]
    flags = [int(line.split(",")[-1]) for line in lines[1:]]
    assert sum(flags) == int(np.count_nonzero(sample.converged))
