"""Gradient-map inversion, injectivity margins, and round trips."""

import numpy as np
import pytest

from descentlab import (
    ContractViolationError,
    DiagonalQuadratic,
    GradientMap,
    NesterovExample,
    NonConvergenceError,
    Objective,
    QuarticCopositive,
    StronglyConvexQuadratic,
    injectivity_margin_check,
    invert,
    roundtrip_check,
)
from descentlab.inverse import _invert_batch


def scalar_invert(gmap, y, tol=1e-10, max_inner=200):
    """Reference: the one-point inversion loop the batched solver replaced.

    Returns (solution, residual, inner_iterations), or raises the same
    non-convergence error as the library.  The start is tested even on a
    budget of 0.
    """
    obj = gmap.objective
    alpha = gmap.alpha
    modulus = 1.0 - alpha * obj.lipschitz_bound()
    stop_at = tol * modulus
    fallback_step = 1.0 / (1.0 + alpha * obj.lipschitz_bound())
    x = y.copy()
    grad = gmap.step(x) - y
    merit = float(np.sum(grad * grad))
    best_residual = np.inf
    for iteration in range(max(max_inner, 1)):
        grad_norm = float(np.sqrt(merit))
        best_residual = min(best_residual, grad_norm)
        if grad_norm <= stop_at:
            return x, grad_norm, iteration
        hess = np.eye(obj.dimension) - alpha * obj.hessian(x)
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = None
        x_new = grad_new = merit_new = None
        if direction is not None:
            step = 1.0
            for _ in range(30):
                trial = x - step * direction
                trial_grad = gmap.step(trial) - y
                trial_merit = float(np.sum(trial_grad * trial_grad))
                if np.isfinite(trial_merit) and trial_merit <= merit * (1.0 - 1e-4 * step):
                    x_new, grad_new, merit_new = trial, trial_grad, trial_merit
                    break
                step *= 0.5
        if x_new is None:
            trial = x - fallback_step * grad
            trial_grad = gmap.step(trial) - y
            trial_merit = float(np.sum(trial_grad * trial_grad))
            if not np.isfinite(trial_merit):
                break
            x_new, grad_new, merit_new = trial, trial_grad, trial_merit
        x, grad, merit = x_new, grad_new, merit_new
    raise NonConvergenceError(
        f"inversion budget of {max_inner} iterations exhausted "
        f"(best residual {best_residual:.3e}, requested {tol:.3e})",
        best_residual,
    )


ZOO_CLASSES = [
    DiagonalQuadratic([1.0, -1.0]),
    StronglyConvexQuadratic([1.0, 3.0]),
    NesterovExample(),
    QuarticCopositive(np.eye(2)),
]


def box_samples(objective, n, seed):
    lo, hi = objective.domain_box[:, 0], objective.domain_box[:, 1]
    return lo + np.random.default_rng(seed).random((n, objective.dimension)) * (hi - lo)


def test_linear_map_inverts_by_hand():
    # g(x, y) = (0.5 x, 1.5 y), so (0.5, 1.5) pulls back to (1, 1)
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    report = invert(gmap, np.array([0.5, 1.5]))
    np.testing.assert_allclose(report.solution, [1.0, 1.0], atol=1e-12)
    assert report.residual <= 1e-10
    assert report.subproblem_modulus == 0.5


def test_nonlinear_map_recovers_known_preimage():
    gmap = GradientMap(NesterovExample(), 0.05)
    y = gmap.step(np.array([1.0, 2.0]))
    np.testing.assert_allclose(y, [0.95, 1.7])
    report = invert(gmap, y)
    np.testing.assert_allclose(report.solution, [1.0, 2.0], atol=1e-9)
    assert report.residual <= 1e-10
    assert report.subproblem_modulus == pytest.approx(0.45)
    assert 0 <= report.inner_iterations <= 200


def test_critical_points_are_their_own_preimages():
    gmap = GradientMap(NesterovExample(), 0.09)
    for point in gmap.objective.known_critical_points():
        report = invert(gmap, point.location)
        np.testing.assert_allclose(report.solution, point.location, atol=1e-9)


def test_preimage_is_unique_regardless_of_start():
    gmap = GradientMap(NesterovExample(), 0.05)
    y = gmap.step(np.array([1.0, 2.0]))
    a = invert(gmap, y)
    b = invert(gmap, y, x0=y + np.array([0.1, -0.1]))
    gap = float(np.max(np.abs(a.solution - b.solution)))
    assert gap <= 10 * 1e-10


def test_invert_validates_target():
    gmap = GradientMap(NesterovExample(), 0.09)
    with pytest.raises(ContractViolationError):
        invert(gmap, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ContractViolationError):
        invert(gmap, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("keyword, value, message", [
    ("tol", -1.0, "tol must be non-negative, got -1.0"),
    ("tol", np.nan, "tol must be non-negative, got nan"),
    ("tol", "1e-10", "tol must be a real number, got '1e-10'"),
    ("max_inner", -1, "max_inner must be a non-negative integer, got -1"),
    ("max_inner", 2.5, "max_inner must be a non-negative integer, got 2.5"),
    ("max_inner", True, "max_inner must be a non-negative integer, got True"),
])
def test_invert_refuses_a_bad_tolerance_or_budget_before_any_work(monkeypatch, keyword,
                                                                   value, message):
    # a negative or NaN tol ran the whole budget and reported no
    # convergence; a fractional budget ended in a TypeError
    def no_solve(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr("descentlab.inverse._invert_batch", no_solve)
    gmap = GradientMap(NesterovExample(), 0.09)
    with pytest.raises(ContractViolationError, match=f"^{message}$"):
        invert(gmap, np.array([0.1, 0.1]), **{keyword: value})


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_roundtrip_refuses_a_bad_tolerance_before_any_work(tol):
    gmap = GradientMap(NesterovExample(), 0.09)
    with pytest.raises(ContractViolationError, match="^tol must be non-negative"):
        roundtrip_check(gmap, 10**30, tol=tol)  # refused before the sample count


class SteepOnItsBox(Objective):
    """f(x) = 1e300 x^2 / 2 on [-1e10, 1e10], not certified finite on its box:
    the gradient 1e300 x overflows where |x| is above about 1.8e8."""

    name = "steep"
    dimension = 1
    domain_box = np.array([[-1e10, 1e10]])

    def _gradient(self, x):
        with np.errstate(over="ignore"):
            return 1e300 * x

    def lipschitz_bound(self):
        return 1e300


def test_roundtrip_refuses_a_sample_whose_step_overflows_before_inverting(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the solver ran")

    gmap = GradientMap(SteepOnItsBox(), 1e-301)
    assert gmap.step(np.array([1.0])) == 0.9
    monkeypatch.setattr("descentlab.inverse._invert_batch", no_solve)
    with pytest.raises(ContractViolationError, match="^y must be finite$"):
        roundtrip_check(gmap, n_samples=20, seed=0)


def test_invert_accepts_a_zero_budget_and_an_infinite_tolerance():
    gmap = GradientMap(NesterovExample(), 0.09)
    y = np.array([0.1, 0.1])
    assert invert(gmap, y, tol=np.inf).inner_iterations == 0
    try:
        invert(gmap, y, max_inner=0)
    except NonConvergenceError:
        pass  # a zero budget is a budget, not a contract violation


def test_a_zero_budget_tests_the_start():
    gmap = GradientMap(NesterovExample(), 0.09)
    x = np.array([0.1, 0.1])
    # a start that solves the target returns with no iterations
    report = invert(gmap, gmap.step(x), max_inner=0, x0=x)
    assert report.inner_iterations == 0
    assert report.solution.tobytes() == x.tobytes()
    assert report.residual == 0.0
    # one that does not reports its own residual
    with pytest.raises(NonConvergenceError) as excinfo:
        invert(gmap, x, max_inner=0)
    start_residual = float(np.sqrt(np.sum((gmap.step(x) - x) ** 2)))
    assert excinfo.value.best_residual == start_residual
    assert f"(best residual {start_residual:.3e}," in str(excinfo.value)


def test_invert_budget_exhaustion_reports_best_residual():
    gmap = GradientMap(NesterovExample(), 0.09)
    with pytest.raises(NonConvergenceError) as excinfo:
        invert(gmap, gmap.step(np.array([1.0, 2.0])), max_inner=1)
    assert np.isfinite(excinfo.value.best_residual)
    assert excinfo.value.best_residual > 0.0


@pytest.mark.filterwarnings("error")
def test_a_target_whose_residual_overflows_fails_without_a_warning():
    # the residual of y = (1e300, 1e300) overflows at the start: the row
    # fails the finite-merit test and the budget error reports inf
    gmap = GradientMap(NesterovExample(), 0.09)
    with pytest.raises(NonConvergenceError) as excinfo:
        invert(gmap, np.array([1e300, 1e300]))
    assert excinfo.value.best_residual == np.inf


def test_prox_solve_report_to_dict():
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    d = invert(gmap, np.array([0.5, 1.5])).to_dict()
    assert set(d) == {"solution", "residual", "inner_iterations", "subproblem_modulus"}
    assert d["subproblem_modulus"] == 0.5


def test_injectivity_margin_on_linear_map():
    # ratio of ||g(x) - g(y)|| to ||x - y|| lives in [0.5, 1.5] exactly
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    report = injectivity_margin_check(gmap, n_pairs=1000, seed=0)
    assert report.violations == 0
    assert report.n_used == 1000
    assert report.threshold == pytest.approx(0.5 - 1e-9)
    assert 0.5 <= report.min_ratio <= 1.5


def test_injectivity_margin_on_nesterov_example():
    gmap = GradientMap(NesterovExample(), 0.99 / 11.0)
    report = injectivity_margin_check(gmap, n_pairs=1000, seed=0)
    assert report.violations == 0
    assert report.min_ratio >= report.threshold
    assert report.threshold == pytest.approx(0.01 - 1e-9)


def test_injectivity_margin_validates_pair_count():
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    with pytest.raises(ContractViolationError):
        injectivity_margin_check(gmap, n_pairs=0)


@pytest.mark.parametrize(
    "objective",
    [
        DiagonalQuadratic([1.0, -1.0]),
        StronglyConvexQuadratic([1.0, 3.0]),
        NesterovExample(),
        QuarticCopositive(np.eye(2)),
    ],
    ids=lambda o: o.name,
)
def test_roundtrip_residuals_stay_small(objective):
    gmap = GradientMap(objective, 0.5 / objective.lipschitz_bound())
    report = roundtrip_check(gmap, n_samples=50, seed=3)
    assert report.max_forward_residual <= 1e-8
    assert report.max_backward_residual <= 1e-8


def test_roundtrip_on_linear_map_is_machine_exact():
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    report = roundtrip_check(gmap, n_samples=50, seed=0)
    assert report.max_forward_residual <= 1e-12
    assert report.max_backward_residual <= 1e-12


def test_roundtrip_validates_sample_count():
    gmap = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
    with pytest.raises(ContractViolationError):
        roundtrip_check(gmap, n_samples=0)


@pytest.mark.parametrize("objective", ZOO_CLASSES, ids=lambda o: o.name)
def test_batched_inversion_matches_scalar_loop_bitwise(objective):
    gmap = GradientMap(objective, 0.5 / objective.lipschitz_bound())
    xs = box_samples(objective, 100, seed=6)
    ys = gmap.step(xs)
    solutions, residuals, iterations, modulus = _invert_batch(gmap, ys, ys, 1e-10, 200)
    assert modulus == 1.0 - gmap.alpha * objective.lipschitz_bound()
    for i, y in enumerate(ys):
        solution, residual, inner = scalar_invert(gmap, y)
        assert solutions[i].tobytes() == solution.tobytes()
        assert residuals[i] == residual
        assert iterations[i] == inner
        report = invert(gmap, y)
        assert report.solution.tobytes() == solution.tobytes()
        assert report.residual == residual
        assert type(report.inner_iterations) is int
        assert report.inner_iterations == inner


@pytest.mark.parametrize("objective", ZOO_CLASSES, ids=lambda o: o.name)
def test_roundtrip_matches_scalar_loop_bitwise(objective):
    gmap = GradientMap(objective, 0.5 / objective.lipschitz_bound())
    report = roundtrip_check(gmap, n_samples=100, seed=2)
    forward = backward = 0.0
    for x in box_samples(objective, 100, seed=2):
        y = gmap.step(x)
        solution = scalar_invert(gmap, y)[0]
        forward = max(forward, float(np.sqrt(np.sum((gmap.step(solution) - y) ** 2))))
        backward = max(backward, float(np.sqrt(np.sum((solution - x) ** 2))))
    assert report.max_forward_residual == forward
    assert report.max_backward_residual == backward


class SingularLeftHalf(DiagonalQuadratic):
    """diag(1, 0.5) reporting a Hessian entry of 2 in place of 1 where x_1 < 0.

    At alpha = 0.5 that makes I - alpha * H exactly singular on the left
    half plane, so rows there fail the Newton solve and take gradient steps
    while the other rows of the same batch take Newton steps.
    """

    def __init__(self):
        super().__init__([1.0, 0.5])

    def _hessian(self, x):
        hess = super()._hessian(x)
        hess[..., 0, 0] = np.where(x[..., 0] < 0.0, 2.0, hess[..., 0, 0])
        return hess


def test_batched_inversion_with_some_singular_jacobians():
    gmap = GradientMap(SingularLeftHalf(), 0.5)
    ys = gmap.step(box_samples(gmap.objective, 40, seed=1))
    assert 0 < np.count_nonzero(ys[:, 0] < 0.0) < len(ys)
    solutions, residuals, iterations, _ = _invert_batch(gmap, ys, ys, 1e-10, 200)
    for i, y in enumerate(ys):
        solution, residual, inner = scalar_invert(gmap, y)
        assert solutions[i].tobytes() == solution.tobytes()
        assert (residuals[i], iterations[i]) == (residual, inner)
    # gradient steps converge only linearly: the singular rows take many
    assert iterations[ys[:, 0] < 0.0].min() > 10 >= iterations[ys[:, 0] > 0.0].max()


def test_batched_inversion_raises_the_first_failing_samples_error():
    gmap = GradientMap(NesterovExample(), 0.09)
    ys = gmap.step(box_samples(gmap.objective, 100, seed=4))
    max_inner = 3
    outcomes = []
    for y in ys:
        try:
            scalar_invert(gmap, y, max_inner=max_inner)
            outcomes.append(None)
        except NonConvergenceError as exc:
            outcomes.append(exc)
    failing = [i for i, exc in enumerate(outcomes) if exc is not None]
    # the budget splits the batch, and the first failure is not sample 0
    assert 0 < failing[0] and len(failing) < len(ys)
    expected = outcomes[failing[0]]
    with pytest.raises(NonConvergenceError) as excinfo:
        _invert_batch(gmap, ys, ys, 1e-10, max_inner)
    assert str(excinfo.value) == str(expected)
    assert excinfo.value.best_residual == expected.best_residual
    # the samples after the first failure do not change which error is raised
    with pytest.raises(NonConvergenceError) as excinfo:
        _invert_batch(gmap, ys[: failing[0] + 1], ys[: failing[0] + 1], 1e-10, max_inner)
    assert excinfo.value.best_residual == expected.best_residual


def test_inversion_of_targets_outside_the_certified_box_matches_scalar_loop():
    # images of points three box-widths out: some inversions need many
    # damped Newton steps, some fail after their residual has risen again
    objective = QuarticCopositive([[1.0, 0.2], [0.0, 0.5]])
    gmap = GradientMap(objective, 0.9 / objective.lipschitz_bound())
    ys = gmap.step(3.0 * box_samples(objective, 100, seed=8))
    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for y in ys:
            try:
                outcomes.append(scalar_invert(gmap, y))
            except NonConvergenceError as exc:
                outcomes.append(exc)
        failing = [i for i, out in enumerate(outcomes) if isinstance(out, NonConvergenceError)]
        solved = [i for i, out in enumerate(outcomes) if i not in failing]
        assert failing and solved

        solutions, residuals, iterations, _ = _invert_batch(
            gmap, ys[solved], ys[solved], 1e-10, 200
        )
        for row, i in enumerate(solved):
            solution, residual, inner = outcomes[i]
            assert solutions[row].tobytes() == solution.tobytes()
            assert (residuals[row], iterations[row]) == (residual, inner)

        for i in failing:
            with pytest.raises(NonConvergenceError) as excinfo:
                invert(gmap, ys[i])
            assert str(excinfo.value) == str(outcomes[i])
            assert excinfo.value.best_residual == outcomes[i].best_residual
        with pytest.raises(NonConvergenceError) as excinfo:
            _invert_batch(gmap, ys, ys, 1e-10, 200)
    assert excinfo.value.best_residual == outcomes[failing[0]].best_residual


@pytest.mark.parametrize("max_inner", range(7))
def test_inversion_of_far_targets_matches_scalar_loop_at_every_small_budget(max_inner):
    # the far targets above, with some near ones that one step solves and
    # some whose residual overflows, so that their first step is refused:
    # from a budget of 2 on, round 1 drops solved and refused rows at once,
    # and the rows left when the budget is spent are unsolved too
    objective = QuarticCopositive([[1.0, 0.2], [0.0, 0.5]])
    gmap = GradientMap(objective, 0.9 / objective.lipschitz_bound())
    ys = gmap.step(3.0 * box_samples(objective, 100, seed=8))
    ys[5::20] = gmap.step(0.01 * box_samples(objective, 5, seed=8))
    ys[10::20] = [1e60, -1e60]
    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for y in ys:
            try:
                outcomes.append(scalar_invert(gmap, y, max_inner=max_inner))
            except NonConvergenceError as exc:
                outcomes.append(exc)
    failing = [i for i, out in enumerate(outcomes) if isinstance(out, NonConvergenceError)]
    solved = [i for i, out in enumerate(outcomes) if i not in failing]
    for i in failing:
        with pytest.raises(NonConvergenceError) as excinfo:
            invert(gmap, ys[i], max_inner=max_inner)
        assert str(excinfo.value) == str(outcomes[i])
        assert excinfo.value.best_residual == outcomes[i].best_residual
    solutions, residuals, iterations, _ = _invert_batch(
        gmap, ys[solved], ys[solved], 1e-10, max_inner
    )
    for row, i in enumerate(solved):
        solution, residual, inner = outcomes[i]
        assert solutions[row].tobytes() == solution.tobytes()
        assert (residuals[row], iterations[row]) == (residual, inner)
    assert failing
    with pytest.raises(NonConvergenceError) as excinfo:
        _invert_batch(gmap, ys, ys, 1e-10, max_inner)
    assert str(excinfo.value) == str(outcomes[failing[0]])
    assert excinfo.value.best_residual == outcomes[failing[0]].best_residual


def test_invert_validates_start_before_any_work():
    gmap = GradientMap(NesterovExample(), 0.09)
    y = np.array([0.5, 0.5])
    with pytest.raises(ContractViolationError, match=r"x0 must have shape \(2,\)"):
        invert(gmap, y, x0=[1.0])
    with pytest.raises(ContractViolationError, match="x0 must be finite"):
        invert(gmap, y, x0=[np.inf, 0.0])
    with pytest.raises(ContractViolationError, match="x0 must be finite"):
        invert(gmap, y, x0=np.array([0.0, np.nan]))
    report = invert(gmap, y, x0=[0.4, 0.6])
    assert report.residual <= 1e-10
