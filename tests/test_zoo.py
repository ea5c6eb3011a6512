"""Objective zoo: analytic derivatives against finite differences and
hand-derived values, Lipschitz certificates, and the registry."""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import (
    Classification,
    ContractViolationError,
    DiagonalQuadratic,
    NesterovExample,
    QuarticCopositive,
    StronglyConvexQuadratic,
    make_objective,
    objective_from_dict,
    parse_objective,
)

FD_STEP = np.cbrt(np.finfo(float).eps)


def fd_gradient(obj, x):
    """Central-difference gradient, independent of the analytic code path."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        h = FD_STEP * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return grad


def fd_hessian(obj, x):
    """Central differences of the analytic gradient."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    hess = np.zeros((d, d))
    for i in range(d):
        h = FD_STEP * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        hess[:, i] = (obj.gradient(x + e) - obj.gradient(x - e)) / (2.0 * h)
    return hess


def zoo_instances():
    return [
        DiagonalQuadratic([1.0, -1.0]),
        DiagonalQuadratic([2.0, -0.5]),
        StronglyConvexQuadratic([1.0, 3.0]),
        NesterovExample(),
        QuarticCopositive(np.eye(2)),
        QuarticCopositive([[1.0, 0.2], [0.0, 0.5]]),
    ]


@pytest.mark.parametrize("obj", zoo_instances(), ids=lambda o: o.name + str(o.params))
def test_gradient_matches_finite_differences(obj):
    rng = np.random.default_rng(101)
    lo, hi = obj.domain_box[:, 0], obj.domain_box[:, 1]
    # stay strictly interior so central differences never leave the box
    points = lo + (0.05 + 0.9 * rng.random((100, obj.dimension))) * (hi - lo)
    for x in points:
        analytic = obj.gradient(x)
        numeric = fd_gradient(obj, x)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(analytic - numeric)) / scale <= 1e-5


@pytest.mark.parametrize("obj", zoo_instances(), ids=lambda o: o.name + str(o.params))
def test_hessian_matches_finite_differences_and_is_symmetric(obj):
    rng = np.random.default_rng(202)
    lo, hi = obj.domain_box[:, 0], obj.domain_box[:, 1]
    points = lo + (0.05 + 0.9 * rng.random((100, obj.dimension))) * (hi - lo)
    for x in points:
        analytic = obj.hessian(x)
        assert np.max(np.abs(analytic - analytic.T)) <= 1e-12
        numeric = fd_hessian(obj, x)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(analytic - numeric)) / scale <= 1e-4


@pytest.mark.parametrize("obj", zoo_instances(), ids=lambda o: o.name + str(o.params))
def test_sampled_lipschitz_bound_has_no_violations(obj):
    rng = np.random.default_rng(303)
    lo, hi = obj.domain_box[:, 0], obj.domain_box[:, 1]
    xs = lo + rng.random((1000, obj.dimension)) * (hi - lo)
    ys = lo + rng.random((1000, obj.dimension)) * (hi - lo)
    grad_gap = np.sqrt(np.sum((obj.gradient(xs) - obj.gradient(ys)) ** 2, axis=-1))
    sep = np.sqrt(np.sum((xs - ys) ** 2, axis=-1))
    bound = obj.lipschitz_bound() * sep
    assert np.count_nonzero(grad_gap > bound + 1e-12) == 0


@pytest.mark.parametrize("obj", zoo_instances(), ids=lambda o: o.name + str(o.params))
def test_known_critical_points_have_tiny_gradients(obj):
    for point in obj.known_critical_points():
        grad = obj.gradient(point.location)
        assert float(np.sqrt(np.sum(grad * grad))) <= 1e-10


def test_nesterov_values_by_hand():
    obj = NesterovExample()
    assert obj.value(np.array([0.0, 0.0])) == 0.0
    # 1/4 - 1/2 at (0, 1)
    assert obj.value(np.array([0.0, 1.0])) == pytest.approx(-0.25, abs=1e-15)
    np.testing.assert_allclose(
        obj.gradient(np.array([0.0, 1.0])), [0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(obj.gradient(np.array([1.0, 2.0])), [1.0, 6.0])
    np.testing.assert_allclose(
        obj.hessian(np.array([0.0, 0.0])), np.diag([1.0, -1.0])
    )
    np.testing.assert_allclose(
        obj.hessian(np.array([0.0, -1.0])), np.diag([1.0, 2.0])
    )


def test_diagonal_quadratic_values_by_hand():
    obj = DiagonalQuadratic([1.0, -1.0])
    x = np.array([1.0, 1.0])
    assert obj.value(x) == 0.0
    np.testing.assert_allclose(obj.gradient(x), [1.0, -1.0])
    assert obj.lipschitz_bound() == 1.0
    assert DiagonalQuadratic([2.0, -0.5]).lipschitz_bound() == 2.0
    assert obj.lipschitz_global


def test_nesterov_lipschitz_bound_on_default_box():
    # sup over [-2,2]^2 of max(1, |3y^2 - 1|) = 11
    assert NesterovExample().lipschitz_bound() == 11.0
    assert not NesterovExample().lipschitz_global


def test_quartic_hessian_at_origin_is_zero():
    obj = QuarticCopositive(np.eye(2))
    np.testing.assert_allclose(obj.hessian(np.array([0.0, 0.0])), np.zeros((2, 2)))


def test_quartic_zero_matrix_is_constant():
    obj = QuarticCopositive(np.zeros((2, 2)))
    assert obj.lipschitz_bound() == 0.0
    assert obj.value(np.array([0.3, -0.4])) == 0.0


def test_classification_of_known_points():
    assert [p.expected_class for p in NesterovExample().known_critical_points()] == [
        Classification.STRICT_SADDLE,
        Classification.LOCAL_MIN,
        Classification.LOCAL_MIN,
    ]
    (origin,) = DiagonalQuadratic([1.0, -1.0]).known_critical_points()
    assert origin.expected_class is Classification.STRICT_SADDLE
    (origin,) = DiagonalQuadratic([-1.0, -2.0]).known_critical_points()
    assert origin.expected_class is Classification.LOCAL_MAX
    (origin,) = QuarticCopositive(np.eye(2)).known_critical_points()
    assert origin.expected_class is Classification.DEGENERATE


@pytest.mark.parametrize(
    "lambdas",
    [[1.0, 1e-9], [1.0, -1e-9], [1e-9, -1.0], [1.0, -1.0], [1.0, 3.0], [-1.0, -2.0], [0.0, 1.0]],
)
def test_a_quadratic_expects_the_class_that_classify_reports(lambdas):
    from descentlab import classify

    objective = DiagonalQuadratic(lambdas)
    (origin,) = objective.known_critical_points()
    assert origin.expected_class is classify(objective, origin.location).classification


def test_strongly_convex_quadratic_rejects_nonpositive_spectrum():
    with pytest.raises(ContractViolationError):
        StronglyConvexQuadratic([1.0, -1.0])
    assert StronglyConvexQuadratic([1.0, 3.0]).strong_convexity_modulus == 1.0


def test_dimension_mismatch_raises():
    obj = NesterovExample()
    with pytest.raises(ContractViolationError):
        obj.value(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ContractViolationError):
        obj.gradient(np.array([1.0]))


def test_batched_evaluation_matches_single_points():
    obj = NesterovExample()
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2.0, 2.0, size=(50, 2))
    values = obj.value(xs)
    grads = obj.gradient(xs)
    for i, x in enumerate(xs):
        assert values[i] == obj.value(x)
        assert np.all(grads[i] == obj.gradient(x))


@pytest.mark.parametrize(
    "obj",
    zoo_instances()
    + [
        QuarticCopositive([[0.3]]),
        QuarticCopositive(np.arange(9.0).reshape(3, 3) - 4.0),
        QuarticCopositive(np.random.default_rng(9).standard_normal((9, 9))),
        DiagonalQuadratic(np.linspace(-1.0, 1.0, 9)),
    ],
    ids=lambda o: f"{o.name}-d{o.dimension}",
)
def test_batched_hessian_matches_single_points_bitwise(obj):
    rng = np.random.default_rng(11)
    d = obj.dimension
    xs = rng.uniform(-1.0, 1.0, size=(40, d))
    xs[::5] = 0.0
    xs[1::4, 0] = -0.0
    hessians = obj.hessian(xs)
    assert hessians.shape == (40, d, d)
    for x, batched in zip(xs, hessians):
        single = obj.hessian(x)
        assert single.shape == (d, d)
        # byte comparison also tells +0.0 from -0.0
        assert batched.tobytes() == single.tobytes()
        if isinstance(obj, QuarticCopositive):
            m = obj._m
            expected = 2.0 * np.diag(m @ (x * x)) + 4.0 * np.outer(x, x) * m
            assert single.tobytes() == expected.tobytes()


def _point_form_zoo():
    rng = np.random.default_rng(21)
    members = zoo_instances() + [NesterovExample(domain_box=[[-0.5, 0.5], [-3.0, 1.0]])]
    for d in (1, 2, 3, 7, 8, 12):
        members.append(DiagonalQuadratic(rng.uniform(-2.0, 2.0, d)))
        members.append(StronglyConvexQuadratic(rng.uniform(0.1, 2.0, d)))
        # zeros of both signs; a negative first column of M starts the sum from 0.0
        q = rng.standard_normal((d, d)) * np.exp(rng.uniform(-3.0, 3.0, (d, d)))
        q[rng.random((d, d)) < 0.2] = 0.0
        q[0, 0] = -0.0
        members.append(QuarticCopositive(q))
        members.append(QuarticCopositive(np.abs(q)))
        members.append(QuarticCopositive(-np.abs(q)))
    members.append(DiagonalQuadratic([0.0, -0.0, 1e-300]))
    return members


@pytest.mark.parametrize("obj", _point_form_zoo(), ids=lambda o: f"{o.name}-d{o.dimension}")
def test_point_gradient_is_the_one_row_gradient_bitwise(obj):
    rng = np.random.default_rng(31 + obj.dimension)
    d, lo, hi = obj.dimension, obj.domain_box[:, 0], obj.domain_box[:, 1]
    inside = lo + rng.random((30, d)) * (hi - lo)
    beyond = rng.standard_normal((30, d)) * np.exp(rng.uniform(-30.0, 30.0, (30, d)))
    big = np.finfo(float).max
    # the engine steps on past an overflowed iterate to the end of its block
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e155, -1e155, 1e200, -1e200, big, -big, 1.0,
                         np.inf, -np.inf, np.nan])
    edges = rng.choice(specials, (30, d))
    signed_zeros = np.where(rng.random((30, d)) < 0.5, 0.0, -0.0)
    points = np.concatenate([inside, beyond, edges, signed_zeros, inside * (rng.random((30, d)) < 0.5)])
    overflowed = 0
    with np.errstate(all="ignore"):
        for x in points:
            want = obj._gradient(x[None])[0]
            got = obj._point_gradient(x.tolist())
            assert isinstance(got, list) and all(type(g) is float for g in got)
            got = np.array(got)
            # NaN at the same entries; which NaN an operation on two NaNs
            # returns is not fixed (it changes under sys.settrace)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), x
            # byte comparison also tells +0.0 from -0.0
            assert got[~nan].tobytes() == want[~nan].tobytes(), x
            overflowed += np.all(np.isfinite(x)) and not np.all(np.isfinite(want))
    # lambda_i * x_i overflows only where |lambda_i| > 1
    assert overflowed > 0 or isinstance(obj, DiagonalQuadratic) and max(abs(obj.lambdas)) <= 1.0


def test_contains_handles_single_and_batch():
    obj = QuarticCopositive(np.eye(2))
    assert obj.contains(np.array([0.5, -0.5]))
    assert not obj.contains(np.array([1.5, 0.0]))
    flags = obj.contains(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert flags.tolist() == [True, False]


def test_registry_round_trip():
    obj = make_objective("diagonal_quadratic", [1.0, -1.0])
    again = objective_from_dict(obj.to_dict())
    assert again.name == obj.name
    assert again.params == obj.params
    np.testing.assert_allclose(again.domain_box, obj.domain_box)


def test_parse_objective_forms():
    assert parse_objective("nesterov").name == "nesterov_example"
    obj = parse_objective("strongly_convex_quadratic:[1,3]")
    assert obj.params == [1.0, 3.0]
    quartic = parse_objective("quartic:[[0.25]]")
    assert quartic.dimension == 1
    with pytest.raises(ContractViolationError):
        parse_objective("no_such_function")
    with pytest.raises(ContractViolationError):
        parse_objective("nesterov:[not json")


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_objective("quartic:[[1,2],[3]]"),
        lambda: parse_objective('diagonal_quadratic:{"a":1}'),
        lambda: parse_objective('diagonal_quadratic:"abc"'),
        lambda: DiagonalQuadratic([1.0, True]),
        lambda: QuarticCopositive(np.array([[True]])),
        lambda: NesterovExample(domain_box=[["a", 1], [0, 1]]),
        lambda: DiagonalQuadratic([1.0], domain_box={"lo": 0}),
        lambda: objective_from_dict({}),
        lambda: objective_from_dict(["nesterov"]),
        lambda: objective_from_dict({"name": ["nesterov"]}),
        lambda: make_objective("nesterov", np.array([1.0])),
        lambda: make_objective("nesterov", {}),
    ],
)
def test_malformed_parameters_and_boxes_are_contract_violations(build):
    with pytest.raises(ContractViolationError):
        build()


def test_nesterov_is_built_on_its_box_by_name():
    obj = make_objective("nesterov", None, [[0.0, 1.0], [-1.0, 1.0]])
    assert isinstance(obj, NesterovExample)
    assert obj.domain_box.tolist() == [[0.0, 1.0], [-1.0, 1.0]]
    assert objective_from_dict(obj.to_dict()).domain_box.tolist() == obj.domain_box.tolist()
    with pytest.raises(ContractViolationError):
        make_objective("nesterov", [1.0])


@settings(max_examples=50, deadline=None)
@given(
    lambdas=st.lists(
        st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
        min_size=1,
        max_size=6,
    ),
    scale=st.floats(min_value=-1.5, max_value=1.5),
)
def test_diagonal_quadratic_identities(lambdas, scale):
    """f(x) = sum of lambda_i x_i^2 / 2 and grad = lambda * x, any spectrum."""
    obj = DiagonalQuadratic(lambdas)
    x = scale * np.ones(len(lambdas))
    lam = np.array(lambdas)
    assert obj.value(x) == pytest.approx(0.5 * float(np.sum(lam * x * x)), rel=1e-12)
    np.testing.assert_allclose(obj.gradient(x), lam * x, rtol=1e-12)
    assert obj.lipschitz_bound() == pytest.approx(float(np.max(np.abs(lam))))


def test_every_zoo_constructor_carries_the_finite_certificate():
    from descentlab import Objective
    from descentlab.zoo import _CONSTRUCTORS

    params = {"diagonal_quadratic": [1.0, -1.0], "strongly_convex_quadratic": [1.0, 2.0],
              "nesterov_example": None, "quartic_copositive": [[1.0, -0.5], [0.25, 2.0]]}
    assert set(params) == set(_CONSTRUCTORS)
    assert Objective.finite_on_box is False
    for name, param in params.items():
        assert make_objective(name, param).finite_on_box is True


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _largest_accepted(build, lo: float, hi: float) -> float:
    """The largest positive double s with build(s) accepted, by bisection
    on the doubles between an accepted ``lo`` and a refused ``hi``."""
    build(lo)
    with pytest.raises(ContractViolationError, match="too large for float arithmetic"):
        build(hi)
    lo_bits, hi_bits = _bits(lo), _bits(hi)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        try:
            build(_double(mid))
            lo_bits = mid
        except ContractViolationError:
            hi_bits = mid
    return _double(lo_bits)


EDGES = {
    # the values overflow before the gradients do
    "quadratic-flat-on-a-huge-box": (
        lambda s: DiagonalQuadratic([1e-150, -1e-150], domain_box=[[-s, s], [-1.0, s]]), 1e300),
    "quadratic-steep": (lambda s: DiagonalQuadratic([s, -1.0]), 1e308),
    "nesterov-on-a-huge-box": (lambda s: NesterovExample([[-s, s], [-s, s]]), 1e100),
    "nesterov-wide-in-x": (lambda s: NesterovExample([[-s, s], [-1.0, 1.0]]), 1e300),
    "quartic-steep": (lambda s: QuarticCopositive([[s]]), 1e308),
    "quartic-on-a-huge-box": (lambda s: QuarticCopositive(np.eye(2), [[-s, s], [-1.0, 1.0]]), 1e300),
    # M = Q + Q^T = 0, so L = 0 however large Q is
    "quartic-antisymmetric": (lambda s: QuarticCopositive([[0.0, s], [-s, 0.0]]), 1.7e308),
    "quartic-antisymmetric-on-a-huge-box": (
        lambda s: QuarticCopositive([[0.0, 1.0], [-1.0, 0.0]], [[-s, s], [-s, s]]), 1e300),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_objectives_at_the_edge_of_refusal_are_finite_at_their_box_corners(edge):
    build, refused = EDGES[edge]
    obj = build(_largest_accepted(build, 1.0, refused))
    assert obj.finite_on_box
    corners = np.array(list(itertools.product(*obj.domain_box)))
    assert np.all(np.isfinite(obj.value(corners)))
    assert np.all(np.isfinite(obj.gradient(corners)))
