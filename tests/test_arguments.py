"""Every scalar, count, array and box argument of the library goes through
one rule of its kind, before any work.

The rules: a real number (NaN refused, optionally non-negative or
positive), a count (an integer, not a boolean, at least 0 or 1), an array
(finite numbers of a shape), a box (an array of [lo, hi] rows with
lo < hi), a record (a ``CriticalPointRecord`` located at a point of the
objective's dimension) and a stop policy (a ``StopPolicy``, or None for
``DEFAULT_POLICY``).  For each scalar, count and box parameter the first table below
feeds NaN, both booleans, a string, None (where None is not the default) and a
value of the wrong sign or range (and, to a count, a fraction), or a box
with lo > hi; for each array parameter the second table feeds NaN, inf,
booleans, strings, None, a ragged list and a wrong shape; for each record parameter the third table
feeds records of another dimension and things that are not records; the
last table feeds every ``policy`` parameter things that are not policies.  Each
is refused with a contract violation that
names the parameter, while the critical-point search, the stepping loop
and the batched inversion are patched to fail if they are reached.  The
tolerances and budgets of the solvers and checks are module constants: a
table of the keywords that once set them checks that each is now an
unknown keyword.
"""

import inspect
import re

import numpy as np
import pytest

from descentlab import (
    ContractViolationError,
    DiagonalQuadratic,
    GradientMap,
    NesterovExample,
    QuarticCopositive,
    StopPolicy,
    alpha_from_theta,
    assign_basin,
    best_rate_fit,
    check_lojasiewicz,
    classify,
    find_critical_points,
    fit_linear_rate,
    fit_power_rate,
    injectivity_margin_check,
    invert,
    monte_carlo,
    path_length_check,
    rate_fits,
    roundtrip_check,
    run,
    run_many,
    sample_local_stable_set,
    stable_subspace,
)
from descentlab import critical, engine, experiments, inverse
from descentlab.critical import grid_spacing
from descentlab.engine import DEFAULT_POLICY, closed_form_quadratic, descent_violations
from descentlab.errors import _check_real
from descentlab.fileio import plain
from descentlab.jacobi import eigh_jacobi, off_diagonal_norm

OBJECTIVE = NesterovExample()
GMAP = GradientMap(OBJECTIVE, 0.09)
TRAJ = run(GMAP, [0.5, 0.5])
RECORDS = find_critical_points(OBJECTIVE)
SADDLE = next(record for record in RECORDS if record.is_strict_saddle)
MATRIX = np.array([[2.0, 1.0], [1.0, 3.0]])
STABLE_SET = {"gmap": GMAP, "record": SADDLE, "radius": 0.1, "grid": 5}
CENSUS = {"objective": OBJECTIVE, "alpha": 0.09, "n_trials": 10, "seed": 0}
CERTIFICATE = {"objective": OBJECTIVE, "x_star": [0.0, 1.0], "a": 0.5, "m": 0.1, "radius": 0.1}
PATH = {"traj": TRAJ, "a": 0.5, "m": 0.1}

# (function, the other arguments, parameter, a value of the wrong sign or
# range, or None where the rule takes any sign)
PARAMETERS = [
    (StopPolicy, {}, "tol", -1.0),
    (StopPolicy, {}, "divergence_radius", 0.0),
    (StopPolicy, {}, "max_iters", -1),
    (GradientMap, {"objective": OBJECTIVE}, "alpha", 0.0),
    (alpha_from_theta, {"objective": OBJECTIVE}, "theta", 1.0),
    (closed_form_quadratic, {"lambdas": [1.0], "alpha": 0.5, "x0": [1.0], "k": 2}, "alpha", None),
    (closed_form_quadratic, {"lambdas": [1.0], "alpha": 0.5, "x0": [1.0], "k": 2}, "k", -1),
    (find_critical_points, {"objective": OBJECTIVE}, "n_seeds", 0),
    (find_critical_points, {"objective": OBJECTIVE}, "seed", -1),
    (grid_spacing, {"radius": 0.1, "grid": 5}, "radius", -1.0),
    (grid_spacing, {"radius": 0.1, "grid": 5}, "grid", 0),
    (sample_local_stable_set, STABLE_SET, "radius", -1.0),
    (sample_local_stable_set, STABLE_SET, "grid", 0),
    (invert, {"gmap": GMAP, "y": [0.1, 0.1]}, "tol", -1.0),
    (roundtrip_check, {"gmap": GMAP, "n_samples": 10}, "n_samples", 0),
    (roundtrip_check, {"gmap": GMAP, "n_samples": 10}, "seed", -1),
    (injectivity_margin_check, {"gmap": GMAP, "n_pairs": 10}, "n_pairs", 0),
    (injectivity_margin_check, {"gmap": GMAP, "n_pairs": 10}, "seed", -1),
    (monte_carlo, CENSUS, "alpha", 0.0),
    (monte_carlo, CENSUS, "n_trials", 0),
    (monte_carlo, CENSUS, "seed", -1),
    (monte_carlo, CENSUS, "n_jobs", 0),
    (monte_carlo, CENSUS, "init_box", [[1.0, 0.0], [0.0, 1.0]]),
    (check_lojasiewicz, CERTIFICATE, "a", -0.5),
    (check_lojasiewicz, CERTIFICATE, "m", -1.0),
    (check_lojasiewicz, CERTIFICATE, "radius", 0.0),
    (check_lojasiewicz, CERTIFICATE, "n_samples", 0),
    (check_lojasiewicz, CERTIFICATE, "seed", -1),
    (path_length_check, PATH, "a", -0.5),
    (path_length_check, PATH, "m", 0.0),
    (path_length_check, PATH, "alpha", 0.0),
    (path_length_check, PATH, "f_star", None),
    (path_length_check, {**PATH, "x_star": TRAJ.final_x}, "radius", -1.0),
]
# None is the default of these, not a bad value
OPTIONAL = {(monte_carlo, "init_box"), (path_length_check, "alpha"),
            (path_length_check, "f_star"), (path_length_check, "radius"),
            (invert, "x0"), (path_length_check, "x_star")}
# more bad values of some parameters: an infinite radius where the ball
# must be finite, another fractional count, and ragged or NaN boxes
MORE = {
    (check_lojasiewicz, "radius"): [float("inf")],
    (monte_carlo, "n_jobs"): [1.5],
    (monte_carlo, "init_box"): [[[0.0, 1.0], [0.0]], [[0.0, float("nan")], [0.0, 1.0]]],
}


def _cases():
    for func, fixed, name, wrong in PARAMETERS:
        bad = [float("nan"), True, False, "x"]
        if (func, name) not in OPTIONAL:
            bad.append(None)
        if wrong is not None:
            bad.append(wrong)
        if type(wrong) is int:
            # a count: a fraction is refused too
            bad.append(2.5)
        for value in bad + MORE.get((func, name), []):
            yield pytest.param(func, fixed, name, value, id=f"{func.__name__}-{name}-{value!r}")


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the argument was checked")


@pytest.mark.parametrize("func, fixed, name, value", _cases())
def test_every_argument_is_refused_by_its_rule_before_any_work(
    func, fixed, name, value, monkeypatch
):
    monkeypatch.setattr(experiments, "find_critical_points", _no_work)
    monkeypatch.setattr(critical, "_newton_roots", _no_work)
    monkeypatch.setattr(critical, "run_many", _no_work)
    monkeypatch.setattr(inverse, "_invert_batch", _no_work)
    with pytest.raises(ContractViolationError) as refused:
        func(**{**fixed, name: value})
    # one of the rules' messages, naming the parameter (the range of ``a``
    # says "exponent a")
    assert re.match(rf"(exponent )?{name}( intervals)? must ", str(refused.value))


@pytest.mark.parametrize(
    "func, fixed, name, wrong",
    [pytest.param(*p, id=f"{p[0].__name__}-{p[2]}") for p in PARAMETERS
     if isinstance(p[3], (int, float)) and p[2] not in ("theta", "a")],
)
def test_a_wrong_sign_is_refused_in_the_shared_wording(func, fixed, name, wrong):
    with pytest.raises(ContractViolationError) as refused:
        func(**{**fixed, name: wrong})
    if isinstance(wrong, int):
        expected = {f"{name} must be a non-negative integer, got {wrong!r}",
                    f"{name} must be at least 1"}
    else:
        expected = {f"{name} must be {sign}, got {wrong!r}"
                    for sign in ("non-negative", "positive")}
    assert str(refused.value) in expected


# (function, the other arguments, a keyword it no longer takes): each
# tolerance or budget of these is a module constant, read at call time
REMOVED = [
    (find_critical_points, {"objective": OBJECTIVE}, "tol"),
    (find_critical_points, {"objective": OBJECTIVE}, "degeneracy_tol"),
    (find_critical_points, {"objective": OBJECTIVE}, "dedup_tol"),
    (classify, {"objective": OBJECTIVE, "x": SADDLE.location}, "degeneracy_tol"),
    (classify, {"objective": OBJECTIVE, "x": SADDLE.location}, "grad_tol"),
    (eigh_jacobi, {"a": MATRIX}, "tol"),
    (eigh_jacobi, {"a": MATRIX}, "max_sweeps"),
    (invert, {"gmap": GMAP, "y": [0.1, 0.1]}, "max_inner"),
    (roundtrip_check, {"gmap": GMAP, "n_samples": 10}, "tol"),
    (descent_violations, {"traj": TRAJ, "objective": OBJECTIVE}, "slack"),
]


@pytest.mark.parametrize("func, fixed, name",
                         [pytest.param(*p, id=f"{p[0].__name__}-{p[2]}") for p in REMOVED])
def test_a_removed_knob_is_an_unknown_keyword(func, fixed, name):
    assert name not in inspect.signature(func).parameters
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        func(**fixed, **{name: 1e-6})
    func(**fixed)  # so the keyword alone is what is refused


def test_the_real_rule_knows_its_signs():
    with pytest.raises(ValueError, match="unknown sign"):
        _check_real(1.0, "tol", "positiv")


CLOSED_FORM = {"lambdas": [1.0, -1.0], "alpha": 0.5, "x0": [1.0, 0.0], "k": 2}
# a global certificate, so no domain-box test stands in for the rule
QUADRATIC = GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5)
# (function, the other arguments, parameter, a valid value as nested lists)
ARRAYS = [
    (run, {"gmap": QUADRATIC}, "x0", [0.5, 0.5]),
    (run_many, {"gmap": QUADRATIC}, "x0s", [[0.5, 0.5], [0.1, 0.2]]),
    (closed_form_quadratic, CLOSED_FORM, "lambdas", [1.0, -1.0]),
    (closed_form_quadratic, CLOSED_FORM, "x0", [1.0, 0.0]),
    (eigh_jacobi, {}, "a", MATRIX.tolist()),
    (off_diagonal_norm, {}, "a", MATRIX.tolist()),
    (DiagonalQuadratic, {}, "lambdas", [1.0, -1.0]),
    (QuarticCopositive, {}, "q", [[1.0, 0.0], [0.0, 1.0]]),
    (invert, {"gmap": GMAP}, "y", [0.1, 0.1]),
    (invert, {"gmap": GMAP, "y": [0.1, 0.1]}, "x0", [0.1, 0.1]),
    (classify, {"objective": OBJECTIVE}, "x", [0.0, 0.0]),
    (fit_linear_rate, {"traj": TRAJ}, "x_star", TRAJ.final_x.tolist()),
    (fit_power_rate, {"traj": TRAJ}, "x_star", TRAJ.final_x.tolist()),
    (rate_fits, {"traj": TRAJ}, "x_star", TRAJ.final_x.tolist()),
    (best_rate_fit, {"traj": TRAJ}, "x_star", TRAJ.final_x.tolist()),
    (check_lojasiewicz, CERTIFICATE, "x_star", [0.0, 1.0]),
    (path_length_check, {**PATH, "radius": 0.1}, "x_star", [0.0, 1.0]),
]
# more bad values of some arrays: a wrong size where the size is fixed,
# and no entries at all where the objective needs a dimension
MORE_ARRAYS = {
    (run, "x0"): [[0.5, 0.5, 0.5]],
    (run_many, "x0s"): [[[0.5, 0.5, 0.5]], [0.5, 0.5], [[0.1, 0.2], ["1", "2"]]],
    (closed_form_quadratic, "x0"): [[1.0]],
    (eigh_jacobi, "a"): [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
    (off_diagonal_norm, "a"): [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0]],
    (DiagonalQuadratic, "lambdas"): [[], 1.0],
    (QuarticCopositive, "q"): [np.zeros((0, 0)), [[1.0, 0.0]], [0.25]],
    (invert, "y"): [[0.1]],
    (classify, "x"): [[0.0, 0.0, 0.0]],
}


def _replace_first(value, entry):
    """``value`` (nested lists) with its first number set to ``entry``."""
    if isinstance(value, list):
        return [_replace_first(value[0], entry), *value[1:]]
    return entry


def _array_cases():
    for func, fixed, name, good in ARRAYS:
        booleans = np.vectorize(lambda v: v > 0)(good).tolist()
        bad = [
            _replace_first(good, float("nan")),
            _replace_first(good, float("inf")),
            _replace_first(good, -float("inf")),
            booleans,
            np.array(booleans),
            np.array(good).astype(str).tolist(),
            np.array(booleans, dtype=object),
            _replace_first(good, np.True_),
            np.array(good).astype(str).astype(object),
            "x",
            [[0.0], [0.0, 0.0]],
            [good],
        ]
        if (func, name) not in OPTIONAL:
            bad.append(None)
        for value in bad + MORE_ARRAYS.get((func, name), []):
            yield pytest.param(func, fixed, name, value, id=f"{func.__name__}-{name}-{value!r}")


@pytest.mark.parametrize("func, fixed, name, value", _array_cases())
def test_every_array_argument_is_refused_by_its_rule_before_any_work(
    func, fixed, name, value, monkeypatch
):
    monkeypatch.setattr(engine, "_descend", _no_work)
    monkeypatch.setattr(critical, "_newton_roots", _no_work)
    monkeypatch.setattr(inverse, "_invert_batch", _no_work)
    with pytest.raises(ContractViolationError) as refused:
        func(**{**fixed, name: value})
    # one of the array rule's messages, naming the parameter (Q for q)
    assert re.match(rf"{name} must (be numbers, got |have shape \(|be finite$|not be empty$)",
                    str(refused.value), re.IGNORECASE)


@pytest.mark.parametrize("func, fixed, name, good",
                         [pytest.param(*p, id=f"{p[0].__name__}-{p[2]}") for p in ARRAYS])
def test_every_array_table_entry_is_valid(func, fixed, name, good):
    # so the bad values above are bad for the reason they name
    func(**{**fixed, name: good})


# records of a 3-D objective, for the 2-D Nesterov example
RECORDS_3D = find_critical_points(DiagonalQuadratic([1.0, -1.0, 2.0]))
MAP_3D = GradientMap(DiagonalQuadratic([1.0, -1.0, 2.0]), 0.1)
NOT_RECORDS = [RECORDS_3D, [RECORDS_3D[0]], [SADDLE, RECORDS_3D[0]], [1, 2], "x", 5, SADDLE,
               [SADDLE.location]]
NOT_A_RECORD = [RECORDS_3D[0], [SADDLE], 1, "x", None, SADDLE.location]
# (function, the other arguments, parameter, bad values)
RECORD_ARGUMENTS = [
    (monte_carlo, CENSUS, "records", NOT_RECORDS),
    (assign_basin, {"traj": TRAJ}, "records", NOT_RECORDS + [None]),
    (stable_subspace, {"gmap": GMAP}, "record", NOT_A_RECORD),
    (stable_subspace, {"gmap": MAP_3D}, "record", [SADDLE]),
    (sample_local_stable_set, STABLE_SET, "record", NOT_A_RECORD),
    (sample_local_stable_set, {**STABLE_SET, "gmap": MAP_3D}, "record", [SADDLE]),
]


def _record_cases():
    for func, fixed, name, bad in RECORD_ARGUMENTS:
        for i, value in enumerate(bad):
            dimension = fixed.get("gmap", GMAP).objective.dimension
            yield pytest.param(func, fixed, name, value, dimension,
                               id=f"{func.__name__}-{name}-{dimension}d-{i}")


@pytest.mark.parametrize("func, fixed, name, value, dimension", _record_cases())
def test_every_record_argument_is_refused_by_its_rule_before_any_work(
    func, fixed, name, value, dimension, monkeypatch
):
    monkeypatch.setattr(engine, "_descend", _no_work)
    monkeypatch.setattr(experiments, "find_critical_points", _no_work)
    monkeypatch.setattr(critical, "_newton_roots", _no_work)
    with pytest.raises(ContractViolationError) as refused:
        func(**{**fixed, name: value})
    assert str(refused.value) == (
        f"{name} must be of type CriticalPointRecord with location of shape ({dimension},)")


@pytest.mark.parametrize("func, fixed, name, good", [
    (monte_carlo, CENSUS, "records", RECORDS),
    (monte_carlo, CENSUS, "records", tuple(RECORDS)),
    (assign_basin, {"traj": TRAJ}, "records", RECORDS),
    (assign_basin, {"traj": TRAJ}, "records", []),
    (stable_subspace, {"gmap": GMAP}, "record", SADDLE),
    (sample_local_stable_set, STABLE_SET, "record", SADDLE),
])
def test_every_record_table_entry_is_valid(func, fixed, name, good):
    func(**{**fixed, name: good})


# (function, the other arguments): every one takes ``policy``, None meaning
# DEFAULT_POLICY, and refuses anything that is not a StopPolicy
POLICY_ARGUMENTS = [
    (run, {"gmap": GMAP, "x0": [0.5, 0.5]}),
    (run_many, {"gmap": GMAP, "x0s": [[0.5, 0.5], [0.1, 0.2]]}),
    (monte_carlo, CENSUS),
    (sample_local_stable_set, STABLE_SET),
]
NOT_POLICIES = [0, [], "x", 1e-10, False, {"tol": 1e-10}, StopPolicy]


@pytest.mark.parametrize("func, fixed, value", [
    pytest.param(func, fixed, value, id=f"{func.__name__}-{value!r}")
    for func, fixed in POLICY_ARGUMENTS for value in NOT_POLICIES
])
def test_every_policy_argument_is_refused_unless_a_stop_policy_before_any_work(
    func, fixed, value, monkeypatch
):
    monkeypatch.setattr(engine, "_descend", _no_work)
    monkeypatch.setattr(experiments, "find_critical_points", _no_work)
    monkeypatch.setattr(critical, "_newton_roots", _no_work)
    with pytest.raises(ContractViolationError) as refused:
        func(**fixed, policy=value)
    assert str(refused.value) == f"policy must be a StopPolicy or None, got {value!r}"


@pytest.mark.parametrize("func, fixed", [
    pytest.param(func, fixed, id=func.__name__) for func, fixed in POLICY_ARGUMENTS
])
def test_a_policy_of_none_is_the_default_policy(func, fixed):
    assert plain(func(**fixed, policy=None)) == plain(func(**fixed, policy=DEFAULT_POLICY))
