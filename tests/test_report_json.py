"""The reports' ``to_dict``: the same JSON text as field-by-field serializers.

Each report's ``to_dict`` goes through ``fileio.plain``.  The oracles below
write every field out by hand, with its own ``float``, ``int``,
``.tolist()`` or ``.value``; on every report built here the two must give
the same ``json.dumps`` text, key order and number forms included.
"""

import json

import numpy as np
import pytest

from descentlab import (
    Classification,
    CriticalPointRecord,
    DiagonalQuadratic,
    GradientMap,
    InjectivityReport,
    NesterovExample,
    PathLengthReport,
    QuarticCopositive,
    RateFit,
    StopPolicy,
    StronglyConvexQuadratic,
    check_lojasiewicz,
    find_critical_points,
    fit_linear_rate,
    fit_power_rate,
    injectivity_margin_check,
    invert,
    monte_carlo,
    path_length_check,
    roundtrip_check,
    run,
    run_many,
    sample_local_stable_set,
)
from descentlab.engine import DEFAULT_POLICY
from descentlab.experiments import MonteCarloReport
from descentlab.fileio import Record, plain
from descentlab.zoo import DEGENERACY_TOL


def record_oracle(r):
    return {
        "location": [float(v) for v in r.location],
        "grad_norm": float(r.grad_norm),
        "hessian_eigenvalues": [float(v) for v in r.hessian_eigenvalues],
        "hessian_eigenvectors": r.hessian_eigenvectors.tolist(),
        "classification": r.classification.value,
        "is_strict_saddle": r.is_strict_saddle,
        "is_degenerate": r.is_degenerate,
        "stable_subspace_basis": r.stable_subspace_basis.tolist(),
        "stable_dimension": int(r.stable_dimension),
        "degeneracy_tol": float(r.degeneracy_tol),
    }


def monte_carlo_oracle(r):
    return {
        "n_trials": int(r.n_trials),
        "seed": int(r.seed),
        "alpha": float(r.alpha),
        "init_box": [[float(v) for v in row] for row in r.init_box],
        "basin_counts": {str(k): int(v) for k, v in sorted(r.basin_counts.items())},
        "diverged": int(r.diverged),
        "left_box": int(r.left_box),
        "unresolved": int(r.unresolved),
        "saddle_hits": int(r.saddle_hits),
        "critical_points": [
            {
                "index": i,
                "location": [float(v) for v in rec.location],
                "classification": rec.classification.value,
                "is_strict_saddle": rec.is_strict_saddle,
            }
            for i, rec in enumerate(r.records)
        ],
    }


def rate_fit_oracle(r):
    return {
        "regime": r.regime,
        "fitted_b": None if r.fitted_b is None else float(r.fitted_b),
        "fitted_exponent": None if r.fitted_exponent is None else float(r.fitted_exponent),
        "fit_window": [int(r.fit_window[0]), int(r.fit_window[1])],
        "r_squared": float(r.r_squared),
        "n_points": int(r.n_points),
    }


def lojasiewicz_oracle(r):
    return {
        "a": float(r.a),
        "m": float(r.m),
        "epsilon": float(r.epsilon),
        "neighborhood_radius": float(r.neighborhood_radius),
        "n_samples": int(r.n_samples),
        "n_used": int(r.n_used),
        "violations": int(r.violations),
    }


def path_length_oracle(r):
    return {
        "max_ratio": float(r.max_ratio),
        "n_checked": int(r.n_checked),
        "window": [int(r.window[0]), int(r.window[1])],
        "a": float(r.a),
        "m": float(r.m),
        "alpha": float(r.alpha),
        "success": r.success,
    }


def prox_solve_oracle(r):
    return {
        "solution": [float(v) for v in r.solution],
        "residual": float(r.residual),
        "inner_iterations": int(r.inner_iterations),
        "subproblem_modulus": float(r.subproblem_modulus),
    }


def injectivity_oracle(r):
    return {
        "n_pairs": int(r.n_pairs),
        "n_used": int(r.n_used),
        "min_ratio": float(r.min_ratio),
        "threshold": float(r.threshold),
        "violations": int(r.violations),
    }


def roundtrip_oracle(r):
    return {
        "n_samples": int(r.n_samples),
        "max_forward_residual": float(r.max_forward_residual),
        "max_backward_residual": float(r.max_backward_residual),
        "tol": float(r.tol),
    }


def same_json(report, oracle):
    new = report.to_dict()
    assert json.dumps(new, indent=2) == json.dumps(oracle(report), indent=2)
    return new


OBJECTIVES = [
    NesterovExample(),
    DiagonalQuadratic([1.0, -1.0, 0.5]),
    QuarticCopositive([[1.0, 0.5], [0.5, 2.0]]),
]


@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.name)
def test_critical_point_records(objective):
    records = find_critical_points(objective, seed=5)
    assert records
    for record in records:
        same_json(record, record_oracle)


def test_a_record_with_a_two_column_basis():
    minimum = [r for r in find_critical_points(NesterovExample(), seed=1)
               if r.classification is Classification.LOCAL_MIN][0]
    assert minimum.stable_subspace_basis.shape == (2, 2)
    assert same_json(minimum, record_oracle)["stable_subspace_basis"] == [[1.0, 0.0], [0.0, 1.0]]


def test_a_record_built_from_numpy_scalars():
    record = CriticalPointRecord(
        location=np.array([0.0, -0.0]),
        grad_norm=np.float64(0.0),
        hessian_eigenvalues=np.array([-1.0, 2.0]),
        hessian_eigenvectors=np.eye(2),
        classification=Classification.STRICT_SADDLE,
        is_strict_saddle=True,
        is_degenerate=False,
        stable_subspace_basis=np.eye(2)[:, 1:],
        stable_dimension=np.int64(1),
    )
    same_json(record, record_oracle)


@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.name)
def test_monte_carlo_reports(objective):
    gmap = GradientMap(objective, 0.5 / objective.lipschitz_bound())
    report = monte_carlo(objective, gmap.alpha, 40, seed=9)
    same_json(report, monte_carlo_oracle)


def test_a_monte_carlo_report_from_an_integer_step_and_a_numpy_seed():
    quad = DiagonalQuadratic([0.5, -0.25])
    report = monte_carlo(quad, 1, np.int64(12), seed=np.int64(3))
    assert same_json(report, monte_carlo_oracle)["alpha"] == 1.0


def test_rate_fits_of_both_regimes_and_with_none_fields():
    quad = StronglyConvexQuadratic([1.0, 3.0])
    traj = run(GradientMap(quad, 0.3), np.array([1.0, 1.0]))
    linear = fit_linear_rate(traj, np.zeros(2))
    power = fit_power_rate(traj, np.zeros(2))
    assert linear.fitted_exponent is None and power.fitted_b is None
    for fit in (linear, power):
        same_json(fit, rate_fit_oracle)
    empty = RateFit("Power", None, None, (np.int64(0), 0), np.float64(0.5), 0)
    assert same_json(empty, rate_fit_oracle)["fitted_b"] is None


def test_lojasiewicz_certificates():
    quad = DiagonalQuadratic([1.0, 2.0])
    same_json(check_lojasiewicz(quad, [0.0, 0.0], a=0.5, m=1.0, radius=0.5), lojasiewicz_oracle)
    # integer arguments give the same text as their floats
    same_json(check_lojasiewicz(quad, [0.0, 0.0], a=0, m=1, radius=1), lojasiewicz_oracle)


def test_path_length_reports():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([1.0, 1.0]))
    same_json(path_length_check(traj, a=0.5, m=np.sqrt(2.0)), path_length_oracle)
    same_json(path_length_check(traj, a=0.5, m=2, alpha=1), path_length_oracle)


def test_a_path_length_report_with_nothing_checked():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([0.0, 0.0]))
    report = path_length_check(traj, a=0.5, m=1.0)
    assert report.n_checked == 0
    assert same_json(report, path_length_oracle)["success"] is True


def test_prox_solve_reports():
    gmap = GradientMap(NesterovExample(), 0.05)
    same_json(invert(gmap, np.array([0.5, 1.5])), prox_solve_oracle)
    same_json(invert(GradientMap(QuarticCopositive([[0.25]]), 0.1), [0.1]), prox_solve_oracle)


@pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: o.name)
def test_injectivity_and_roundtrip_reports(objective):
    gmap = GradientMap(objective, 0.5 / objective.lipschitz_bound())
    same_json(injectivity_margin_check(gmap, 50, seed=4), injectivity_oracle)
    same_json(roundtrip_check(gmap, 20, seed=4), roundtrip_oracle)
    same_json(roundtrip_check(gmap, 5, seed=4, tol=1), roundtrip_oracle)


def test_an_injectivity_report_with_no_pair_used():
    report = InjectivityReport(np.int64(1), 0, float("inf"), 0.5, 0)
    assert same_json(report, injectivity_oracle)["min_ratio"] == float("inf")


def test_a_path_length_report_built_by_hand():
    report = PathLengthReport(0.25, 3, (np.int64(2), np.int64(9)), 0.5, 1.5, 0.1)
    same_json(report, path_length_oracle)


# The JSON keys of every record, in order: ``to_dict`` where the record has
# one, else ``plain``.  Written down from the records as they were defined
# with the dataclass decorator.
RECORD_KEYS = {
    "CriticalPointRecord": ["location", "grad_norm", "hessian_eigenvalues",
                            "hessian_eigenvectors", "classification", "is_strict_saddle",
                            "is_degenerate", "stable_subspace_basis", "stable_dimension",
                            "degeneracy_tol"],
    "MonteCarloReport": ["n_trials", "seed", "alpha", "init_box", "basin_counts", "diverged",
                         "left_box", "unresolved", "saddle_hits", "critical_points"],
    "RateFit": ["regime", "fitted_b", "fitted_exponent", "fit_window", "r_squared", "n_points"],
    "LojasiewiczCertificate": ["a", "m", "epsilon", "neighborhood_radius", "n_samples",
                               "n_used", "violations"],
    "PathLengthReport": ["max_ratio", "n_checked", "window", "a", "m", "alpha", "success"],
    "ProxSolveReport": ["solution", "residual", "inner_iterations", "subproblem_modulus"],
    "InjectivityReport": ["n_pairs", "n_used", "min_ratio", "threshold", "violations"],
    "RoundTripReport": ["n_samples", "max_forward_residual", "max_backward_residual", "tol"],
    "KnownCriticalPoint": ["location", "expected_class"],
    "StopPolicy": ["tol", "divergence_radius", "max_iters"],
    "Trajectory": ["iterates", "f_values", "grad_norms", "stop_reason", "alpha"],
    "BatchResult": ["final_x", "final_f", "final_grad_norm", "iterations", "stop_reasons"],
    "StableSetSample": ["center", "points", "converged", "grid_spacing",
                        "max_subspace_distance"],
}


@pytest.fixture
def records():
    """One record of every kind, each from the library call that makes it."""
    nesterov = NesterovExample()
    gmap = GradientMap(nesterov, 0.09)
    found = find_critical_points(nesterov, seed=0)
    saddle = next(record for record in found if record.is_strict_saddle)
    quad = StronglyConvexQuadratic([1.0, 3.0])
    traj = run(GradientMap(quad, 0.3), np.array([1.0, 1.0]))
    return [
        found[0],
        monte_carlo(nesterov, 0.09, 5, seed=0, records=found),
        fit_linear_rate(traj, np.zeros(2)),
        check_lojasiewicz(quad, [0.0, 0.0], a=0.5, m=1.0, radius=0.5, n_samples=10),
        path_length_check(traj, a=0.5, m=1.0),
        invert(gmap, [0.1, 0.1]),
        injectivity_margin_check(gmap, 10),
        roundtrip_check(gmap, 5),
        nesterov.known_critical_points()[0],
        StopPolicy(),
        traj,
        run_many(gmap, [[0.1, 0.2]]),
        sample_local_stable_set(gmap, saddle, radius=0.1, grid=3),
    ]


def test_every_record_keeps_its_json_keys_in_order(records):
    assert sorted(type(record).__name__ for record in records) == sorted(RECORD_KEYS)
    for record in records:
        keys = RECORD_KEYS[type(record).__name__]
        assert list(record.to_dict() if hasattr(record, "to_dict") else plain(record)) == keys
        assert list(plain(record)) == list(type(record).__slots__)


def test_a_stop_policy_is_immutable_and_every_other_record_is_not(records):
    # DEFAULT_POLICY is shared by every caller, so no caller may change it
    for name in StopPolicy.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(DEFAULT_POLICY, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(DEFAULT_POLICY, name)
    assert (DEFAULT_POLICY.tol, DEFAULT_POLICY.divergence_radius,
            DEFAULT_POLICY.max_iters) == (1e-10, 1e6, 100_000)
    for record in records:
        if isinstance(record, StopPolicy):
            continue
        name = type(record).__slots__[0]
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"
        # a record has its fields and no others
        with pytest.raises(AttributeError):
            record.not_a_field = 0


# Every record is a ``fileio.Record``: its constructor binds positional
# arguments, then keywords, to ``__slots__`` in order, filling what is not
# given from ``_defaults``.

def _fields(record):
    return [getattr(record, name) for name in type(record).__slots__]


def _text(record):
    return json.dumps(plain(record))


def test_every_record_builds_the_same_by_position_and_by_keyword(records):
    for record in records:
        cls = type(record)
        assert isinstance(record, Record)
        fields = _fields(record)
        by_position = cls(*fields)
        by_keyword = cls(**dict(zip(cls.__slots__, fields)))
        assert _text(by_position) == _text(by_keyword) == _text(record), cls.__name__


def test_every_record_refuses_arguments_that_bind_no_field_or_one_twice(records):
    for record in records:
        cls = type(record)
        fields = _fields(record)
        with pytest.raises(TypeError, match="positional"):
            cls(*fields, 0)
        with pytest.raises(TypeError, match="no field 'not_a_field'"):
            cls(*fields, not_a_field=0)
        with pytest.raises(TypeError, match="twice"):
            cls(*fields, **{cls.__slots__[0]: fields[0]})


def test_every_record_needs_each_field_without_a_default(records):
    assert set(StopPolicy._defaults) == set(StopPolicy.__slots__)
    for record in records:
        cls = type(record)
        given = dict(zip(cls.__slots__, _fields(record)))
        for name in cls.__slots__:
            if name in cls._defaults:
                continue
            with pytest.raises(TypeError, match=f"missing field {name!r}"):
                cls(**{key: value for key, value in given.items() if key != name})


def test_a_record_built_without_its_tolerance_gets_the_default():
    record = CriticalPointRecord(np.zeros(2), 0.0, np.array([-1.0, 2.0]), np.eye(2),
                                 Classification.STRICT_SADDLE, True, False, np.eye(2)[:, 1:], 1)
    assert record.degeneracy_tol == DEGENERACY_TOL


def test_monte_carlo_reports_built_without_lists_get_new_empty_ones():
    first, second = (MonteCarloReport(1, 0, 0.1, np.zeros((2, 2)), {}, 0, 0, 1, 0)
                     for _ in range(2))
    for report in (first, second):
        assert report.records == [] and report.trial_labels == []
        assert report.trial_x0 is report.trial_iterations is report.trial_final_grad_norm is None
    assert first.records is not second.records
    assert first.trial_labels is not second.trial_labels


def test_every_record_writes_its_fields_but_two_that_add_keys(records):
    for record in records:
        if isinstance(record, (MonteCarloReport, PathLengthReport)):
            assert record.to_dict() != plain(record)
        else:
            assert _text(record.to_dict()) == _text(record), type(record).__name__
