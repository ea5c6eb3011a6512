"""Monte Carlo basin statistics, rate fitting, and gradient-inequality
certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import (
    BasinAmbiguityError,
    BatchResult,
    Classification,
    ContractViolationError,
    DiagonalQuadratic,
    GradientMap,
    InapplicableError,
    InsufficientDataError,
    NesterovExample,
    QuarticCopositive,
    StopPolicy,
    StopReason,
    StronglyConvexQuadratic,
    assign_basin,
    best_rate_fit,
    check_lojasiewicz,
    classify,
    find_critical_points,
    fit_linear_rate,
    fit_power_rate,
    injectivity_margin_check,
    monte_carlo,
    path_length_check,
    rate_fits,
    roundtrip_check,
    run,
)
from descentlab import experiments
from descentlab.experiments import (
    BASIN_TOL,
    LABEL_DIVERGED,
    LABEL_LEFT_BOX,
    LABEL_UNRESOLVED,
    MIN_CHUNK,
)


def _basin_label(final_x, final_grad_norm, stop_reason, records, tol):
    """Per-trial oracle for the batched labelling: a record index or a status."""
    if stop_reason is StopReason.DIVERGED:
        return LABEL_DIVERGED
    if stop_reason is StopReason.LEFT_DOMAIN_BOX:
        return LABEL_LEFT_BOX
    if final_grad_norm > tol:
        return LABEL_UNRESOLVED
    matches = [
        i
        for i, rec in enumerate(records)
        if np.max(np.abs(final_x - rec.location)) <= tol
    ]
    if len(matches) > 1:
        raise BasinAmbiguityError(
            f"final iterate within {tol} of records {matches}; "
            "basin tolerance is wider than the critical-point separation"
        )
    if not matches:
        return LABEL_UNRESOLVED
    return matches[0]


@pytest.fixture(scope="module")
def nesterov_records():
    return find_critical_points(NesterovExample())


def test_assign_basin_to_nearest_minimum(nesterov_records):
    gmap = GradientMap(NesterovExample(), 0.09)
    traj = run(gmap, np.array([1e-12, -1.0 + 1e-12]))
    assert assign_basin(traj, nesterov_records) == 0
    np.testing.assert_allclose(traj.final_x, [0.0, -1.0], atol=1e-9)


def test_assign_basin_status_labels(nesterov_records):
    diverging = run(GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5), np.array([0.3, 0.8]))
    assert assign_basin(diverging, []) == "Diverged"

    truncated = run(
        GradientMap(NesterovExample(), 0.09),
        np.array([0.7, 0.4]),
        StopPolicy(tol=0.0, max_iters=3),
    )
    assert assign_basin(truncated, nesterov_records) == "Unresolved"

    boxed = NesterovExample(domain_box=[[-0.5, 0.5], [-0.5, 0.5]])
    escaped = run(GradientMap(boxed, 0.9), np.array([0.0, 0.4]))
    assert assign_basin(escaped, []) == "LeftBox"


def test_assign_basin_flags_overlapping_records():
    obj = NesterovExample()
    traj = run(GradientMap(obj, 0.09), np.array([0.5, 1e-9]))
    rec = classify(obj, np.array([0.0, 1.0]))
    with pytest.raises(BasinAmbiguityError):
        assign_basin(traj, [rec, rec])


def test_saddle_axis_is_thin(nesterov_records):
    # exactly on the stable axis the iteration lands on the saddle, but any
    # off-axis component, however small, escapes to a minimum
    gmap = GradientMap(NesterovExample(), 0.09)
    on_axis = run(gmap, np.array([0.5, 0.0]))
    label = assign_basin(on_axis, nesterov_records)
    assert nesterov_records[label].classification is Classification.STRICT_SADDLE

    off_axis = run(gmap, np.array([0.5, 1e-9]))
    label = assign_basin(off_axis, nesterov_records)
    assert nesterov_records[label].classification is Classification.LOCAL_MIN
    np.testing.assert_allclose(off_axis.final_x, [0.0, 1.0], atol=1e-9)


def test_monte_carlo_splits_between_the_two_minima(nesterov_records):
    report = monte_carlo(NesterovExample(), 0.09, 200, seed=7, records=nesterov_records)
    assert report.basin_counts == {0: 93, 1: 0, 2: 107}
    assert report.saddle_hits == 0
    assert report.diverged == 0
    assert report.unresolved == 0
    assert sum(report.basin_counts.values()) == 200


def test_monte_carlo_is_identical_for_any_thread_split(nesterov_records):
    serial = monte_carlo(NesterovExample(), 0.09, 200, seed=7, records=nesterov_records)
    threaded = monte_carlo(
        NesterovExample(), 0.09, 200, seed=7, records=nesterov_records, n_jobs=3
    )
    assert serial.to_dict() == threaded.to_dict()
    assert np.array_equal(serial.trial_x0, threaded.trial_x0)
    assert serial.trial_labels == threaded.trial_labels
    assert np.array_equal(serial.trial_iterations, threaded.trial_iterations)
    assert np.array_equal(serial.trial_final_grad_norm, threaded.trial_final_grad_norm)


def test_monte_carlo_threads_split_trials_in_order(nesterov_records, monkeypatch):
    serial = monte_carlo(NesterovExample(), 0.09, 200, seed=7, records=nesterov_records)
    monkeypatch.setattr(experiments, "MIN_CHUNK", 50)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    assert experiments._worker_count(3, 200, experiments.os.cpu_count()) == 3
    threaded = monte_carlo(
        NesterovExample(), 0.09, 200, seed=7, records=nesterov_records, n_jobs=3
    )
    assert serial.to_dict() == threaded.to_dict()
    assert serial.trial_labels == threaded.trial_labels
    assert np.array_equal(serial.trial_iterations, threaded.trial_iterations)
    assert np.array_equal(serial.trial_final_grad_norm, threaded.trial_final_grad_norm)


def test_worker_count_is_capped_by_cores_and_chunk_size():
    # computed only: a pool of this size is never started
    assert experiments._worker_count(100_000, 10_000, 2) == 1
    assert experiments._worker_count(100_000, 10_000, 64) == math.ceil(10_000 / MIN_CHUNK)
    assert experiments._worker_count(100_000, 5 * MIN_CHUNK, 64) == 5
    assert experiments._worker_count(100_000, 5 * MIN_CHUNK, 2) == 2
    assert experiments._worker_count(3, 100 * MIN_CHUNK, 64) == 3
    assert experiments._worker_count(1, 100 * MIN_CHUNK, 64) == 1
    assert experiments._worker_count(4, MIN_CHUNK + 1, 64) == 2


def test_monte_carlo_rejects_n_jobs_below_one(nesterov_records):
    for n_jobs in (0, -3):
        with pytest.raises(ContractViolationError, match="n_jobs"):
            monte_carlo(
                NesterovExample(), 0.09, 10, seed=0, records=nesterov_records, n_jobs=n_jobs
            )


def _batch(rows):
    """A hand-built BatchResult from (final_x, final_grad_norm, stop_reason) rows."""
    return BatchResult(
        final_x=np.array([row[0] for row in rows], dtype=float),
        final_f=np.zeros(len(rows)),
        final_grad_norm=np.array([row[1] for row in rows], dtype=float),
        iterations=np.zeros(len(rows), dtype=np.int64),
        stop_reasons=[row[2] for row in rows],
    )


def _oracle_labels(batch, records, tol):
    return [
        _basin_label(batch.final_x[t], batch.final_grad_norm[t], batch.stop_reasons[t], records, tol)
        for t in range(len(batch.stop_reasons))
    ]


def test_batch_labels_match_the_scalar_oracle(nesterov_records):
    locations = [rec.location for rec in nesterov_records]
    near = 0.5 * BASIN_TOL
    rows = [
        ([5e6, 0.0], 1.0, StopReason.DIVERGED),
        (locations[0], 0.0, StopReason.DIVERGED),
        ([0.0, 2.5], 3.0, StopReason.LEFT_DOMAIN_BOX),
        (locations[2], 0.0, StopReason.LEFT_DOMAIN_BOX),
        (locations[2], 1e-3, StopReason.MAX_ITERS),
        (locations[1], 2.0 * BASIN_TOL, StopReason.MAX_ITERS),
        ([0.5, 0.5], 0.0, StopReason.GRAD_NORM_BELOW_TOL),
        (locations[1] + [2.0 * BASIN_TOL, 0.0], 1e-11, StopReason.GRAD_NORM_BELOW_TOL),
        (locations[0] + [near, -near], 1e-11, StopReason.GRAD_NORM_BELOW_TOL),
        (locations[1] + [0.0, near], 0.0, StopReason.GRAD_NORM_BELOW_TOL),
        (locations[2] - [near, 0.0], BASIN_TOL, StopReason.GRAD_NORM_BELOW_TOL),
        (locations[2], 1e-12, StopReason.MAX_ITERS),
    ]
    batch = _batch(rows)
    table = experiments._label_table(nesterov_records)
    labels = [table[c] for c in experiments._basin_codes(batch, nesterov_records, BASIN_TOL)]
    assert labels == _oracle_labels(batch, nesterov_records, BASIN_TOL)
    assert labels == [
        "Diverged", "Diverged", "LeftBox", "LeftBox", "Unresolved", "Unresolved",
        "Unresolved", "Unresolved", 0, 1, 2, 2,
    ]


def test_batch_labels_raise_on_a_two_record_hit(nesterov_records):
    rec = classify(NesterovExample(), np.array([0.0, 1.0]))
    records = [nesterov_records[0], rec, rec]
    rows = [
        ([0.0, -1.0], 0.0, StopReason.GRAD_NORM_BELOW_TOL),
        ([0.0, 1.0], 0.0, StopReason.DIVERGED),
        ([0.0, 1.0], 0.0, StopReason.GRAD_NORM_BELOW_TOL),
    ]
    batch = _batch(rows)
    assert _oracle_labels(_batch(rows[:2]), records, BASIN_TOL) == [0, "Diverged"]
    with pytest.raises(BasinAmbiguityError) as vectorised:
        experiments._basin_codes(batch, records, BASIN_TOL)
    with pytest.raises(BasinAmbiguityError) as scalar:
        _oracle_labels(batch, records, BASIN_TOL)
    assert str(vectorised.value) == str(scalar.value)


def test_monte_carlo_respects_init_box(nesterov_records):
    report = monte_carlo(
        NesterovExample(),
        0.09,
        50,
        seed=1,
        init_box=[[0.1, 0.2], [0.1, 0.2]],
        records=nesterov_records,
    )
    # every start has y > 0, so everything drains to the (0, 1) minimum
    assert report.basin_counts == {0: 0, 1: 0, 2: 50}
    assert np.all(report.trial_x0 >= 0.1)
    assert np.all(report.trial_x0 <= 0.2)


def test_trial_starts_do_not_depend_on_the_trial_count(nesterov_records):
    short = monte_carlo(NesterovExample(), 0.09, 100, seed=11, records=nesterov_records)
    long = monte_carlo(NesterovExample(), 0.09, 1000, seed=11, records=nesterov_records)
    assert np.array_equal(long.trial_x0[:100], short.trial_x0)
    assert long.trial_labels[:100] == short.trial_labels


def test_trial_starts_fill_the_init_box(nesterov_records):
    box = np.array([[-1.5, -0.25], [0.5, 1.75]])
    report = monte_carlo(
        NesterovExample(), 0.09, 1000, seed=4, init_box=box, records=nesterov_records
    )
    lo, hi = box[:, 0], box[:, 1]
    assert np.all(report.trial_x0 >= lo) and np.all(report.trial_x0 < hi)
    # a uniform draw reaches into every corner of the box
    assert np.all(report.trial_x0.min(axis=0) < lo + 0.01 * (hi - lo))
    assert np.all(report.trial_x0.max(axis=0) > hi - 0.01 * (hi - lo))


def test_monte_carlo_counts_divergence():
    report = monte_carlo(DiagonalQuadratic([1.0, -1.0]), 0.5, 100, seed=0)
    assert report.diverged == 100
    assert report.basin_counts == {0: 0}
    assert report.saddle_hits == 0


def test_monte_carlo_validates_inputs(nesterov_records):
    with pytest.raises(ContractViolationError):
        monte_carlo(NesterovExample(), 0.09, 0, seed=0, records=nesterov_records)
    with pytest.raises(ContractViolationError):
        monte_carlo(
            NesterovExample(), 0.09, 10, seed=0,
            init_box=[[-3.0, 3.0], [-1.0, 1.0]], records=nesterov_records,
        )
    with pytest.raises(ContractViolationError):
        monte_carlo(
            NesterovExample(), 0.09, 10, seed=0,
            init_box=[[-1.0, 1.0]], records=nesterov_records,
        )


SAMPLERS = {
    "monte_carlo": lambda seed: monte_carlo(NesterovExample(), 0.09, 10, seed=seed),
    "find_critical_points": lambda seed: find_critical_points(NesterovExample(), seed=seed),
    "check_lojasiewicz": lambda seed: check_lojasiewicz(
        NesterovExample(), [0.0, 1.0], 0.5, 0.1, 0.1, n_samples=10, seed=seed
    ),
    "roundtrip_check": lambda seed: roundtrip_check(
        GradientMap(NesterovExample(), 0.09), 10, seed=seed
    ),
    "injectivity_margin_check": lambda seed: injectivity_margin_check(
        GradientMap(NesterovExample(), 0.09), 10, seed=seed
    ),
}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the seed was checked")


@pytest.mark.parametrize("seed", [-1, -3, 1.5, 2.0, True, None, "7", [1, 2]])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_every_sampler_refuses_a_seed_that_is_not_a_non_negative_integer(
    sampler, seed, monkeypatch
):
    # the census must refuse the seed before its critical-point search
    monkeypatch.setattr(experiments, "find_critical_points", _no_work)
    with pytest.raises(ContractViolationError) as refused:
        SAMPLERS[sampler](seed)
    assert str(refused.value) == f"seed must be a non-negative integer, got {seed!r}"


def test_samplers_accept_numpy_and_huge_integer_seeds(nesterov_records):
    plain = monte_carlo(NesterovExample(), 0.09, 20, seed=5, records=nesterov_records)
    as_numpy = monte_carlo(
        NesterovExample(), 0.09, 20, seed=np.int64(5), records=nesterov_records
    )
    assert np.array_equal(plain.trial_x0, as_numpy.trial_x0)
    huge = monte_carlo(NesterovExample(), 0.09, 20, seed=2**70, records=nesterov_records)
    assert huge.saddle_hits == 0


def test_monte_carlo_refuses_more_trials_than_an_array_holds(nesterov_records):
    # refused from the count alone: no array of this size is requested
    with pytest.raises(ContractViolationError, match="more trials than an array can hold"):
        monte_carlo(NesterovExample(), 0.09, 2**62, seed=0, records=nesterov_records)


def test_monte_carlo_report_serialization(tmp_path, nesterov_records):
    report = monte_carlo(NesterovExample(), 0.09, 20, seed=3, records=nesterov_records)
    d = report.to_dict()
    assert d["n_trials"] == 20
    assert set(d["basin_counts"]) == {"0", "1", "2"}
    assert len(d["critical_points"]) == 3
    assert d["critical_points"][1]["is_strict_saddle"]

    trials = tmp_path / "trials.csv"
    report.trials_to_csv(trials)
    text = trials.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "trial,x0_1,x0_2,label,iterations,final_grad_norm"
    assert len(lines) == 21
    assert "np.float64" not in text

    basins = tmp_path / "basins.csv"
    report.basins_to_csv(basins)
    lines = basins.read_text().strip().splitlines()
    assert lines[0] == "label,classification,count"
    # three record rows plus the three status rows
    assert len(lines) == 7
    counts = [int(line.split(",")[-1]) for line in lines[1:]]
    assert sum(counts) == 20


def test_linear_rate_on_quadratic_matches_slow_mode():
    # contraction factors 0.8 and 0.6; the 0.8 mode wins the tail
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 2.0]), 0.2), np.array([1.0, 1.0]))
    fit = fit_linear_rate(traj, np.array([0.0, 0.0]))
    assert fit.regime == "Linear"
    assert fit.fitted_b == pytest.approx(0.8, abs=0.01)
    assert fit.r_squared >= 0.999
    assert fit.fitted_exponent is None
    assert fit.n_points >= 10


def test_linear_rate_near_nesterov_minimum():
    traj = run(GradientMap(NesterovExample(), 0.09), np.array([0.5, 0.3]))
    fit = fit_linear_rate(traj, np.array([0.0, 1.0]))
    # local multipliers are 1 - 0.09 * {1, 2}; the slower one is 0.91
    assert fit.fitted_b == pytest.approx(0.91, abs=0.02)
    assert fit.r_squared >= 0.999


def test_linear_rate_requires_convergence_to_the_given_limit():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 2.0]), 0.2), np.array([1.0, 1.0]))
    with pytest.raises(ContractViolationError):
        fit_linear_rate(traj, np.array([1.0, 1.0]))


def test_rate_fit_needs_enough_usable_iterates():
    gmap = GradientMap(StronglyConvexQuadratic([1.0, 2.0]), 0.2)
    at_limit = run(gmap, np.array([0.0, 0.0]))
    with pytest.raises(InsufficientDataError):
        fit_linear_rate(at_limit, np.array([0.0, 0.0]))
    with pytest.raises(InsufficientDataError):
        fit_power_rate(at_limit, np.array([0.0, 0.0]))


def test_power_rate_on_flat_quartic():
    # x <- x - alpha x^3 decays like k^(-1/2) without ever reaching tol
    traj = run(
        GradientMap(QuarticCopositive([[0.25]]), 0.1),
        np.array([0.9]),
        StopPolicy(tol=0.0, max_iters=20000),
    )
    fit = fit_power_rate(traj, np.array([0.0]))
    assert fit.regime == "Power"
    assert fit.fitted_exponent == pytest.approx(-0.5, abs=0.05)
    assert fit.r_squared >= 0.999
    assert fit.fitted_b is None


def test_power_rate_rejects_receding_tails():
    diverging = run(GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5), np.array([0.0, 1.0]))
    with pytest.raises(ContractViolationError):
        fit_power_rate(diverging, np.array([0.0, 0.0]))


def test_best_rate_fit_selects_the_right_regime():
    quad = run(GradientMap(StronglyConvexQuadratic([1.0, 2.0]), 0.2), np.array([1.0, 1.0]))
    assert best_rate_fit(quad, np.array([0.0, 0.0])).regime == "Linear"

    quartic = run(
        GradientMap(QuarticCopositive([[0.25]]), 0.1),
        np.array([0.9]),
        StopPolicy(tol=0.0, max_iters=20000),
    )
    fit = best_rate_fit(quartic, np.array([0.0]))
    assert fit.regime == "Power"
    assert fit.fitted_exponent == pytest.approx(-0.5, abs=0.05)


def test_best_rate_fit_propagates_rejection_when_both_fail():
    diverging = run(GradientMap(DiagonalQuadratic([1.0, -1.0]), 0.5), np.array([0.0, 1.0]))
    with pytest.raises(ContractViolationError):
        best_rate_fit(diverging, np.array([0.0, 0.0]))


def test_insufficient_data_drops_a_regime(monkeypatch):
    # an insufficient-data rejection removes its regime from the
    # comparison just as a contract violation does
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 2.0]), 0.2), np.array([1.0, 1.0]))
    x_star = np.array([0.0, 0.0])
    assert [fit.regime for fit in rate_fits(traj, x_star)] == ["Linear", "Power"]

    def too_short(traj, x_star):
        raise InsufficientDataError("only 3 usable iterates in the fit window; need 10")

    monkeypatch.setattr(experiments, "fit_linear_rate", too_short)
    assert [fit.regime for fit in rate_fits(traj, x_star)] == ["Power"]
    assert best_rate_fit(traj, x_star).regime == "Power"


def test_best_rate_fit_raises_insufficient_data_when_no_regime_has_enough():
    gmap = GradientMap(StronglyConvexQuadratic([1.0, 2.0]), 0.2)
    at_limit = run(gmap, np.array([0.0, 0.0]))
    with pytest.raises(InsufficientDataError):
        best_rate_fit(at_limit, np.array([0.0, 0.0]))


def test_rate_fit_to_dict():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 2.0]), 0.2), np.array([1.0, 1.0]))
    d = fit_linear_rate(traj, np.array([0.0, 0.0])).to_dict()
    assert d["regime"] == "Linear"
    assert d["fitted_exponent"] is None
    assert d["fit_window"][0] <= d["fit_window"][1]


@settings(max_examples=25, deadline=None)
@given(
    lambdas=st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=5
    ),
    theta=st.floats(min_value=0.2, max_value=0.8),
)
def test_fitted_linear_rate_tracks_the_slowest_mode(lambdas, theta):
    """On any positive diagonal quadratic the tail contracts by max |1 - alpha
    lambda_i| per step, whatever the spectrum and admissible step size."""
    obj = StronglyConvexQuadratic(lambdas)
    alpha = theta / obj.lipschitz_bound()
    traj = run(GradientMap(obj, alpha), np.ones(len(lambdas)))
    fit = fit_linear_rate(traj, np.zeros(len(lambdas)))
    expected = float(np.max(np.abs(1.0 - alpha * np.asarray(lambdas))))
    assert fit.fitted_b == pytest.approx(expected, rel=0.05)


def test_lojasiewicz_certificate_on_strongly_convex_quadratic():
    # ||grad f|| >= sqrt(2 lambda_min) f^(1/2) is tight along the soft axis
    cert = check_lojasiewicz(
        StronglyConvexQuadratic([1.0, 3.0]), [0.0, 0.0], a=0.5, m=np.sqrt(2.0), radius=0.5
    )
    assert cert.violations == 0
    assert cert.n_used == 773
    assert cert.n_used <= cert.n_samples == 1000
    assert cert.epsilon > 0.0


def test_lojasiewicz_certificate_on_flat_quartic():
    # f = y^4/4 has ||grad f|| = |y|^3 = 4^(3/4) f^(3/4) exactly
    cert = check_lojasiewicz(
        QuarticCopositive([[0.25]]), [0.0], a=0.75, m=4.0**0.75 * 0.99, radius=0.5
    )
    assert cert.violations == 0
    assert cert.n_used == 1000


def test_lojasiewicz_zero_modulus_is_vacuous():
    cert = check_lojasiewicz(NesterovExample(), [0.0, 0.0], a=0.5, m=0.0, radius=0.5)
    assert cert.violations == 0


def test_lojasiewicz_detects_oversized_modulus():
    cert = check_lojasiewicz(NesterovExample(), [0.0, 0.0], a=0.5, m=100.0, radius=0.5)
    assert cert.violations > 0


def test_lojasiewicz_validates_parameters():
    obj = NesterovExample()
    with pytest.raises(ContractViolationError):
        check_lojasiewicz(obj, [0.0, 0.0], a=1.0, m=1.0, radius=0.5)
    with pytest.raises(ContractViolationError):
        check_lojasiewicz(obj, [0.0, 0.0], a=-0.1, m=1.0, radius=0.5)
    with pytest.raises(ContractViolationError):
        check_lojasiewicz(obj, [0.0, 0.0], a=0.5, m=-1.0, radius=0.5)
    with pytest.raises(ContractViolationError):
        check_lojasiewicz(obj, [0.0, 0.0], a=0.5, m=1.0, radius=0.0)


def test_path_length_bound_holds_on_quadratic():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([1.0, 1.0]))
    report = path_length_check(traj, a=0.5, m=np.sqrt(2.0))
    assert report.success
    assert report.max_ratio == pytest.approx(0.15, abs=0.01)
    assert report.n_checked > 0
    assert report.window[0] <= report.window[1]


def test_path_length_bound_holds_on_flat_quartic():
    traj = run(
        GradientMap(QuarticCopositive([[0.25]]), 0.1),
        np.array([0.9]),
        StopPolicy(tol=0.0, max_iters=20000),
    )
    report = path_length_check(traj, a=0.75, m=4.0**0.75 * 0.99, f_star=0.0)
    assert report.success
    assert report.max_ratio <= 1.0


def test_path_length_on_stationary_trajectory_is_trivial():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([0.0, 0.0]))
    report = path_length_check(traj, a=0.5, m=np.sqrt(2.0))
    assert report.max_ratio == 0.0
    assert report.n_checked == 0


def test_path_length_refuses_to_certify_outside_the_neighborhood():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([1.0, 1.0]))
    with pytest.raises(InapplicableError):
        path_length_check(
            traj, a=0.5, m=np.sqrt(2.0), x_star=np.array([0.0, 0.0]), radius=1e-3
        )


def test_path_length_validates_parameters():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([1.0, 1.0]))
    with pytest.raises(ContractViolationError):
        path_length_check(traj, a=1.0, m=1.0)
    with pytest.raises(ContractViolationError):
        path_length_check(traj, a=0.5, m=0.0)


def test_path_length_report_to_dict():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([1.0, 1.0]))
    d = path_length_check(traj, a=0.5, m=np.sqrt(2.0)).to_dict()
    assert d["success"] is True
    assert d["a"] == 0.5
    assert d["alpha"] == 0.3
