"""Monte Carlo basin statistics, rate fitting, and gradient-inequality
certificates."""

import itertools

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
    NumericalFailureError,
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
    run_many,
)
from descentlab import critical, experiments
from descentlab.critical import (
    BASIN_TOL,
    CHUNK,
    LABEL_DIVERGED,
    LABEL_LEFT_BOX,
    LABEL_UNRESOLVED,
    _label_table,
)
from descentlab.experiments import MAX_TRIALS


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


@pytest.mark.parametrize("n_jobs", [1, 2, 3])
@pytest.mark.parametrize("chunk, sizes", [(7, [7] * 28 + [4]), (199, [199, 1])])
def test_a_census_in_chunks_of_a_few_rows_matches_one_batch_of_all_starts(
    nesterov_records, monkeypatch, chunk, sizes, n_jobs
):
    # a tail chunk, and with 199 rows a chunk of one, which takes the
    # single-row path of the stepping loop
    whole = monte_carlo(NesterovExample(), 0.09, 200, seed=7, records=nesterov_records)
    result = run_many(GradientMap(NesterovExample(), 0.09), whole.trial_x0)
    codes = _codes(result, nesterov_records)
    assert whole.trial_labels == [_label_table(nesterov_records)[c] for c in codes]
    assert np.array_equal(whole.trial_iterations, result.iterations)
    assert np.array_equal(whole.trial_final_grad_norm, result.final_grad_norm)
    stepped = []

    def recorded(gmap, x0s, policy):
        stepped.append(len(x0s))
        return run_many(gmap, x0s, policy)

    monkeypatch.setattr(critical, "CHUNK", chunk)
    monkeypatch.setattr(critical, "run_many", recorded)
    monkeypatch.setattr(critical.os, "cpu_count", lambda: 3)
    chunked = monte_carlo(
        NesterovExample(), 0.09, 200, seed=7, records=nesterov_records, n_jobs=n_jobs
    )
    assert sorted(stepped) == sorted(sizes)
    assert chunked.to_dict() == whole.to_dict()
    assert np.array_equal(chunked.trial_x0, whole.trial_x0)
    assert chunked.trial_labels == whole.trial_labels
    assert np.array_equal(chunked.trial_iterations, whole.trial_iterations)
    assert np.array_equal(chunked.trial_final_grad_norm, whole.trial_final_grad_norm)


def test_a_census_of_two_chunks_runs_two_threads_and_writes_the_serial_bytes(
    nesterov_records, monkeypatch, tmp_path
):
    # two chunks on two cores: two threads, each stepping one chunk
    import threading

    from descentlab.fileio import atomic_write_json

    n_trials = CHUNK + 1
    threads = []
    run_many = critical.run_many

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return run_many(*args, **kwargs)

    monkeypatch.setattr(critical.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(critical, "run_many", recorded)
    reports = {}
    for n_jobs in (1, 2):
        threads.clear()
        report = monte_carlo(NesterovExample(), 0.09, n_trials, seed=3,
                             records=nesterov_records, n_jobs=n_jobs)
        assert len(threads) == 2
        assert len(set(threads)) == n_jobs
        out = tmp_path / str(n_jobs)
        out.mkdir()
        atomic_write_json(out / "report.json", report.to_dict())
        report.trials_to_csv(out / "trials.csv")
        report.basins_to_csv(out / "basins.csv")
        reports[n_jobs] = out
    for name in ["report.json", "trials.csv", "basins.csv"]:
        assert (reports[1] / name).read_bytes() == (reports[2] / name).read_bytes()


@pytest.mark.parametrize("n_jobs, cores, n_trials, workers", [
    (10**30, 64, 200, 4),  # capped by the chunks
    (10**30, 3, 200, 3),  # by the cores
    (2, 64, 200, 2),  # by the request
    (10**30, 64, 151, 4),  # a tail chunk is a chunk
    (10**30, 64, 50, 1),  # one chunk: no pool
    (1, 64, 200, 1),
    (10**30, 1, 200, 1),
    (10**30, None, 200, 1),  # an unknown core count counts as one
])
def test_a_census_starts_a_thread_per_chunk_up_to_the_request_and_the_cores(
    nesterov_records, monkeypatch, n_jobs, cores, n_trials, workers
):
    # computed only: the pool is a stand-in that maps in this thread, so
    # no pool of the requested size is ever started
    import concurrent.futures

    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(critical, "CHUNK", 50)
    monkeypatch.setattr(critical.os, "cpu_count", lambda: cores)
    report = monte_carlo(
        NesterovExample(), 0.09, n_trials, seed=7, records=nesterov_records, n_jobs=n_jobs
    )
    assert sum(report.basin_counts.values()) == n_trials
    assert started == ([] if workers == 1 else [workers])


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("chunk", [1, 7, 50, 150, 151, 171, 200])
def test_a_poisoned_trial_is_named_by_its_census_index(monkeypatch, chunk, n_jobs):
    # f = 1e-100 * x**2 / 2 overflows at x = 1e250 while its gradient stays
    # finite; trials 150 and 170 fail at iterate 0, in one chunk or two,
    # and the first failing chunk in trial order is reported
    starts = np.full((200, 1), 0.5)
    starts[[150, 170]] = 1e250
    monkeypatch.setattr(experiments, "_box_samples", lambda *args, **kwargs: starts)
    monkeypatch.setattr(critical, "CHUNK", chunk)
    monkeypatch.setattr(critical.os, "cpu_count", lambda: 2)
    with pytest.raises(NumericalFailureError) as failure:
        monte_carlo(DiagonalQuadratic([1e-100]), 0.5, 200, seed=0, records=[], n_jobs=n_jobs)
    assert str(failure.value) == "non-finite value or gradient at iterate 0 (trial 150)"
    assert (failure.value.iterate_index, failure.value.trial) == (0, 150)


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


def _codes(batch, records):
    """``critical._basin_codes`` of the final states of ``batch``."""
    return critical._basin_codes(batch.final_x, batch.final_grad_norm, batch.stop_reasons,
                                 records)


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
    table = _label_table(nesterov_records)
    labels = [table[c] for c in _codes(batch, nesterov_records)]
    assert labels == _oracle_labels(batch, nesterov_records, BASIN_TOL)
    assert labels == [
        "Diverged", "Diverged", "LeftBox", "LeftBox", "Unresolved", "Unresolved",
        "Unresolved", "Unresolved", 0, 1, 2, 2,
    ]


def test_settled_rows_are_exactly_those_a_record_may_claim(nesterov_records):
    norms = [0.0, 0.5 * BASIN_TOL, BASIN_TOL, 2.0 * BASIN_TOL, np.inf, np.nan]
    cases = list(itertools.product(StopReason, norms))
    # every row sits on a record, so a record claims each row it may claim
    rows = [(nesterov_records[t % 3].location, norm, reason)
            for t, (reason, norm) in enumerate(cases)]
    batch = _batch(rows)
    settled = critical._settled(batch.stop_reasons, batch.final_grad_norm)
    assert settled.tolist() == [
        reason not in (StopReason.DIVERGED, StopReason.LEFT_DOMAIN_BOX) and not norm > BASIN_TOL
        for reason, norm in cases
    ]
    codes = _codes(batch, nesterov_records)
    assert settled.tolist() == (codes < len(nesterov_records)).tolist()
    # an unsettled row gets the same label without records
    table = _label_table(nesterov_records)
    bare = _codes(batch, [])
    assert [table[c] for c in codes[~settled]] == [_label_table([])[c] for c in bare[~settled]]


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
        _codes(batch, records)
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


def test_a_flat_init_box_row_samples_one_coordinate(nesterov_records):
    # starts on the saddle's stable line y = 0 all reach the saddle
    report = monte_carlo(
        NesterovExample(), 0.09, 20, seed=2,
        init_box=[[-1.0, 1.0], [0.0, 0.0]], records=nesterov_records,
    )
    assert np.all(report.trial_x0[:, 1] == 0.0)
    assert report.saddle_hits == 20


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


COUNTED_SAMPLERS = {
    "monte_carlo": ("n_trials", lambda n: monte_carlo(NesterovExample(), 0.09, n, seed=0)),
    "find_critical_points": ("n_seeds", lambda n: find_critical_points(NesterovExample(), n_seeds=n)),
    "check_lojasiewicz": ("n_samples", lambda n: check_lojasiewicz(
        NesterovExample(), [0.0, 1.0], 0.5, 0.1, 0.1, n_samples=n
    )),
    "roundtrip_check": ("n_samples", lambda n: roundtrip_check(GradientMap(NesterovExample(), 0.09), n)),
    "injectivity_margin_check": ("n_pairs", lambda n: injectivity_margin_check(
        GradientMap(NesterovExample(), 0.09), n
    )),
}


@pytest.mark.parametrize("count, message", [
    (2.5, "{name} must be an integer, got 2.5"),
    ("5", "{name} must be an integer, got '5'"),
    (True, "{name} must be an integer, got True"),
    (0, "{name} must be at least 1"),
    (-3, "{name} must be at least 1"),
    (2**62, "{name} = 4611686018427387904 is more {noun} than an array can hold"),
])
@pytest.mark.parametrize("sampler", sorted(COUNTED_SAMPLERS))
def test_every_sampler_refuses_a_sample_count_that_is_not_a_positive_integer(
    sampler, count, message, monkeypatch
):
    # refused from the count alone, before any search or array
    monkeypatch.setattr(experiments, "find_critical_points", _no_work)
    name, call = COUNTED_SAMPLERS[sampler]
    if (sampler, count) == ("monte_carlo", 2**62):  # the trial cap comes first
        message = f"{{name}} must be at most {MAX_TRIALS}, got {count}"
    with pytest.raises(ContractViolationError) as refused:
        call(count)
    assert str(refused.value) == message.format(name=name, noun=name[2:])


def test_samplers_accept_numpy_and_huge_integer_seeds(nesterov_records):
    plain = monte_carlo(NesterovExample(), 0.09, 20, seed=5, records=nesterov_records)
    as_numpy = monte_carlo(
        NesterovExample(), 0.09, 20, seed=np.int64(5), records=nesterov_records
    )
    assert np.array_equal(plain.trial_x0, as_numpy.trial_x0)
    huge = monte_carlo(NesterovExample(), 0.09, 20, seed=2**70, records=nesterov_records)
    assert huge.saddle_hits == 0


@pytest.mark.parametrize("objective, alpha, cap", [
    (NesterovExample(), 0.09, MAX_TRIALS),
    (DiagonalQuadratic([1.0]), 0.5, MAX_TRIALS),  # 1-D gets no more trials than 2-D
    (DiagonalQuadratic([1.0] * 3), 0.5, 2 * MAX_TRIALS // 3),
    (DiagonalQuadratic([1.0] * 100), 0.5, 2 * MAX_TRIALS // 100),
])
def test_monte_carlo_refuses_more_trials_than_its_cap(monkeypatch, objective, alpha, cap):
    # refused from the count alone, before any search or array; above 2-D
    # the cap is on coordinates of starts, 2 * MAX_TRIALS of them
    monkeypatch.setattr(experiments, "find_critical_points", _no_work)
    with pytest.raises(ContractViolationError) as refused:
        monte_carlo(objective, alpha, cap + 1, seed=0)
    assert str(refused.value) == f"n_trials must be at most {cap}, got {cap + 1}"


@pytest.mark.parametrize(
    "labels", [[0, "Diverged", 2], [0, 1, 2], ["Diverged", "LeftDomainBox", "Unresolved"]]
)
def test_trial_labels_are_written_as_their_text(tmp_path, nesterov_records, labels):
    report = monte_carlo(NesterovExample(), 0.09, 3, seed=3, records=nesterov_records)
    report.trial_labels = labels
    report.trials_to_csv(tmp_path / "trials.csv")
    rows = (tmp_path / "trials.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == [str(label) for label in labels]


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


@pytest.mark.parametrize("x_star, message", [
    ([0.0], r"x_star must have shape \(2,\)"),
    ([0.0, 0.0, 0.0], r"x_star must have shape \(2,\)"),
    ([[0.0, 0.0]], r"x_star must have shape \(2,\)"),
    ([0.0, float("nan")], "x_star must be finite"),
    ([0.0, "a"], "x_star must be numbers"),
])
def test_rate_and_path_length_checks_refuse_a_bad_limit_point(x_star, message):
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([1.0, 1.0]))
    for check in (
        lambda: fit_linear_rate(traj, x_star),
        lambda: fit_power_rate(traj, x_star),
        lambda: path_length_check(traj, a=0.5, m=np.sqrt(2.0), x_star=x_star, radius=1.0),
        lambda: check_lojasiewicz(StronglyConvexQuadratic([1.0, 3.0]), x_star, 0.5, 1.0, 0.1),
    ):
        with pytest.raises(ContractViolationError, match=message):
            check()


def test_path_length_report_to_dict():
    traj = run(GradientMap(StronglyConvexQuadratic([1.0, 3.0]), 0.3), np.array([1.0, 1.0]))
    d = path_length_check(traj, a=0.5, m=np.sqrt(2.0)).to_dict()
    assert d["success"] is True
    assert d["a"] == 0.5
    assert d["alpha"] == 0.3
