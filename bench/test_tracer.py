"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest -q bench/test_tracer.py

They run small workloads in-process under fresh tracers; the benchmark
itself runs the same code in child processes.
"""

import inspect
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import descentlab  # noqa: E402
import descentlab.cli  # noqa: E402
import geometry  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _bindings():
    """Every function-valued name in descentlab's modules and layer classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "descentlab" or name.startswith("descentlab."):
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    seen[(name, attr)] = value
                elif inspect.isclass(value) and value.__module__.startswith("descentlab"):
                    for method, fn in vars(value).items():
                        if inspect.isfunction(fn):
                            seen[(value.__module__, value.__qualname__, method)] = fn
    return seen


def _traced(fn, *args):
    tracer = Tracer()
    tracer.install()
    try:
        status = fn(*args)
    finally:
        tracer.restore()
    assert status == 0
    return tracer.layer_summary()


def test_install_patches_names_where_they_are_looked_up_and_restore_undoes_it():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        engine = descentlab.engine
        assert descentlab.experiments.run_many is not before[("descentlab.engine", "run_many")]
        assert descentlab.experiments.run_many is engine.run_many
        assert descentlab.critical.run_many is engine.run_many
        assert descentlab.cli.run is engine.run
        assert descentlab.run is engine.run
        assert descentlab.cli.find_critical_points is descentlab.critical.find_critical_points
        assert descentlab.jacobi.off_diagonal_norm is not before[("descentlab.jacobi", "off_diagonal_norm")]
        patched = {(getattr(owner, "__name__", None), attr) for owner, attr in tracer.patched_names()}
        assert ("NesterovExample", "gradient") in patched
        assert ("GradientMap", "step") in patched
        assert ("descentlab.fileio", "atomic_write_text") in patched
    finally:
        tracer.restore()
    assert tracer.patched_names() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_restore_runs_when_the_workload_raises():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(descentlab.ContractViolationError):
            descentlab.run(descentlab.GradientMap(descentlab.NesterovExample(), 0.05), [9.0, 9.0])
    finally:
        tracer.restore()
    assert all(_bindings()[k] is v for k, v in before.items())


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.names[:] = ["engine.run", "zoo.NesterovExample.gradient", "fileio.atomic_write_text"]
    for name, parent, start, end in [(0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0), (1, 0, 4.0, 5.0), (2, -1, 10.0, 11.5)]:
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    times = tracer.layer_summary()["times"]
    assert times["engine.run_s"] == 10.0
    assert times["engine.self_s"] == 7.0
    assert times["zoo.gradient_self_s"] == 3.0
    assert times["fileio.write_s"] == 1.5
    assert tracer.layer_summary()["counts"]["zoo.gradient_calls"] == 2


@pytest.mark.parametrize("make_args", [
    lambda out: ["montecarlo", "--objective", "nesterov", "--trials", "300", "--seed", "5", "--out", out],
    lambda out: ["run", "--objective", "quartic:[[0.25]]", "--alpha", "0.1", "--tol", "0",
                 "--max-iters", "2000", "--x0", "0.75", "--out", out],
])
def test_cli_counts_repeat_exactly_and_outputs_match_untraced(tmp_path, make_args, capsys):
    plain = str(tmp_path / "plain")
    assert descentlab.cli.main(make_args(plain)) == 0
    first = _traced(descentlab.cli.main, make_args(str(tmp_path / "t1")))
    second = _traced(descentlab.cli.main, make_args(str(tmp_path / "t2")))
    assert first["counts"] == second["counts"]
    for name in os.listdir(plain):
        for traced_dir in ("t1", "t2"):
            assert (tmp_path / traced_dir / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    counts = first["counts"]
    assert counts["fileio.bytes_written"] == sum(
        os.path.getsize(os.path.join(plain, name)) for name in os.listdir(plain)
    )
    if make_args("x")[0] == "run":
        assert counts["engine.steps"] == 2000
        assert counts["engine.stop.MaxIters"] == 1
        assert counts["zoo.value_calls"] == 2001
        assert counts["engine.trial_steps"] == 0
    else:
        with open(os.path.join(plain, "trials.csv")) as handle:
            rows = handle.read().splitlines()[1:]
        iterations = sorted(int(row.split(",")[4]) for row in rows)
        assert counts["engine.trial_steps"] == sum(iterations)
        assert counts["engine.iterations_max"] == iterations[-1]
        assert counts["engine.stop.GradNormBelowTol"] == 300
        assert counts["critical.seeds"] == 100 and counts["critical.roots"] == 3
        assert counts["experiments.saddle_hits"] == 0
    assert counts["trace.spans"] > 0


def test_geometry_counts_repeat_exactly(tmp_path):
    args = lambda out: ["--seed", "11", "--samples", "40", "--out", out]  # noqa: E731
    first = _traced(geometry.main, args(str(tmp_path / "a")))
    second = _traced(geometry.main, args(str(tmp_path / "b")))
    assert first["counts"] == second["counts"]
    assert first["counts"]["inverse.invert_calls"] == 4 * 40
    assert first["counts"]["critical.seeds"] == 4 * 100
    # one eigh per classified root plus one per strict saddle's stable subspace
    assert first["counts"]["jacobi.eigh_calls"] == 6 + 2
    assert (tmp_path / "a" / "result.json").read_bytes() == (tmp_path / "b" / "result.json").read_bytes()
    digest, problems = workloads.Geometry(0).check(str(tmp_path / "a"))
    assert problems == [f"{name}: 40 round-trip samples" for name in
                        ("diagonal_quadratic", "strongly_convex_quadratic", "nesterov_example",
                         "quartic_copositive")]


def test_checks_flag_wrong_outputs(tmp_path):
    out = str(tmp_path)
    workload = workloads.Census(3)
    assert descentlab.cli.main(workload.args(out)) == 0
    digest, problems = workload.check(out)
    assert problems == []
    path = tmp_path / "report.json"
    report = json.loads(path.read_text())
    report["saddle_hits"] = 1
    report["basin_counts"]["0"] -= 400
    path.write_text(json.dumps(report))
    changed, problems = workload.check(out)
    assert changed != digest
    assert len(problems) == 3  # saddle hit, basin out of range, counts do not partition


def test_every_layer_is_traced():
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert {name.split(".")[0] for name in tracer.names} == set(LAYERS)
    assert tracer_module.STOP_REASONS == tuple(r.value for r in descentlab.StopReason)


def test_reported_metrics_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    summary = Tracer().layer_summary()
    names = list(run.layer_metrics(summary)) + ["trace.overhead_frac", "wall_s", "work_per_s"]
    assert names == [m["name"] for m in declared["per_layer"]]
    assert [run._unit(n) for n in names] == [m["unit"] for m in declared["per_layer"]]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]}
