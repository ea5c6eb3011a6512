"""Command-line interface, exercised through real subprocesses."""

import errno
import json
import os
import pathlib
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from descentlab.critical import MAX_GRID

CMD = [sys.executable, "-m", "descentlab"]


def cli(*argv, check=True):
    proc = subprocess.run(
        CMD + list(argv), capture_output=True, text=True, timeout=300
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


@pytest.mark.parametrize(
    "sub", ["run", "montecarlo", "classify", "stable-set", "invert", "rates"]
)
def test_help_screens(sub):
    proc = cli(sub, "--help")
    assert "--objective" in proc.stdout


def test_no_subcommand_is_a_usage_error():
    proc = cli(check=False)
    assert proc.returncode == 2


def test_run_reports_basin_and_writes_files(tmp_path):
    proc = cli(
        "run", "--objective", "nesterov", "--theta", "0.9",
        "--x0", "0.5,0.3", "--out", str(tmp_path),
    )
    summary = json.loads(proc.stdout)
    assert summary["stop_reason"] == "GradNormBelowTol"
    assert summary["basin"] == "2"
    np.testing.assert_allclose(summary["basin_location"], [0.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(summary["final_x"], [0.0, 1.0], atol=1e-9)
    assert summary["alpha"] == pytest.approx(0.9 / 11.0)

    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "k,x_1,x_2,f,grad_norm"
    assert len(lines) == summary["n_steps"] + 2


def test_run_starting_at_a_minimum_takes_no_steps():
    proc = cli("run", "--objective", "nesterov", "--x0", "0,1")
    summary = json.loads(proc.stdout)
    assert summary["n_steps"] == 0
    assert summary["final_x"] == [0.0, 1.0]


def test_run_default_start_is_quarter_point():
    proc = cli("run", "--objective", "nesterov")
    summary = json.loads(proc.stdout)
    assert summary["x0"] == [1.0, 1.0]


def test_run_rejects_malformed_x0():
    proc = cli("run", "--objective", "nesterov", "--x0", "a,b", check=False)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_run_rejects_alpha_and_theta_together():
    proc = cli(
        "run", "--objective", "nesterov", "--alpha", "0.05", "--theta", "0.5",
        check=False,
    )
    assert proc.returncode == 2


def test_montecarlo_output_is_independent_of_thread_count(tmp_path):
    serial_dir = tmp_path / "serial"
    threaded_dir = tmp_path / "threaded"
    a = cli(
        "montecarlo", "--objective", "nesterov", "--trials", "60",
        "--seed", "7", "--out", str(serial_dir),
    )
    b = cli(
        "montecarlo", "--objective", "nesterov", "--trials", "60",
        "--seed", "7", "--n-jobs", "3", "--out", str(threaded_dir),
    )
    assert "saddle_hits: 0" in a.stdout
    assert a.stdout == b.stdout
    for name in ["report.json", "trials.csv", "basins.csv"]:
        assert (serial_dir / name).read_bytes() == (threaded_dir / name).read_bytes()
    report = json.loads((serial_dir / "report.json").read_text())
    assert report["n_trials"] == 60
    assert sum(report["basin_counts"].values()) + report["diverged"] == 60
    assert len((serial_dir / "trials.csv").read_text().strip().splitlines()) == 61


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two threads need two cores")
def test_a_two_thread_census_writes_the_serial_artifacts(tmp_path, capsys, monkeypatch):
    # CHUNK + 1 trials make two chunks, so --n-jobs 2 starts two threads;
    # run in-process to see them
    import threading

    from descentlab import critical
    from descentlab.cli import main
    from descentlab.critical import CHUNK

    n_trials = CHUNK + 1
    threads = set()
    run_many = critical.run_many

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return run_many(*args, **kwargs)

    monkeypatch.setattr(critical, "run_many", recorded)
    argv = ["montecarlo", "--objective", "nesterov", "--trials", str(n_trials), "--seed", "5"]
    assert main([*argv, "--out", str(tmp_path / "serial")]) == 0
    assert len(threads) == 1
    threads.clear()
    assert main([*argv, "--n-jobs", "2", "--out", str(tmp_path / "threaded")]) == 0
    assert len(threads) == 2
    serial_out, threaded_out = capsys.readouterr().out.splitlines()
    assert serial_out == threaded_out
    for name in ["report.json", "trials.csv", "basins.csv"]:
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "threaded" / name).read_bytes()


def test_rates_fits_each_regime_once(monkeypatch, capsys):
    from descentlab import experiments
    from descentlab.cli import main

    calls = []
    for name in ("fit_linear_rate", "fit_power_rate"):
        def counted(*args, _fit=getattr(experiments, name), _name=name):
            calls.append(_name)
            return _fit(*args)

        monkeypatch.setattr(experiments, name, counted)
    argv = ["rates", "--objective", "strongly_convex_quadratic:[1,2]", "--alpha", "0.2",
            "--x0", "1,1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["chosen_regime"] == "Linear"
    assert sorted(calls) == ["fit_linear_rate", "fit_power_rate"]


def test_montecarlo_requires_trials():
    proc = cli("montecarlo", "--objective", "nesterov", check=False)
    assert proc.returncode == 2
    assert "--trials" in proc.stderr


def test_montecarlo_refuses_more_trials_than_the_cap_before_any_work(
    tmp_path, capsys, monkeypatch
):
    from descentlab import critical, experiments
    from descentlab.cli import main
    from descentlab.experiments import MAX_TRIALS

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiments, "find_critical_points", no_work)
    monkeypatch.setattr(critical, "run_many", no_work)
    out = tmp_path / "out" / "sub"
    argv = ["montecarlo", "--objective", "nesterov", "--trials", str(MAX_TRIALS + 1),
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n_trials must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}\n"
    assert list(tmp_path.iterdir()) == []
    # 100 coordinates a start: a fiftieth of the 2-D cap
    cap = 2 * MAX_TRIALS // 100
    objective = "diagonal_quadratic:" + json.dumps([1.0] * 100)
    argv = ["montecarlo", "--objective", objective, "--trials", str(cap + 1), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n_trials must be at most {cap}, got {cap + 1}\n"
    assert list(tmp_path.iterdir()) == []


def test_montecarlo_rejects_n_jobs_below_one():
    proc = cli(
        "montecarlo", "--objective", "nesterov", "--trials", "20", "--n-jobs", "0",
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "n_jobs must be at least 1" in proc.stderr


def test_montecarlo_accepts_init_box():
    proc = cli(
        "montecarlo", "--objective", "nesterov", "--trials", "20",
        "--init-box", "0.1,0.1:0.2,0.2",
    )
    assert "saddle_hits: 0" in proc.stdout


def test_classify_lists_critical_points():
    proc = cli("classify", "--objective", "nesterov")
    records = json.loads(proc.stdout)
    assert [r["classification"] for r in records] == [
        "LocalMin", "StrictSaddle", "LocalMin",
    ]
    locations = np.array([r["location"] for r in records])
    np.testing.assert_allclose(
        locations, [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]], atol=1e-9
    )


def test_stable_set_on_linear_saddle(tmp_path):
    proc = cli(
        "stable-set", "--objective", "diagonal_quadratic:[1,-1]",
        "--alpha", "0.5", "--radius", "1", "--grid", "21", "--out", str(tmp_path),
    )
    summary = json.loads(proc.stdout)
    assert summary["saddle"] == [0.0, 0.0]
    assert summary["n_converged"] == 21
    assert summary["max_subspace_distance"] == 0.0
    lines = (tmp_path / "stable_set.csv").read_text().strip().splitlines()
    assert lines[0] == "x_1,x_2,converged_to_saddle"
    assert len(lines) == summary["n_points"] + 1


def test_stable_set_rejects_non_saddle_index():
    proc = cli(
        "stable-set", "--objective", "nesterov", "--index", "0", check=False
    )
    assert proc.returncode == 2


def test_invert_recovers_preimage():
    proc = cli(
        "invert", "--objective", "nesterov", "--alpha", "0.05", "--y", "0.95,1.7"
    )
    payload = json.loads(proc.stdout)
    np.testing.assert_allclose(payload["solution"], [1.0, 2.0], atol=1e-9)
    assert payload["residual"] <= 1e-10
    assert payload["subproblem_modulus"] == pytest.approx(0.45)


def test_invert_refuses_uncertified_step_size():
    # alpha * L = 1.1 on the default box: the map need not be injective there
    proc = cli(
        "invert", "--objective", "nesterov", "--alpha", "0.1", "--y", "0.9,1.4",
        check=False,
    )
    assert proc.returncode == 2
    assert "alpha * L" in proc.stderr


def test_rates_fits_the_linear_regime():
    proc = cli(
        "rates", "--objective", "strongly_convex_quadratic:[1,2]",
        "--alpha", "0.2", "--x0", "1,1",
    )
    payload = json.loads(proc.stdout)
    assert payload["chosen_regime"] == "Linear"
    assert payload["fitted_b"] == pytest.approx(0.8, abs=0.01)
    assert payload["limit"] == [0.0, 0.0]


def test_rates_reports_unsettled_trajectories():
    proc = cli(
        "rates", "--objective", "diagonal_quadratic:[1,-1]",
        "--alpha", "0.5", "--x0", "0.3,0.8", check=False,
    )
    assert proc.returncode == 1
    assert "Diverged" in proc.stderr


UNSETTLED_RUNS = {
    "stalled": (["--objective", "quartic:[[0.25]]", "--alpha", "0.1", "--tol", "0",
                 "--max-iters", "200", "--x0", "0.6"], "MaxIters", "Unresolved"),
    "diverged": (["--objective", "diagonal_quadratic:[1,-1]", "--x0", "0.5,0.3"],
                 "Diverged", "Diverged"),
}


@pytest.mark.parametrize("case", sorted(UNSETTLED_RUNS))
@pytest.mark.parametrize("sub", ["run", "rates"])
def test_a_run_that_cannot_settle_is_labelled_without_the_search(
    tmp_path, capsys, monkeypatch, sub, case
):
    from descentlab import assign_basin, find_critical_points, run
    from descentlab import cli as cli_module
    from descentlab.cli import main

    def no_search(*args, **kwargs):
        raise AssertionError("the critical-point search ran for a run that cannot settle")

    monkeypatch.setattr(cli_module, "find_critical_points", no_search)
    argv, reason, label = UNSETTLED_RUNS[case]
    out = tmp_path / "out"
    status = main([sub, *argv, "--out", str(out)])
    captured = capsys.readouterr()
    if sub == "rates":
        assert status == 1
        assert captured.out == ""
        assert captured.err == (
            f"trajectory did not settle in any basin (label {label}); no rate to fit\n"
        )
        assert not (out / "rates.json").exists()
        return
    assert status == 0
    assert captured.err == ""
    summary = json.loads(captured.out)
    assert (summary["stop_reason"], summary["basin"]) == (reason, label)
    assert summary["basin_location"] is None
    assert (out / "summary.json").read_text() == captured.out
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == summary["n_steps"] + 2
    # the records of the search, had it run, give the same label
    opts = cli_module._merged(cli_module.build_parser().parse_args([sub, *argv]),
                              cli_module.COMMANDS[sub], [])
    traj = run(opts["gmap"], opts["x0"], opts["policy"])
    records = find_critical_points(opts["objective"], seed=opts["seed"])
    assert records and assign_basin(traj, records) == label


def test_a_settled_run_searches_once_with_its_seed(tmp_path, capsys, monkeypatch):
    from descentlab import cli as cli_module
    from descentlab.cli import main

    seeds, find = [], cli_module.find_critical_points

    def counted(objective, seed):
        seeds.append(seed)
        return find(objective, seed=seed)

    monkeypatch.setattr(cli_module, "find_critical_points", counted)
    argv = ["run", "--objective", "nesterov", "--x0", "0.5,0.3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert seeds == [0]
    golden = pathlib.Path(__file__).parent / "golden" / "run"
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
    assert (tmp_path / "summary.json").read_bytes() == (golden / "summary.json").read_bytes()


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "objective": "nesterov", "theta": 0.5, "x0": "0.5,0.3",
    }))
    from_config = json.loads(
        cli("run", "--config", str(config)).stdout
    )
    assert from_config["alpha"] == pytest.approx(0.5 / 11.0)
    assert from_config["x0"] == [0.5, 0.3]

    overridden = json.loads(
        cli("run", "--config", str(config), "--theta", "0.9").stdout
    )
    assert overridden["alpha"] == pytest.approx(0.9 / 11.0)


# gmap and policy are resolved from the options, never set themselves
@pytest.mark.parametrize("key", ["stepsize", "gmap", "policy"])
def test_config_rejects_unknown_keys(tmp_path, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"objective": "nesterov", key: 0.1}))
    proc = cli("run", "--config", str(config), check=False)
    assert proc.returncode == 2
    assert proc.stderr == f"error: unknown config keys: {key}\n"


@pytest.mark.parametrize(
    "sub, key, value",
    [("montecarlo", "n_jobs", "x"), ("run", "alpha", "abc"), ("stable-set", "grid", 2.5)],
)
def test_config_values_of_the_wrong_type_exit_2_with_one_line(tmp_path, sub, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objective": "nesterov", "trials": 20, key: value}))
    proc = cli(sub, "--config", str(path), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {key} must be ")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("trials", "x"), ("n_jobs", 1.5), ("alpha", [0.1]), ("theta", "nan"),
        ("tol", {}), ("max_iters", "1e3"), ("seed", True), ("grid", "9x"),
        ("radius", "wide"), ("index", 0.5),
    ],
)
def test_every_numeric_config_value_is_checked_before_any_work(tmp_path, capsys, key, value):
    from descentlab.cli import OPTIONS, main

    assert OPTIONS[key].kind in ("int", "float")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objective": "nesterov", key: value}))
    assert main(["classify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be {'an integer' if OPTIONS[key].kind == 'int' else 'a number'}, got {value!r}\n"


def test_config_numbers_may_be_numeric_strings_or_integral_floats(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "objective": "nesterov", "trials": "20", "n_jobs": 1.0, "theta": "0.5",
    }))
    proc = cli("montecarlo", "--config", str(path))
    assert proc.stdout.startswith("saddle_hits: ")


def test_rates_reports_too_few_iterates_in_one_line():
    # a start at the minimum leaves no usable iterates for either regime
    proc = cli("rates", "--objective", "nesterov", "--x0", "0,1", check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: only 0 usable iterates in the fit window; need 10\n"


def test_config_missing_file_is_reported(tmp_path):
    proc = cli("run", "--config", str(tmp_path / "absent.json"), check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("config", None, "Is a directory"),
        ("latin1.json", '{"objective": "nesterov", "seed": "\xe9"}'.encode("latin-1"),
         "'utf-8' codec can't decode byte 0xe9"),
        ("bad.json", b'{"objective": ', "Expecting value"),
        ("deep.json", b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    ],
)
def test_an_unreadable_config_exits_2_with_one_line(tmp_path, capsys, name, content, reason):
    from descentlab.cli import main

    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["classify", "--objective", "nesterov", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config file {path}: {reason}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "sub, work",
    [
        ("classify", "find_critical_points"),
        ("run", "run"),
        ("montecarlo", "monte_carlo"),
        ("invert", "invert"),
    ],
)
@pytest.mark.parametrize(
    "blocked",
    ["file", "below a file", "artifact is a directory", "name too long", "path too long",
     "artifact path over the limit"],
)
def test_an_out_path_blocked_by_a_file_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, sub, work, blocked
):
    import descentlab.cli
    from descentlab.cli import main

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was refused")

    monkeypatch.setattr(descentlab.cli, work, no_work)
    file = tmp_path / "file"
    file.write_text("kept\n")
    # the OS's answer, and the path it names
    out, reason, where = file, errno.EEXIST, file
    if blocked == "below a file":
        out = where = file / "sub"
        reason = errno.ENOTDIR
    if blocked == "artifact is a directory":
        # the command's last file: none of its files may be written first
        last = {"classify": "critical_points.json", "run": "summary.json",
                "montecarlo": "basins.csv", "invert": "inverse.json"}[sub]
        out = tmp_path / "out"
        (out / last).mkdir(parents=True)
    if blocked == "name too long":
        where = tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
        out, reason = where / "sub", errno.ENAMETOOLONG
    if blocked == "path too long":
        out = tmp_path.joinpath("deep", *["y" * 250] * 20)
        limit = os.pathconf(tmp_path, "PC_PATH_MAX")
        # the first directory whose path with its final NUL is over the limit
        where = next(path for path in [*reversed(out.parents), out]
                     if len(os.fsencode(path)) >= limit)
        reason = errno.ENAMETOOLONG
    if blocked == "artifact path over the limit":
        # --out fits the limit, but the path of its longest file is over it
        # by the final NUL; so is the probe, a temporary name as long
        longest = {"classify": "critical_points.json", "run": "trajectory.csv",
                   "montecarlo": "report.json", "invert": "inverse.json"}[sub]
        limit = os.pathconf(tmp_path, "PC_PATH_MAX")
        # the bytes of --out past tmp_path, slashes included
        below = limit - 1 - len(longest) - len(os.fsencode(tmp_path))
        parts = ["y" * 99] * (below // 100 - 1) + ["z" * (below % 100 + 99)]
        out = tmp_path.joinpath(*parts)
        assert len(os.fsencode(out / longest)) == limit
        # 8 random hex digits, then "~" up to the artifact's length
        where = out / (".tmp-XXXXXXXX" + "~" * max(1, len(longest) - 13))
        reason = errno.ENAMETOOLONG
    expected = f"error: --out {out}: {os.strerror(reason)}: {where}\n"
    if blocked == "artifact is a directory":
        expected = f"error: --out {out}: {out / last} is a directory\n"
    extra = {"montecarlo": ["--trials", "5"], "invert": ["--y", "0.1,0.2"]}.get(sub, [])
    assert main([sub, "--objective", "nesterov", *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.sub(r"/\.tmp-\w{8}~", "/.tmp-XXXXXXXX~", captured.err) == expected
    assert file.read_text() == "kept\n"
    if blocked == "artifact is a directory":
        assert [path.name for path in out.iterdir()] == [last]
    else:  # no directory made for --out is left behind
        assert [path.name for path in tmp_path.iterdir()] == ["file"]


def test_a_full_disk_at_the_rename_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    from descentlab.cli import main

    def full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

    monkeypatch.setattr(os, "replace", full)
    out = tmp_path / "out"
    assert main(["run", "--objective", "nesterov", "--out", str(out)]) == 1
    first = out / "trajectory.csv"
    assert capsys.readouterr().err == f"error: {os.strerror(errno.ENOSPC)}: {first}\n"
    # the temporary file is gone, and so is the empty directory made for it
    assert not out.exists()


def test_a_failed_command_removes_only_the_empty_directories_it_made(tmp_path, monkeypatch):
    from descentlab.cli import main

    replace = os.replace

    def full_at_the_summary(src, dst):
        if os.path.basename(dst) == "summary.json":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", full_at_the_summary)
    (tmp_path / "kept").mkdir()
    written, empty = tmp_path / "kept" / "a" / "b", tmp_path / "kept" / "c" / "d"
    assert main(["run", "--objective", "nesterov", "--out", str(written)]) == 1
    # the trajectory was written, so its directory and those above it stay
    assert [path.name for path in written.iterdir()] == ["trajectory.csv"]
    assert main(["run", "--objective", "nesterov", "--alpha", "100", "--out", str(empty)]) == 2
    assert sorted(path.name for path in (tmp_path / "kept").iterdir()) == ["a"]


def test_an_out_value_that_is_not_a_path_exits_2(tmp_path, capsys):
    from descentlab.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objective": "nesterov", "out": 5}))
    assert main(["classify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: out must be a directory path, got 5\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("quartic:[[1,2],[3]]", "Q must be numbers, got [[1, 2], [3]]"),
        ('diagonal_quadratic:{"a":1}', "lambdas must be numbers, got {'a': 1}"),
        ('diagonal_quadratic:"abc"', "lambdas must be numbers, got 'abc'"),
        ("diagonal_quadratic:[1,true]", "lambdas must be numbers, got [1, True]"),
        ("quartic:[[1,[2]],[3,4]]", "Q must be numbers, got [[1, [2]], [3, 4]]"),
        ("quartic:" + "[" * 100000 + "]" * 100000, "bad objective parameters '[[["),
    ],
)
def test_a_malformed_objective_exits_2_with_one_line(capsys, spec, message):
    from descentlab.cli import main

    assert main(["classify", "--objective", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("index", ["7", "3", "-1"])
def test_stable_set_index_out_of_range_exits_2_before_sampling(tmp_path, capsys, index):
    from descentlab.cli import main

    out = tmp_path / "out"
    argv = ["stable-set", "--objective", "nesterov", "--index", index, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: index {index} is out of range for 3 critical point records\n"
    )
    assert not out.exists()


ALPHA_READERS = [
    ("run", "run"),
    ("rates", "run"),
    ("montecarlo", "monte_carlo"),
    ("stable-set", "find_critical_points"),
    ("invert", "invert"),
]


@pytest.mark.parametrize("sub, work", ALPHA_READERS)
@pytest.mark.parametrize("alpha", ["100", "-1"])
def test_a_bad_alpha_exits_2_before_any_work(tmp_path, capsys, monkeypatch, sub, work, alpha):
    import descentlab.cli
    from descentlab.cli import main

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before alpha was refused")

    monkeypatch.setattr(descentlab.cli, work, no_work)
    out = tmp_path / "out"
    extra = {"montecarlo": ["--trials", "5"], "invert": ["--y", "0.1,0.2"]}.get(sub, [])
    argv = [sub, "--objective", "nesterov", *extra, "--alpha", alpha, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "objective, flag, value, message",
    [
        ("nesterov", "--grid", str(MAX_GRID + 1),
         f"grid must be at most {MAX_GRID}, got {MAX_GRID + 1}"),
        ("nesterov", "--grid", str(10**30), f"grid must be at most {MAX_GRID}, got {10**30}"),
        ("nesterov", "--grid", "0", "grid must be at least 1"),
        ("nesterov", "--radius", "-1", "radius must be non-negative, got -1.0"),
        ("nesterov", "--radius", "1.5e308", "radius 1.5e+308 is too large to space a grid"),
        ("diagonal_quadratic:[1,-1,2]", "--grid", "41",
         "grid sampling is implemented for dimension 2 only"),
    ],
)
def test_a_bad_stable_set_grid_or_radius_exits_2_before_the_search(
    tmp_path, capsys, monkeypatch, objective, flag, value, message
):
    import descentlab.cli
    from descentlab.cli import main

    def no_search(*args, **kwargs):
        raise AssertionError("the critical-point search ran before the grid was refused")

    monkeypatch.setattr(descentlab.cli, "find_critical_points", no_search)
    out = tmp_path / "out"
    assert main(["stable-set", "--objective", objective, flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "sub, key, value",
    [
        ("run", "x0", ["a", 1]),
        ("run", "x0", [[0.5, 0.3], [0.1]]),
        ("run", "x0", 0.5),
        ("rates", "x0", [0.5, None]),
        ("run", "x0", "nan,0.3"),
        ("invert", "y", [True, 1.0]),
        ("invert", "y", []),
        ("montecarlo", "init_box", [[0, "b"], [0, 1]]),
        ("montecarlo", "init_box", [[0, 1], [0]]),
        ("montecarlo", "init_box", [0, 1]),
        ("montecarlo", "init_box", [[0, 1, 2], [0, 1, 2]]),
        ("montecarlo", "init_box", "0,0:1"),
        ("montecarlo", "init_box", "0,0"),
        ("montecarlo", "init_box", "0,0:1,1:2,2"),
        ("run", "x0", "0.5:0.3"),
        ("run", "x0", "0.5,,0.3"),
    ],
)
def test_vector_config_values_are_checked_where_they_merge(tmp_path, capsys, sub, key, value):
    from descentlab.cli import OPTIONS, VECTOR_FORMS, main

    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"objective": "nesterov", "alpha": 0.05, "trials": 20, "y": [0.95, 1.7], key: value}
    ))
    assert main([sub, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = VECTOR_FORMS[OPTIONS[key].kind]
    assert captured.err == f"error: {key} must be {expected}, got {value!r}\n"


@pytest.mark.parametrize(
    "sub, key, value, message",
    [
        ("run", "x0", [0.5, 0.3, 0.1], "x0 must have shape (2,)"),
        ("rates", "x0", "0.5", "x0 must have shape (2,)"),
        ("invert", "y", [0.95, 1.7, 0.0], "y must have shape (2,)"),
        ("montecarlo", "init_box", [[0, 1]], "init_box must have shape (2, 2)"),
        ("montecarlo", "init_box", "0,0,0:1,1,1", "init_box must have shape (2, 2)"),
    ],
)
def test_vector_values_of_the_wrong_length_exit_2_with_one_line(
    tmp_path, capsys, sub, key, value, message
):
    from descentlab.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"objective": "nesterov", "alpha": 0.05, "trials": 20, "y": [0.95, 1.7], key: value}
    ))
    assert main([sub, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("sub, extra, flag, value, artifact, key, expected", [
    ("run", [], "--x0", "-0.5,0.3", "summary.json", "x0", [-0.5, 0.3]),
    ("invert", ["--alpha", "0.05"], "--y", "-0.95,1.7", "inverse.json", "y", [-0.95, 1.7]),
    ("montecarlo", ["--trials", "20"], "--init-box", "-1,-1:1,1", "report.json", "init_box",
     [[-1.0, 1.0], [-1.0, 1.0]]),
])
def test_a_vector_flag_takes_a_value_that_starts_with_a_minus(
    tmp_path, capsys, sub, extra, flag, value, artifact, key, expected
):
    from descentlab.cli import main

    argv = [sub, "--objective", "nesterov", *extra, flag, value, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / artifact).read_text())[key] == expected
    # a malformed or non-finite one is still refused by the value check, an
    # absent one by argparse
    for bad in (value + ",x", "-inf,0", "-nan,0"):
        assert main([sub, "--objective", "nesterov", *extra, flag, bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be a list of finite ")
        assert captured.err.endswith(f", got '{bad}'\n") and captured.err.count("\n") == 1
    with pytest.raises(SystemExit) as exited:
        main([sub, "--objective", "nesterov", *extra, flag, "--out", str(tmp_path / "d")])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: expected one argument\n")


@pytest.mark.parametrize("sub, work, argv, unrecognized", [
    ("run", "run", ["--objective", "nesterov", "--x", "0.5,0.3"], "--x 0.5,0.3"),
    ("run", "run", ["--objective", "nesterov", "--x", "-0.5,0.3"], "--x -0.5,0.3"),
    ("run", "run", ["--obj", "nesterov"], "--obj nesterov"),
    ("montecarlo", "monte_carlo", ["--objective", "nesterov", "--trials", "20",
                                   "--init", "-1,-1:1,1"], "--init -1,-1:1,1"),
])
def test_an_abbreviated_flag_exits_2_with_one_line_before_any_work(
    capsys, monkeypatch, sub, work, argv, unrecognized
):
    # an abbreviation that argparse expanded would bypass _joined_vectors:
    # --x would run as --x0, but not with a value starting with '-'
    import descentlab.cli
    from descentlab.cli import main

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran for an abbreviated flag")

    monkeypatch.setattr(descentlab.cli, work, no_work)
    with pytest.raises(SystemExit) as exited:
        main([sub, *argv])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"descentlab: error: unrecognized arguments: {unrecognized}\n"


def test_vector_config_values_may_be_lists_or_strings(tmp_path, capsys):
    from descentlab.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "objective": "nesterov", "x0": ["0.5", 0.3], "trials": 20,
        "init_box": [[0.1, 0.2], ["0.1", 0.2]],
    }))
    assert main(["run", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["x0"] == [0.5, 0.3]
    assert main(["montecarlo", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "saddle_hits: 0\n"


@pytest.mark.parametrize("sub", ["montecarlo", "classify", "stable-set", "run", "rates", "invert"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_exits_2_with_one_line(tmp_path, capsys, monkeypatch, sub, source):
    import descentlab.cli
    from descentlab.cli import main

    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran before the seed was refused")

    monkeypatch.setattr(descentlab.cli, "run", no_descent)
    out = tmp_path / "out"
    argv = [sub, "--objective", "nesterov", "--out", str(out)]
    argv += {"montecarlo": ["--trials", "20"], "invert": ["--y", "0.5,0.5"]}.get(sub, [])
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_a_flag_of_the_wrong_type_is_one_line_of_usage_error(capsys):
    from descentlab.cli import main

    with pytest.raises(SystemExit) as exited:
        main(["montecarlo", "--objective", "nesterov", "--seed", "x"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "descentlab montecarlo: error: argument --seed: invalid int value: 'x'\n"
    )


def test_a_census_too_large_for_memory_is_one_line_and_exit_1():
    import resource

    def limit_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    # at the 100-D trial cap the starts take 160 MB, and drawing them twice
    # that: more than the child's 256 MB of address space, of which the
    # interpreter with numpy loaded takes about 100 MB
    from descentlab.experiments import MAX_TRIALS

    objective = "diagonal_quadratic:" + json.dumps([1.0] * 100)
    proc = subprocess.run(
        CMD + ["montecarlo", "--objective", objective, "--trials", str(2 * MAX_TRIALS // 100)],
        capture_output=True, text=True, timeout=300, preexec_fn=limit_memory,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1


FLAG_SETS = {
    "run": {"x0"},
    "montecarlo": {"trials", "init-box", "n-jobs"},
    "stable-set": {"radius", "grid", "index"},
    "rates": {"x0"},
}
STEPPING = {"objective", "alpha", "theta", "seed", "tol", "max-iters", "out", "config"}


@pytest.mark.parametrize("sub, flags", [
    *[(sub, STEPPING | extra) for sub, extra in FLAG_SETS.items()],
    ("classify", {"objective", "seed", "out", "config"}),
    ("invert", {"objective", "alpha", "theta", "seed", "tol", "out", "config", "y"}),
])
def test_each_subcommand_takes_exactly_its_flags(sub, flags):
    import argparse

    from descentlab.cli import build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    taken = {
        option[2:] for action in subparsers.choices[sub]._actions
        for option in action.option_strings if option not in ("-h", "--help")
    }
    assert taken == flags


@pytest.mark.parametrize("sub, flag", [
    ("classify", "--alpha"), ("classify", "--theta"), ("classify", "--tol"),
    ("classify", "--max-iters"), ("invert", "--max-iters"),
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, sub, flag):
    from descentlab.cli import main

    extra = ["--y", "0.1,0.2"] if sub == "invert" else []
    with pytest.raises(SystemExit) as exited:
        main([sub, "--objective", "nesterov", *extra, flag, "0.1"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"descentlab: error: unrecognized arguments: {flag} 0.1\n"


@pytest.mark.parametrize("sub, argv", [
    ("run", ["--objective", "nesterov", "--x0", "0.5,0.3"]),
    ("montecarlo", ["--objective", "nesterov", "--trials", "20"]),
    ("classify", ["--objective", "nesterov"]),
    ("stable-set", ["--objective", "nesterov", "--grid", "5"]),
    ("invert", ["--objective", "nesterov", "--alpha", "0.05", "--y", "0.95,1.7"]),
    ("rates", ["--objective", "strongly_convex_quadratic:[1,2]", "--alpha", "0.2", "--x0", "1,1"]),
])
def test_each_subcommand_writes_exactly_its_declared_artifacts(tmp_path, capsys, sub, argv):
    from descentlab.cli import COMMANDS, main

    assert main([sub, *argv, "--out", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(COMMANDS[sub].artifacts)


@pytest.mark.parametrize("spec, bound", [
    ("diagonal_quadratic:[1e308,-1]", "L = 1e+308, B = 2"),
    ("diagonal_quadratic:[1e200,-1]", "L = 1e+200, B = 2"),
    ("quartic:[[1e308]]", "L = inf, B = 1"),
])
def test_objective_parameters_that_overflow_exit_2_with_one_line(capsys, spec, bound):
    import warnings

    from descentlab.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", "--objective", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = "quartic_copositive" if spec.startswith("quartic") else "diagonal_quadratic"
    assert captured.err == (
        f"error: {name} is too large for float arithmetic: d * (L * B)**2 overflows with {bound}\n"
    )


def test_an_objective_config_value_that_is_not_a_string_exits_2(tmp_path, capsys):
    from descentlab.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objective": 5}))
    assert main(["classify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: an objective spec must be a string, got 5\n"


def test_invert_refuses_a_negative_tolerance_with_one_line():
    # it ran the whole budget and ended with exit 1 before
    proc = cli("invert", "--objective", "nesterov", "--y", "0.1,0.1", "--tol", "-1", check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: tol must be non-negative, got -1.0\n"


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path, capsys):
    import gc

    from descentlab.cli import main

    frozen = gc.get_freeze_count()
    assert main(["run", "--objective", "nesterov", "--x0", "0.5,0.3",
                 "--out", str(tmp_path)]) == 0
    assert main(["run", "--objective", "nesterov", "--max-iters", "-1"]) == 2
    assert gc.get_freeze_count() == frozen


# entry_point as a console script calls it, with an atexit handler that
# reports whether the heap was frozen when it ran
AT_EXIT = """\
import atexit, gc, sys
from descentlab.cli import entry_point
atexit.register(lambda: print(f"atexit: frozen {gc.get_freeze_count() > 0}"))
sys.argv = ["descentlab", *sys.argv[1:]]
entry_point()
"""


def test_entry_point_freezes_the_heap_and_still_runs_atexit_handlers(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", AT_EXIT, "run", "--objective", "nesterov", "--x0", "0.5,0.3",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    text, _, handler = proc.stdout.rpartition("}\n")
    assert handler == "atexit: frozen True\n"
    summary = json.loads(text + "}\n")
    assert json.loads((out / "summary.json").read_text()) == summary
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == summary["n_steps"] + 2
    assert lines[-1].split(",")[1:3] == [repr(v) for v in summary["final_x"]]
    assert sorted(path.name for path in out.iterdir()) == ["summary.json", "trajectory.csv"]

    refused = subprocess.run(
        [sys.executable, "-c", AT_EXIT, "run", "--objective", "nesterov", "--max-iters", "-1",
         "--out", str(tmp_path / "refused")],
        capture_output=True, text=True, timeout=300,
    )
    assert refused.returncode == 2
    assert refused.stdout == "atexit: frozen True\n"
    assert refused.stderr == "error: max_iters must be a non-negative integer, got -1\n"
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--objective", "nesterov", "--trials", "200"],
    ["run", "--objective", "quartic:[[0.25]]", "--alpha", "0.1", "--tol", "0",
     "--max-iters", "300", "--x0", "0.6"],
])
def test_cli_runs_clean_in_development_mode(tmp_path, argv):
    # -X dev warns of a file never closed; the frozen heap must not hide one
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "descentlab",
         *argv, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# flags besides --objective nesterov and --out for a quick run of each command
QUICK = {
    "run": ["--x0", "0.5,0.3"], "montecarlo": ["--trials", "20"], "classify": [],
    "stable-set": ["--grid", "5"], "invert": ["--alpha", "0.05", "--y", "0.95,1.7"],
    "rates": ["--x0", "0.5,0.3"],
}


def _modes(directory):
    return {path.name: stat.S_IMODE(path.stat().st_mode) for path in directory.iterdir()}


@pytest.mark.parametrize("sub", sorted(QUICK))
def test_artifacts_have_the_mode_of_a_plainly_opened_file(tmp_path, capsys, sub):
    from descentlab.cli import COMMANDS, main

    out = tmp_path / "out"
    assert main([sub, "--objective", "nesterov", *QUICK[sub], "--out", str(out)]) == 0
    capsys.readouterr()
    modes = _modes(out)
    (out / "plain").open("w").close()
    assert sorted(modes) == sorted(COMMANDS[sub].artifacts)
    assert set(modes.values()) == {_modes(out)["plain"]}


def test_artifacts_follow_the_umask_of_the_process(tmp_path):
    # the umask is set in the child only
    out = tmp_path / "out"
    proc = subprocess.run(CMD + ["montecarlo", "--objective", "nesterov", *QUICK["montecarlo"],
                                 "--out", str(out)], capture_output=True, timeout=300,
                          umask=0o027)
    assert proc.returncode == 0, proc.stderr
    assert _modes(out) == dict.fromkeys(["report.json", "trials.csv", "basins.csv"], 0o640)
