"""Command-line interface, exercised through real subprocesses."""

import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_montecarlo_requires_trials():
    proc = cli("montecarlo", "--objective", "nesterov", check=False)
    assert proc.returncode == 2
    assert "--trials" in proc.stderr


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


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"objective": "nesterov", "stepsize": 0.1}))
    proc = cli("run", "--config", str(config), check=False)
    assert proc.returncode == 2
    assert "stepsize" in proc.stderr


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
    from descentlab.cli import NUMERIC_KEYS, main

    assert key in NUMERIC_KEYS
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objective": "nesterov", key: value}))
    assert main(["classify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be {'an integer' if NUMERIC_KEYS[key] is int else 'a number'}, got {value!r}\n"


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
    from descentlab.cli import VECTOR_FORMS, VECTOR_KEYS, main

    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"objective": "nesterov", "alpha": 0.05, "trials": 20, "y": [0.95, 1.7], key: value}
    ))
    assert main([sub, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = VECTOR_FORMS[VECTOR_KEYS[key]]
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
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = subprocess.run(
        CMD + ["montecarlo", "--objective", "nesterov", "--trials", "1000000000000"],
        capture_output=True, text=True, timeout=300, preexec_fn=limit_memory,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1
