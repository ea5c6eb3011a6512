"""Command-line front end.

Subcommands wire the objective zoo, the descent engine, and the
experiment drivers into reproducible runs with file outputs.  Every
command honors --seed, accepts --config with a JSON defaults file
(explicit flags win), and writes output files atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .critical import find_critical_points, sample_local_stable_set
from .engine import GradientMap, StopPolicy, _seeded_rng, alpha_from_theta, run
from .errors import ContractViolationError, DescentLabError, NumericalFailureError
from .experiments import (
    MIN_CHUNK,
    assign_basin,
    best_rate_fit,
    monte_carlo,
    rate_fits,
)
from .fileio import atomic_write_json
from .inverse import invert
from .zoo import Objective, parse_objective

THETA_DEFAULT = 0.99

CONFIG_KEYS = {
    "objective", "alpha", "theta", "x0", "init_box", "trials", "seed",
    "tol", "max_iters", "out", "radius", "grid", "index", "y", "n_jobs",
}
# Numeric options and the type each resolves to.  Flags arrive typed by
# argparse; config values are converted once, where the two are merged.
NUMERIC_KEYS = {
    "trials": int, "n_jobs": int, "seed": int, "max_iters": int, "grid": int,
    "index": int, "alpha": float, "theta": float, "tol": float, "radius": float,
}
# Vector options and the array dimension each resolves to: a point, or a
# box of [lo, hi] rows.  Converted once, where flags and config merge.
VECTOR_KEYS = {"x0": 1, "y": 1, "init_box": 2}
VECTOR_FORMS = {
    1: "a list of finite numbers or 'v_1,..,v_d'",
    2: "a list of finite [lo, hi] pairs or 'lo_1,..,lo_d:hi_1,..,hi_d'",
}


def _load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ContractViolationError("config file must contain a JSON object")
    unknown = set(config) - CONFIG_KEYS
    if unknown:
        raise ContractViolationError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    return config


def _as_number(key: str, value, kind):
    """``value`` as an int or a float; anything else is a contract violation.

    Numeric strings are accepted and an integral float passes for an int;
    booleans, NaN and fractional ints are refused.
    """
    number = None
    if not isinstance(value, bool):
        try:
            number = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    fractional = kind is int and isinstance(value, float) and number != value
    if number is None or number != number or fractional:
        expected = "an integer" if kind is int else "a number"
        raise ContractViolationError(f"{key} must be {expected}, got {value!r}")
    return number


def _has_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_has_bool, value)))


def _as_array(key: str, value, ndim: int) -> np.ndarray:
    """``value`` as a finite float point (ndim 1) or (d, 2) box (ndim 2).

    A string reads 'v_1,..,v_d' (a point) or 'lo_1,..,lo_d:hi_1,..,hi_d'
    (a box), as on the command line; a config list may hold numbers and
    numeric strings, not booleans.  Anything else is refused.
    """
    try:
        entries = value
        if isinstance(value, str):
            parts = [part.split(",") for part in value.split(":")]
            entries = parts[0] if len(parts) == 1 else list(zip(*parts, strict=True))
        array = np.array(entries, dtype=float)
    except (TypeError, ValueError):
        array = np.empty(0)
    shaped = array.ndim == ndim and array.size > 0 and (ndim == 1 or array.shape[1] == 2)
    if _has_bool(value) or not shaped or not np.isfinite(array).all():
        raise ContractViolationError(f"{key} must be {VECTOR_FORMS[ndim]}, got {value!r}")
    return array


def _merged(args: argparse.Namespace) -> dict:
    """Resolve option values: explicit flag, then config file, then default.

    Numeric values come back as int or float (see ``NUMERIC_KEYS``) and
    vector values as float arrays (see ``VECTOR_KEYS``).
    """
    config = _load_config(args.config) if args.config else {}
    merged = {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        value = flag if flag is not None else config.get(key)
        if value is not None and key in NUMERIC_KEYS:
            value = _as_number(key, value, NUMERIC_KEYS[key])
        elif value is not None and key in VECTOR_KEYS:
            value = _as_array(key, value, VECTOR_KEYS[key])
        merged[key] = value
    return merged


def _resolve_objective(opts) -> Objective:
    if not opts["objective"]:
        raise ContractViolationError("an --objective is required")
    return parse_objective(opts["objective"])


def _resolve_alpha(opts, objective: Objective) -> float:
    alpha, theta = opts["alpha"], opts["theta"]
    if alpha is not None and theta is not None:
        raise ContractViolationError("set at most one of --alpha and --theta")
    if alpha is not None:
        return alpha
    return alpha_from_theta(objective, THETA_DEFAULT if theta is None else theta)

def _resolve_policy(opts) -> StopPolicy:
    kwargs = {key: opts[key] for key in ("tol", "max_iters") if opts[key] is not None}
    return StopPolicy(**kwargs)


def _resolve_x0(opts, objective: Objective) -> np.ndarray:
    if opts["x0"] is not None:
        return opts["x0"]
    # Deterministic default start: the quarter point between the box
    # center and the upper corner, which avoids the center's frequent
    # coincidence with a critical point.
    lo, hi = objective.domain_box[:, 0], objective.domain_box[:, 1]
    return (lo + hi) / 2.0 + (hi - lo) / 4.0


def _resolve_seed(opts) -> int:
    seed = 0 if opts["seed"] is None else opts["seed"]
    _seeded_rng(seed)  # refuses a bad seed before any work
    return seed


def _out_path(opts, name: str) -> str | None:
    if opts["out"] is None:
        return None
    return os.path.join(os.fspath(opts["out"]), name)


def _emit(payload, opts, filename: str) -> None:
    print(json.dumps(payload, indent=2))
    path = _out_path(opts, filename)
    if path:
        atomic_write_json(path, payload)


def _labelled_run(opts):
    """The trajectory from the resolved start, the critical points and its basin."""
    objective = _resolve_objective(opts)
    alpha = _resolve_alpha(opts, objective)
    policy = _resolve_policy(opts)
    x0 = _resolve_x0(opts, objective)
    seed = _resolve_seed(opts)
    traj = run(GradientMap(objective, alpha), x0, policy)
    records = find_critical_points(objective, seed=seed)
    return objective, alpha, x0, traj, records, assign_basin(traj, records)


def cmd_run(args) -> int:
    opts = _merged(args)
    objective, alpha, x0, traj, records, label = _labelled_run(opts)
    summary = {
        "objective": objective.to_dict(),
        "alpha": float(alpha),
        "x0": [float(v) for v in x0],
        "stop_reason": traj.stop_reason.value,
        "n_steps": traj.n_steps,
        "final_x": [float(v) for v in traj.final_x],
        "final_f": float(traj.f_values[-1]),
        "final_grad_norm": float(traj.final_grad_norm),
        "basin": str(label),
        "basin_location": (
            [float(v) for v in records[label].location]
            if isinstance(label, int)
            else None
        ),
    }
    csv_path = _out_path(opts, "trajectory.csv")
    if csv_path:
        traj.to_csv(csv_path)
    _emit(summary, opts, "summary.json")
    return 0


def cmd_montecarlo(args) -> int:
    opts = _merged(args)
    objective = _resolve_objective(opts)
    alpha = _resolve_alpha(opts, objective)
    policy = _resolve_policy(opts)
    if opts["trials"] is None:
        raise ContractViolationError("--trials is required")
    report = monte_carlo(
        objective,
        alpha,
        n_trials=opts["trials"],
        seed=_resolve_seed(opts),
        init_box=opts["init_box"],
        policy=policy,
        n_jobs=1 if opts["n_jobs"] is None else opts["n_jobs"],
    )
    print(f"saddle_hits: {report.saddle_hits}")
    json_path = _out_path(opts, "report.json")
    if json_path:
        atomic_write_json(json_path, report.to_dict())
        report.trials_to_csv(_out_path(opts, "trials.csv"))
        report.basins_to_csv(_out_path(opts, "basins.csv"))
    return 0


def cmd_classify(args) -> int:
    opts = _merged(args)
    objective = _resolve_objective(opts)
    records = find_critical_points(objective, seed=_resolve_seed(opts))
    _emit([record.to_dict() for record in records], opts, "critical_points.json")
    return 0


def cmd_stable_set(args) -> int:
    opts = _merged(args)
    objective = _resolve_objective(opts)
    alpha = _resolve_alpha(opts, objective)
    policy = _resolve_policy(opts)
    records = find_critical_points(objective, seed=_resolve_seed(opts))
    if opts["index"] is not None:
        # a negative index is refused, not counted from the end
        if not 0 <= opts["index"] < len(records):
            raise ContractViolationError(
                f"index {opts['index']} is out of range for {len(records)} critical point records"
            )
        record = records[opts["index"]]
    else:
        saddles = [r for r in records if r.is_strict_saddle]
        if not saddles:
            raise ContractViolationError("objective has no strict saddle to sample")
        record = saddles[0]
    radius = 0.5 if opts["radius"] is None else opts["radius"]
    grid = 41 if opts["grid"] is None else opts["grid"]
    gmap = GradientMap(objective, alpha)
    sample = sample_local_stable_set(gmap, record, radius=radius, grid=grid, policy=policy)
    summary = {
        "saddle": [float(v) for v in record.location],
        "radius": radius,
        "grid": grid,
        "n_points": int(sample.points.shape[0]),
        "n_converged": int(np.count_nonzero(sample.converged)),
        "max_subspace_distance": sample.max_subspace_distance,
    }
    csv_path = _out_path(opts, "stable_set.csv")
    if csv_path:
        sample.to_csv(csv_path)
    _emit(summary, opts, "stable_set_summary.json")
    return 0


def cmd_invert(args) -> int:
    opts = _merged(args)
    objective = _resolve_objective(opts)
    alpha = _resolve_alpha(opts, objective)
    _resolve_seed(opts)  # unused, but refused when bad like every command's
    if opts["y"] is None:
        raise ContractViolationError("--y is required")
    y = opts["y"]
    tol = 1e-10 if opts["tol"] is None else opts["tol"]
    gmap = GradientMap(objective, alpha)
    report = invert(gmap, y, tol=tol)
    payload = {"y": [float(v) for v in y], **report.to_dict()}
    _emit(payload, opts, "inverse.json")
    return 0


def cmd_rates(args) -> int:
    opts = _merged(args)
    objective, alpha, x0, traj, records, label = _labelled_run(opts)
    if not isinstance(label, int):
        print(
            f"trajectory did not settle in any basin (label {label}); "
            "no rate to fit",
            file=sys.stderr,
        )
        return 1
    x_star = records[label].location
    # a regime whose gate rejects the trajectory is reported as null
    fits = {fit.regime: fit.to_dict() for fit in rate_fits(traj, x_star)}
    chosen = best_rate_fit(traj, x_star)
    payload = {
        "objective": objective.to_dict(),
        "alpha": float(alpha),
        "x0": [float(v) for v in x0],
        "limit": [float(v) for v in x_star],
        "linear": fits.get("Linear"),
        "power": fits.get("Power"),
        "chosen_regime": chosen.regime,
        "fitted_b": None if chosen.fitted_b is None else float(chosen.fitted_b),
        "fitted_exponent": (
            None if chosen.fitted_exponent is None else float(chosen.fitted_exponent)
        ),
    }
    _emit(payload, opts, "rates.json")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="descentlab",
        description="Gradient-descent experiments: trajectories, basin "
        "statistics, critical points, stable sets, map inversion, rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--objective", help="objective name, optionally 'name:[json params]'")
        p.add_argument("--alpha", type=float, help="step size (exclusive with --theta)")
        p.add_argument("--theta", type=float,
                       help="step size as a fraction of 1/L (default 0.99)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--tol", type=float, help="gradient-norm stopping tolerance")
        p.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap")
        p.add_argument("--out", help="directory for output files")
        p.add_argument("--config", help="JSON file with default option values")

    p_run = sub.add_parser("run", help="run one trajectory, write CSV and summary")
    common(p_run)
    p_run.add_argument("--x0", help="comma-separated start point")
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("montecarlo", help="basin statistics over random starts")
    common(p_mc)
    p_mc.add_argument("--trials", type=int, help="number of random initializations")
    p_mc.add_argument("--init-box", dest="init_box",
                      help="initialization box 'lo_1,..,lo_d:hi_1,..,hi_d'")
    p_mc.add_argument("--n-jobs", dest="n_jobs", type=int,
                      help="threads for trial chunks, at least 1 (default 1); capped "
                      f"by the core count and by chunks of {MIN_CHUNK} trials")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_cl = sub.add_parser("classify", help="find and classify critical points")
    common(p_cl)
    p_cl.set_defaults(func=cmd_classify)

    p_ss = sub.add_parser("stable-set", help="sample the local stable set of a saddle")
    common(p_ss)
    p_ss.add_argument("--radius", type=float, help="sampling ball radius (default 0.5)")
    p_ss.add_argument("--grid", type=int, help="grid points per axis (default 41)")
    p_ss.add_argument("--index", type=int,
                      help="record index to sample (default: first strict saddle)")
    p_ss.set_defaults(func=cmd_stable_set)

    p_inv = sub.add_parser("invert", help="preimage of a point under the gradient map")
    common(p_inv)
    p_inv.add_argument("--y", help="comma-separated target point")
    p_inv.set_defaults(func=cmd_invert)

    p_rt = sub.add_parser("rates", help="fit convergence rates along a trajectory")
    common(p_rt)
    p_rt.add_argument("--x0", help="comma-separated start point")
    p_rt.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolationError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except DescentLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
