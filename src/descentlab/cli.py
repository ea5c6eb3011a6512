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
from .engine import GradientMap, StopPolicy, alpha_from_theta, run
from .errors import ContractViolationError, DescentLabError, NumericalFailureError
from .experiments import (
    MIN_CHUNK,
    assign_basin,
    fit_linear_rate,
    fit_power_rate,
    monte_carlo,
)
from .fileio import atomic_write_json
from .inverse import invert
from .zoo import Objective, parse_objective

THETA_DEFAULT = 0.99

CONFIG_KEYS = {
    "objective", "alpha", "theta", "x0", "init_box", "trials", "seed",
    "tol", "max_iters", "out", "radius", "grid", "index", "y", "n_jobs",
}


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ContractViolationError(f"cannot parse vector {text!r}: {exc}") from None


def _parse_box(text: str) -> np.ndarray:
    """Parse 'lo_1,..,lo_d:hi_1,..,hi_d' into a (d, 2) box array."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ContractViolationError(
            f"box {text!r} must look like 'lo_1,..,lo_d:hi_1,..,hi_d'"
        )
    lo, hi = _parse_vector(parts[0]), _parse_vector(parts[1])
    if lo.shape != hi.shape:
        raise ContractViolationError("box corners must have the same dimension")
    return np.stack([lo, hi], axis=1)


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


def _merged(args: argparse.Namespace) -> dict:
    """Resolve option values: explicit flag, then config file, then default."""
    config = _load_config(args.config) if args.config else {}
    merged = {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else config.get(key)
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
        return float(alpha)
    return alpha_from_theta(objective, THETA_DEFAULT if theta is None else float(theta))

def _resolve_policy(opts) -> StopPolicy:
    kwargs = {}
    if opts["tol"] is not None:
        kwargs["tol"] = float(opts["tol"])
    if opts["max_iters"] is not None:
        kwargs["max_iters"] = int(opts["max_iters"])
    return StopPolicy(**kwargs)


def _resolve_x0(opts, objective: Objective) -> np.ndarray:
    if opts["x0"] is not None:
        x0 = opts["x0"]
        return _parse_vector(x0) if isinstance(x0, str) else np.asarray(x0, dtype=float)
    # Deterministic default start: the quarter point between the box
    # center and the upper corner, which avoids the center's frequent
    # coincidence with a critical point.
    lo, hi = objective.domain_box[:, 0], objective.domain_box[:, 1]
    return (lo + hi) / 2.0 + (hi - lo) / 4.0


def _resolve_seed(opts) -> int:
    return 0 if opts["seed"] is None else int(opts["seed"])


def _out_path(opts, name: str) -> str | None:
    if opts["out"] is None:
        return None
    return os.path.join(os.fspath(opts["out"]), name)


def _emit(payload: dict, opts, filename: str) -> None:
    print(json.dumps(payload, indent=2))
    path = _out_path(opts, filename)
    if path:
        atomic_write_json(path, payload)


def cmd_run(args) -> int:
    opts = _merged(args)
    objective = _resolve_objective(opts)
    alpha = _resolve_alpha(opts, objective)
    policy = _resolve_policy(opts)
    x0 = _resolve_x0(opts, objective)
    gmap = GradientMap(objective, alpha)
    traj = run(gmap, x0, policy)

    records = find_critical_points(objective, seed=_resolve_seed(opts))
    label = assign_basin(traj, records)
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
    init_box = opts["init_box"]
    if isinstance(init_box, str):
        init_box = _parse_box(init_box)
    elif init_box is not None:
        init_box = np.asarray(init_box, dtype=float)
    report = monte_carlo(
        objective,
        alpha,
        n_trials=int(opts["trials"]),
        seed=_resolve_seed(opts),
        init_box=init_box,
        policy=policy,
        n_jobs=1 if opts["n_jobs"] is None else int(opts["n_jobs"]),
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
    payload = [record.to_dict() for record in records]
    print(json.dumps(payload, indent=2))
    path = _out_path(opts, "critical_points.json")
    if path:
        atomic_write_json(path, payload)
    return 0


def cmd_stable_set(args) -> int:
    opts = _merged(args)
    objective = _resolve_objective(opts)
    alpha = _resolve_alpha(opts, objective)
    policy = _resolve_policy(opts)
    records = find_critical_points(objective, seed=_resolve_seed(opts))
    if opts["index"] is not None:
        record = records[int(opts["index"])]
    else:
        saddles = [r for r in records if r.is_strict_saddle]
        if not saddles:
            raise ContractViolationError("objective has no strict saddle to sample")
        record = saddles[0]
    radius = 0.5 if opts["radius"] is None else float(opts["radius"])
    grid = 41 if opts["grid"] is None else int(opts["grid"])
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
    if opts["y"] is None:
        raise ContractViolationError("--y is required")
    y = opts["y"]
    y = _parse_vector(y) if isinstance(y, str) else np.asarray(y, dtype=float)
    tol = 1e-10 if opts["tol"] is None else float(opts["tol"])
    gmap = GradientMap(objective, alpha)
    report = invert(gmap, y, tol=tol)
    payload = {"y": [float(v) for v in y], **report.to_dict()}
    _emit(payload, opts, "inverse.json")
    return 0


def cmd_rates(args) -> int:
    opts = _merged(args)
    objective = _resolve_objective(opts)
    alpha = _resolve_alpha(opts, objective)
    policy = _resolve_policy(opts)
    x0 = _resolve_x0(opts, objective)
    gmap = GradientMap(objective, alpha)
    traj = run(gmap, x0, policy)

    records = find_critical_points(objective, seed=_resolve_seed(opts))
    label = assign_basin(traj, records)
    if not isinstance(label, int):
        print(
            f"trajectory did not settle in any basin (label {label}); "
            "no rate to fit",
            file=sys.stderr,
        )
        return 1
    x_star = records[label].location
    linear = fit_linear_rate(traj, x_star)
    power = fit_power_rate(traj, x_star)
    chosen = linear if linear.r_squared >= power.r_squared else power
    payload = {
        "objective": objective.to_dict(),
        "alpha": float(alpha),
        "x0": [float(v) for v in x0],
        "limit": [float(v) for v in x_star],
        "linear": linear.to_dict(),
        "power": power.to_dict(),
        "chosen_regime": chosen.regime,
        "fitted_b": None if chosen.fitted_b is None else float(chosen.fitted_b),
        "fitted_exponent": (
            None if chosen.fitted_exponent is None else float(chosen.fitted_exponent)
        ),
    }
    _emit(payload, opts, "rates.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except DescentLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
