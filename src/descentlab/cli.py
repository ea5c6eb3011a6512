"""Command-line front end.

Subcommands wire the objective zoo, the descent engine, and the
experiment drivers into reproducible runs with file outputs.  Each option
is declared once, in ``OPTIONS``, and each subcommand once, in
``COMMANDS``: the parser, the config keys, their conversions, checks and
defaults all come from these two tables.  Every command honors --seed,
accepts --config with a JSON defaults file (explicit flags win), and
writes output files atomically.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .critical import CHUNK, _settled, find_critical_points, grid_spacing, sample_local_stable_set
from .engine import DEFAULT_POLICY, THETA_DEFAULT, GradientMap, StopPolicy, alpha_from_theta, run
from .errors import ContractViolationError, DescentLabError, NumericalFailureError, _check_count
from .experiments import _best_of, assign_basin, monte_carlo, rate_fits
from .fileio import _atomic_handle, atomic_write_json, atomic_write_text, json_text
from .inverse import invert
from .zoo import _has_bool, parse_objective

REQUIRED = object()  # the default of an option that every command reading it requires


class Option(NamedTuple):
    kind: str  # "int", "float", "str", "point" or "box"
    default: object  # the value when neither a flag nor the config gives one
    help: str


# Every option, as flag --key (with "-" for "_") and as config key.  A
# config file may give any of them to any command.
OPTIONS = {
    "objective": Option("str", REQUIRED, "objective name, optionally 'name:[json params]'"),
    "alpha": Option("float", None, "step size (exclusive with --theta)"),
    "theta": Option("float", THETA_DEFAULT, "step size as a fraction of 1/L"),
    "seed": Option("int", 0, "RNG seed"),
    "tol": Option("float", DEFAULT_POLICY.tol, "gradient-norm stopping tolerance"),
    "max_iters": Option("int", DEFAULT_POLICY.max_iters, "iteration cap"),
    "out": Option("str", None, "directory for output files"),
    "x0": Option("point", None, "start point 'v_1,..,v_d' (default: the box center "
                 "plus a quarter of its widths)"),
    "trials": Option("int", REQUIRED, "number of random initializations"),
    "init_box": Option("box", None, "initialization box 'lo_1,..,lo_d:hi_1,..,hi_d' "
                       "(default: the domain box)"),
    "n_jobs": Option("int", 1, f"threads stepping chunks of {CHUNK} trials, at least 1; "
                     "capped by the core count and the number of chunks"),
    "radius": Option("float", 0.5, "sampling ball radius"),
    "grid": Option("int", 41, "grid points per axis"),
    "index": Option("int", None, "record index to sample (default: first strict saddle)"),
    "y": Option("point", REQUIRED, "target point 'v_1,..,v_d'"),
}
_NUMBER_TYPES = {"int": int, "float": float}
VECTOR_FORMS = {
    "point": "a list of finite numbers or 'v_1,..,v_d'",
    "box": "a list of finite [lo, hi] pairs or 'lo_1,..,lo_d:hi_1,..,hi_d'",
}


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 or not JSON
        reason = getattr(exc, "strerror", None) or exc
        raise ContractViolationError(f"config file {path}: {reason}") from exc
    if not isinstance(config, dict):
        raise ContractViolationError("config file must contain a JSON object")
    unknown = set(config) - set(OPTIONS)
    if unknown:
        raise ContractViolationError(f"unknown config keys: {', '.join(sorted(unknown))}")
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


def _as_array(key: str, value, kind: str) -> np.ndarray:
    """``value`` as a finite float point or (d, 2) box.

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
    ndim = 1 if kind == "point" else 2
    shaped = array.ndim == ndim and array.size > 0 and (ndim == 1 or array.shape[1] == 2)
    if _has_bool(value) or not shaped or not np.isfinite(array).all():
        raise ContractViolationError(f"{key} must be {VECTOR_FORMS[kind]}, got {value!r}")
    return array


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _merged(args: argparse.Namespace, command: Command, created: list) -> dict:
    """Resolve every input of ``command``, refusing a bad one before any work.

    Each option comes from its flag, else the config file, else its
    default, and is converted by its kind in ``OPTIONS`` whether or not
    ``command`` reads it.  A missing required option, --alpha with
    --theta, a bad seed and an --out that cannot hold the command's files
    are refused first; the directories made for --out are appended to
    ``created``.  Then "objective" becomes the parsed ``Objective``
    and an unset "x0" the quarter point of its box; a command reading
    "alpha" gets "gmap", its certified ``GradientMap``, one reading
    "max_iters" gets "policy", its ``StopPolicy``, and one reading "grid"
    has its grid, radius and objective dimension checked.
    """
    config = _load_config(args.config) if args.config else {}
    opts = {}
    for key, option in OPTIONS.items():
        flag = getattr(args, key, None)
        value = flag if flag is not None else config.get(key)
        if value is not None and option.kind in _NUMBER_TYPES:
            value = _as_number(key, value, _NUMBER_TYPES[option.kind])
        elif value is not None and option.kind in VECTOR_FORMS:
            value = _as_array(key, value, option.kind)
        opts[key] = value
    if "alpha" in command.options and opts["alpha"] is not None and opts["theta"] is not None:
        raise ContractViolationError("set at most one of --alpha and --theta")
    for key in command.options:
        if opts[key] is None:
            if OPTIONS[key].default is REQUIRED:
                raise ContractViolationError(f"{_flag(key)} is required")
            opts[key] = OPTIONS[key].default
    _check_count(opts["seed"], "seed")
    if opts["out"] is not None:
        _make_out_dir(opts["out"], command.artifacts, created)
    objective = opts["objective"] = parse_objective(opts["objective"])
    if "alpha" in command.options:
        alpha = opts["alpha"]
        if alpha is None:
            alpha = alpha_from_theta(objective, opts["theta"])
        opts["gmap"] = GradientMap(objective, alpha)
    if "max_iters" in command.options:
        opts["policy"] = StopPolicy(tol=opts["tol"], max_iters=opts["max_iters"])
    if "x0" in command.options and opts["x0"] is None:
        # Deterministic default start: the quarter point between the box
        # center and the upper corner, which avoids the center's frequent
        # coincidence with a critical point.
        lo, hi = objective.domain_box[:, 0], objective.domain_box[:, 1]
        opts["x0"] = (lo + hi) / 2.0 + (hi - lo) / 4.0
    if "grid" in command.options:
        grid_spacing(opts["radius"], opts["grid"], objective.dimension)
    return opts


class _Probed(Exception):
    """Abandons the probe file of ``_make_out_dir``."""


def _make_out_dir(out, artifacts, created: list) -> None:
    """Make the directory --out and write one file in it, so that the OS
    refuses an --out that cannot hold the command's files before any work.

    The missing directories of ``out`` are made, outermost first, and
    appended to ``created``.  The probe is the temporary file of the
    longest of ``artifacts``, written through ``_atomic_handle`` as every
    artifact is, so its path is at least as long as every artifact's; it
    is abandoned before it is renamed into place.  An --out in which the
    path of one of ``artifacts`` is a directory is refused too.
    """
    if not isinstance(out, str):
        raise ContractViolationError(f"out must be a directory path, got {out!r}")
    path, missing = os.path.abspath(out), []
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    try:
        with _atomic_handle(os.path.join(out, max(artifacts, key=len))) as handle:
            handle.write("probe\n")
            raise _Probed
    except _Probed:
        pass
    except OSError as exc:
        raise ContractViolationError(f"--out {out}: {_os_reason(exc)}") from exc
    finally:
        created.extend(path for path in reversed(missing) if os.path.isdir(path))
    for path in (os.path.join(out, name) for name in artifacts):
        if os.path.isdir(path):
            raise ContractViolationError(f"--out {out}: {path} is a directory")


def _os_reason(exc: OSError) -> str:
    """The OS's reason for ``exc`` and the path it names, if any."""
    path = exc.filename2 or exc.filename  # a rename names the artifact second
    return f"{exc.strerror or exc}" + ("" if path is None else f": {path}")


def _out_path(opts, name: str) -> str | None:
    return None if opts["out"] is None else os.path.join(opts["out"], name)


def _emit(payload, opts, filename: str) -> None:
    """Print ``payload``'s JSON text and write the same text to ``filename``."""
    text = json_text(payload)
    sys.stdout.write(text)
    path = _out_path(opts, filename)
    if path:
        atomic_write_text(path, text)


def _labelled_run(opts):
    """The trajectory from the resolved start, the critical points and its basin.

    The critical points are searched for, with --seed, only when the
    trajectory settled (see ``critical._settled``); the label of any
    other reads no records, so it is found with none.
    """
    traj = run(opts["gmap"], opts["x0"], opts["policy"])
    records = []
    if _settled([traj.stop_reason], traj.grad_norms[-1:])[0]:
        records = find_critical_points(opts["objective"], seed=opts["seed"])
    return traj, records, assign_basin(traj, records)


def cmd_run(opts) -> int:
    traj, records, label = _labelled_run(opts)
    summary = {
        "objective": opts["objective"].to_dict(),
        "alpha": opts["gmap"].alpha,
        "x0": opts["x0"],
        "stop_reason": traj.stop_reason,
        "n_steps": traj.n_steps,
        "final_x": traj.final_x,
        "final_f": traj.f_values[-1],
        "final_grad_norm": traj.final_grad_norm,
        "basin": str(label),
        "basin_location": records[label].location if isinstance(label, int) else None,
    }
    csv_path = _out_path(opts, "trajectory.csv")
    if csv_path:
        traj.to_csv(csv_path)
    _emit(summary, opts, "summary.json")
    return 0


def cmd_montecarlo(opts) -> int:
    report = monte_carlo(opts["objective"], opts["gmap"].alpha, n_trials=opts["trials"],
                         seed=opts["seed"], init_box=opts["init_box"],
                         policy=opts["policy"], n_jobs=opts["n_jobs"])
    print(f"saddle_hits: {report.saddle_hits}")
    json_path = _out_path(opts, "report.json")
    if json_path:
        atomic_write_json(json_path, report.to_dict())
        report.trials_to_csv(_out_path(opts, "trials.csv"))
        report.basins_to_csv(_out_path(opts, "basins.csv"))
    return 0


def cmd_classify(opts) -> int:
    records = find_critical_points(opts["objective"], seed=opts["seed"])
    _emit(records, opts, "critical_points.json")
    return 0


def cmd_stable_set(opts) -> int:
    radius, grid = opts["radius"], opts["grid"]
    records = find_critical_points(opts["objective"], seed=opts["seed"])
    if opts["index"] is not None:
        # a negative index is refused, not counted from the end
        if not 0 <= opts["index"] < len(records):
            raise ContractViolationError(f"index {opts['index']} is out of range for "
                                         f"{len(records)} critical point records")
        record = records[opts["index"]]
    else:
        saddles = [r for r in records if r.is_strict_saddle]
        if not saddles:
            raise ContractViolationError("objective has no strict saddle to sample")
        record = saddles[0]
    sample = sample_local_stable_set(opts["gmap"], record, radius=radius, grid=grid,
                                     policy=opts["policy"])
    summary = {
        "saddle": record.location,
        "radius": radius,
        "grid": grid,
        "n_points": sample.points.shape[0],
        "n_converged": np.count_nonzero(sample.converged),
        "max_subspace_distance": sample.max_subspace_distance,
    }
    csv_path = _out_path(opts, "stable_set.csv")
    if csv_path:
        sample.to_csv(csv_path)
    _emit(summary, opts, "stable_set_summary.json")
    return 0


def cmd_invert(opts) -> int:
    report = invert(opts["gmap"], opts["y"], tol=opts["tol"])
    _emit({"y": opts["y"], **report.to_dict()}, opts, "inverse.json")
    return 0


def cmd_rates(opts) -> int:
    traj, records, label = _labelled_run(opts)
    if not isinstance(label, int):
        print(f"trajectory did not settle in any basin (label {label}); no rate to fit",
              file=sys.stderr)
        return 1
    x_star = records[label].location
    # a regime whose gate rejects the trajectory is reported as null
    fitted = rate_fits(traj, x_star)
    fits, chosen = {fit.regime: fit for fit in fitted}, _best_of(fitted)
    payload = {
        "objective": opts["objective"].to_dict(),
        "alpha": opts["gmap"].alpha,
        "x0": opts["x0"],
        "limit": x_star,
        "linear": fits.get("Linear"),
        "power": fits.get("Power"),
        "chosen_regime": chosen.regime,
        "fitted_b": chosen.fitted_b,
        "fitted_exponent": chosen.fitted_exponent,
    }
    _emit(payload, opts, "rates.json")
    return 0


class Command(NamedTuple):
    func: Callable[[dict], int]
    help: str
    options: tuple  # the OPTIONS it reads, which are its flags besides --config
    artifacts: tuple  # the files it writes under --out


_STEPPING = ("objective", "alpha", "theta", "seed", "tol", "max_iters", "out")
COMMANDS = {
    "run": Command(cmd_run, "run one trajectory, write CSV and summary",
                   (*_STEPPING, "x0"), ("trajectory.csv", "summary.json")),
    "montecarlo": Command(cmd_montecarlo, "basin statistics over random starts",
                          (*_STEPPING, "trials", "init_box", "n_jobs"),
                          ("report.json", "trials.csv", "basins.csv")),
    "classify": Command(cmd_classify, "find and classify critical points",
                        ("objective", "seed", "out"), ("critical_points.json",)),
    "stable-set": Command(cmd_stable_set, "sample the local stable set of a saddle",
                          (*_STEPPING, "radius", "grid", "index"),
                          ("stable_set.csv", "stable_set_summary.json")),
    "invert": Command(cmd_invert, "preimage of a point under the gradient map",
                      ("objective", "alpha", "theta", "seed", "tol", "out", "y"),
                      ("inverse.json",)),
    "rates": Command(cmd_rates, "fit convergence rates along a trajectory",
                     (*_STEPPING, "x0"), ("rates.json",)),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _help(option: Option) -> str:
    if option.default is REQUIRED:
        return f"{option.help} (required)"
    return option.help if option.default is None else f"{option.help} (default {option.default})"


def build_parser() -> argparse.ArgumentParser:
    # flags are spelled in full: an abbreviation would slip past _joined_vectors
    parser = _Parser(
        prog="descentlab",
        description="Gradient-descent experiments: trajectories, basin "
        "statistics, critical points, stable sets, map inversion, rates.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for key in command.options:
            option = OPTIONS[key]
            p.add_argument(_flag(key), dest=key, type=_NUMBER_TYPES.get(option.kind),
                           help=_help(option))
        p.add_argument("--config", help="JSON file with default option values")
    return parser


_VECTOR_FLAGS = {_flag(key) for key, option in OPTIONS.items() if option.kind in VECTOR_FORMS}


def _joined_vectors(argv) -> list:
    """``argv`` with each point or box flag joined to a value starting '-'.

    argparse takes a token like '-0.5,0.3' for an unknown flag, since it
    is no plain negative number, so ``--x0 -0.5,0.3`` would be a usage
    error; here it becomes ``--x0=-0.5,0.3``.  Every flag starts '--', so
    a token with a single leading '-' is a value: ``--x0 --out d`` stays a
    usage error, and a value such as '-inf,0' is refused by ``_as_array``.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] in _VECTOR_FLAGS and token[:1] == "-" and token[:2] != "--":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    """Run one command; a refused or failed one leaves no directory made for --out
    behind, unless a file was written in it."""
    args = build_parser().parse_args(_joined_vectors(sys.argv[1:] if argv is None else argv))
    command = COMMANDS[args.command]
    created, status = [], 1  # 1: a failure, caught below or not
    try:
        status = command.func(_merged(args, command, created))
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
    except DescentLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:  # the OS refused an artifact: a full disk, say
        print(f"error: {_os_reason(exc)}", file=sys.stderr)
    finally:
        if status != 0:
            for path in reversed(created):
                try:
                    os.rmdir(path)
                except OSError:  # not empty: neither is any directory above it
                    break
    return status


def entry_point() -> None:
    status = main(sys.argv[1:])
    # Every artifact is renamed into place and stdout written by now.  The
    # collection passes of interpreter shutdown walk every tracked object
    # of numpy and the stdlib, and skip a frozen heap: from here to process
    # end a 10k-trial census took a median 25.6 ms, and 7.6 ms frozen (2
    # cores, Python 3.11.7, numpy 2.4.6).  sys.exit still runs atexit
    # handlers and flushes the streams, which os._exit would not.  main
    # itself leaves the heap of in-process callers alone.
    gc.freeze()
    sys.exit(status)
