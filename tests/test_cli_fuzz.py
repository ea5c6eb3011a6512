"""Generated flag and config values, and objective specs, for every subcommand.

Whatever the values, a command ends with exit 0, 1 or 2, at most one
line on stderr and no warning: bad input is refused with a one-line
message, never with a traceback.  A numeric option that draws a word or
value that is not a number of its kind, or a value its rule refuses for
a command that reads it, ends in exit 2.  Valid input is never refused
(exit 2); ``invert`` and ``rates`` may end with exit 1 and one line on
valid input (no convergence, no basin reached), the other commands end
with exit 0 and nothing on stderr.  ``cli.main`` runs in-process.  Valid
trial counts stay at 50 or below, iteration caps at 200 or below (or
huge, where the tolerance stops every run first) and stable-set grids at
9 or below, so the examples run in a few seconds.  Far starts and radii
(up to 1e300) on diagonal quadratics, whose certificate is global,
overflow in the stepping loop and end with exit 1 and one line, again
without a warning.  Quartics as steep as the constructors accept reach
their degenerate origin only linearly, and ``classify`` still reports
it, as Degenerate.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descentlab.cli import COMMANDS, OPTIONS, main

NAN = float("nan")
# Words that read as valid numbers, and words no numeric option accepts
NUMBER_WORDS = ["1e3", "inf"]
REFUSED_WORDS = ["", "abc", "0x10", "nan", "-", "1,2", "None", "[]"]
WORDS = st.sampled_from(NUMBER_WORDS + REFUSED_WORDS)


# Valid values, huge ones included: a positive tolerance stops every
# nesterov run long before a huge iteration cap.
VALID = {
    "seed": st.one_of(st.integers(0, 2**32), st.sampled_from([2**64, 10**30])),
    "trials": st.integers(1, 50),
    "n_jobs": st.one_of(st.integers(1, 4), st.just(10**30)),
    "tol": st.one_of(st.floats(1e-12, 1.0), st.sampled_from([1e300, 10**30, float("inf")]),
                     st.sampled_from(NUMBER_WORDS)),
    "max_iters": st.one_of(st.integers(0, 200), st.just(10**30)),
    "x0": st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    "y": st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    "radius": st.floats(0.0, 0.5),
    "grid": st.integers(1, 9),
    "index": st.just(1),  # nesterov's strict saddle, between its two minima
}
# Invalid values: negative, boolean, string or NaN; no trials or threads;
# trial counts far past what an array of starts can hold; malformed points.
# The number words are no integer, but a valid tolerance.
SCALAR_INVALID = st.one_of(st.integers(-10**6, -1), st.booleans(), WORDS, st.just(NAN))
INVALID = {
    "seed": SCALAR_INVALID,
    "trials": st.one_of(SCALAR_INVALID, st.sampled_from([0, 2**62, 10**30])),
    "n_jobs": st.one_of(SCALAR_INVALID, st.just(0)),
    "tol": st.one_of(st.integers(-10**6, -1), st.booleans(), st.sampled_from(REFUSED_WORDS),
                     st.just(NAN)),
    "max_iters": SCALAR_INVALID,
    "x0": st.one_of(
        st.lists(
            st.one_of(st.floats(-2.0, 2.0), st.booleans(), WORDS, st.just(NAN), st.just(1e300)),
            max_size=3,
        ),
        st.floats(-2.0, 2.0),
        WORDS,
    ),
    # too wide for the domain box, or no grid at all
    "radius": st.one_of(SCALAR_INVALID, st.sampled_from([5.0, 1e300, float("inf")])),
    # or more grid points than an array can hold
    "grid": st.one_of(SCALAR_INVALID, st.sampled_from([0, 2**40, 10**30])),
    # a minimum, past the records, or not an index
    "index": st.one_of(SCALAR_INVALID, st.sampled_from([0, 2, 3, 10**30])),
}
INVALID["y"] = INVALID["x0"]

# Drawn invalid values that are refused only in some cases: a radius too
# wide for the domain box puts grid points outside it unless the grid is
# one point.
SOMETIMES_VALID = {"radius": (5.0, 1e3, 1e300)}


def _must_refuse(command, key, value) -> bool:
    """Whether numeric option ``key`` drawn invalid as ``value`` must end
    in exit 2: always when the value is not a number of the option's kind
    (the config and flag conversions refuse it for every command), and
    otherwise when ``command`` reads the option."""
    kind = OPTIONS[key].kind
    if kind not in ("int", "float"):
        return False  # a malformed point may still be a point of another length
    if kind == "float" and value in NUMBER_WORDS:
        value = float(value)  # read as the number it spells
    if isinstance(value, (bool, str)) or value != value:
        return True
    return key in COMMANDS[command].options and value not in SOMETIMES_VALID.get(key, ())


# The options each command reads.  A command draws these and the
# options of ``montecarlo`` and ``run``; a drawn value that is not one of
# its flags goes to the config, which checks it too.
FLAGS = {
    "montecarlo": {"seed", "trials", "n_jobs", "tol", "max_iters"},
    "run": {"seed", "tol", "max_iters", "x0"},
    "classify": {"seed"},
    "stable-set": {"seed", "tol", "max_iters", "radius", "grid", "index"},
    "invert": {"seed", "tol", "y"},
    "rates": {"seed", "tol", "max_iters", "x0"},
}
# Exit codes of valid input; exit 1 comes with one line on stderr.
VALID_CODES = {"invert": (0, 1), "rates": (0, 1)}
SHARED = FLAGS["montecarlo"] | FLAGS["run"]
ROUTES = st.sampled_from(["flag", "config"])


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(str(entry) for entry in value)
    return str(value)


def _invoke(command, options, objective="nesterov"):
    """Run the command in-process; return (exit code, stderr lines, warnings, stdout)."""
    argv = [command, "--objective", objective]
    config = {}
    for key, (value, route) in options.items():
        if route == "flag" and key in FLAGS[command]:
            argv.append(f"--{key.replace('_', '-')}={_flag_text(value)}")
        else:
            config[key] = value
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            argv += ["--config", path]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a flag
                code = exc.code
    return code, stderr.getvalue().splitlines(), caught, stdout.getvalue()


def _cases(command):
    """``(bad, options)``: options for ``command``, each routed to a flag or
    the config, all valid except key ``bad`` (None for none).

    ``montecarlo`` always gets a trial count and ``invert`` a target
    point, which they require.
    """
    required = {"montecarlo": {"trials"}, "invert": {"y"}}.get(command, set())

    keys = SHARED | FLAGS[command]

    def options(bad):
        values = {**VALID, bad: INVALID[bad]} if bad else VALID
        present = required | ({bad} if bad else set())
        return st.tuples(st.just(bad), st.fixed_dictionaries(
            {key: st.tuples(values[key], ROUTES) for key in present},
            optional={key: st.tuples(values[key], ROUTES)
                      for key in keys if key not in present},
        ))

    return st.sampled_from([None, *sorted(keys)]).flatmap(options)


def _check(command, case):
    bad, options = case
    code, err, caught, _ = _invoke(command, options)
    assert not caught, [str(w.message) for w in caught]
    if bad is None:
        assert code in VALID_CODES.get(command, (0,)), (code, err)
        assert len(err) == code, err
    elif _must_refuse(command, bad, options[bad][0]):
        assert code == 2 and len(err) == 1, (code, err)
    else:
        assert code in (0, 1, 2), (code, err)
        assert len(err) <= 1, err


FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@FUZZ
@example(case=("seed", {"trials": (20, "flag"), "seed": (-1, "flag")}))
@example(case=("seed", {"trials": (20, "config"), "seed": (-3, "config")}))
@example(case=(None, {"trials": (20, "flag"), "tol": ("1e3", "flag")}))
@example(case=(None, {"trials": (20, "config"), "tol": ("inf", "config")}))
@given(case=_cases("montecarlo"))
def test_montecarlo_ends_in_an_exit_code_and_one_line(case):
    _check("montecarlo", case)


@FUZZ
@example(case=("seed", {"seed": (-1, "flag")}))
@given(case=_cases("run"))
def test_run_ends_in_an_exit_code_and_one_line(case):
    _check("run", case)


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("word", NUMBER_WORDS)
@pytest.mark.parametrize("command, key", [
    ("montecarlo", "seed"), ("montecarlo", "trials"), ("montecarlo", "n_jobs"),
    ("montecarlo", "max_iters"), ("stable-set", "grid"), ("stable-set", "index"),
])
def test_a_number_word_is_refused_by_an_integer_option(command, key, word, route):
    _check(command, (key, {"trials": (20, "flag"), key: (word, route)}))


@pytest.mark.parametrize("command", ["classify", "stable-set", "invert", "rates"])
@FUZZ
@given(data=st.data())
def test_command_ends_in_an_exit_code_and_one_line(command, data):
    _check(command, data.draw(_cases(command)))


# Objective specs: a zoo name with JSON parameters of any shape and type,
# with text that is not JSON, or no zoo name at all.  Whatever the spec,
# each command ends in an exit code and at most one line.
NAMES = st.sampled_from([
    "nesterov", "nesterov_example", "quartic", "quartic_copositive",
    "diagonal_quadratic", "strongly_convex_quadratic", "", "abc",
])
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3.0, 3.0), WORDS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(WORDS, inner, max_size=2)),
    max_leaves=8,
)
SPECS = st.one_of(
    st.builds(lambda name, params: f"{name}:{json.dumps(params)}", NAMES, JSON_VALUES),
    st.builds(lambda name, text: f"{name}:{text}", NAMES, WORDS),
    NAMES,
)
# what each command requires, and small grids and caps
SPEC_OPTIONS = {"trials": (5, "flag"), "y": ([0.1, 0.2], "flag"),
                "grid": (5, "flag"), "max_iters": (200, "flag")}


@FUZZ
@example(command="classify", spec="quartic:[[1,2],[3]]")
@example(command="run", spec='diagonal_quadratic:{"a":1}')
@example(command="montecarlo", spec='diagonal_quadratic:"abc"')
@given(command=st.sampled_from(sorted(FLAGS)), spec=SPECS)
def test_any_objective_spec_ends_in_an_exit_code_and_one_line(command, spec):
    code, err, caught, _ = _invoke(command, SPEC_OPTIONS, spec)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2), (code, err)
    assert len(err) <= 1, err


# Far out on a quadratic, f and the row norms overflow: the command ends
# with exit 0 (the run diverged or converged) or exit 1 and one line (a
# non-finite value), never with a warning.
CURVATURES = [0.25, 0.5, 1.0, 2.0]
FAR = st.one_of(
    st.floats(-1e300, 1e300),
    st.builds(lambda sign, power: sign * 10.0**power, st.sampled_from([-1.0, 1.0]),
              st.floats(-300.0, 300.0)),
)


def _check_far(command, objective, options):
    code, err, caught, _ = _invoke(command, options, objective)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1), (code, err)
    assert len(err) == code, err


@FUZZ
@example(lambdas=[1.0, -1.0], x0=[1e300, 0.0])
@given(lambdas=st.lists(st.sampled_from(CURVATURES + [-c for c in CURVATURES]),
                       min_size=1, max_size=3),
       x0=st.lists(FAR, min_size=3, max_size=3))
def test_a_far_start_on_a_quadratic_warns_of_nothing(lambdas, x0):
    objective = f"diagonal_quadratic:{json.dumps(lambdas)}"
    options = {"x0": (x0[:len(lambdas)], "flag"), "max_iters": (3000, "flag")}
    _check_far("run", objective, options)


@FUZZ
@example(curvatures=(1.0, 1.0), radius=1e300, grid=41)
@given(curvatures=st.tuples(st.sampled_from(CURVATURES), st.sampled_from(CURVATURES)),
       radius=FAR.map(abs),
       grid=st.integers(1, 9))
def test_a_far_stable_set_grid_on_a_quadratic_warns_of_nothing(curvatures, radius, grid):
    # one stable and one unstable direction: the origin is a strict saddle
    objective = f"diagonal_quadratic:{json.dumps([curvatures[0], -curvatures[1]])}"
    options = {"radius": (radius, "flag"), "grid": (grid, "flag"), "max_iters": (3000, "flag")}
    _check_far("stable-set", objective, options)


# Diagonal quartics with scales from 1 up to just past the refusal bound
# (about 1.1e153 for one dimension, 7.9e152 for two) and either sign: the
# origin is their only critical point, and Newton contracts towards it by
# only 2/3 per step, in about 311 steps on the steepest.
SCALES = st.builds(lambda sign, power: sign * 10.0**power, st.sampled_from([-1.0, 1.0]),
                   st.floats(0.0, 153.05))


@FUZZ
@example(scales=[1e100])
@example(scales=[1.1173173274950273e153])
@given(scales=st.lists(SCALES, min_size=1, max_size=2))
def test_classify_reports_the_origin_of_any_accepted_quartic(scales):
    q = [[scale if i == j else 0.0 for j in range(len(scales))]
         for i, scale in enumerate(scales)]
    code, err, caught, out = _invoke("classify", {}, f"quartic:{json.dumps(q)}")
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert max(map(abs, scales)) > 7.9e152 and len(err) == 1, err
        assert "too large for float arithmetic" in err[0]
        return
    assert (code, err) == (0, [])
    records = json.loads(out)
    locations = [record["location"] for record in records]
    assert len(locations) == 1 and max(map(abs, locations[0])) <= 1e-9, locations
    # read on the quartic's own scale, the flat origin is degenerate
    assert records[0]["classification"] == "Degenerate", records[0]
