"""Property tests over malformed quiver files and argv: whatever JSON value
replaces one field of inputs/a2sym.json, the CLI exits 0, 1 or 2, never with
a traceback, and an input error is one 'error:' line in the project's words,
not the text of a Python TypeError. An input error in the replaced field
names that field. Whatever flag values reach a command, it exits 0, 1 or 2,
and exit 1 only from a command that reports a failed check."""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from quiverlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
BASE = json.loads((ROOT / "inputs" / "a2sym.json").read_text())
# None stands for the whole document
FIELDS = [None, "nodes", "arrows", "pairs", "v", "d", "theta", "action", "sigma"]
# keys and strings the document uses, so some values reach past the type checks
NAMES = st.sampled_from(["0", "1", "a", "a*", "id", "tail", "head", "rank",
                         "arrow_chars", "framing_chars", "1/2", "1/0"])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
           | NAMES | st.text(max_size=3))
# messages of TypeErrors raised by indexing or iterating the wrong JSON type
PYTHON_TEXTS = ("not iterable", "indices must be", "unhashable type", "not subscriptable",
                "has no attribute")
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAMES | st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)


def test_fuzzed_quiver_field_exits_cleanly(tmp_path):
    path = tmp_path / "fuzz.json"

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=JSON_VALUES,
           command=st.sampled_from(["analyze", "fixed"]))
    def run(field, value, command):
        path.write_text(json.dumps(value if field is None else {**BASE, field: value}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        stderr = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert not any(text in stderr for text in PYTHON_TEXTS), stderr
            if field == "theta":
                assert "'theta'" in stderr, stderr

    run()


def test_fuzzed_theta_entry_names_the_field(tmp_path):
    # theta objects over the quiver's own node keys, so only a value can be
    # wrong, and the first wrong one is named with its key
    path = tmp_path / "fuzz.json"
    outcomes = []
    values = st.integers() | st.fractions().map(str) | JSON_VALUES

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(theta=st.dictionaries(st.sampled_from(["0", "1"]), values, min_size=1, max_size=2))
    def run(theta):
        path.write_text(json.dumps({**BASE, "theta": theta}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
        bad = [k for k, x in theta.items() if not _is_rational(x)]
        outcomes.append(bool(bad))
        if bad:
            assert code == 2
            assert err.getvalue() == (
                f"error: {path}: 'theta' entry {bad[0]!r} needs an exact rational, "
                f"got {theta[bad[0]]!r}\n"
            )
        else:
            assert code == 0, err.getvalue()

    run()
    assert outcomes.count(True) > 10 and outcomes.count(False) > 2, outcomes


def _is_rational(x) -> bool:
    """Whether x is a JSON value read as an exact rational: an integer, or
    a string Fraction parses."""
    if isinstance(x, str):
        try:
            Fraction(x)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return type(x) is int


REP_BASE = json.loads((ROOT / "inputs" / "jordan2_rep.json").read_text())
REP = REP_BASE["representation"]
# a whole field of the representation, or one field of one of its matrices
REP_FIELDS = [(f,) for f in ("arrows", "A", "B", "t")] + [
    (group, key, part)
    for group in ("arrows", "A", "B")
    for key in REP[group]
    for part in ("rows", "cols", "entries")
]


def test_fuzzed_representation_field_exits_cleanly(tmp_path):
    path = tmp_path / "fuzz.json"

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(field=st.sampled_from(REP_FIELDS), value=JSON_VALUES,
           command=st.sampled_from(["stability", "tau"]))
    def run(field, value, command):
        rep = json.loads(json.dumps(REP))
        *outer, last = field
        target = rep
        for key in outer:
            target = target[key]
        target[last] = value
        path.write_text(json.dumps({**REP_BASE, "representation": rep}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        stderr = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert not any(text in stderr for text in PYTHON_TEXTS), stderr
            if len(field) == 3:
                # a malformed matrix is named by its field and key
                assert f"{field[0]!r} entry {field[1]!r}" in stderr, stderr

    run()


# argv fuzzing: every command, each flag value drawn one time in three from
# the input boundary's hard cases and otherwise from values the flag takes,
# in both the --flag=value and the --flag value forms
QUIVER_FILES = [str(ROOT / "inputs" / f"{name}.json")
                for name in ("a2sym", "jordan2", "loop2", "framed2")]
REP_FILES = [str(ROOT / "inputs" / "jordan2_rep.json")]
SUITES = ["moment", "flag", "transfer", "triangle", "all"]
WINDOWS = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda w: f"{w[0]}..{w[1]}")
VECTORS = st.sampled_from(["1", "-1", "2", "1,1", "1,-1", "2,1", "1/2"])
# what each flag takes; --samples and --trials run linear loops, so they stay
# at 3 or less (no hard case is a positive integer)
FLAGS = {
    "--seed": st.integers(-5, 5).map(str),
    "--format": st.sampled_from(["json", "table"]),
    "--samples": st.integers(1, 3).map(str),
    "--trials": st.integers(1, 3).map(str),
    "--sigma": VECTORS,
    "--window": WINDOWS,
    "--roots": st.sampled_from(["1,0;0,1", "1,0;1,1;0,1", "1,-1", "1;2"]),
    "--xi": VECTORS,
    "--theta": VECTORS,
    "--delta": st.sampled_from(["1", "1/2", "-1", "0"]),
    "--what": st.sampled_from(["add", "rem", "aux", "cb", "fixed", "chambers"]),
}
COMMON = ["--seed", "--format"]
TORUS = ["--sigma", "--window"]
OPTIONS = {
    "analyze": COMMON, "aux": COMMON, "cb": COMMON, "fixed": COMMON + TORUS,
    "chambers": COMMON + TORUS + ["--roots"], "stab-table": COMMON + TORUS + ["--xi"],
    "triangle": COMMON + TORUS, "stability": COMMON + ["--theta", "--trials"],
    "moment-check": COMMON, "tau": COMMON, "verify": COMMON + ["--delta"],
    "export": COMMON + TORUS + ["--what", "--roots"],
}
# the commands whose exit 1 reports a failed check
CHECKING = {"analyze", "stab-table", "triangle", "moment-check", "verify"}
EDGES = st.sampled_from(["--", "..", "1/0", "", " "])
HARD = EDGES | (
    st.integers(max_value=-1).map(str)
    | st.integers(10**6, 10**30).map(lambda n: f"-{n}..{n}")
    | st.integers(10**6, 10**30).map(lambda n: f"0..{n}")
)


@st.composite
def argvs(draw):
    def value(good):
        return draw(HARD if draw(st.integers(0, 2)) == 2 else good)

    command = draw(st.sampled_from(sorted(OPTIONS)))
    if command == "verify":
        target = st.sampled_from(SUITES)
    else:
        target = st.sampled_from(REP_FILES if command in ("stability", "tau") else QUIVER_FILES)
    argv = [command, value(target)]
    # --samples and --trials always, so no default count of 200 or 50 runs
    flags = ["--samples"] + (["--trials"] if command == "stability" else [])
    flags += ["--what"] if command == "export" else []
    for flag in flags + draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=3)):
        text = value(FLAGS[flag])
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(argv=argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's own refusals
            code = e.code
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr, argv
    if code == 2:
        assert sum("error:" in line for line in stderr.splitlines()) == 1, (argv, stderr)
    if code == 1:
        assert argv[0] in CHECKING, (argv, stderr)
