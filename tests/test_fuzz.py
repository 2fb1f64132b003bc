"""Property tests over malformed quiver files: whatever JSON value replaces
one field of inputs/a2sym.json, the CLI exits 0, 1 or 2, never with a
traceback, and an input error is one 'error:' line in the project's words,
not the text of a Python TypeError. An input error in the replaced field
names that field."""

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
