"""dumps_canonical against its oracle: for every JSON value it returns
json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False) + "\\n", and a
value json.dumps refuses raises the same exception type."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverlab.jsonio import dumps_canonical

# quotes, backslashes, control characters, non-ASCII and line separators
SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "→", " ", "𝔽", "'"])
TEXT = st.text(max_size=6) | st.lists(SPECIAL, max_size=4).map("".join)
INTS = st.integers() | st.integers(min_value=-(2**80), max_value=2**80) | st.sampled_from([2**64, -(2**64) - 1])
SCALARS = st.none() | st.booleans() | INTS | TEXT | st.floats()
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=3)
    # int keys alone, so json.dumps can sort them
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    max_leaves=12,
)


def _oracle(x):
    return json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _outcome(encode, x):
    """encode(x), or the type of the exception it raises."""
    try:
        return encode(x)
    except Exception as e:  # the comparison is of exception types
        return type(e)


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(value=JSON_VALUES)
def test_dumps_canonical_matches_json_dumps(value):
    assert _outcome(dumps_canonical, value) == _outcome(_oracle, value)


@pytest.mark.parametrize("value", [
    Fraction(1, 2),
    {"a": {1, 2}},
    [1, {"b": [Fraction(3)]}],
    {"a": 1, 2: "b"},
])
def test_unserialisable_values_raise_as_json_dumps_does(value):
    expected = _outcome(_oracle, value)
    assert isinstance(expected, type) and issubclass(expected, Exception)
    assert _outcome(dumps_canonical, value) is expected


def test_fallback_values_are_reindented_in_place():
    value = {"x": [{"k": 1.5}, {2: [3, 4]}, float("inf")], "y": ()}
    assert dumps_canonical(value) == _oracle(value)
