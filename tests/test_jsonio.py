"""dumps_canonical against its oracle: for every JSON value it returns
json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False) + "\\n", and a
value json.dumps refuses raises the same exception type."""

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverlab.jsonio import RecordTexts, dumps_canonical, value_text

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


# keys that would break a %- or {}-template, quotes, control characters and
# non-ASCII, beside arbitrary text
RECORD_KEYS = st.lists(
    TEXT | st.sampled_from(["%", "%s", "%%", "%(k)s", "{", "}", "{0}", '"', "\\", "\x01", "é", "𝔽"]),
    max_size=4,
    unique=True,
)
FLAT_VALUES = st.none() | st.booleans() | INTS | TEXT
NEAR_MISSES = (
    "list value", "float value", "missing key", "extra key", "renamed key", "empty record",
    "non-dict member", "tuple",
)


@st.composite
def record_lists(draw):
    """A list of records with one key set, possibly turned into a near miss,
    nested at a drawn depth."""
    keys = draw(RECORD_KEYS)
    records = [{k: draw(FLAT_VALUES) for k in keys} for _ in range(draw(st.sampled_from((3, 1, 2, 5))))]
    miss = draw(st.none() | st.sampled_from(NEAR_MISSES))
    victim = records[draw(st.integers(0, len(records) - 1))]
    if miss in ("list value", "float value", "missing key") and keys:
        k = draw(st.sampled_from(keys))
        if miss == "missing key":
            del victim[k]
        else:
            victim[k] = draw(st.lists(FLAT_VALUES, max_size=2) if miss == "list value" else st.floats())
    elif miss in ("extra key", "renamed key"):
        if miss == "renamed key" and keys:
            victim.pop(draw(st.sampled_from(keys)))
        victim[draw(TEXT.filter(lambda k: k not in keys))] = draw(FLAT_VALUES)
    elif miss == "empty record":
        victim.clear()
    elif miss == "non-dict member":
        records.insert(draw(st.integers(0, len(records))), draw(FLAT_VALUES | st.lists(FLAT_VALUES, max_size=2)))
    if miss == "tuple":
        records = tuple(records)
    value = records
    for _ in range(draw(st.integers(0, 2))):
        value = {"k": value} if draw(st.booleans()) else [value]
    return value


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(value=record_lists())
def test_record_lists_match_json_dumps(value):
    assert _outcome(dumps_canonical, value) == _outcome(_oracle, value)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    keys=RECORD_KEYS,
    count=st.sampled_from((0, 1, 2, 7)),
    values=st.data(),
    depth=st.integers(0, 2),
)
def test_record_texts_match_json_dumps_of_the_records(keys, count, values, depth):
    # each value text is json.dumps's own, so floats are covered beside
    # every scalar value_text writes
    records = [{k: values.draw(FLAT_VALUES | st.floats()) for k in keys} for _ in range(count)]
    keys = sorted(keys)
    rows = [tuple(json.dumps(r[k], ensure_ascii=False) for k in keys) for r in records]
    value, texts = records, RecordTexts(keys, rows)
    for _ in range(depth):
        value, texts = {"k": value}, {"k": texts}
    assert dumps_canonical(texts) == _oracle(value)
    # an iterator of rows writes the same, once
    once = RecordTexts(keys, iter(rows))
    assert dumps_canonical(once) == _oracle(records)
    assert dumps_canonical(once) == _oracle([])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(value=FLAT_VALUES)
def test_value_text_is_json_dumps(value):
    assert value_text(value) == json.dumps(value, ensure_ascii=False)


def test_record_texts_refuse_unsorted_keys():
    with pytest.raises(ValueError, match="sorted"):
        RecordTexts(("b", "a"), [])
    # a repeated key would write {"a": 1, "a": 2}, which no dict holds
    with pytest.raises(ValueError, match="distinct"):
        RecordTexts(("a", "a"), [("1", "2")])
    with pytest.raises(ValueError, match="distinct"):
        RecordTexts(("a", "b", "b"), [])


def test_record_texts_peak_below_three_times_the_output():
    # the record texts and the joined output are held once each at the
    # peak: no second joined copy of the record list
    keys = ("a", "b", "c", "d")
    rows = ((str(i), '"x"', "true", "null") for i in range(100_000))
    tracemalloc.start()
    try:
        text = dumps_canonical({"pairs": RecordTexts(keys, rows), "x": 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.endswith('  ],\n  "x": 1\n}\n')
    assert peak < 3 * len(text)
