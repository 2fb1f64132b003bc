"""JSON interchange for quivers, dimension data, representations and actions.

Rationals travel as exact 'p/q' strings, never floats. Node identifiers
are strings, except leg nodes which serialize as [loop_id, depth] pairs;
object keys use the canonical string form from quiver.node_key.

dumps_canonical writes any JSON value byte-stably; a list of dicts is
written as dicts are. RecordTexts is its one template form for a list of
flat records: the sorted keys and, per record, the JSON texts of its
values, so a caller that holds few distinct values encodes each once and
builds no dict per record.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _encode_str

from .exactlinalg import Mat, frac
from .quiver import Arrow, ArrowSplit, DimData, Quiver, check_symmetric, node_key
from .reps import Representation
from .torus import TorusAction


def frac_to_json(x) -> str:
    return str(frac(x))


def node_to_json(node):
    if isinstance(node, tuple) and len(node) == 2:
        return [node_to_json(node[0]), node[1]]
    return node


def node_from_json(doc, field: str = "nodes"):
    if isinstance(doc, str):
        return doc
    if isinstance(doc, list) and len(doc) == 2 and isinstance(doc[0], str) and type(doc[1]) is int:
        return tuple(doc)
    raise ValueError(f"{field!r} needs a node id string or [loop_id, depth] pair, got {doc!r}")


def _key_map(q: Quiver) -> dict:
    keys = {}
    for n in q.nodes:
        k = node_key(n)
        if k in keys:
            raise ValueError(f"node key collision at {k!r}")
        keys[k] = n
    return keys


def mat_to_json(m: Mat) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [frac_to_json(e) for row in m.data for e in row],
    }


def mat_from_json(doc, field: str, key) -> Mat:
    """The Mat of a {rows, cols, entries} object; a malformed one is refused
    naming the representation field and key it sits under."""
    where = f"{field!r} entry {key!r}"
    if not (isinstance(doc, dict) and all(k in doc for k in ("rows", "cols", "entries"))):
        raise ValueError(f"{where} needs a matrix object with rows, cols and entries, got {doc!r}")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    if not (type(rows) is int and type(cols) is int and rows >= 0 and cols >= 0):
        raise ValueError(f"{where} needs a nonnegative integer shape, got {rows!r}x{cols!r}")
    if not isinstance(entries, list):
        raise ValueError(f"{where} needs a JSON list of entries, got {entries!r}")
    if len(entries) != rows * cols:
        raise ValueError(f"{where} has {len(entries)} entries for a {rows}x{cols} shape")
    entries = [_rational(field, key, e) for e in entries]
    return Mat(
        (entries[i * cols : (i + 1) * cols] for i in range(rows)), cols=cols
    )


def quiver_to_json(
    q: Quiver,
    split: ArrowSplit | None = None,
    dims: DimData | None = None,
    action: TorusAction | None = None,
    sigma=None,
    name: str | None = None,
) -> dict:
    doc: dict = {
        "nodes": [node_to_json(n) for n in q.nodes],
        "arrows": [
            {"id": a.id, "tail": node_to_json(a.tail), "head": node_to_json(a.head)}
            for a in q.arrows
        ],
    }
    if split is not None:
        doc["pairs"] = [[a, b] for a, b in split.pairs]
    if dims is not None:
        doc["v"] = {node_key(n): dims.v[n] for n in q.nodes}
        doc["d"] = {node_key(n): dims.d[n] for n in q.nodes}
        if dims.theta:
            doc["theta"] = {
                node_key(n): frac_to_json(dims.theta[n])
                for n in q.nodes
                if n in dims.theta
            }
    if action is not None:
        doc["action"] = {
            "rank": action.rank,
            "arrow_chars": {str(a): list(c) for a, c in action.arrow_chars.items()},
            "framing_chars": {
                node_key(n): [list(c) for c in chars]
                for n, chars in action.framing_chars.items()
            },
        }
    if sigma is not None:
        doc["sigma"] = list(sigma)
    if name is not None:
        doc["name"] = name
    return doc


def _named(table: dict, field: str, key, kind: str = "node"):
    """table[key], with an unknown key refused by field and key."""
    try:
        return table[key]
    except KeyError:
        raise ValueError(f"{field!r} names unknown {kind} {key!r}") from None


def _rational(field: str, key, x):
    """frac(x), with a value that is not an exact rational refused by field
    and key."""
    try:
        return frac(x)
    except (TypeError, ValueError):
        raise ValueError(f"{field!r} entry {key!r} needs an exact rational, got {x!r}") from None


def _object(doc: dict, key: str, owner: str | None = None) -> dict:
    # owner, the name of doc, makes the key required; else an absent key reads as {}
    try:
        value = doc.get(key, {}) if owner is None else doc[key]
    except KeyError:
        raise ValueError(f"{owner} needs key {key!r}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} needs a JSON object, got {value!r}")
    return value


def _list(doc: dict, key: str) -> list:
    try:
        value = doc[key]
    except KeyError:
        raise ValueError(f"a quiver needs key {key!r}") from None
    if not isinstance(value, list):
        raise ValueError(f"{key!r} needs a JSON list, got {value!r}")
    return value


def _arrow_from_json(doc) -> Arrow:
    if not isinstance(doc, dict):
        raise ValueError(f"'arrows' entry needs a JSON object, got {doc!r}")
    try:
        aid = doc["id"]
        if not isinstance(aid, str):
            raise ValueError(f"'id' needs an arrow id string, got {aid!r}")
        return Arrow(aid, node_from_json(doc["tail"], "tail"), node_from_json(doc["head"], "head"))
    except KeyError as e:
        raise ValueError(f"'arrows' entry needs key {e.args[0]!r}") from None


def quiver_from_json(doc: dict):
    """(quiver, split, dims, action, sigma); optional parts may be None.

    When no pair list is present but the quiver is symmetric, the canonical
    split is derived.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a quiver needs a JSON object, got {doc!r}")
    nodes = tuple(node_from_json(n) for n in _list(doc, "nodes"))
    arrows = tuple(map(_arrow_from_json, _list(doc, "arrows")))
    q = Quiver(nodes, arrows)
    keys = _key_map(q)
    by_str = {str(a.id): a.id for a in q.arrows}

    if not q.is_symmetric():
        split = None  # no doubled-pair structure exists
    elif "pairs" in doc:
        ids = [a.id for a in q.arrows]
        pairs = doc["pairs"]
        if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(a in ids for a in p) for p in pairs
        )):
            raise ValueError(f"'pairs' needs a list of two-arrow-id lists, got {pairs!r}")
        paired = {a for p in doc["pairs"] for a in p}
        loops = tuple(a.id for a in q.arrows if a.id not in paired)
        split = ArrowSplit(tuple(tuple(p) for p in doc["pairs"]), loops)
        split.validate(q)
    else:
        _, split = check_symmetric(q)

    dims = None
    if "v" in doc:
        v = {_named(keys, "v", k): x for k, x in _object(doc, "v").items()}
        missing = [k for k, n in keys.items() if n not in v]
        if missing:
            raise ValueError(f"'v' needs an entry for every node, missing {missing}")
        d = {_named(keys, "d", k): x for k, x in _object(doc, "d").items()}
        for n in q.nodes:
            d.setdefault(n, 0)
        theta = {
            _named(keys, "theta", k): _rational("theta", k, x)
            for k, x in _object(doc, "theta").items()
        }
        dims = DimData(v, d, theta)

    action = None
    if "action" in doc:
        adoc = _object(doc, "action")
        arrow_chars = {}
        for aid_str, ch in _object(adoc, "arrow_chars").items():
            aid = _named(by_str, "arrow_chars", aid_str, "arrow")
            if not isinstance(ch, list):
                raise ValueError(f"'arrow_chars' entry {aid_str!r} needs a list, got {ch!r}")
            arrow_chars[aid] = tuple(ch)
        framing_chars = {}
        for k, chars in _object(adoc, "framing_chars").items():
            if not (isinstance(chars, list) and all(isinstance(c, list) for c in chars)):
                raise ValueError(f"'framing_chars' entry {k!r} needs a list of lists, got {chars!r}")
            framing_chars[_named(keys, "framing_chars", k)] = tuple(map(tuple, chars))
        try:
            action = TorusAction(adoc["rank"], arrow_chars, framing_chars)
        except KeyError:
            raise ValueError("'action' needs key 'rank'") from None

    sigma = None
    if "sigma" in doc:
        sigma = tuple(_list(doc, "sigma"))
        if not all(type(s) is int for s in sigma):
            raise ValueError(f"sigma needs integer entries, got {doc['sigma']!r}")
    return q, split, dims, action, sigma


def rep_to_json(q: Quiver, rep: Representation, t: dict | None = None) -> dict:
    doc = {
        "arrows": {str(a.id): mat_to_json(rep.x[a.id]) for a in q.arrows},
        "A": {node_key(n): mat_to_json(rep.a[n]) for n in q.nodes},
        "B": {node_key(n): mat_to_json(rep.b[n]) for n in q.nodes},
    }
    if t is not None:
        doc["t"] = {str(k): frac_to_json(v) for k, v in t.items()}
    return doc


def rep_from_json(q: Quiver, doc: dict):
    keys = _key_map(q)
    by_str = {str(a.id): a.id for a in q.arrows}
    x = {
        _named(by_str, "arrows", s, "arrow"): mat_from_json(m, "arrows", s)
        for s, m in _object(doc, "arrows", "a representation").items()
    }
    a = {_named(keys, "A", k): mat_from_json(m, "A", k) for k, m in _object(doc, "A", "a representation").items()}
    b = {_named(keys, "B", k): mat_from_json(m, "B", k) for k, m in _object(doc, "B", "a representation").items()}
    t = None
    if "t" in doc:
        t = {_named(by_str, "t", s, "arrow"): _rational("t", s, v) for s, v in _object(doc, "t").items()}
    return Representation(x, a, b), t


def dumps_canonical(obj) -> str:
    """Byte-stable serialization: sorted keys, fixed separators.

    The result is exactly
    ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``,
    written directly: with an indent, json.dumps runs its pure-Python
    encoder. Strings, None, booleans, exact ints, lists, tuples and dicts
    with only str keys are written here, a list of dicts as a list of
    dicts; any other value (a float, a dict with a non-str key, a
    subclass, an unserialisable object) is handed to json.dumps and
    re-indented, so it encodes, or raises, as json.dumps does. A
    RecordTexts is written from one template, one string per record.
    """
    out: list = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _null(_) -> str:
    return "null"


# the JSON text of a scalar, by its exact type
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): _null,
}
_STR = frozenset((str,))


def value_text(x) -> str:
    """The JSON text of a str, exact int, bool or None, as dumps_canonical
    writes it."""
    return _SCALAR_TEXT[type(x)](x)


class RecordTexts:
    """A list of flat records in a second form: its str keys, strictly
    increasing, and an iterable of rows, each a tuple of the JSON texts of
    one record's values in key order.

    dumps_canonical writes it exactly as the list of those records; the
    texts are trusted to be JSON (value_text gives them). The rows are read
    each time it is written, so rows given as an iterator write once.
    """

    __slots__ = ("keys", "rows")

    def __init__(self, keys, rows):
        keys = tuple(keys)
        # a repeated key would write an object no dict can hold
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError(f"record keys need to be sorted and distinct, got {keys!r}")
        self.keys = keys
        self.rows = rows


def _write(x, nl: str, out: list) -> None:
    """Append the indented JSON of x to out; nl is the newline plus the
    indent of x's own line. Scalar members are written inline."""
    t = type(x)
    if t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in x:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                out.append(sep + scalar(item))
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict and _STR.issuperset(map(type, x)):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, item in sorted(x.items()):
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                out.append(sep + _encode_str(k) + ": " + scalar(item))
            else:
                out.append(sep + _encode_str(k) + ": ")
                _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t in _SCALAR_TEXT:
        out.append(value_text(x))
    elif t is RecordTexts:
        _write_records(x, nl, out)
    else:
        # encoded JSON holds no raw newline, so every newline is an indent
        out.append(json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", nl))


def _write_records(x: RecordTexts, nl: str, out: list) -> None:
    """Append the JSON of the records of x to out, as _write does: each row
    is filled, with the separator before it, into one %-template."""
    inner = nl + "  "
    field = inner + "  "
    # %-escaped keys: a key may hold any character, braces and % included
    record = "{" + field + ("," + field).join(
        _encode_str(k).replace("%", "%%") + ": %s" for k in x.keys
    ) + inner + "}" if x.keys else "{}"
    rows = iter(x.rows)
    first = next(rows, None)
    if first is None:
        out.append("[]")
        return
    out.append(("[" + inner + record) % first)
    out.extend(map(("," + inner + record).__mod__, rows))
    out.append(nl + "]")
