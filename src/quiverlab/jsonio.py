"""JSON interchange for quivers, dimension data, representations and actions.

Rationals travel as exact 'p/q' strings, never floats. Node identifiers
are strings, except leg nodes which serialize as [loop_id, depth] pairs;
object keys use the canonical string form from quiver.node_key.
"""

from __future__ import annotations

import json

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


def node_from_json(doc):
    if isinstance(doc, list):
        if len(doc) != 2:
            raise ValueError(f"bad node entry {doc!r}")
        return (node_from_json(doc[0]), doc[1])
    return doc


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


def mat_from_json(doc) -> Mat:
    rows, cols = doc["rows"], doc["cols"]
    if not (type(rows) is int and type(cols) is int and rows >= 0 and cols >= 0):
        raise ValueError(f"matrix shape needs nonnegative integers, got {rows!r}x{cols!r}")
    entries = [frac(e) for e in doc["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("matrix entry count does not match its shape")
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


def quiver_from_json(doc: dict):
    """(quiver, split, dims, action, sigma); optional parts may be None.

    When no pair list is present but the quiver is symmetric, the canonical
    split is derived.
    """
    nodes = tuple(node_from_json(n) for n in doc["nodes"])
    arrows = tuple(
        Arrow(a["id"], node_from_json(a["tail"]), node_from_json(a["head"]))
        for a in doc["arrows"]
    )
    q = Quiver(nodes, arrows)
    keys = _key_map(q)

    if not q.is_symmetric():
        split = None  # no doubled-pair structure exists
    elif "pairs" in doc:
        paired = {a for p in doc["pairs"] for a in p}
        loops = tuple(a.id for a in q.arrows if a.id not in paired)
        split = ArrowSplit(tuple(tuple(p) for p in doc["pairs"]), loops)
        split.validate(q)
    else:
        _, split = check_symmetric(q)

    dims = None
    if "v" in doc:
        v = {keys[k]: x for k, x in doc["v"].items()}
        d = {keys[k]: x for k, x in doc.get("d", {}).items()}
        for n in q.nodes:
            d.setdefault(n, 0)
        theta = {
            keys[k]: frac(x) for k, x in doc.get("theta", {}).items()
        }
        dims = DimData(v, d, theta)

    action = None
    if "action" in doc:
        adoc = doc["action"]
        arrow_chars = {}
        for aid_str, ch in adoc.get("arrow_chars", {}).items():
            matches = [a.id for a in q.arrows if str(a.id) == aid_str]
            if not matches:
                raise ValueError(f"action references unknown arrow {aid_str!r}")
            arrow_chars[matches[0]] = tuple(ch)
        framing_chars = {
            keys[k]: tuple(tuple(c) for c in chars)
            for k, chars in adoc.get("framing_chars", {}).items()
        }
        action = TorusAction(adoc["rank"], arrow_chars, framing_chars)

    sigma = None
    if "sigma" in doc:
        sigma = tuple(doc["sigma"])
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
    x = {by_str[s]: mat_from_json(m) for s, m in doc["arrows"].items()}
    a = {keys[k]: mat_from_json(m) for k, m in doc["A"].items()}
    b = {keys[k]: mat_from_json(m) for k, m in doc["B"].items()}
    t = None
    if "t" in doc:
        t = {by_str[s]: frac(v) for s, v in doc["t"].items()}
    return Representation(x, a, b), t


def dumps_canonical(obj) -> str:
    """Byte-stable serialization: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
