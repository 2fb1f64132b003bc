"""Quiver data model: nodes, arrows, doubled-arrow splits, dimension data."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from .exactlinalg import frac

NodeId = Hashable
ArrowId = Hashable


@dataclass(frozen=True)
class Arrow:
    id: ArrowId
    tail: NodeId
    head: NodeId


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph with ordered nodes and identified arrows."""

    nodes: tuple
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self,
            "arrows",
            tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in self.arrows),
        )
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node identifiers")
        nodeset = set(self.nodes)
        seen = set()
        for a in self.arrows:
            if a.id in seen:
                raise ValueError(f"duplicate arrow id {a.id!r}")
            seen.add(a.id)
            if a.tail not in nodeset or a.head not in nodeset:
                raise ValueError(f"arrow {a.id!r} has undeclared endpoint")

    @classmethod
    def _trusted(cls, nodes: tuple, arrows: tuple) -> Quiver:
        """A quiver from a tuple of distinct nodes and a tuple of Arrows with
        distinct ids and declared endpoints, taken as given: no re-tupling
        and no check. For producers inside the package whose construction
        guarantees all of that; input from outside goes through Quiver()."""
        q = object.__new__(cls)
        object.__setattr__(q, "nodes", nodes)
        object.__setattr__(q, "arrows", arrows)
        return q

    def arrow(self, aid: ArrowId) -> Arrow:
        for a in self.arrows:
            if a.id == aid:
                return a
        raise KeyError(aid)

    def adjacency_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Entry (i, j) counts arrows i -> j, in declared node order."""
        idx = {n: k for k, n in enumerate(self.nodes)}
        n = len(self.nodes)
        m = [[0] * n for _ in range(n)]
        for a in self.arrows:
            m[idx[a.tail]][idx[a.head]] += 1
        return tuple(tuple(r) for r in m)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """2*Id - Adj - Adj^T."""
        adj = self.adjacency_matrix()
        n = len(self.nodes)
        return tuple(
            tuple(2 * (i == j) - adj[i][j] - adj[j][i] for j in range(n))
            for i in range(n)
        )

    def is_symmetric(self) -> bool:
        adj = self.adjacency_matrix()
        n = len(self.nodes)
        return all(adj[i][j] == adj[j][i] for i in range(n) for j in range(n))


@dataclass(frozen=True)
class ArrowSplit:
    """Partition of the arrows into doubled pairs (a, a*) and loops.

    The first member of each pair is the chosen 'unstarred' orientation;
    loops always live in the loop set, never inside a pair.
    """

    pairs: tuple
    loops: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        object.__setattr__(self, "loops", tuple(self.loops))

    def validate(self, q: Quiver):
        listed = [a for p in self.pairs for a in p] + list(self.loops)
        if sorted(map(repr, listed)) != sorted(repr(a.id) for a in q.arrows):
            raise ValueError("split does not partition the arrow set")
        by_id = {a.id: a for a in q.arrows}
        for a_id, astar_id in self.pairs:
            a, astar = by_id[a_id], by_id[astar_id]
            if a.tail != astar.head or a.head != astar.tail:
                raise ValueError(f"pair ({a_id!r}, {astar_id!r}) is not orientation-reversed")
        for l_id in self.loops:
            l = by_id[l_id]
            if l.tail != l.head:
                raise ValueError(f"loop {l_id!r} has distinct endpoints")

    def star(self, aid: ArrowId) -> ArrowId:
        for a, b in self.pairs:
            if a == aid:
                return b
            if b == aid:
                return a
        raise KeyError(aid)

    def is_loop(self, aid: ArrowId) -> bool:
        return aid in self.loops


@dataclass(frozen=True)
class DimData:
    """Gauge dimensions v, symmetric framing d, stability condition theta."""

    v: Mapping
    d: Mapping
    theta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "v", dict(self.v))
        object.__setattr__(self, "d", dict(self.d))
        object.__setattr__(
            self, "theta", {k: frac(x) for k, x in dict(self.theta).items()}
        )
        for name, table in (("v", self.v), ("d", self.d)):
            for node, value in table.items():
                if type(value) is not int or value < 0:
                    raise ValueError(f"{name}[{node!r}] must be a nonnegative integer")

    def validate(self, q: Quiver, need_theta: bool = False):
        for node in q.nodes:
            if node not in self.v:
                raise ValueError(f"missing gauge dimension at node {node!r}")
            if node not in self.d:
                raise ValueError(f"missing framing dimension at node {node!r}")
            if need_theta and node not in self.theta:
                raise ValueError(f"missing stability value at node {node!r}")


def node_key(node: NodeId) -> str:
    """Stable string key for a node, used in JSON maps and display."""
    if isinstance(node, tuple) and len(node) == 2:
        return f"{node[0]}@{node[1]}"
    return str(node)


def check_symmetric(q: Quiver) -> tuple[bool, ArrowSplit | None]:
    """Decide adjacency symmetry; on success return a canonical ArrowSplit.

    Pairing is greedy in declared arrow order and never pairs two loops,
    so the loop set is maximal.
    """
    if not q.is_symmetric():
        return False, None
    loops = tuple(a.id for a in q.arrows if a.tail == a.head)
    by_direction: dict[tuple, list] = {}
    for a in q.arrows:
        if a.tail != a.head:
            by_direction.setdefault((a.tail, a.head), []).append(a.id)
    pairs = []
    done = set()
    for a in q.arrows:
        if a.tail == a.head or a.id in done:
            continue
        reverse = [
            x for x in by_direction.get((a.head, a.tail), ()) if x not in done
        ]
        partner = reverse[0]
        pairs.append((a.id, partner))
        done.add(a.id)
        done.add(partner)
    split = ArrowSplit(tuple(pairs), loops)
    split.validate(q)
    return True, split
