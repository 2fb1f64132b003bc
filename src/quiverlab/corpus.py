"""Built-in desk-scale corpus used by the verification suites and the CLI.

Four symmetric quivers exercise the surgery and stability paths, and the
attached torus actions cover rank 0, 1 and 2 weight combinatorics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quiver import Arrow, ArrowSplit, DimData, Quiver
from .torus import TorusAction


@dataclass
class CorpusEntry:
    name: str
    quiver: Quiver
    split: ArrowSplit
    dims: DimData
    action: TorusAction | None = None
    sigma: tuple | None = None
    window: tuple[int, int] | None = None


def _jordan(v: int) -> CorpusEntry:
    q = Quiver(("0",), (Arrow("eps", "0", "0"),))
    split = ArrowSplit((), ("eps",))
    dims = DimData({"0": v}, {"0": 1}, {"0": Fraction(1)})
    action = TorusAction(1, {}, {"0": ((1,),)})
    return CorpusEntry(
        name=f"jordan{v}",
        quiver=q,
        split=split,
        dims=dims,
        action=action,
        sigma=(1,),
    )


def _a2sym() -> CorpusEntry:
    q = Quiver(("0", "1"), (Arrow("a", "0", "1"), Arrow("a*", "1", "0")))
    split = ArrowSplit((("a", "a*"),), ())
    dims = DimData(
        {"0": 1, "1": 1}, {"0": 1, "1": 0}, {"0": Fraction(1), "1": Fraction(1)}
    )
    action = TorusAction(1, {"a": (1,)}, {"0": ((0,),), "1": ()})
    return CorpusEntry(
        name="a2sym", quiver=q, split=split, dims=dims, action=action, sigma=(1,)
    )


def _loop2() -> CorpusEntry:
    q = Quiver(
        ("0", "1"),
        (Arrow("a", "0", "1"), Arrow("a*", "1", "0"), Arrow("eps", "0", "0")),
    )
    split = ArrowSplit((("a", "a*"),), ("eps",))
    dims = DimData(
        {"0": 2, "1": 1}, {"0": 1, "1": 0}, {"0": Fraction(1), "1": Fraction(1)}
    )
    action = TorusAction(1, {"a": (1,)}, {"0": ((0,),), "1": ()})
    return CorpusEntry(
        name="loop2", quiver=q, split=split, dims=dims, action=action, sigma=(1,)
    )


def _framed2() -> CorpusEntry:
    # arrowless two-node quiver with a rank-2 framing torus; its candidate
    # tangent characters span a genuinely two-dimensional root system
    q = Quiver(("0", "1"), ())
    split = ArrowSplit((), ())
    dims = DimData(
        {"0": 1, "1": 1}, {"0": 1, "1": 1}, {"0": Fraction(1), "1": Fraction(1)}
    )
    action = TorusAction(2, {}, {"0": ((1, 0),), "1": ((0, 1),)})
    return CorpusEntry(
        name="framed2",
        quiver=q,
        split=split,
        dims=dims,
        action=action,
        sigma=(1, 3),
        window=(-1, 1),
    )


def corpus() -> dict[str, CorpusEntry]:
    entries = [_jordan(2), _jordan(3), _a2sym(), _loop2(), _framed2()]
    return {e.name: e for e in entries}


MOMENT_QUIVERS = ("jordan2", "jordan3", "a2sym", "loop2")
TRANSFER_QUIVERS = ("jordan2", "jordan3", "a2sym", "loop2")
ACTION_ENTRIES = ("jordan2", "a2sym", "loop2", "framed2")
