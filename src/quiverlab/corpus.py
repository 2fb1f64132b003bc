"""Built-in desk-scale corpus used by the verification suites and the CLI.

Each entry is defined by one JSON file, ``data/<name>.json``, and read by
the CLI's reader (``jsonio.quiver_from_json``), so the corpus is checked
like any input file; ``inputs/<name>.json`` links to the same file. Four
symmetric quivers (the Jordan quivers at v = 2 and 3, a2sym and loop2)
exercise the surgery and stability paths with rank-1 torus actions; the
arrowless framed2 carries a rank-2 framing torus, so its candidates'
tangent characters span a two-dimensional root system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .jsonio import quiver_from_json
from .quiver import ArrowSplit, DimData, Quiver
from .torus import TorusAction

DATA = Path(__file__).with_name("data")


@dataclass
class CorpusEntry:
    name: str
    quiver: Quiver
    split: ArrowSplit
    dims: DimData
    action: TorusAction | None = None
    sigma: tuple | None = None
    window: tuple[int, int] | None = None


def corpus() -> dict[str, CorpusEntry]:
    # read afresh on every call: entries are mutable
    docs = {n: json.loads((DATA / f"{n}.json").read_text()) for n in ENTRIES}
    return {n: CorpusEntry(n, *quiver_from_json(doc)) for n, doc in docs.items()}


ENTRIES = ("jordan2", "jordan3", "a2sym", "loop2", "framed2")
MOMENT_QUIVERS = ("jordan2", "jordan3", "a2sym", "loop2")
TRANSFER_QUIVERS = ("jordan2", "jordan3", "a2sym", "loop2")
ACTION_ENTRIES = ("jordan2", "a2sym", "loop2", "framed2")
