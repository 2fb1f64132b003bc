"""Every function the benchmark's span tracer wraps must exist.

``perfbench/spans.py`` lists the traced functions as ``layer.name`` or
``layer.Class.method`` in ``FUNCS``; a refactor that drops or renames one
fails here instead of in the traced benchmark pass.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
FUNCS = runpy.run_path(str(SPANS))["FUNCS"]


@pytest.mark.parametrize("fid", FUNCS)
def test_traced_function_resolves(fid):
    layer, *path = fid.split(".")
    obj = importlib.import_module(f"quiverlab.{layer}")
    for part in path:
        obj = getattr(obj, part)
    assert callable(obj)
