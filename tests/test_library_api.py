"""Every public name the package exports is used or documented.

Each name bound in ``quiverlab/__init__.py`` must either be referenced in
another module of ``src/quiverlab`` (imported there, or read outside its
own definition in its own module) or be listed in README's "Library API"
section, so an export nothing needs cannot stay unnoticed.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quiverlab"


def _exported() -> list:
    names = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def _references(node, name: str) -> bool:
    """Whether the tree imports name or reads it, skipping name's own
    definition so a recursive call does not count."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and child.name == name:
            continue
        if isinstance(child, ast.ImportFrom) and any(a.name == name for a in child.names):
            return True
        if isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load):
            return True
        if _references(child, name):
            return True
    return False


def _library_api_section() -> str:
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library API\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README has no Library API section"
    return match.group(1)


def test_every_export_is_used_in_src_or_listed_as_library_api():
    modules = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    listed = set(re.findall(r"`(?:\w+\.)?(\w+)`", _library_api_section()))
    unused = [n for n in _exported() if not any(_references(m, n) for m in modules)]
    assert [n for n in unused if n not in listed] == []


def test_library_api_check_sees_an_unused_name():
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return h\n")
    assert not _references(tree, "f")
    assert _references(tree, "h")
    assert _references(ast.parse("from .x import f\n"), "f")
