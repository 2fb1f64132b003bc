"""Every public name the package exports is used or documented.

Each name bound in ``quiverlab/__init__.py`` must either be referenced in
another module of ``src/quiverlab`` (imported there, or read outside its
own definition in its own module) or be listed in README's "Library API"
section, so an export nothing needs cannot stay unnoticed. The same holds
for every module-level function and class of the package, private ones
included, so a helper left without a caller fails too; a read of
``module.name`` counts as a reference to it.

The same holds for the public fields and properties of the classes a
library caller receives: every exported class, every class an exported
function's return annotation names, and every class a field of one of those
names. Each such attribute must be read somewhere in ``src/quiverlab``
(other than by its own definition), or be listed in the section as
``Class.attribute``. Attributes are matched by name, so a read of another
class's attribute of the same name counts too.
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


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}


def _library_api_section() -> str:
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library API\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README has no Library API section"
    return match.group(1)


def _reads(node) -> set:
    """Every name the tree imports or reads, and every module.name it reads
    as "module.name", leaving out the reads of a name inside its own
    definition so a recursive call does not count."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom):
            found.update(a.name for a in child.names)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add(child.id)
        elif (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
              and isinstance(child.value, ast.Name)):
            found.add(f"{child.value.id}.{child.attr}")
        inner = _reads(child)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner.discard(child.name)
        found |= inner
    return found


def _unused_definitions(modules: dict) -> list:
    """module.name for every module-level function and class that no module
    imports, reads by name, or reads as module.name."""
    reads = set().union(*map(_reads, modules.values()))
    return [
        f"{module}.{node.name}"
        for module, tree in sorted(modules.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not {node.name, f"{module}.{node.name}"} & reads
    ]


def test_every_export_is_used_in_src_or_listed_as_library_api():
    reads = set().union(*map(_reads, _modules().values()))
    listed = set(re.findall(r"`(?:\w+\.)?(\w+)`", _library_api_section()))
    unused = [n for n in _exported() if n not in reads]
    assert [n for n in unused if n not in listed] == []


def test_every_definition_is_used_in_src_or_listed_as_library_api():
    listed = set(re.findall(r"`(?:\w+\.)?(\w+)`", _library_api_section()))
    unused = _unused_definitions(_modules())
    # the names the benchmark alone reaches are listed, and found here
    assert {"stability.generated_closure", "envelopes.split_N"} <= set(unused)
    assert [n for n in unused if n.split(".")[1] not in listed] == []


# classes whose instances cli renders whole through vars(), so every field
# is read, with the cli function that renders them
RENDERED_BY_VARS = {"DegreeRow": "_stab_table_payload"}


def _names_in(annotation, classes) -> set:
    return {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name) and n.id in classes}


def _caller_classes(modules, exported) -> dict:
    """name -> ClassDef for every class a library caller receives."""
    classes = {n.name: n for t in modules.values() for n in t.body if isinstance(n, ast.ClassDef)}
    functions = [n for t in modules.values() for n in t.body if isinstance(n, ast.FunctionDef)]
    todo = set(exported) & set(classes)
    for f in functions:
        if f.name in exported and f.returns is not None:
            todo |= _names_in(f.returns, classes)
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        fields = [n.annotation for n in classes[name].body if isinstance(n, ast.AnnAssign)]
        todo |= set().union(*(_names_in(a, classes) for a in fields)) - seen
    return {name: classes[name] for name in seen}


def _public_attributes(cls: ast.ClassDef) -> list:
    """A class's public fields (annotated names in its body), properties,
    and the attributes its __init__ sets on self."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.FunctionDef):
            decorators = {getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list}
            if decorators & {"property", "cached_property"}:
                names.append(node.name)
            elif node.name == "__init__":
                names += [
                    a.attr for a in ast.walk(node)
                    if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
                    and isinstance(a.value, ast.Name) and a.value.id == "self"
                ]
    return [n for n in dict.fromkeys(names) if not n.startswith("_")]


def _reads_attribute(node, attr: str) -> bool:
    """Whether the tree reads .attr, skipping attr's own definition so a
    property that reads itself does not count."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name == attr:
            continue
        if isinstance(child, ast.Attribute) and child.attr == attr and isinstance(child.ctx, ast.Load):
            return True
        if _reads_attribute(child, attr):
            return True
    return False


def _unread_attributes(modules, classes) -> list:
    return [
        f"{name}.{attr}"
        for name, cls in sorted(classes.items())
        if name not in RENDERED_BY_VARS
        for attr in _public_attributes(cls)
        if not any(_reads_attribute(t, attr) for t in modules.values())
    ]


def test_every_public_attribute_is_read_in_src_or_listed_as_library_api():
    modules = _modules()
    classes = _caller_classes(modules, _exported())
    # the report types exported functions return, and the rows of one
    assert {"TriangleReport", "DegreeTable", "DegreeRow", "NormalSplit"} <= set(classes)
    listed = {".".join(t.split(".")[-2:]) for t in re.findall(r"`([\w.]+)`", _library_api_section())}
    assert [a for a in _unread_attributes(modules, classes) if a not in listed] == []
    # the classes counted as read whole are rendered through vars()
    for name, function in RENDERED_BY_VARS.items():
        (f,) = [n for n in modules["cli"].body if isinstance(n, ast.FunctionDef) and n.name == function]
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "vars" for n in ast.walk(f)), name


def test_library_api_check_sees_an_unused_attribute():
    # Report is returned by an exported function and Row named by its field;
    # a property that reads only itself is unread, a field its own class
    # reads is read
    source = (
        "class Row:\n"
        "    label: str\n"
        "\n"
        "class Report:\n"
        "    ok: bool\n"
        "    rows: list[Row]\n"
        "    spare: int\n"
        "    def __init__(self):\n"
        "        self.given, self._kept = 1, 2\n"
        "    @property\n"
        "    def shown(self):\n"
        "        return self.given + self.shown\n"
        "\n"
        "def check() -> Report:\n"
        "    r = Report()\n"
        "    return r.ok, r.rows\n"
    )
    modules = {"m": ast.parse(source)}
    classes = _caller_classes(modules, ["check"])
    assert sorted(classes) == ["Report", "Row"]
    assert _public_attributes(classes["Report"]) == ["ok", "rows", "spare", "given", "shown"]
    assert _unread_attributes(modules, classes) == ["Report.spare", "Report.shown", "Row.label"]


def test_library_api_check_sees_an_unused_name():
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return h\n")
    assert "f" not in _reads(tree)
    assert "h" in _reads(tree)
    assert "f" in _reads(ast.parse("from .x import f\n"))


def test_library_api_check_sees_an_unused_helper():
    # a private helper that only calls itself is unused; one read as
    # module.name from another module, or by name in its own, is used
    modules = {
        "m": ast.parse(
            "def _dead():\n    return _dead()\n\n"
            "def _suite():\n    pass\n\n"
            "class _Row:\n    pass\n\n"
            "def _helper() -> _Row:\n    pass\n"
        ),
        "n": ast.parse("from . import m\n\nrun = m._suite, m._helper\nother = x._dead\n"),
    }
    assert _unused_definitions(modules) == ["m._dead"]
