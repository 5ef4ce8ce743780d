"""Static guards: no module of the package imports a name it never uses, and
no class of the package has a field nobody reads.

``__init__.py`` is skipped by the import guard; its imports are the
package's re-exports.  The fields of a class are those a dataclass declares
and the attributes any class sets on ``self``.  A field counts as read when
its name appears as an attribute load or as a string constant anywhere in
the package, its tests or the benchmark.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "mflqg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (REPO / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "line 1: os", "line 2: d"]
    assert unused_imports("from __future__ import annotations\nimport x.y\nx.y.z()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef) -> dict:
    """A class's declared dataclass fields and the attributes it sets on self."""
    fields = {}
    if _is_dataclass(cls):
        fields.update((stmt.target.id, None) for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
    fields.update((node.attr, None) for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self")
    return fields


def unread_fields(source: str, readers: list[str]) -> list[str]:
    """Fields of the classes in ``source`` that no reader source reads."""
    read = set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{cls.name}.{name}"
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            for name in _fields(cls) if name not in read]


def test_guard_flags_an_unread_field():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\nclass A:\n    x: int\n    y: int\n    z: int\n"
              "class B:\n    w: int\n")
    assert unread_fields(source, [source, "a.x = 1\nprint(a.y)\n"]) == ["A.x", "A.z"]
    assert unread_fields(source, ["getattr(a, 'x') + a.y + a.z\n"]) == []


def test_guard_flags_an_unread_self_attribute():
    source = ("class C:\n"
              "    def __init__(self, v):\n"
              "        self.a, self.b = v, v\n"
              "        self.c = self.a\n"
              "        other.d = v\n"
              "    def grow(self):\n"
              "        self.e += 1\n")
    assert sorted(unread_fields(source, [source])) == ["C.b", "C.c", "C.e"]
    assert unread_fields(source, [source, "x.b + x.c + x.e\n"]) == []


def test_no_unread_class_fields():
    readers = [p.read_text() for p in READERS]
    assert [f for p in MODULES for f in unread_fields(p.read_text(), readers)] == []
