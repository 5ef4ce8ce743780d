"""Static guards: no module of the package imports a name it never uses, no
class of the package has a field nobody reads, no public function or class
of the package is there for its unit tests alone, every name of the package
that the benchmark reads or patches exists, the stacked fold reads no
coefficient of the model, only ``ode`` cuts a sweep into chunks or reads
the blow-up bound or a symmetry tolerance, only ``model`` reads JSON
files or writes JSON text, and each rule of ``RULE_OWNERS`` is named by its
owner alone.

``__init__.py`` is skipped by the import guard; its imports are the
package's re-exports.  The fields of a class are those a dataclass declares
and the attributes any class sets on ``self``.  A field counts as read when
its name appears as an attribute load or as a string constant anywhere in
the package, its tests or the benchmark.  The benchmark patches library
functions by name, so a renamed one would fail only in a traced benchmark
run; its sources are parsed here, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "mflqg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (REPO / d).rglob("*.py"))
PERFBENCH = sorted((REPO / "perfbench").glob("*.py"))


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


def read_names(readers: list[str]) -> set:
    """Every attribute load and string constant of the reader sources."""
    read = set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unread_fields(source: str, read: set) -> list[str]:
    """Fields of the classes in ``source`` whose names ``read`` lacks."""
    return [f"{cls.name}.{name}"
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            for name in _fields(cls) if name not in read]


def test_guard_flags_an_unread_field():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\nclass A:\n    x: int\n    y: int\n    z: int\n"
              "class B:\n    w: int\n")
    assert unread_fields(source, read_names([source, "a.x = 1\nprint(a.y)\n"])) == ["A.x", "A.z"]
    assert unread_fields(source, read_names(["getattr(a, 'x') + a.y + a.z\n"])) == []


def test_guard_flags_an_unread_self_attribute():
    source = ("class C:\n"
              "    def __init__(self, v):\n"
              "        self.a, self.b = v, v\n"
              "        self.c = self.a\n"
              "        other.d = v\n"
              "    def grow(self):\n"
              "        self.e += 1\n")
    assert sorted(unread_fields(source, read_names([source]))) == ["C.b", "C.c", "C.e"]
    assert unread_fields(source, read_names([source, "x.b + x.c + x.e\n"])) == []


def test_no_unread_class_fields():
    read = read_names([p.read_text() for p in READERS])
    assert [f for p in MODULES for f in unread_fields(p.read_text(), read)] == []


def _import(module: str, name: str):
    """``from module import name``: a submodule, or the attribute (None if missing)."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def library_references(source: str) -> dict:
    """Every name of the package that ``source`` reads or patches, by label,
    mapped to whether it exists.

    ``from mflqg import m`` and ``from mflqg.m import X`` bind names to the
    package's objects, and a name assigned from a call of such a class, or an
    argument annotated with it, to an instance of the class.  A reference is
    an attribute of a bound name (``riccati.solve_oracle.__kwdefaults__``),
    or a string that directly follows one in a tuple or in a call's
    arguments: an attribute name (``(analysis, "solve_oracle", ...)``,
    ``patch.object(NoiseBank, "materialized", ...)``), or a key where the
    object is a dict (``setitem(solve_oracle.__kwdefaults__, "fd_tol", 0)``).
    """
    tree = ast.parse(source)
    refs, bound = {}, {}   # bound: name -> (label, object, is an instance)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mflqg":
            for alias in node.names:
                obj = _import(node.module, alias.name)
                refs[f"{node.module}.{alias.name}"] = obj is not None
                bound[alias.asname or alias.name] = (alias.name, obj, False)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and (base := resolve(expr.value)):
            return member(base, expr.attr)
        return None

    def member(base, name):
        label, obj, instance = base
        fields = _fields(ast.parse(inspect.getsource(obj)).body[0]) if instance else {}
        refs[f"{label}.{name}"] = hasattr(obj, name) or name in fields
        return (f"{label}.{name}", getattr(obj, name), False) if hasattr(obj, name) else None

    for node in ast.walk(tree):
        cls = None
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            cls, names = resolve(node.value.func), [t.id for t in node.targets
                                                    if isinstance(t, ast.Name)]
        elif isinstance(node, ast.arg) and node.annotation is not None:
            cls, names = resolve(node.annotation), [node.arg]
        if cls and isinstance(cls[1], type):
            bound.update((name, (cls[0], cls[1], True)) for name in names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        items = node.elts if isinstance(node, (ast.Tuple, ast.List)) else \
            node.args if isinstance(node, ast.Call) else []
        for obj, key in zip(items, items[1:]):
            if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                    and (base := resolve(obj)):
                if isinstance(base[1], dict):
                    refs[f"{base[0]}[{key.value!r}]"] = key.value in base[1]
                else:
                    member(base, key.value)
    return refs


def test_guard_flags_a_missing_library_name():
    source = ("from mflqg import riccati\n"
              "from mflqg.montecarlo import NoiseBank, Gone\n"
              "patch.object(NoiseBank, 'materialized', f)\n"
              "patch.object(NoiseBank, 'renamed', f)\n"
              "setitem(riccati.solve_oracle.__kwdefaults__, 'fd_tol', 0.0)\n"
              "setitem(riccati.solve_oracle.__kwdefaults__, 'fd_step', 0.0)\n"
              "STAGES = [(riccati, '_validate_stationarity', 'x'), (riccati, 'solve_phi2', 'y')]\n"
              "bank = NoiseBank(1, 2, 3, grid)\n"
              "def replay(bank2: NoiseBank):\n"
              "    return bank.n_paths + bank2.increments(0) + bank2.size\n")
    refs = library_references(source)
    assert sorted(label for label, ok in refs.items() if not ok) == [
        "NoiseBank.renamed", "NoiseBank.size", "mflqg.montecarlo.Gone",
        "riccati.solve_oracle.__kwdefaults__['fd_step']", "riccati.solve_phi2"]
    assert {"NoiseBank.materialized", "NoiseBank.n_paths", "NoiseBank.increments",
            "riccati._validate_stationarity",
            "riccati.solve_oracle.__kwdefaults__['fd_tol']"} <= set(refs)


def _stage_labels(source: str) -> set:
    """(module, "attribute", ...) entries of the benchmark's stage lists."""
    return {f"{entry.elts[0].id}.{entry.elts[1].value}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] in (["SOLVE_STAGES"], ["GAP_STAGES"])
            for entry in node.value.elts}


def test_every_library_name_the_benchmark_uses_exists():
    refs, stages = {}, set()
    for path in PERFBENCH:
        refs.update(library_references(path.read_text()))
        stages |= _stage_labels(path.read_text())
    assert [label for label, ok in refs.items() if not ok] == []
    assert len(stages) >= 10 and stages <= set(refs)
    assert {"NoiseBank.materialized", "riccati._validate_stationarity",
            "riccati.MAX_VALIDATION_PATHS", "riccati.solve_oracle.__kwdefaults__['fd_tol']",
            "AugmentedCoeffs.at", "montecarlo._chunks", "montecarlo.worker_count"} <= set(refs)


def class_names(source: str, name: str) -> set:
    """Every name and attribute that class ``name`` of ``source`` mentions."""
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == name)
    return ({node.id for node in ast.walk(cls) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)})


def test_stacked_fold_lays_out_the_agent_fold():
    # how a law becomes Euler-Maruyama tables is decided in the agent fold
    # alone; the stacked fold only lays its tables out on the stacked state
    names = class_names((SRC / "montecarlo.py").read_text(), "_StackedFold")
    assert {"_AgentFold", "kron_eye", "kron_mean"} <= names
    assert not names & {"build_augmented", "node_table"}


def mentioned_names(source) -> set:
    """Every name, attribute and imported name that ``source``, a source text
    or a parsed node, mentions."""
    names = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_ode_cuts_sweeps_into_chunks():
    # the chunk size and a chunk's stage times are ode's alone; every other
    # module walks its sweeps through ode.sweep_chunks
    chunking = {"LINEAR_CHUNK_STEPS", "distinct_stage_times"}
    assert mentioned_names("from .ode import a as b\nc.d(e)\n") == {"a", "c", "d", "e"}
    found = {path.name: sorted(chunking & mentioned_names(path.read_text()))
             for path in SRC.glob("*.py") if path.name != "ode.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def unused_public_names(sources: dict, named: set) -> list[str]:
    """Public top-level functions and classes of ``sources`` (module name to
    source text) that no source mentions outside their own definition and
    ``named`` does not hold.  A mention is a name, an attribute or an
    imported name, so a re-export by ``__init__.py`` is one."""
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.append((module, own))
            else:
                own = None
            used |= {name for name in mentioned_names(top) if name != own}
    return [f"{module}.{name}" for module, name in defined
            if name not in used and name not in named]


def test_guard_flags_a_name_only_tests_use():
    sources = {"a": "def run(x):\n    return run(x) + helper(x)\ndef helper(x):\n    pass\n"
                    "class Spare:\n    pass\ndef _private():\n    pass\nclass Kept:\n    pass\n",
               "__init__": "from .a import Kept\n"}
    assert unused_public_names(sources, set()) == ["a.run", "a.Spare"]
    assert unused_public_names(sources, {"run", "Spare"}) == []


def test_every_public_name_serves_the_package_its_acceptance_tests_or_the_benchmark():
    # a function or class that only unit tests call is a second code path
    # for them to keep alive; the benchmark patches names by string
    named = set()
    for path in [REPO / "tests" / "test_acceptance.py", *PERFBENCH]:
        named |= mentioned_names(path.read_text())
        named |= {node.value for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unused_public_names(sources, named) == []


def json_file_calls(source: str) -> set:
    """json.load, json.loads, json.dump and json.dumps as ``source`` calls or
    imports them."""
    names = {"load", "loads", "dump", "dumps"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names \
                and isinstance(node.value, ast.Name) and node.value.id == "json":
            found.add(f"json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found |= {f"json.{alias.name}" for alias in node.names if alias.name in names}
    return found


def test_only_model_reads_and_writes_json_files():
    # config, law and shift files are parsed by model.read_json, and all JSON
    # text (every artifact, mflqg convexity's stdout) is model.json_text's
    assert json_file_calls("import json\nfrom json import loads as l\njson.dump(a, f)\n"
                           "json.dumps(b)\nx.load(c)\n") == {"json.loads", "json.dump",
                                                            "json.dumps"}
    found = {path.name: sorted(json_file_calls(path.read_text()))
             for path in SRC.glob("*.py") if path.name != "model.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert json_file_calls((SRC / "model.py").read_text()) == {"json.load", "json.dumps"}


def dotted_mentions(source: str) -> set:
    """:func:`mentioned_names` of ``source`` plus each attribute of a bare
    name as written, ``np.integer`` say."""
    tree = ast.parse(source)
    return mentioned_names(tree) | {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                                    if isinstance(node, ast.Attribute)
                                    and isinstance(node.value, ast.Name)}


# each rule and the one module that may name it: the certificates and the
# coupling test behind report_all's verdict, the regularity tolerance behind
# FeedbackLaw's admission, the integer rule behind ode.is_int, whether a
# coefficient varies in time, behind ModelParams.node_table's grid rule, and
# the symmetric eigensolver behind ode.eig_min_at, every positivity verdict's
# number
RULE_OWNERS = {"check_psd_case": "convexity.py", "check_coupled_indefinite": "convexity.py",
               "check_decoupled_indefinite": "convexity.py", "is_coupled": "convexity.py",
               "REGULARITY_TOL": "riccati.py", "np.integer": "ode.py",
               "is_time_varying": "model.py", "eigvalsh": "ode.py"}


def test_guard_sees_a_rule_as_written():
    assert {"np.integer", "is_coupled", "x.y"} <= dotted_mentions(
        "from .convexity import is_coupled\nisinstance(v, np.integer)\nx.y.z\n")
    assert "y.z" not in dotted_mentions("x.y.z\n")


def ode_rule_constants(source: str) -> set:
    """The blow-up bound and every symmetry tolerance (a name holding both
    SYM and TOL) that ``source`` names in its code; docstrings do not count."""
    return {name for name in mentioned_names(source)
            if name == "BLOWUP_NORM" or "SYM" in name and "TOL" in name}


def test_only_ode_reads_the_blowup_bound_or_a_symmetry_tolerance():
    # blow-up is ode.blown_up and symmetry ode.asymmetry: a module that reads
    # their constants holds a copy of the rule
    assert ode_rule_constants('"""BLOWUP_NORM"""\nSYM_REPAIR_TOL = 1e-8\n'
                              "from .ode import BLOWUP_NORM\nx.SYM_TOL_SCALE\n") == {
        "BLOWUP_NORM", "SYM_REPAIR_TOL", "SYM_TOL_SCALE"}
    found = {path.name: sorted(ode_rule_constants(path.read_text()))
             for path in SRC.glob("*.py") if path.name != "ode.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_each_rule_is_named_by_its_owner_alone():
    found = {path.name: sorted(rule for rule in dotted_mentions(path.read_text()) & set(RULE_OWNERS)
                               if RULE_OWNERS[rule] != path.name)
             for path in SRC.glob("*.py")}
    assert {name: hits for name, hits in found.items() if hits} == {}
