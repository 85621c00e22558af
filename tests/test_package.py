"""Package surface: every exported name exists and is used from another file,
nothing defined is unreachable, and the package and CLI import."""

import ast
import builtins
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import aortafit
from aortafit.cli import default_config

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(aortafit.__file__)))


def test_every_module_exports_resolve():
    names = [m.name for m in pkgutil.iter_modules(aortafit.__path__)]
    assert {"cli", "fitter", "quadmesh"} <= set(names)
    for name in names:
        module = importlib.import_module(f"aortafit.{name}")
        stale = [n for n in module.__all__ if not hasattr(module, n)]
        assert not stale, f"aortafit.{name}.__all__ names missing attributes: {stale}"
    assert aortafit.__all__ == ["__version__"]
    assert isinstance(aortafit.__version__, str)

    src = os.path.dirname(os.path.dirname(aortafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "aortafit.cli", "--help"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "pipeline" in run.stdout


def _definitions(tree):
    """(name, is_method) for top-level functions and classes and the non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, True


def _references(tree):
    """(name, as_member) for every name a module reads, imports or spells as a
    string, outside its ``__all__``; ``as_member`` marks an attribute access
    or a string constant, the only ways a method is reached."""
    exported = {id(n) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                for n in ast.walk(stmt)}
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, True  # names that perfbench patches by string


# Names that may stay unreferenced in src/ and perfbench/, each with the reason.
DEAD_API_ALLOWED = {}


def _program_trees(tops=("src", "perfbench")):
    """The parsed source of every Python file under src/ and perfbench/ (or ``tops``), by path."""
    trees = {}
    for top in tops:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path) as fh:
                        trees[path] = ast.parse(fh.read(), path)
    return trees


def test_no_unreferenced_api():
    # Every function, class and method of the package is reached from src/
    # or perfbench/; one reached only from tests or nowhere is dead API.
    # A method counts as used only through an attribute or a string: a local
    # variable of the same name does not reach it.
    trees = _program_trees()
    refs = {ref for tree in trees.values() for ref in _references(tree)}
    used = {name for name, _ in refs}
    members = {name for name, as_member in refs if as_member}
    package = os.path.dirname(aortafit.__file__)
    defined = {item for path, tree in trees.items() if path.startswith(package)
               for item in _definitions(tree)}
    assert {("fit_svf", False), ("TrilinearSampler", False), ("slopes", True)} <= defined  # the scan sees the package
    dead = sorted({name for name, is_method in defined if name not in (members if is_method else used)}
                  - set(DEAD_API_ALLOWED))
    assert not dead, f"defined in src/aortafit but referenced nowhere in src/ or perfbench/: {dead}"


def test_every_export_is_referenced_from_another_file():
    # A module's __all__ is the API it offers. Each name in it is imported,
    # read as an attribute or spelled as a string by another file of src/,
    # perfbench/ or tests/; a name only its own module uses is no API.
    trees = _program_trees(("src", "perfbench", "tests"))
    package = os.path.dirname(aortafit.__file__)
    unused = []
    for module in pkgutil.iter_modules(aortafit.__path__):
        path = os.path.join(package, f"{module.name}.py")
        refs = {ref for other, tree in trees.items() if other != path for ref, _ in _references(tree)}
        exported = importlib.import_module(f"aortafit.{module.name}").__all__
        unused += [f"{module.name}.{name}" for name in exported if name not in refs]
    assert not unused, f"exported but referenced from no other file of src/, perfbench/ or tests/: {unused}"


def _dataclass_fields(tree):
    """(class, field) for every field of each top-level dataclass of a module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def _field_reads(tree):
    """Every attribute a module reads, and every string constant it spells."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_dataclass_field_is_read():
    # A field that src/ and perfbench/ only ever construct is state that
    # nothing uses: it costs memory and keeps dead computations alive.
    trees = _program_trees()
    read = {name for tree in trees.values() for name in _field_reads(tree)}
    package = os.path.dirname(aortafit.__file__)
    fields = [(cls, name) for path, tree in trees.items() if path.startswith(package)
              for cls, name in _dataclass_fields(tree)]
    assert ("FitConfig", "levels") in fields and ("StressField", "residual") in fields
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert not unread, f"dataclass fields in src/aortafit that src/ and perfbench/ never read: {unread}"


def test_no_class_defines_as_dict():
    # A result is built as the dict its JSON file holds; a class whose as_dict
    # renames its fields into the file's keys keeps a second copy of the schema.
    package = os.path.dirname(aortafit.__file__)
    methods = {(node.name, item.name) for path, tree in _program_trees().items() if path.startswith(package)
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    assert ("DiffeoConfig", "resolve_steps") in methods  # the scan sees the package's methods
    offenders = sorted(cls for cls, name in methods if name == "as_dict")
    assert not offenders, f"classes in src/aortafit that define as_dict: {offenders}"


def test_no_class_derives_from_an_exception():
    # A failure is a builtin exception whose type alone sets the exit code
    # (FloatingPointError 3; ValueError and OSError 2). A subclass repeats
    # a builtin's role, and one whose __init__ takes more than the message
    # does not unpickle, so a pipeline worker raising it breaks the pool.
    package = os.path.dirname(aortafit.__file__)
    classes = {node.name: {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None) for b in node.bases}
               for path, tree in _program_trees().items() if path.startswith(package)
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert "DiffeoConfig" in classes  # the scan sees the package's classes
    exceptions = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
    # A class deriving from one of the package's exceptions is one too.
    while grown := {cls for cls, bases in classes.items() if bases & exceptions} - exceptions:
        exceptions |= grown
    offenders = sorted(exceptions & set(classes))
    assert not offenders, f"classes in src/aortafit that derive from an exception type: {offenders}"


def test_the_quad_split_is_written_only_in_quadmesh():
    # Both analyses read a quad as the triangles (v0, v1, v2) and (v0, v2, v3)
    # of quadmesh.TRIANGLES. A second literal (0, 2, 3) would be a second copy
    # of that split, which only happens to agree. (0, 1, 2) alone is no
    # split: it is also an axis tuple.
    package = os.path.dirname(aortafit.__file__)
    copies = [f"{os.path.relpath(path, package)}:{node.lineno}"
              for path, tree in _program_trees(("src",)).items() if os.path.basename(path) != "quadmesh.py"
              for node in ast.walk(tree) if isinstance(node, (ast.Tuple, ast.List))
              and [getattr(e, "value", None) for e in node.elts] == [0, 2, 3]]
    assert not copies, f"the quad split (0, 2, 3) written outside quadmesh.py: {copies}"


def test_every_traced_name_is_defined_where_the_benchmark_wraps_it(monkeypatch):
    # perfbench/layers.py wraps each name by reading owner.__dict__[attr]. A
    # module that stops defining or importing one (say fitter.exponentiate,
    # which fitter no longer calls) would fail only in a traced benchmark run.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    layers = importlib.import_module("layers")
    wrapped = []

    class Recorder:
        def patch(self, owner, attr, *args, **kwargs):
            wrapped.append((owner, attr))

    layers.install(Recorder())
    assert len(wrapped) > 20
    missing = [f"{owner.__name__}.{attr}" for owner, attr in wrapped if attr not in owner.__dict__]
    assert not missing, f"perfbench/layers.py wraps names its owners do not define: {missing}"


def test_every_config_key_is_documented():
    # README's "Command line" section names every key a config takes, as
    # `key` or `section.key`, in running text: code blocks do not count.
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    spans = set(re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", section, flags=re.S)))
    missing = [f"{name}.{key}" for name, keys in default_config().items() for key in keys
               if key not in spans and f"{name}.{key}" not in spans]
    assert not missing, f"config keys missing from README's Command line section: {missing}"
