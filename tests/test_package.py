"""Package surface: every exported name exists, nothing defined is unreachable,
and the package and CLI import."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import aortafit


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
    """Top-level function and class names, and the non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name


def _references(tree):
    """Every name a module reads, imports or spells as a string, outside its ``__all__``."""
    exported = {id(n) for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
                for n in ast.walk(stmt)}
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # names that perfbench patches by string


# Names that may stay unreferenced in src/ and perfbench/, each with the reason.
DEAD_API_ALLOWED = {}


def test_no_unreferenced_api():
    # Every function, class and method of the package is reached from src/
    # or perfbench/; one reached only from tests or nowhere is dead API.
    root = os.path.dirname(os.path.dirname(os.path.dirname(aortafit.__file__)))
    trees = {}
    for top in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path) as fh:
                        trees[path] = ast.parse(fh.read(), path)
    used = {ref for tree in trees.values() for ref in _references(tree)}
    package = os.path.dirname(aortafit.__file__)
    defined = {name for path, tree in trees.items() if path.startswith(package)
               for name in _definitions(tree)}
    assert {"fit_svf", "TrilinearSampler", "slopes"} <= defined  # the scan sees the package
    dead = sorted(defined - used - set(DEAD_API_ALLOWED))
    assert not dead, f"defined in src/aortafit but referenced nowhere in src/ or perfbench/: {dead}"
