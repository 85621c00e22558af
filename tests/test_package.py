"""Package surface: every exported name exists, and the package and CLI import."""

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
