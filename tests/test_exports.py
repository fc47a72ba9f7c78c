import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ellharm


def _modules():
    return [importlib.import_module(f"ellharm.{info.name}")
            for info in pkgutil.iter_modules(ellharm.__path__)]


def test_every_exported_name_resolves():
    for mod in _modules():
        missing = [name for name in getattr(mod, "__all__", ())
                   if not hasattr(mod, name)]
        assert missing == [], (mod.__name__, missing)


def test_package_imports_are_public_names():
    tree = ast.parse(Path(ellharm.__file__).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        mod = importlib.import_module(f"ellharm.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(mod, "__all__", ()), (node.module, alias.name)
            assert hasattr(ellharm, alias.asname or alias.name), alias.name


def test_runtime_imports_no_scipy():
    # a fresh interpreter, so modules the tests themselves import do not count
    src = str(Path(ellharm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, ellharm, ellharm.cli, ellharm.bem; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_traced_names_resolve():
    # perfbench's tracer patches these module bindings and its worker reads
    # NUMBA_AVAILABLE, so renaming one of them breaks the benchmark harness
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name in [*tracer.SPANS, *tracer.COUNTERS]:
        assert callable(getattr(importlib.import_module(f"ellharm.{module}"), name, None)), \
            (module, name)
    assert isinstance(importlib.import_module("ellharm._kernels").NUMBA_AVAILABLE, bool)
