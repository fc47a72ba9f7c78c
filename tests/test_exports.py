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


def test_eval_lame_bound_where_the_tracer_patches_it():
    # perfbench's tracer wraps a layer function at every module binding that
    # holds it: its tracer test checks eval_lame on these modules, and its
    # coords.cart_to_ell counter sees every cart_to_ell call only if each
    # caller binds the one function (solvation computes no coordinates)
    for name, modules in [
            ("eval_lame", ("ellharm.lame1", "ellharm", "ellharm.lame2", "ellharm.harmonics")),
            ("cart_to_ell", ("ellharm.coords", "ellharm", "ellharm.harmonics"))]:
        func = getattr(importlib.import_module(modules[0]), name)
        for module in modules:
            assert getattr(importlib.import_module(module), name) is func, (module, name)


def test_table_build_calls_gamma_once(monkeypatch):
    # perfbench traces the table's gamma layer as harmonics.gamma and its
    # tests assert that set-up calls it: the table makes one call, with
    # every index in (n, p) order
    harmonics = importlib.import_module("ellharm.harmonics")
    calls = []
    gamma = harmonics.gamma

    def counted(sys, idx, *args, **kwargs):
        calls.append(list(idx))
        return gamma(sys, idx, *args, **kwargs)

    monkeypatch.setattr(harmonics, "gamma", counted)
    N = 3
    harmonics.build_normalization_table(ellharm.new_system(2.0, 1.5, 1.0), N)
    assert calls == [[harmonics.HarmonicIndex(n, p)
                      for n in range(N + 1) for p in range(1, 2 * n + 2)]]
