import ast
import importlib
import pkgutil
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
