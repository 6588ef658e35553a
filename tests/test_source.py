"""Checks on the program text itself."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import wmtrop


def test_no_assert_statements():
    # python -O strips assert statements, so every invariant that guards a
    # result is an explicit check that raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(wmtrop.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_only_the_standard_library():
    # the package installs with no dependencies; a third-party import, even
    # one inside a function, would fail only on the inputs that reach it
    found = []
    for path in sorted(Path(wmtrop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_traced_layers_exist():
    # the benchmark's tracer wraps these names; one that no longer exists
    # would only fail a traced benchmark run, so it fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, names in tracer.LAYERS.items():
        module = importlib.import_module(f"wmtrop.{mod_name}")
        for name in names:
            if "." in name:  # a method, wrapped on its class
                cls_name, attr = name.split(".")
                found = callable(vars(getattr(module, cls_name, object)).get(attr))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{mod_name}.{name}")
    assert missing == []
