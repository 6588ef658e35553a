"""Checks on the program text itself."""

import ast
import importlib
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import wmtrop
from wmtrop.ratlin import Matrix, RatPoly


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


def _absolute_imports() -> list[tuple[str, str]]:
    """("file:line", top-level module name) for every absolute import in the package."""
    found = []
    for path in sorted(Path(wmtrop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", name.split(".")[0]) for name in names]
    return found


def test_imports_only_the_standard_library():
    # the package installs with no dependencies; a third-party import, even
    # one inside a function, would fail only on the inputs that reach it
    found = [(at, name) for at, name in _absolute_imports() if name not in sys.stdlib_module_names]
    assert found == []


def test_no_dataclasses():
    # the records are NamedTuples; dataclasses, with the inspect module it
    # imports, was about a third of the time to import wmtrop.cli
    assert [(at, name) for at, name in _absolute_imports() if name == "dataclasses"] == []


def _classes() -> list[tuple[str, type, bool]]:
    """("module.Name", class, is a NamedTuple) for every class the package defines."""
    found = []
    for path in sorted(Path(wmtrop.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"wmtrop.{path.stem}")
        for name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                record = issubclass(cls, tuple) and hasattr(cls, "_fields")
                found.append((f"{path.stem}.{name}", cls, record))
    return found


def test_records_are_named_tuples():
    # a record is a NamedTuple, which copies, pickles and compares with no
    # hand-written code; only the exact core's arithmetic types and the
    # renderer's marked list are classes of their own
    found = [
        name
        for name, cls, record in _classes()
        if not (record or issubclass(cls, BaseException))
    ]
    assert found == ["cli._IntList", "ratlin.Matrix", "ratlin.RatPoly"]


def test_records_compare_their_fields():
    # a record with one stored form per value needs tuple equality and hash
    # alone
    own = {"__eq__", "__ne__", "__hash__"}
    found = [name for name, cls, record in _classes() if record and own & set(vars(cls))]
    assert found == []


_ARITHMETIC = {"add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
               "lshift", "rshift", "and", "xor", "or"}  # fmt: skip
_OPERATORS = {
    f"__{prefix}{op}__" for op in _ARITHMETIC for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def test_core_operators_have_package_callers():
    # test_public_names_are_reached skips dunders, so an operator that only
    # tests use is pinned out here.  The callers: Matrix + in
    # monodromy.log_unipotent and exp_nilpotent, - in log_unipotent, * in
    # monodromy._powers (operator.mul, the exact powers of N that
    # log_unipotent and exp_nilpotent build) and tropbundle.form_matrix
    # (check_commutation compares integer rows, with no Matrix); RatPoly * in
    # monodromy._split, _weigh and FrobeniusData (operator.mul, the product
    # of the pieces), ** in _weigh's g**mult
    found = {cls.__name__: sorted(_OPERATORS & set(vars(cls))) for cls in (Matrix, RatPoly)}
    assert found == {"Matrix": ["__add__", "__mul__", "__sub__"], "RatPoly": ["__mul__", "__pow__"]}


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


def _references(tree: ast.AST) -> Counter:
    """How often each name ("id") and attribute (".attr") occurs in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found["." + node.attr] += 1
    return found


def test_public_names_are_reached():
    # every public function, class and method of the package is used by
    # the package itself, a script, the benchmark's tracer, or the README;
    # a name that only tests, test oracles or generators reach is surface
    # nobody documents, and moves to the oracles or is deleted instead
    root = Path(__file__).resolve().parents[1]
    package = Path(wmtrop.__file__).parent
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    used = sum((_references(tree) for tree in modules.values()), Counter())
    for path in sorted((root / "scripts").glob("*.py")):
        used += _references(ast.parse(path.read_text(encoding="utf-8")))
    tracer = ast.parse((root / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )
    traced = {name for names in layers.values() for name in names}
    readme = (root / "README.md").read_text(encoding="utf-8")
    documented = {
        token
        for span in re.findall(r"`([^`\n]+)`", readme)
        for token in re.findall(r"[A-Za-z_][\w.]*", span)
    }
    documented |= {part for token in documented for part in token.split(".")}

    def reached(definition: ast.AST, qualname: str, keys: tuple[str, ...]) -> bool:
        # references inside the definition itself (recursion, a class
        # naming itself) do not count
        own = _references(definition)
        return (
            qualname in traced
            or definition.name in documented
            or any(used[key] > own[key] for key in keys)
        )

    unreached = []
    for path, tree in modules.items():
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # a function or class counts as a name or as an attribute (module.name)
            if not reached(node, node.name, (node.name, "." + node.name)):
                unreached.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        qualname = f"{node.name}.{item.name}"
                        if not reached(item, qualname, ("." + item.name,)):
                            unreached.append(f"{path.stem}.{qualname}")
    assert unreached == []
