"""Package surface: every name a module exports or the benchmark imports
resolves, and the package keeps only what its own code calls."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conerec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_MODULES = [importlib.import_module(f"conerec.{info.name}")
            for info in pkgutil.iter_modules(conerec.__path__)]

# Definitions no code in the package calls, each kept for a caller outside it.
_CALLED_FROM_OUTSIDE = (
    # the data format's writer, which the benchmark and the tests use
    "nulldata.save_cone_data",
    # the benchmark's tracer looks this method up by name
    "nulldata.ConeData.radial_derivative",
)


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


def _benchmark_imports():
    """(file, module, name) of every name a perfbench/*.py file imports from
    conerec, read from the files' text so nothing there runs; name is None
    for a plain import of the module."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "conerec":
                yield from ((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, a.name, None) for a in node.names
                            if a.name.split(".")[0] == "conerec")


def test_every_name_the_benchmark_imports_resolves():
    # the benchmark binds these names; dropping one breaks its runs, not a test
    imports = list(_benchmark_imports())
    assert imports, "perfbench imports nothing from conerec"
    missing = []
    for path, module, name in imports:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{path}: {module}.{name}")
    assert not missing


def _definitions_and_references():
    """Module-level functions and classes and their methods (dunders left
    out: the language calls them), as (dotted name, name, file, node), and
    every name the code reads, as (name, file, line).  A name in __all__
    is a string, so it is no reference."""
    definitions, references = [], []
    for path in sorted(Path(conerec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{node.name}", node.name, path, node))
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        definitions.append((f"{path.stem}.{node.name}.{item.name}",
                                            item.name, path, item))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                references.append((getattr(node, "id", None) or node.attr, path,
                                   node.lineno))
    return definitions, references


def test_every_definition_is_called_from_the_package():
    # code that only tests run belongs in tests/, or goes
    definitions, references = _definitions_and_references()
    unused = [dotted for dotted, name, path, node in definitions
              if not dotted.startswith(_CALLED_FROM_OUTSIDE)
              and not any(ref == name and not (at == path
                                               and node.lineno <= line <= node.end_lineno)
                          for ref, at, line in references)]
    assert not unused, f"defined but never referenced outside its definition: {unused}"


def _settable_options(tree):
    """Defaulted parameters of every function, plus defaulted fields of every
    dataclass that its __init__ takes (a field(init=False) is not set)."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign) and item.value is not None):
                    continue
                value = item.value
                count += not (isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
                              and any(k.arg == "init" and ast.unparse(k.value) == "False"
                                      for k in value.keywords))
    return count


def test_settable_options_do_not_grow():
    # every default is a knob a caller can turn; the package keeps at most this many
    paths = sorted(Path(conerec.__file__).parent.glob("*.py"))
    assert sum(_settable_options(ast.parse(p.read_text())) for p in paths) <= 50
