"""Package surface: every name a module exports resolves, and the package
keeps only what its own code calls."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conerec

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
