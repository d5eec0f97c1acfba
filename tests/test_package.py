"""The package exports what it defines, and defines only what is used.

A public function or class that neither the package itself nor the
benchmark under ``bench/`` refers to is API kept alive for the tests
alone; independent cross-checks of that kind live in ``tests/``
(``oracles.py``, ``bare_mode_oracle.py``).
"""

import ast
from pathlib import Path

import pytest

import entangle

ROOT = Path(__file__).resolve().parent.parent


def _names(nodes, strings=False):
    """Names and attribute names under ``nodes``, plus string constants
    if ``strings``."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


#: top-level statements of every package module but ``__init__``, with
#: the module they belong to and the names each refers to.  Package
#: strings do not count: a docstring naming a function is not a use.
STATEMENTS = [(path.stem, node, _names([node]))
              for path in sorted((ROOT / "src" / "entangle").glob("*.py"))
              if path.name != "__init__.py"
              for node in ast.parse(path.read_text()).body]

#: what the benchmark refers to; it names its trace targets as
#: ``(owner, "attribute")`` pairs
BENCH_NAMES = _names((ast.parse(path.read_text())
                      for path in (ROOT / "bench").glob("*.py")), strings=True)

PUBLIC = [(module, node) for module, node, _ in STATEMENTS
          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
          and not node.name.startswith("_")]


@pytest.mark.parametrize("name", entangle.__all__)
def test_every_export_resolves(name):
    assert hasattr(entangle, name)


@pytest.mark.parametrize("module, definition", PUBLIC,
                         ids=[f"{module}.{node.name}" for module, node in PUBLIC])
def test_every_public_definition_is_used(module, definition):
    used = set(BENCH_NAMES)
    for _, node, names in STATEMENTS:
        if node is not definition:
            used |= names
    assert definition.name in used, (
        f"{module}.{definition.name} is referenced by neither the package "
        "nor the benchmark")
