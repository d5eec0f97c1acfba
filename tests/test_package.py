"""The package exports what it defines, defines only what is used, and
imports only what it declares.

A module-level private definition that no other package statement
refers to is dead code.

A public function or class that neither the package itself nor the
benchmark under ``bench/`` refers to is API kept alive for the tests
alone; independent cross-checks of that kind live in ``tests/``
(``oracles.py``, ``bare_mode_oracle.py``).  At import time the package
needs the standard library and its declared runtime dependencies, and
nothing else: scipy is a test dependency, and loading it would double
the start-up time of every ``entangle`` command.
"""

import ast
import importlib
import importlib.metadata
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import entangle
from entangle import dynamics, experiments

ROOT = Path(__file__).resolve().parent.parent

#: the ``[project]`` table of ``pyproject.toml``
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

#: the syntax tree of every package module, by module name
TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted((ROOT / "src" / "entangle").glob("*.py"))}


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
STATEMENTS = [(module, node, _names([node]))
              for module, tree in TREES.items() if module != "__init__"
              for node in tree.body]

#: what the benchmark refers to; it names its trace targets as
#: ``(owner, "attribute")`` pairs
BENCH_NAMES = _names((ast.parse(path.read_text())
                      for path in (ROOT / "bench").glob("*.py")), strings=True)

PUBLIC = [(module, node) for module, node, _ in STATEMENTS
          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
          and not node.name.startswith("_")]



def _defined(node):
    """Names a top-level statement binds: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


#: every module-level private definition: (module, statement, name)
PRIVATE = [(module, node, name)
           for module, tree in TREES.items() for node in tree.body
           for name in _defined(node)
           if name.startswith("_") and not name.startswith("__")]

#: names each top-level statement of every package module refers to
ALL_STATEMENTS = [(node, _names([node])) for tree in TREES.values()
                  for node in tree.body]


#: dataclasses that validate nothing, and why each is not a named tuple
UNVALIDATED_DATACLASSES = {
    "PipelineResult": "the benchmark's tests copy it with dataclasses.replace",
}


def _unvalidated_dataclass(node):
    """Whether ``node`` is a class decorated with ``dataclass`` that defines
    no ``__post_init__``."""
    return (isinstance(node, ast.ClassDef)
            and any(isinstance(sub, ast.Name) and sub.id == "dataclass"
                    for decorator in node.decorator_list for sub in ast.walk(decorator))
            and not any("__post_init__" in _defined(statement) for statement in node.body))


def test_only_a_validating_type_is_a_dataclass():
    # a type that checks its fields in __post_init__ stays a dataclass; a
    # plain carrier is a named tuple, unless callers copy it with replace
    unvalidated = {node.name for tree in TREES.values() for node in ast.walk(tree)
                   if _unvalidated_dataclass(node)}
    assert unvalidated == UNVALIDATED_DATACLASSES.keys(), (
        "dataclasses that validate nothing: make them named tuples or list "
        f"why they are not: {sorted(unvalidated)}")


@pytest.mark.parametrize("carrier", [
    entangle.PolaritonBasis, entangle.EffectiveCouplings, entangle.GaussianState,
    dynamics.PipelineColumns, entangle.SweepResult,
], ids=lambda carrier: carrier.__name__)
def test_result_carriers_are_named_tuples(carrier):
    # a result checks nothing that the step computing it has not checked
    assert issubclass(carrier, tuple) and hasattr(carrier, "_fields")


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


def test_no_private_definition_is_dead():
    # a helper that a refactor left behind still reads as a rule in force
    dead = [f"{module}.{name}" for module, definition, name in PRIVATE
            if not any(name in names for node, names in ALL_STATEMENTS
                       if node is not definition)]
    assert not dead, f"referenced by no other package statement: {dead}"


def test_no_private_name_is_defined_in_two_modules():
    # two definitions of one helper drift apart: three meanings of "any"
    # once lived in two modules
    modules = {}
    for module, _, name in PRIVATE:
        modules.setdefault(name, set()).add(module)
    twice = {name: sorted(found) for name, found in modules.items() if len(found) > 1}
    assert not twice, f"private names defined in more than one module: {twice}"


#: the public functions that evaluate the model: each enters one
#: ``np.errstate``, and nothing beneath them touches numpy's error state
ERRSTATE_OWNERS = ("dynamics.run_pipeline", "dynamics.run_pipelines",
                   "experiments.evaluate_all", "experiments.run_sweep",
                   "gaussian.solve_lyapunov", "gaussian.stability")


def _errstate_calls(node, function=None):
    """``(function, source)`` of every ``errstate`` call below ``node``, with
    the name of the innermost function around it (None: none)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and "errstate" in (
                getattr(child.func, "attr", None), getattr(child.func, "id", None)):
            yield function, ast.unparse(child)
        yield from _errstate_calls(
            child, child.name if isinstance(child, ast.FunctionDef) else function)


def test_only_the_evaluation_entry_points_set_numpys_error_state():
    # one floating-point policy: a formula that carries its own errstate
    # leaves every other formula to remember one
    calls = sorted((f"{module}.{function}", source) for module, tree in TREES.items()
                   for function, source in _errstate_calls(tree))
    assert calls == [(owner, "np.errstate(all='ignore')") for owner in ERRSTATE_OWNERS]


def _users(name):
    """``module.function`` of every package function that refers to
    ``name``, as a name, an attribute or a string constant."""
    return sorted(f"{module}.{node.name}" for module, tree in TREES.items()
                  for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                  and name in _names([node], strings=True))


def test_each_covariance_property_has_one_check():
    # the residual contract is checked where the rows are solved, dense
    # fallback included; a two-mode block's symmetry only where a block
    # comes from outside, since the kernel step's covariances are exact
    assert _users("_LYAPUNOV_RESIDUAL_RTOL") == ["gaussian._solve_stacked"]
    assert _users("two-mode covariance matrix is not symmetric") == [
        "gaussian._check_symmetric"]
    assert _users("_check_symmetric") == ["gaussian.log_negativity",
                                          "gaussian.log_negativity_stacked"]


#: the ``dict`` methods that change it in place
_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear"}


def _late_writes(tree):
    """The source of every statement below ``tree`` that writes into a
    ``summary`` attribute or sets a ``__doc__`` attribute."""
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            if (isinstance(target, ast.Attribute) and target.attr == "__doc__"
                    or isinstance(target, ast.Subscript)
                    and getattr(target.value, "attr", None) == "summary"):
                yield ast.unparse(node)
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _DICT_WRITES
                and getattr(node.func.value, "attr", None) == "summary"):
            yield ast.unparse(node)


def test_no_result_or_type_is_changed_after_it_is_built():
    # a sweep's summary is complete when run_sweep builds its SweepResult,
    # and a class gets its docstring when it is created
    writes = [(module, source) for module, tree in TREES.items()
              for source in _late_writes(tree)]
    assert not writes, f"changed after it is built: {writes}"


def _import_time_imports(tree):
    """The import statements that run when the module is imported: all
    but those inside a function body."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        pending.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", sorted(TREES))
def test_imports_only_declared_dependencies(module):
    declared = {re.match(r"[\w.-]+", spec).group() for spec in PROJECT["dependencies"]}
    for node in _import_time_imports(TREES[module]):
        if isinstance(node, ast.ImportFrom) and node.level:
            continue  # the package itself
        names = ([node.module] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names])
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top in declared, (
                f"entangle.{module} line {node.lineno} imports {name!r}, which "
                "is neither standard library nor a runtime dependency")


def _python_floor(spec):
    """``(major, minor)`` of the one ``>=X.Y`` clause of a Python version
    specifier."""
    (floor,) = re.findall(r">=\s*(\d+)\.(\d+)", spec)
    return tuple(map(int, floor))


def test_python_floor_is_at_least_numpys():
    # the package's numpy cannot be installed below numpy's own floor, so a
    # lower requires-python promises an install that fails
    numpy_floor = importlib.metadata.metadata("numpy")["Requires-Python"]
    assert _python_floor(PROJECT["requires-python"]) >= _python_floor(numpy_floor), (
        f"requires-python {PROJECT['requires-python']!r} is below the "
        f"installed numpy's {numpy_floor!r}")


def test_console_script_runs_the_cli(capsys):
    # the installed ``entangle`` command exits with what the entry point
    # that [project.scripts] names returns
    module, _, attribute = PROJECT["scripts"]["entangle"].partition(":")
    entry = getattr(importlib.import_module(module), attribute)
    assert entry(["list-sweeps"]) == 0
    assert capsys.readouterr().out.splitlines() == list(experiments.SWEEPS)


def test_cold_start_loads_no_scipy(tmp_path):
    # a fresh interpreter runs one point through the API and one through
    # the CLI, then lists every module it loaded
    script = ("import sys\n"
              "from entangle import cli\n"
              "from entangle.experiments import default_baseline\n"
              "default_baseline().evaluate()\n"
              "assert cli.main(['point', '--out', sys.argv[1]]) == 0\n"
              "print(sorted(sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = ast.literal_eval(done.stdout.splitlines()[-1])
    assert "entangle.cli" in modules
    loaded = [name for name in modules if name == "scipy" or name.startswith("scipy.")]
    assert not loaded, f"importing and running entangle loads {loaded}"
