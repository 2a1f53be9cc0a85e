"""The runtime imports only the standard library, numpy and maxlab itself,
every name a module exports is defined, only spectral.py reaches the two
halves of the multiplier kernel, whose one entry is apply_multiplier,
only core.py asks whether a value is a BochnerField, so that fields are
validated in one place, field_parts, and every public top-level function
has a caller in the package, so that code only the tests use lives in
tests/oracles.py."""

import ast
import importlib
import pathlib
import sys
import types

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "maxlab").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "maxlab"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "spectral.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_stdlib_numpy_and_maxlab(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(set(_imported_roots(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {', '.join(foreign)}"


def test_check_flags_a_foreign_import():
    tree = ast.parse("import numpy as np\nfrom scipy.linalg import eigh\nfrom . import core\n")
    assert set(_imported_roots(tree)) - ALLOWED == {"scipy"}


def _unresolved(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_exported_name_is_defined(path):
    name = "maxlab" if path.stem == "__init__" else f"maxlab.{path.stem}"
    module = importlib.import_module(name)
    assert not _unresolved(module), f"{name}.__all__ names undefined {_unresolved(module)}"


def test_check_flags_a_stale_export():
    module = types.ModuleType("stale")
    module.__all__ = ["kept", "deleted"]
    module.kept = None
    assert _unresolved(module) == ["deleted"]


KERNEL_HALVES = {"_coefficients", "_product"}


def _kernel_halves_used(tree):
    """The kernel halves a module imports by name or reaches as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return sorted(used & KERNEL_HALVES)


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "spectral.py"],
                         ids=lambda path: path.name)
def test_only_spectral_reaches_the_kernel_halves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _kernel_halves_used(tree), f"{path.name} uses {_kernel_halves_used(tree)}"


def test_check_flags_a_kernel_half_import():
    tree = ast.parse("from .spectral import _product, apply_multiplier\n"
                     "from . import spectral\ncoeff = spectral._coefficients\n")
    assert _kernel_halves_used(tree) == ["_coefficients", "_product"]


def _bochner_isinstance_calls(tree):
    """Lines of the isinstance calls whose class argument names BochnerField."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {getattr(sub, "id", None) or getattr(sub, "attr", None)
                     for sub in ast.walk(node.args[1])}
            if "BochnerField" in names:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "core.py"],
                         ids=lambda path: path.name)
def test_only_core_asks_for_a_bochner_field(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _bochner_isinstance_calls(tree)
    assert not lines, f"{path.name} tests isinstance(..., BochnerField) on lines {lines}; " \
                      "validate fields through core.field_parts"


def test_check_flags_an_isinstance_on_bochner_field():
    tree = ast.parse("isinstance(f, BochnerField)\nisinstance(f, core.BochnerField)\n"
                     "isinstance(f, (list, BochnerField))\nisinstance(f, list)\n"
                     "BochnerField(values, norm)\n")
    assert _bochner_isinstance_calls(tree) == [1, 2, 3]


# Public top-level functions that may have no caller in the package:
# perfbench/test_perfbench.py imports operator_norm_lower_bound from maxlab.
UNCALLED_ALLOWED = {"operator_norm_lower_bound"}


def _uncalled(trees):
    """Public top-level functions of the modules that no module names or reaches as an attribute."""
    defined, referenced = set(), set()
    for tree in trees:
        defined.update(node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(defined - referenced)


def test_every_public_function_has_a_caller_in_src():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    uncalled = sorted(set(_uncalled(trees)) - UNCALLED_ALLOWED)
    assert not uncalled, f"no module of maxlab calls {uncalled}; move them to tests/oracles.py"


def test_check_flags_a_function_only_the_tests_call():
    trees = [ast.parse("def used():\n    pass\n\ndef orphan():\n    pass\n\n"
                       "def _private():\n    pass\n\ndef method_caller(gen):\n    pass\n"),
             ast.parse("from .a import orphan, used\n__all__ = ['orphan']\n"
                       "x = used()\ny = module.method_caller\n")]
    assert _uncalled(trees) == ["orphan"]
