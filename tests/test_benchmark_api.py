"""The benchmark under ``perfbench/`` wraps functions of mevscope by name;
every one it names must still exist, or the traced run silently loses a
layer.  Conversely, every name the package exports must have a caller
outside the tests; test-only checks live under ``tests/``."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import mevscope

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _wrapped() -> tuple:
    # spans.py imports only the standard library, so loading it runs nothing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


@pytest.mark.parametrize("span, module, function",
                         [pytest.param(*w, id=w[0]) for w in _wrapped()])
def test_every_wrapped_function_resolves(span, module, function):
    assert callable(getattr(importlib.import_module(module), function, None)), span


def test_every_export_has_a_caller_outside_the_tests():
    """Another module of the package uses each exported name (bare,
    imported or as ``module.name``), or the benchmark names it
    (``mevscope.name`` or a wrapped function)."""
    modules = {n for n in mevscope.__all__ if isinstance(getattr(mevscope, n), types.ModuleType)}
    used = {function for _, _, function in _wrapped()}
    for path in (ROOT / "perfbench").glob("*.py"):
        used.update(re.findall(r"\bmevscope\.(\w+)", path.read_text(encoding="utf-8")))
    for path in Path(mevscope.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                used.add(node.attr)
    assert sorted(set(mevscope.__all__) - modules - used) == []


def test_every_function_has_a_caller_outside_the_tests():
    """Every top-level function of the package is read by name in another
    place of the package or in the benchmark (bare, as an attribute,
    imported or wrapped), and every method is read there as an attribute,
    unless it is a dunder or overrides a base class's method, which the base
    calls.  A name counts wherever it is read, so this misses a function
    whose name another one shares; a local variable named like a method
    does not count for it."""
    paths = [path for path in sorted(Path(mevscope.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    attributes = set()
    used = {function for _, _, function in _wrapped()}
    for path in paths + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    used |= attributes
    unused = []
    for path in paths:
        module = importlib.import_module(f"mevscope.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                unused += [f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                           if isinstance(sub, ast.FunctionDef) and sub.name not in attributes
                           and not sub.name.startswith("__")
                           and not any(hasattr(base, sub.name) for base in bases)]
    assert unused == []


def test_no_package_module_keeps_an_unused_import():
    """Each module of the package other than ``__init__.py`` (which
    re-exports), and each reference module the tests share, reads every
    name it imports."""
    paths = [path for path in sorted(Path(mevscope.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    paths += [ROOT / "tests" / name for name in ("oracle.py", "model_checks.py", "helpers.py")]
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_the_oracle_imports_nothing_from_the_search_or_the_analysis():
    """``oracle.py`` is the reference the search is checked against, so it
    may share the executor but no name of ``mevscope.search`` or
    ``mevscope.analysis``, whether imported from there or re-exported by
    the package."""
    banned, found = ("mevscope.search", "mevscope.analysis"), []
    for node in ast.walk(ast.parse((ROOT / "tests" / "oracle.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name in banned]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name)
                home = (value.__name__ if isinstance(value, types.ModuleType)
                        else getattr(value, "__module__", None))
                if node.module in banned or home in banned:
                    found.append(f"{node.module}.{alias.name}")
    assert found == []


def test_hot_path_values_have_no_instance_dict():
    """The executor and the search build and hash these values at every
    move; a Python-level instance dict would put attribute lookups and
    memory back on that path."""
    from mevscope import vm

    user, contract = mevscope.Account.user("M"), mevscope.Account.contract("C")
    state = mevscope.genesis({user: mevscope.Wallet({"T": 1})}, adversary=[user])
    scratch = vm._Scratch(state)
    values = (user, mevscope.Transaction(user, contract, "f"), mevscope.Wallet(),
              mevscope.ContractState(), state, scratch,
              vm.MethodCtx(scratch, user, user, 1, contract, (), mevscope.Wallet()))
    assert [type(v).__name__ for v in values if hasattr(v, "__dict__")] == []


PER_MOVE_FUNCTIONS = {
    "vm": ("_run_tx", "_run_frame", "execute_delta",
           "_Scratch.base_wallet", "_Scratch._wallet", "_Scratch.balance", "_Scratch.credit",
           "_Scratch.debit", "_Scratch.unit_change",
           "MethodCtx.balance", "MethodCtx.pay", "MethodCtx.call",
           "Transaction.__init__", "Transaction.key"),
    "ledger": ("Wallet.single", "Wallet.items", "Wallet.covers"),
    "search": ("_signed", "adversary_moves"),
}


def test_per_move_functions_build_no_generator():
    """The search signs and the executor runs every move through these
    functions; a generator expression in one of them puts a Python frame
    per item back on that path."""
    found, generators = set(), []
    for module, names in PER_MOVE_FUNCTIONS.items():
        path = Path(mevscope.__file__).parent / f"{module}.py"
        functions = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                functions += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                              if isinstance(sub, ast.FunctionDef)]
        for name, fn in functions:
            if name in names:
                found.add(f"{module}.{name}")
                generators += [f"{module}.{name}:{sub.lineno}" for sub in ast.walk(fn)
                               if isinstance(sub, ast.GeneratorExp)]
    assert found == {f"{m}.{n}" for m, names in PER_MOVE_FUNCTIONS.items() for n in names}
    assert generators == []
