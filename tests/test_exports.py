import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import bbmlab
from bbmlab.config import ExperimentConfig

# every module but the `python -m bbmlab` entry point, which runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(bbmlab.__path__, "bbmlab.") if m.name != "bbmlab.__main__")


def test_package_exports_resolve():
    missing = [name for name in bbmlab.__all__ if not hasattr(bbmlab, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def public_callables(mod):
    """(label, function) for every callable a module exports, the methods of
    its classes included."""
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        if callable(obj):
            yield name, obj
        if inspect.isclass(obj):
            yield from ((f"{name}.{attr}", fn) for attr, fn in vars(obj).items() if inspect.isfunction(fn))


def test_no_entry_point_defaults_the_bridge_or_a_membership():
    # each caller states which membership it wants; a default would build an
    # uncorrected one behind the config's bridge_correction
    from bbmlab import counting, spine

    found = [
        f"{mod.__name__}.{label}"
        for mod in (counting, spine)
        for label, fn in public_callables(mod)
        if "bridge" in inspect.signature(fn).parameters
        and inspect.signature(fn).parameters["bridge"].default is not inspect.Parameter.empty
    ]
    assert not found
    assert inspect.signature(spine.TubeWeights).parameters["membership"].default is inspect.Parameter.empty


def test_readme_config_rows_name_config_fields():
    # every key the README's configuration table documents is a config field,
    # so a removed field cannot leave its row behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Configuration", 1)[1].split("\n\n#", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert "epsilon" in keys and "cap" in keys
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert keys <= fields, sorted(keys - fields)


def dead_locals(fn: ast.FunctionDef) -> set[str]:
    """Names ``fn`` (its nested functions included) assigns but never reads.
    A name read only as the receiver of ``.append`` or ``.extend`` is never
    read: the list it builds goes nowhere. ``_``-prefixed names are exempt."""
    receivers = {
        id(node.func.value)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("append", "extend") and isinstance(node.func.value, ast.Name)
    }
    stored, read = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            elif isinstance(node.ctx, ast.Load) and id(node) not in receivers:
                read.add(node.id)
    return {name for name in stored - read if not name.startswith("_")}


def test_dead_locals_flags_unread_and_append_only_names():
    fn = ast.parse(
        "def f(xs):\n"
        "    rows, used, unused = [], 0, 1\n"
        "    for x in xs:\n"
        "        rows.append(x)\n"
        "        used += x\n"
        "    return used\n"
    ).body[0]
    assert dead_locals(fn) == {"rows", "unused"}


def test_no_function_keeps_a_dead_local():
    # a local assigned and never read is bookkeeping nothing uses
    found = []
    for path in sorted(Path(bbmlab.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{fn.name}:{name}" for name in sorted(dead_locals(fn))]
    assert not found
