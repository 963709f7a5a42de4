import importlib
import pkgutil

import pytest

import bbmlab

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
