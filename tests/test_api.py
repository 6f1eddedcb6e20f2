"""The public surface: every advertised name resolves and star-imports work."""

import importlib
import pkgutil

import pytest

import shadowbench

MODULES = sorted(m.name for m in pkgutil.iter_modules(shadowbench.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"shadowbench.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"shadowbench.{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from shadowbench.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_names_resolve():
    namespace: dict = {}
    exec("from shadowbench import *", namespace)
    public = [attr for attr in vars(shadowbench)
              if not attr.startswith("_") and attr not in MODULES]
    assert public and all(attr in namespace for attr in public)
