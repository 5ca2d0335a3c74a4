"""Every module's public names resolve, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import rmsde

MODULES = sorted(info.name for info in pkgutil.iter_modules(rmsde.__path__))


def test_every_module_is_listed():
    assert {"cli", "dynamics", "ensembles", "experiments", "generator", "spectral"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rmsde.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"rmsde.{name}.__all__ names what the module lacks: {missing}"
