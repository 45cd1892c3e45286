"""Every name a module exports in ``__all__`` exists."""

import importlib
import pkgutil

import oppcompose


def test_all_names_resolve():
    modules = [oppcompose.__name__] + [
        info.name for info in pkgutil.walk_packages(oppcompose.__path__, "oppcompose.")]
    stale = []
    for name in modules:
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert "oppcompose.mobility.levy" in modules
    assert stale == []
