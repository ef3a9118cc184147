import importlib
import pkgutil

import microlocal


def test_all_entries_resolve():
    # a stale name in __all__ breaks ``from microlocal.<module> import *``
    stale = []
    for info in pkgutil.iter_modules(microlocal.__path__):
        mod = importlib.import_module(f"microlocal.{info.name}")
        stale += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert stale == []
