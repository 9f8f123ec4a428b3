"""The package namespace re-exports every module's public names, once each."""

import importlib
import pkgutil

import nsdamp


def test_all_is_the_union_of_module_lists():
    modules = [
        importlib.import_module(f"nsdamp.{info.name}")
        for info in pkgutil.iter_modules(nsdamp.__path__)
        if info.name != "cli"  # the command-line entry point, not library surface
    ]
    union = {name for module in modules for name in module.__all__}
    assert len(nsdamp.__all__) == len(set(nsdamp.__all__))
    assert set(nsdamp.__all__) == union
    for module in modules:
        for name in module.__all__:
            assert getattr(nsdamp, name) is getattr(module, name), f"{module.__name__}.{name}"
