"""The package namespace re-exports every module's public names, once each,
and no module reaches into the stepper's private names."""

import ast
import importlib
import pathlib
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


def test_no_module_imports_a_private_name_of_dynamics():
    # what other modules share with the stepper (the ball layout, its norms)
    # lives in spectral.py; dynamics.py's underscore names are its own
    imported, private = [], []
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "dynamics":
                names = [alias.name for alias in node.names]
                imported += names
                private += [f"{path.name}: {name}" for name in names if name.startswith("_")]
    assert imported  # the walk saw the modules that build on dynamics
    assert not private
