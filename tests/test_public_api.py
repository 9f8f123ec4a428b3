"""The package namespace re-exports every module's public names, once each,
no module reaches into the stepper's private names or keeps an unused
import, no driver builds or reads a full field, the stepper gathers and
expands nothing, no check states a constant comparison, one function
renders the verdict line, one writes report.txt, only the certificate
renders a check's outcome, no report field holds a verdict, one function
opens a file to write, one puts a time on the dt grid, one constructor
builds every state and one function every stepper, the config module
needs nothing from the inequalities, and the package runs without SciPy."""

import ast
import dataclasses
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

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


def test_no_driver_builds_or_reads_a_full_field():
    # the drivers start, perturb, inject and difference ball vectors: no
    # function in experiments.py calls a cube-building or full-cube norm
    # function, or reads a field's coefficient cube
    banned_calls = {"expand", "l2_norm", "inject_field", "SpectralField"}
    path = pathlib.Path(nsdamp.__file__).parent / "experiments.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in banned_calls:
                    found.append(f"{function.name}:{node.lineno}: calls {name}")
            elif isinstance(node, ast.Attribute) and node.attr in ("u", "coeffs"):
                found.append(f"{function.name}:{node.lineno}: reads .{node.attr}")
    assert len(functions) >= 10  # the walk saw the drivers
    assert not found


def test_the_stepper_gathers_and_expands_nothing():
    # the stepper works on ball vectors only: the forcing hook returns one,
    # so no method of _Stepper moves between a vector and the full cube
    path = pathlib.Path(nsdamp.__file__).parent / "dynamics.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stepper = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Stepper")
    methods = [node for node in stepper.body if isinstance(node, ast.FunctionDef)]
    found = [f"{method.name}:{node.lineno}" for method in methods for node in ast.walk(method)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("gather", "expand")]
    assert len(methods) >= 4  # the walk saw the stepper's methods
    assert not found


def test_no_check_states_a_constant_comparison():
    # a Check whose comparison is a constant passes on any finite numbers, or
    # never: it certifies nothing that its value and bound could show
    checks, constant = 0, []
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) != "Check":
                    continue
                checks += 1
                ok = node.args[3:4] + [k.value for k in node.keywords if k.arg == "ok"]
                if len(ok) != 1 or isinstance(ok[0], ast.Constant):
                    constant.append(f"{path.name}:{node.lineno}")
    assert checks >= 15  # the walk saw the drivers' and the suites' checks
    assert not constant


def test_no_module_keeps_an_unused_import():
    # a top-level import that no code reads costs import time and hides
    # what a module depends on
    unused = []
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"nsdamp.{path.stem}"), "__all__", ()))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used | exported]
    assert not unused


def test_no_module_builds_a_meshgrid():
    # np.meshgrid builds full-cube tables; the package broadcasts the axis
    # wavenumbers through spectral._wavenumbers instead
    calls = []
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "meshgrid":
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls


class _Sites(ast.NodeVisitor):
    """The functions whose code, not their docstrings, reads the name text or holds a string
    literal containing it."""

    def __init__(self, module: str, text: str):
        self.scope, self.text, self.found = [module], text, set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Expr(self, node):  # a bare string is a docstring
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and self.text in node.value:
            self.found.add(".".join(self.scope))

    def visit_Name(self, node):
        if node.id == self.text and isinstance(node.ctx, ast.Load):
            self.found.add(".".join(self.scope))


def _sites(text: str) -> set[str]:
    found = set()
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        sites = _Sites(path.stem, text)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= sites.found
    return found


def test_one_function_renders_the_verdict_line_and_one_writes_the_report():
    # a second copy of the verdict rule, or a second writer, drifts from the first
    assert _sites("verdict:") == {"certificate.Certificate.verdict"}
    assert _sites("report.txt") == {"certificate.write_report"}


def _readers(name: str) -> set[str]:
    """The modules whose code reads name: as a name, an attribute or an import."""
    found = set()
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.ImportFrom) and name in (a.name for a in node.names)):
                found.add(path.stem)
    return found


def test_only_the_certificate_renders_a_check_outcome():
    # a driver that spells an outcome itself prints a second copy of a check
    # line, which can drift from it or disagree with the verdict; one that
    # calls the verdict word spells the outcome in the certificate's words
    sites = _sites("FAIL") | _sites("[ok]")
    assert sites  # the walk saw the certificate's own rendering
    assert {site.split(".")[0] for site in sites} == {"certificate"}, sites
    assert _readers("_verdict_word") | _readers("verdict_word") == {"certificate"}
    assert "verdict_word" not in nsdamp.__all__


def test_no_report_field_holds_a_verdict():
    # a bool field of a report restates a check's outcome, a second copy that
    # can drift from the check; the reports hold data and their checks
    from nsdamp.certificate import Certified
    from nsdamp.inequalities import OracleRow
    from nsdamp.ledger import EnergyInequalityReport

    reports = [*Certified.__subclasses__(), OracleRow, EnergyInequalityReport]
    assert len(reports) >= 7  # the five drivers' reports among them
    verdicts = [f"{cls.__name__}.{f.name}" for cls in reports for f in dataclasses.fields(cls)
                if re.search(r"\bbool\b", str(f.type))]
    assert not verdicts


def _write_mode(call: ast.Call) -> bool:
    """Whether a call to open may write: a mode that is not a constant read mode."""
    mode = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not mode:
        return False
    return not (isinstance(mode[0], ast.Constant) and set(mode[0].value) <= set("rbt"))


def test_one_function_opens_a_file_to_write():
    # every output goes through a temporary file and os.replace; a second
    # writer could leave a torn file behind
    writers = set()
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                writers |= {f"{path.stem}.{function.name}" for node in ast.walk(function)
                            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
                            and _write_mode(node)}
    assert writers == {"certificate._write_atomic"}


def test_one_function_puts_a_time_on_the_dt_grid():
    # the span and the cadence of a trajectory and the continuity ladder's
    # times all take StepperConfig.steps, the one reader of the tolerance
    assert _sites("_GRID_ALIGN_TOL") == {"dynamics.StepperConfig.steps"}


def test_one_way_into_a_run():
    # one constructor builds every state, and trajectory() is the one code
    # that builds a stepper, so every run steps by the same path
    path = pathlib.Path(nsdamp.__file__).parent / "dynamics.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    state = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SolverState")
    decorators = [ast.unparse(d) for node in state.body if isinstance(node, ast.FunctionDef)
                  for d in node.decorator_list]
    assert "cached_property" in decorators  # the walk saw the state's methods
    assert not {"classmethod", "staticmethod"} & set(decorators)
    assert not _readers("__new__")
    assert _sites("_Stepper") == {"dynamics.trajectory"}


def _calls(name: str) -> set[str]:
    """The functions (the module, at top level) whose code calls name, as name(...) or x.name(...)."""
    found = set()
    for path in sorted(pathlib.Path(nsdamp.__file__).parent.glob("*.py")):
        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                found.add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_each_thread_level_builds_its_threads_in_one_place():
    # one nesting rule, read in _workers: no thread-local flag states it again;
    # a driver's pool is built by _parallel, and a kernel's crew once, with
    # its kernel, so no kernel call builds or joins a pool
    from nsdamp import dynamics, spectral

    assert not _readers("local")
    assert _sites("_IN_JOB") == {"spectral._workers", "spectral._parallel"}
    assert _calls("ThreadPoolExecutor") == {"spectral._parallel", "spectral._Crew.__init__"}
    assert {site for site in _calls("_Crew") if site.startswith("dynamics")} == {"dynamics._Kernel.__init__"}
    assert not {"__enter__", "__exit__"} & set(vars(spectral._Crew))
    assert not hasattr(dynamics._Kernel, "_crew")


def test_one_function_creates_a_directory():
    # the writer of a file creates its directory, so a refused input, which
    # writes no file, leaves no directory behind
    assert _calls("makedirs") == {"certificate._write_atomic"}
    assert _calls("mkdir") == set()


def test_config_checks_no_drivers_theorem():
    # each driver checks its own preconditions; the config module parses and
    # validates the text format, and needs nothing from the inequalities
    path = pathlib.Path(nsdamp.__file__).parent / "config.py"
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    modules = [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    assert "spectral" in modules  # the walk saw the config's imports
    assert not [m for m in modules if m.split(".")[-1] == "inequalities"]


def test_a_run_and_the_oracle_suites_import_no_scipy(tmp_path):
    # numpy.fft runs every transform; SciPy is only the tests' reference
    script = f"""
import sys
import nsdamp
cfg = nsdamp.config_from_mapping({{
    "grid.n_modes": 8, "grid.box_length": 6.283185307179586, "phys.alpha": 1.0,
    "phys.beta": 4.0, "time.dt": 0.001, "time.t_end": 0.004, "ic.kind": "random-solenoidal",
}})
nsdamp.run_experiment(cfg, out_dir={str(tmp_path / "run")!r})
nsdamp.verify_suite(0, fast=True)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    src = str(pathlib.Path(nsdamp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
