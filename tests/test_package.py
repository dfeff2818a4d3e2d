import ast
import configparser
import dataclasses
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mfglab
from mfglab.config import RunConfig

RUNTIME_DEPENDENCIES = {"numpy", "scipy", "mfglab"}
ROOT = Path(__file__).resolve().parents[1]
# names the CLI, the experiments and the benchmark never reach, kept on purpose
CALLERLESS = {
    # the certificate of acceptance criterion 10: F(m) = int f dm is monotone
    "monotonicity_defect",
    # the benchmark tracer's self-test rebinds it in mfglab, measures and mfg,
    # and tests use it as TransportTable's per-slice reference
    "pushforward",
}


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules imported by source from outside the standard
    library, numpy, scipy and the package (relative imports are its own)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES
    return [name for name in names if name.split(".")[0] not in allowed]


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from mfglab import *", namespace)
    for name in mfglab.__all__:
        assert namespace[name] is getattr(mfglab, name), name


def test_runtime_imports_are_numpy_scipy_and_stdlib_only():
    sources = sorted(Path(mfglab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        assert _foreign_imports(path.read_text()) == [], path.name
    # the guard itself: a foreign import is caught in either form, and a
    # module name inside a string (the CLI's plot script) is not an import
    assert _foreign_imports("import os, matplotlib.pyplot as plt\n"
                            "from requests import get\nfrom . import torus\n"
                            "from scipy.optimize import linprog\n"
                            "s = 'import matplotlib'\n") == ["matplotlib.pyplot", "requests"]


def _callerless(modules: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Functions, classes and methods defined in `modules` (name -> source)
    that no Name or attribute in `modules` or `callers` mentions outside
    their own definition.  Dunder methods are called implicitly and skipped."""
    defs, uses = [], []
    for path, source in {**modules, **callers}.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
            elif (path in modules and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.append((node.name, path, node.lineno, node.end_lineno))
    return sorted(name for name, path, first, last in defs
                  if not any(used == name and (where != path or not first <= line <= last)
                             for used, where, line in uses))


def test_every_routine_has_a_caller_outside_the_tests():
    """A routine that only tests reach is deleted, not kept for its tests;
    the benchmark's own tests are tests too."""
    modules = {str(path): path.read_text()
               for path in sorted((ROOT / "src" / "mfglab").glob("*.py"))
               if path.name != "__init__.py"}
    callers = {str(path): path.read_text()
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert len(modules) > 1 and callers
    assert _callerless(modules, callers) == sorted(CALLERLESS)
    # the scanner itself: a self-call, a docstring mention or an export does
    # not count; a call from a caller module or a sibling method does
    assert _callerless(
        {"m.py": "def lonely():\n    \"\"\"lonely, named here\"\"\"\n    return lonely()\n"
                 "def used(): pass\n"
                 "class Box:\n    def __init__(self): self.peek()\n"
                 "    def peek(self): pass\n    def shelf(self): pass\n"},
        {"c.py": "from m import used, shelf\nused(); Box()\n"}) == ["lonely", "shelf"]


def _unset_defaults(modules: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Defaulted parameters of the functions and methods in `modules`
    (name -> source), as name(parameter), that no call in `modules` or
    `callers` sets.  A call matches a function by name, and a class call
    matches its __init__; it sets a parameter by keyword, by position, or by
    any *args or **kwargs, and a method's self is left implicit."""
    calls = [node for source in {**modules, **callers}.values()
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]

    def sets(call, index, param, offset):
        return (any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(kw.arg in (param, None) for kw in call.keywords)
                or index is not None and index < len(call.args) + offset)

    unset = []
    for source in modules.values():
        tree = ast.parse(source)
        owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner[id(fn)] if fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(None, arg.arg) for arg, default
                          in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            offset = int(id(fn) in owner)
            for index, param in defaulted:
                if not any(sets(call, index, param, offset) for call in calls
                           if getattr(call.func, "id", getattr(call.func, "attr", None)) == name):
                    unset.append(f"{name}({param})")
    return sorted(unset)


def test_every_keyword_parameter_is_set_outside_the_tests():
    """A defaulted parameter that only tests set is a knob the program never
    turns: it is deleted, or its value becomes a module constant."""
    modules = {str(path): path.read_text()
               for path in sorted((ROOT / "src" / "mfglab").glob("*.py"))}
    callers = {str(path): path.read_text()
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert len(modules) > 1 and callers
    assert _unset_defaults(modules, callers) == []
    # the scanner itself: a keyword, a position past an implicit self, a
    # *args or a **kwargs sets a parameter; a call of another name does not
    assert _unset_defaults(
        {"m.py": "def f(a, b=1, *, c=2, d=3): pass\n"
                 "def g(x=0, y=1): pass\n"
                 "def h(z=0): pass\n"
                 "class Box:\n    def __init__(self, size=1, tag=None): pass\n"
                 "    def put(self, item, where=0, how=0): pass\n"},
        {"c.py": "f(1, 2, d=4)\ng(*xs)\nh(**kw)\nBox(3)\nbox.put(1, 2)\nput2(1, 2, 3)\n"}
    ) == ["Box(tag)", "f(c)", "put(how)"]


def test_two_error_classes_one_per_exit_code():
    """errors.py holds MFGLabError (exit 1) and its subclass ConfigError
    (exit 2), the two classes the CLI catches; no module defines another
    exception class."""
    modules = [mfglab] + [importlib.import_module(f"mfglab.{info.name}")
                          for info in pkgutil.iter_modules(mfglab.__path__)]
    assert len(modules) > 2
    defined = {}
    for module in modules:
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                defined[name] = module.__name__
    assert defined == {"MFGLabError": "mfglab.errors", "ConfigError": "mfglab.errors"}
    assert issubclass(mfglab.ConfigError, mfglab.MFGLabError)


def test_readme_example_runs():
    """The README's Python example runs against the package as it stands
    and prints the constant, the period and the periodicity defect."""
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", blocks[0].split("```")[0]],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    c_mt, tau, defect = (float(line) for line in run.stdout.split())
    assert abs(c_mt) <= 1e-3 and abs(tau - 1.0) <= 1e-12 and defect <= 1e-4


def test_critical_value_imports_no_numpy_ma():
    """The probe runs inside every timed subcommand; np.median's NaN check
    would import numpy.ma on its first call, so the probe must not use it.
    A cosine potential makes the probe sweep every step, not take the one
    step of a uniform potential."""
    script = ("import sys\n"
              "from mfglab.hamiltonians import Mechanical, Potential\n"
              "from mfglab.lax_oleinik import critical_value\n"
              "critical_value(Mechanical(1.6, Potential.cosine()), t_probe=20.0, n=64,"
              " dt=5e-3)\n"
              "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert run.stdout.strip() == "False"


def _benchmark_configs(monkeypatch) -> list[str]:
    """The config text of every variant of every benchmark workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return [workload.config_text(variant) for workload in workloads.WORKLOADS.values()
            for variant in workload.variants()]


def test_every_tolerance_key_is_set_by_a_workload(monkeypatch):
    """A tol_* key of RunConfig is a bound that some benchmark config sets;
    a bound that no run sets is a constant beside its check, not a key."""
    keys = set()
    for text in _benchmark_configs(monkeypatch):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text)
        keys.update(key for section in parser.sections() for key in parser[section])
    tolerances = {f.name for f in dataclasses.fields(RunConfig) if f.name.startswith("tol_")}
    assert tolerances and sorted(tolerances - keys) == []


def test_benchmark_configs_parse(monkeypatch, tmp_path):
    """Every config the benchmark writes is one the package accepts, so a
    key it sets cannot be renamed or deleted under it."""
    texts = _benchmark_configs(monkeypatch)
    assert texts
    path = tmp_path / "run.ini"
    for text in dict.fromkeys(texts):
        path.write_text(text)
        RunConfig.from_file(path)


def test_readme_config_sample_parses(tmp_path):
    """The README's config sample is a config the CLI accepts as it stands."""
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```ini\n")[1:]
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0].split("```")[0])
    cfg = RunConfig.from_file(path)
    assert (cfg.family, cfg.n, cfg.horizons) == ("quadratic-drift", 512, [5.0, 10.0, 20.0, 40.0])
