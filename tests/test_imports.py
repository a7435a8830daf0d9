"""Import and export guards for the modules under ``src/spectralgap``:
every name a module imports is used in that module or re-exported through
its ``__all__``, and every name in its ``__all__`` is bound at its top
level.  The package ``__init__`` exists to re-export, so it is checked the
other way: every name it imports is in its source module's ``__all__``.
The unused-import guard also runs over the test modules.  Each module
imports from inside the package, at its top or in a function, exactly the
modules that ``LAYERS`` lists, the layering of README's Layout.  The last guards
keep modules out of the commands that do not need them.  The package's
only scipy module is ``scipy.sparse``: ``analytic`` evaluates the Bessel
functions by its own series, so no command loads ``scipy.special`` (about
0.06 s to import), which the tests use as an independent reference.
``scipy.sparse`` costs about 0.3 s, so only the functions that build
matrices load it, and the commands without grids never do; nor do they
load the process pool, which only a parallel sweep starts."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC_DIR, cli_env

PACKAGE_FILES = sorted((SRC_DIR / "spectralgap").glob("*.py"))
MODULES = [p for p in PACKAGE_FILES if p.name != "__init__.py"]
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _undefined_exports(tree):
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    return [name for name in _exports(tree) if name not in bound]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path: Path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_guard_flags_an_unused_name():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os)\n")
    assert _unused_imports(tree) == [(2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_are_defined(path: Path):
    assert _undefined_exports(ast.parse(path.read_text())) == []


def test_guard_flags_a_stale_export():
    tree = ast.parse("from math import pi\nX, Y = 1, 2\ndef f(): pass\nclass C: pass\n"
                     "__all__ = ['pi', 'X', 'Y', 'f', 'C', 'gone']\n")
    assert _undefined_exports(tree) == ["gone"]


def test_package_imports_only_exported_names():
    # a name dropped from a module's __all__ must leave the package surface too
    init = ast.parse((SRC_DIR / "spectralgap" / "__init__.py").read_text())
    stray = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = ast.parse((SRC_DIR / "spectralgap" / f"{node.module}.py").read_text())
            stray += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in _exports(source)]
    assert stray == []


# the package modules each module imports: the layering of README's Layout
LAYERS = {
    "analytic": set(),
    "quadrature": set(),
    "eigensolve": set(),
    "geometry": {"analytic", "quadrature"},
    "discretize": {"geometry"},
    "pipeline": {"discretize", "eigensolve"},
    "testfn": {"analytic", "geometry", "quadrature"},
    "asymptotics": {"analytic", "geometry"},
    "attainable": {"eigensolve", "geometry", "pipeline", "testfn"},
    "cli": {"analytic", "asymptotics", "attainable", "eigensolve", "geometry", "pipeline",
            "testfn"},
}


def _package_imports(tree):
    """The package modules a module imports, anywhere in it, relatively
    (``from .m import x``, ``from . import m``) or by ``spectralgap``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = f"spectralgap.{node.module or ''}".rstrip(".") if node.level else node.module
            names += [f"{module}.{a.name}" for a in node.names]
    return {name.split(".")[1] for name in names if name.startswith("spectralgap.")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_follow_the_layers(path: Path):
    assert _package_imports(ast.parse(path.read_text())) == LAYERS[path.stem]


def test_guard_flags_every_package_import():
    tree = ast.parse("from . import discretize, eigensolve\nfrom .geometry import contains\n"
                     "def f():\n    from .analytic import kappa\n"
                     "import spectralgap.testfn\nfrom spectralgap import cli\n"
                     "from spectralgap.quadrature.x import y\nimport numpy, spectralgap\n"
                     "from numpy import pi\n")
    assert _package_imports(tree) == {"discretize", "eigensolve", "geometry", "analytic",
                                      "testfn", "cli", "quadrature"}


def _scipy_modules(tree):
    """The scipy modules a module imports, by dotted name: the module of a
    ``from`` import, or ``scipy.<name>`` for ``from scipy import <name>``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names]
            elif node.module.split(".")[0] == "scipy":
                found.append(node.module)
    return found


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_package_imports_only_scipy_sparse(path: Path):
    stray = [m for m in _scipy_modules(ast.parse(path.read_text())) if m != "scipy.sparse"]
    assert stray == []


def test_guard_flags_a_scipy_module_besides_sparse():
    tree = ast.parse("import scipy.sparse as sp\nfrom scipy.sparse import csr_matrix\n"
                     "def f():\n    from scipy.special import jv\n"
                     "import scipy\nfrom scipy import sparse, integrate\n")
    assert _scipy_modules(tree) == ["scipy.sparse", "scipy.sparse", "scipy", "scipy.sparse",
                                    "scipy.integrate", "scipy.special"]


NO_SCIPY_SPECIAL = """
import sys
from spectralgap import cli
from spectralgap.analytic import ball_spectrum, radial_profile

COARSE = ["--h", "1/8,1/16,1/32"]
for argv in (["eig", "--domain", "ball", *COARSE],
             ["lemma1", "--eps-grid", "0.05"],
             ["lemma2", "--dim", "3", "--eps-grid", "0.05"],
             ["ratio", "--eps-grid", "0.05,0.1"],
             ["verify", "--grid-eps-min", "inf", "--out", "report.json",
              "--data-out", "curve.csv"],
             ["sweep", *COARSE, "--out", "sweep.csv"],
             ["plotdata", *COARSE]):
    assert cli.main(argv) == 0, argv
ball_spectrum(3)
radial_profile(3)[1](0.5)
assert "scipy.special" not in sys.modules
"""


def test_commands_leave_scipy_special_unimported(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SPECIAL], capture_output=True,
                          text=True, env=cli_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = ("report.json", "curve.csv", "sweep.csv", "plotdata_cloud.csv")
    assert all((tmp_path / name).exists() for name in written)


LAZY_GRID = """
import sys
from spectralgap import cli

for argv in (["lemma1", "--eps-grid", "0.05"],
             ["lemma2", "--dim", "3", "--eps-grid", "0.05"],
             ["ratio", "--eps-grid", "0.05,0.1"],
             ["verify", "--grid-eps-min", "inf", "--out", "report.json",
              "--data-out", "curve.csv"]):
    assert cli.main(argv) == 0, argv
loaded = [m for m in ("scipy.sparse", "concurrent.futures.process") if m in sys.modules]
assert loaded == [], loaded
"""


def test_commands_without_grids_leave_scipy_sparse_unimported(tmp_path):
    proc = subprocess.run([sys.executable, "-c", LAZY_GRID], capture_output=True, text=True,
                          env=cli_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists() and (tmp_path / "curve.csv").exists()
