"""Guards on the package surface: every export resolves, retired names stay
retired, no module imports a name it never uses, and scipy stays off every
path that runs no search."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import corrchan

SRC = Path(corrchan.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
RETIRED = ("EigenDecomposition", "eig_hermitian", "check_density_matrix",
           "partial_trace", "dagger", "apply_phi_star")


def test_exports_resolve_without_duplicates():
    assert len(set(corrchan.__all__)) == len(corrchan.__all__)
    for name in corrchan.__all__:
        assert hasattr(corrchan, name), name


@pytest.mark.parametrize("module", MODULES)
def test_retired_names_are_gone(module):
    mod = importlib.import_module(f"corrchan.{module}")
    for name in RETIRED:
        assert name not in corrchan.__all__
        assert not hasattr(corrchan, name)
        assert not hasattr(mod, name), f"{module}.{name}"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (names in __all__ count as read)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# Run in a fresh interpreter: prints, after each step, whether scipy.optimize
# has been imported yet.
SCIPY_PROBE = """
import contextlib, io, json, sys, tempfile
loaded = {}
def mark(step):
    loaded[step] = "scipy.optimize" in sys.modules
import corrchan
from corrchan import cli
mark("import")
with tempfile.TemporaryDirectory() as out:
    for command in ("check", "estimate"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", sys.argv[1], "--out", out])
        assert code == 0, command
        mark(command)
ch = corrchan.CorrelatedChannel(base=corrchan.qubit_ixz_channel(0.3, 0.2, 0.5),
                                mu=0.5)
corrchan.oracle_sample(ch, 1000, seed=1)
mark("oracle_sample")
corrchan.check_theorem(ch.base)
mark("check_theorem")
corrchan.sweep(ch.base, [0.0, 1.0], corrchan.OptimizerConfig(restarts=1))
mark("sweep")
print(json.dumps(loaded))
"""


def test_scipy_loads_at_the_first_search():
    cfg = Path(__file__).resolve().parents[1] / "configs" / "qutrit_symmetric.cfg"
    run = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(cfg)],
                         capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == {"import": False, "check": False, "estimate": False,
                      "oracle_sample": False, "check_theorem": False,
                      "sweep": True}
