"""Source hygiene: no module of the package imports a name it never uses,
and importing the package pulls in no heavy scipy subpackage.

The unused-import check parses with the standard library's ast, so it runs
no package code; re-exports in __init__.py and __future__ imports are
exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spdelab"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nimport numpy as np\nfrom math import pi, tau\n\nx = np.zeros(1) + pi\n")
    assert unused_imports(module) == ["mod.py:1 os", "mod.py:3 tau"]


# scipy subpackages the package must not import: scipy.linalg alone raises a
# run's peak RSS by about 6 MB, over 10% on the lightest benchmark workloads;
# scipy.fft by 1.2-1.4 MB (19 modules), and the norms need no transform
HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.fft")


def test_importing_the_harness_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter, so no other test's imports are counted
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, spdelab.harness; print(' '.join(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout.split()
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert not heavy, heavy
