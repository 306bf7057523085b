"""Source hygiene: no module of the package imports a name it never uses,
importing the package pulls in no heavy scipy subpackage, scipy is loaded
only by the runs that draw normals, and only `montecarlo.simulate` starts
threads.

The unused-import check parses with the standard library's ast, so it runs
no package code; re-exports in __init__.py and __future__ imports are
exempt.  The import checks each run in a fresh interpreter, so no other
test's imports are counted:
- a run that draws no normals loads no scipy module, and a reduced
  adjoint-suite run imports no module at all (numpy's lazy numpy.random
  included);
- a run that draws loads scipy.special while its config loads, before
  harness.run, and a march imports it in the calling thread, never in a
  draw thread;
- with scipy missing, a config that draws fails at load (exit 2), and the
  runs that draw no normals still pass.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spdelab.harness import EXPERIMENTS, default_config
from test_golden import REDUCED

SRC = Path(__file__).resolve().parents[1] / "src" / "spdelab"

# the experiments whose default run draws normals, and those that draw none
DRAWING = sorted(n for n, e in EXPERIMENTS.items() if e.estimates(default_config(n)))
PDE_ONLY = sorted(set(EXPERIMENTS) - set(DRAWING))

# spdelab.cli.main on each argument list of argv[1] (JSON) in one
# interpreter where scipy cannot be imported; one JSON line per call:
# [exit code, stdout, stderr]
CLI_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules['scipy'] = None
from spdelab.cli import main
for args in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def fresh(code, *args):
    """Run code with args in a fresh interpreter that imports spdelab from
    this source tree; the completed process, its output captured."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)


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
    done = fresh("import sys, spdelab.harness; print(' '.join(sys.modules))")
    assert done.returncode == 0, done.stderr
    heavy = [m for m in done.stdout.split() if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert not heavy, heavy


def test_the_experiments_that_draw():
    assert DRAWING == ["density-64-65", "feynman-kac-nonrandom", "representation-random"]


def test_runs_that_draw_no_normals_load_no_scipy():
    done = fresh("""
import json, sys
import spdelab
from spdelab.harness import default_config, run
for name, reduced in json.loads(sys.argv[1]).items():
    run(default_config(name, **reduced), write=False)
print(' '.join(sys.modules))
""", json.dumps({name: REDUCED[name] for name in PDE_ONLY}))
    assert done.returncode == 0, done.stderr
    scipy = [m for m in done.stdout.split() if m.split(".")[0] == "scipy"]
    assert not scipy, scipy


@pytest.mark.parametrize("name", DRAWING)
def test_a_run_that_draws_loads_scipy_special_at_config_load(name):
    done = fresh("""
import sys
from spdelab.harness import ExperimentConfig
before = 'scipy.special' in sys.modules
ExperimentConfig.from_dict({'experiment': sys.argv[1]})
print(before, 'scipy.special' in sys.modules)
""", name)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_a_run_that_draws_no_normals_imports_no_module(tmp_path):
    # numpy imports numpy.random at its first use; the package imports it
    # eagerly, so a run's wall time does not pay that import
    done = fresh("""
import json, sys
from spdelab.harness import default_config, run
config = default_config('adjoint-suite', output_dir=sys.argv[2], **json.loads(sys.argv[1]))
before = set(sys.modules)
run(config)
print(' '.join(sorted(set(sys.modules) - before)))
""", json.dumps(REDUCED["adjoint-suite"]), tmp_path / "out")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
    assert (tmp_path / "out" / "report.csv").exists()


def cli_without_scipy(*argvs):
    done = fresh(CLI_WITHOUT_SCIPY, json.dumps([list(map(str, argv)) for argv in argvs]))
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_without_scipy_a_config_that_draws_fails_at_load(tmp_path):
    out = tmp_path / "out"
    argvs = []
    for name in DRAWING:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"experiment": name, "output_dir": str(out)}))
        argvs += [("validate-config", config), ("run", config)]
    for argv, (code, stdout, stderr) in zip(argvs, cli_without_scipy(*argvs)):
        assert code == 2, (argv, stdout, stderr)
        assert stderr.startswith("config error:") and "scipy.special.ndtri" in stderr, stderr
    assert not out.exists()  # nothing ran


def test_without_scipy_the_runs_that_draw_no_normals_pass(tmp_path):
    argvs = []
    for name in PDE_ONLY:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"experiment": name, "output_dir": str(tmp_path / name)}))
        argvs.append(("run", config))
    for name, (code, stdout, stderr) in zip(PDE_ONLY, cli_without_scipy(*argvs)):
        assert code == 0 and f"PASS: {name}" in stdout, (name, stdout, stderr)


def test_a_march_imports_scipy_in_the_calling_thread_not_a_draw_thread():
    # no harness load and no scipy yet: the first draw resolves the transform.
    # A finder first in sys.meta_path records the thread that imports each module.
    done = fresh("""
import sys, threading

finder_threads = {}

class Recorder:
    def find_spec(self, name, path=None, target=None):
        finder_threads.setdefault(name, threading.current_thread().name)
        return None

sys.meta_path.insert(0, Recorder())
import numpy as np
from spdelab import DomainSpec, build_tree, make_family, sample_tree_paths, simulate
from spdelab import tree
assert 'scipy' not in sys.modules

drew_in, draw = set(), tree.PathBundle.draw  # the threads that draw blocks

def recorded(self, m, rows):
    drew_in.add(threading.current_thread().name)
    return draw(self, m, rows)

tree.PathBundle.draw = recorded
coeffs = make_family('drift-random', {'kappa': 0.7, 'sigma': [0.6, 0.8], 'd': 1})
paths = sample_tree_paths(build_tree(1, 5, 1.0), 3000, coeffs.sigma, 0.01, seed=43)
domain = DomainSpec(0.0, 1.0, 1.0)
marches, groups = [], []
for threads in (3, 1):  # three groups of paths, two on the march's own threads, then one
    tree.draw_threads = lambda: threads
    drew_in.clear()
    marches.append(simulate(coeffs, 0.5, 0.0, paths, domain))
    groups.append(sorted(drew_in))
split, serial = marches
main = threading.main_thread().name
split_in, serial_in = groups
assert main in split_in and len(split_in) > 1, groups
assert all(n == main or n.startswith('spdelab-draw_') for n in split_in), groups
assert serial_in == [main], groups
for name in ('tau', 'snapshots', 'alive'):
    assert np.array_equal(getattr(split, name), getattr(serial, name)), name
assert split.normals_drawn == serial.normals_drawn
print(finder_threads['scipy.special'], main)
""")
    assert done.returncode == 0, done.stderr
    found_in, main = done.stdout.split()
    assert found_in == main


# modules whose names start threads or processes
PARALLEL = ("threading", "_thread", "multiprocessing", "concurrent")


def test_only_simulate_starts_threads():
    # the package's one parallel mechanism is the pool that simulate opens
    # and joins for the path groups of a tree-bridged march: no module
    # imports threading or multiprocessing, and ThreadPoolExecutor is named
    # in simulate alone
    imports, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    imports += [f"{path.name} {alias.name}" for alias in node.names
                                if alias.name.split(".")[0] in PARALLEL]
                elif (isinstance(node, ast.ImportFrom)
                      and (node.module or "").split(".")[0] in PARALLEL):
                    imports += [f"{path.name} {node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor":
                    uses.append(f"{path.name} {getattr(top, 'name', None)}")
    assert imports == ["montecarlo.py concurrent.futures.ThreadPoolExecutor"]
    assert uses == ["montecarlo.py simulate"]
