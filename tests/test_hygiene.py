"""Source hygiene: no module of the package or of the tests imports a name
it never uses, the package keeps only what a run reaches, the oracles
import no sweep or march, no run loads scipy or numpy.random, no module
starts a thread or a process, and a run holds one OS thread.

The unused-import check parses with the standard library's ast, so it runs
no package code; re-exports in __init__.py, explicit re-exports (`import y
as y`) and __future__ imports are exempt.  The reachability check profiles
the CLI over the seven default configs in a fresh interpreter and keys
each function by (file, first line), which every supported Python
reports.  The import checks each run in a fresh interpreter, so no other
test's imports are counted:
- importing the harness loads no heavy scipy subpackage, and no run,
  whether it draws normals or not, loads any scipy module, neither while
  its config loads nor while it runs;
- the reduced run of each of the seven experiments imports no module at
  all;
- with scipy missing, the runs that draw no normals pass, and a config
  that draws validates and runs;
- rng, which holds every generator, imports no module of the package,
  and no module takes an underscore name from it (an ast scan);
- no module of the package reaches numpy.random (an ast scan), and with
  numpy.random missing each of the seven default configs validates and
  runs, and where it is present neither the load nor the run imports it;
- the default duality-63 run, through the CLI, peaks under 100 MB RSS,
  started from a process that holds more;
- a reduced adjoint-suite and feynman-kac-nonrandom run through the CLI,
  started without a BLAS thread count in the environment, hold one OS
  thread, and a thread count the caller has set is kept.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdelab.config import RULES
from spdelab.harness import EXPERIMENTS, default_config
from test_golden import REDUCED

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spdelab"

# the experiments whose default run draws normals, and those that draw none
DRAWING = sorted(n for n, e in EXPERIMENTS.items() if e.estimates(default_config(n)))
PDE_ONLY = sorted(set(EXPERIMENTS) - set(DRAWING))

# spdelab.cli.main on each argument list of argv[2] (JSON) in one
# interpreter where the modules named in argv[1] (JSON) cannot be imported;
# one JSON line per call: [exit code, stdout, stderr, the modules loaded]
CLI_WITHOUT = """
import contextlib, io, json, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None
from spdelab.cli import main
for args in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    loaded = sorted(name for name, module in sys.modules.items() if module is not None)
    print(json.dumps([code, out.getvalue(), err.getvalue(), loaded]))
"""


def fresh(code, *args, env=None):
    """Run code with args in a fresh interpreter that imports spdelab from
    this source tree, in env (default: this process's environment); the
    completed process, its output captured."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True)


def unused_imports(path):
    """Names a module imports and never reads; an import under its own name
    as alias (`from .x import y as y`) is an explicit re-export."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname != alias.name:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    # the package's modules and the tests; __init__.py re-exports the API
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nimport numpy as np\nfrom math import pi, tau\n"
                      "from math import e as e\n\nx = np.zeros(1) + pi\n")
    assert unused_imports(module) == ["mod.py:1 os", "mod.py:3 tau"]


# cli.main on each argument list of argv[1] (JSON), profiled from the
# package's import onward; prints the (file name, first line) of every
# function in the package directory argv[2] that a call reached
PROFILED_CLI = """
import contextlib, cProfile, io, json, os, sys
profile = cProfile.Profile(builtins=False)
profile.enable()
from spdelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for args in json.loads(sys.argv[1]):
        main(args)
profile.disable()
profile.create_stats()
print(json.dumps([[os.path.basename(path), line] for path, line, _ in profile.stats
                  if os.path.dirname(path) == sys.argv[2]]))
"""

# the package functions that neither a default run nor the CLI reaches, and
# why each stays
UNREACHED = {
    "tree._as_leaf_values": "criterion 1's exact calculus reads leaf values through it",
    "tree.cond_expect": "criterion 1 checks the exact discrete calculus",
    "tree.ito_integral": "criterion 1 checks the exact discrete calculus",
    "tree.MartingaleDecomposition.reconstruct": "criterion 1 checks the exact discrete calculus",
    "tree.clark_decompose": "criterion 1 checks the exact discrete calculus",
    "backward.ConvergenceError.__init__": "solve_R raises it only if B is not causal",
    "montecarlo._phi": "expected_exit_time reads it only when f0 != 0",
    "harness.default_config": "an experiment's config in code, for scripts and tests",
}


def package_functions():
    """{(file name, first line): qualified name} of every def in the
    package, from the code objects a compile makes (lambdas and
    comprehensions aside): the keys a profile of the package reports."""
    found = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                function = bool(const.co_flags & inspect.CO_OPTIMIZED)  # not a class body
                name = prefix + const.co_name
                if function:
                    found[path.name, const.co_firstlineno] = name
                walk(const, path, name + (".<locals>." if function else "."))

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, path.stem + ".")
    return found


def test_the_package_keeps_only_what_a_run_reaches(tmp_path):
    # every function in src/spdelab is reached by list-experiments or by
    # validate-config and run of a default config, is named by a file under
    # benchmarks/ (its outermost def, dunders aside), or is in UNREACHED
    argvs = [["list-experiments"]]
    for name in EXPERIMENTS:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"experiment": name, "output_dir": str(tmp_path / name)}))
        argvs += [["validate-config", str(config)], ["run", str(config)]]
    done = fresh(PROFILED_CLI, json.dumps(argvs), SRC)
    assert done.returncode == 0, done.stderr
    reached = set(map(tuple, json.loads(done.stdout)))
    functions = package_functions()
    benchmarks = TESTS.parent / "benchmarks"
    named = set(re.findall(r"\w+", " ".join(p.read_text() for p in benchmarks.glob("*.py"))))
    unreached = {name for key, name in functions.items() if key not in reached}
    assert set(UNREACHED) <= unreached, sorted(set(UNREACHED) - unreached)
    dead = sorted(name for name in unreached - set(UNREACHED)
                  if name.split(".<locals>.")[0].split(".")[-1] not in named
                  or name.endswith("__"))
    assert not dead, f"no run reaches them and no benchmark names them: {dead}"


# the sweeps and marches the oracles check
SWEEPS = {"backward_sweep", "op_L", "solve_R", "solve_duals", "solve_T_star", "solve_G_star",
          "solve_B_star", "solve_R_star", "solve_L_star", "_forward_march", "solve_density"}


def test_the_oracles_import_no_sweep_or_march():
    tree = ast.parse((TESTS / "oracles.py").read_text(), filename="oracles.py")
    names = {alias.name.split(".")[-1] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & SWEEPS, sorted(names & SWEEPS)


def test_the_config_layer_depends_on_nothing_of_the_harness():
    # harness imports config, never the other way round: a load rule reads
    # the experiment it checks only through the record it is handed
    tree = ast.parse((SRC / "config.py").read_text(), filename="config.py")
    imported = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert not [name for name in imported if "harness" in name.split(".")], imported
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "EXPERIMENTS" not in named
    assert all(list(inspect.signature(rule).parameters) == ["cfg", "exp"] for rule in RULES)


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


def scipy_modules(names):
    return [m for m in names if m.split(".")[0] == "scipy"]


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
    scipy = scipy_modules(done.stdout.split())
    assert not scipy, scipy


@pytest.mark.parametrize("name", DRAWING)
def test_a_run_that_draws_loads_no_scipy(name):
    # the draws' inverse normal CDF is the package's own: neither the config
    # load nor the run of an experiment that draws imports scipy
    done = fresh("""
import json, sys
from spdelab.harness import default_config, run
config = default_config(sys.argv[1], **json.loads(sys.argv[2]))
print(' '.join(sys.modules))
run(config, write=False)
print(' '.join(sys.modules))
""", name, json.dumps(REDUCED[name]))
    assert done.returncode == 0, done.stderr
    loaded, ran = done.stdout.splitlines()
    assert not scipy_modules(loaded.split()), loaded
    assert not scipy_modules(ran.split()), ran


def modules_a_run_imports(name, out):
    """The modules that harness.run of the reduced config of experiment name
    imports, in a fresh interpreter that has loaded the config."""
    done = fresh("""
import json, sys
from spdelab.harness import default_config, run
config = default_config(sys.argv[1], output_dir=sys.argv[3], **json.loads(sys.argv[2]))
before = set(sys.modules)
run(config)
print(' '.join(sorted(set(sys.modules) - before)))
""", name, json.dumps(REDUCED[name]), out)
    assert done.returncode == 0, done.stderr
    assert (out / "report.csv").exists()
    return done.stdout.split()


def test_a_run_that_draws_no_normals_imports_no_module(tmp_path):
    # test fields draw their normals from rng.pcg64_normal, which fields
    # imports with the package: a run imports neither it nor numpy.random
    for name in PDE_ONLY:
        assert modules_a_run_imports(name, tmp_path / name) == [], name


def test_a_run_that_draws_imports_no_module(tmp_path):
    # nor does a run that draws normals import one for their inverse CDF,
    # their key, representation-random's and density-64-65's sampled leaves
    # or density-64-65's start points: each is the package's own port
    for name in DRAWING:
        assert modules_a_run_imports(name, tmp_path / name) == [], name


def test_the_default_duality_63_run_peaks_under_100_mb(tmp_path):
    # the lightest default run, through the CLI in a fresh interpreter: its
    # peak RSS is the package's import and load cost plus one small solve,
    # not the peak of this process, which holds 150 MB when it starts the run
    config = tmp_path / "duality-63.json"
    config.write_text(json.dumps({"experiment": "duality-63", "output_dir": str(tmp_path / "out")}))
    ballast = np.ones(150 * 2**20 // 8)
    done = fresh("import runpy, sys; sys.argv[1:] = ['run', sys.argv[1]]; "
                 "runpy.run_module('spdelab', run_name='__main__')", config)
    del ballast
    assert done.returncode == 0, done.stderr
    rss = json.loads((tmp_path / "out" / "metadata.json").read_text())["peak_rss_mb"]
    assert rss < 100, rss


def cli_without(blocked, *argvs):
    done = fresh(CLI_WITHOUT, json.dumps(blocked), json.dumps([list(map(str, a)) for a in argvs]))
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_without_scipy_a_config_that_draws_validates_and_runs(tmp_path):
    argvs = []
    for name in DRAWING:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"experiment": name, "output_dir": str(tmp_path / name)}))
        argvs += [("validate-config", config), ("run", config)]
    results = cli_without(["scipy"], *argvs)
    assert len(results) == 2 * len(DRAWING)
    for argv, (code, stdout, stderr, _) in zip(argvs, results):
        assert code == 0, (argv, stdout, stderr)
        name = Path(argv[1]).stem
        if argv[0] == "run":
            assert f"PASS: {name}" in stdout and (tmp_path / name / "report.csv").exists(), \
                (name, stdout, stderr)


def test_without_scipy_the_runs_that_draw_no_normals_pass(tmp_path):
    argvs = []
    for name in PDE_ONLY:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"experiment": name, "output_dir": str(tmp_path / name)}))
        argvs.append(("run", config))
    for name, (code, stdout, stderr, _) in zip(PDE_ONLY, cli_without(["scipy"], *argvs)):
        assert code == 0 and f"PASS: {name}" in stdout, (name, stdout, stderr)


def numpy_random_uses(path):
    """Where a module reaches numpy.random: an import of it or from it, a
    call handed its name (importlib.import_module), or numpy's random
    attribute, which imports it at first use."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call):
            names = [arg.value for arg in node.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        elif isinstance(node, ast.Attribute) and node.attr == "random" and \
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            names = ["numpy.random"]
        if any(name == "numpy.random" or name.startswith("numpy.random.") for name in names):
            uses.append(f"{path.name}:{node.lineno}")
    return uses


def test_no_module_reaches_numpy_random():
    # test fields draw their normals from rng.pcg64_normal, sampled leaves
    # and density start points from rng's PCG64 port, and the Monte Carlo
    # normals are rng's counter hash: numpy.random is the tests' oracle
    # only.  Docstrings and comments may name it
    modules = sorted(SRC.glob("*.py"))
    uses = [use for path in modules for use in numpy_random_uses(path)]
    assert modules and uses == [], uses


def test_the_numpy_random_check_sees_each_way_in(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text('"""Draws nothing from numpy.random."""\n'
                      "import importlib\nimport numpy as np\nimport numpy.random\n"
                      "from numpy.random import default_rng\nfrom numpy import random\n"
                      "importlib.import_module('numpy.random')\nrng = np.random.default_rng(1)\n"
                      "# numpy.random stays out\n")
    assert numpy_random_uses(module) == [f"mod.py:{line}" for line in (4, 5, 6, 7, 8)]


def package_imports(path):
    """Where a module imports the package: a relative import, or an import
    of spdelab or from it."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["spdelab" if node.level else node.module]
        if any(name == "spdelab" or name.startswith("spdelab.") for name in names):
            uses.append(f"{path.name}:{node.lineno}")
    return uses


def private_rng_names(path):
    """Where a module takes an underscore name from rng: an import of it
    from rng, or an attribute of a name rng."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("rng", "spdelab.rng"):
            private = any(alias.name.startswith("_") for alias in node.names)
        else:
            private = isinstance(node, ast.Attribute) and node.attr.startswith("_") and \
                isinstance(node.value, ast.Name) and node.value.id == "rng"
        if private:
            uses.append(f"{path.name}:{node.lineno}")
    return uses


def test_rng_stands_alone_and_lends_public_names_only():
    # every generator lives in rng, which reads no tree: it imports the
    # standard library and numpy alone, and the other modules take its
    # public names only
    assert package_imports(SRC / "rng.py") == []
    uses = [use for path in sorted(SRC.glob("*.py")) for use in private_rng_names(path)]
    assert uses == [], uses


def test_the_rng_checks_see_each_way_in(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text('"""Takes nothing private from rng."""\n'
                      "import numpy as np\nfrom .tree import PathBundle\nfrom . import rng\n"
                      "import spdelab.fields\nfrom spdelab.rng import seed_key\n"
                      "from .rng import _M64, pcg64_uniform\nfrom spdelab.rng import _pcg64_seeded\n"
                      "x = rng._tables()\n# rng._PCG_MULT stays out\n")
    assert package_imports(module) == [f"mod.py:{line}" for line in (3, 4, 5, 6, 7, 8)]
    assert private_rng_names(module) == [f"mod.py:{line}" for line in (7, 8, 9)]


def test_without_numpy_random_every_default_config_validates_and_runs(tmp_path):
    # with numpy.random missing each default config validates and runs, and
    # with it present neither the load nor the run imports it
    argvs = []
    for name in EXPERIMENTS:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"experiment": name, "output_dir": str(tmp_path / name)}))
        argvs += [("validate-config", config), ("run", config)]
    for blocked in (["numpy.random"], []):
        results = cli_without(blocked, *argvs)
        assert len(results) == len(argvs) == 2 * 7
        for name, (validated, ran) in zip(EXPERIMENTS, zip(results[::2], results[1::2])):
            code, out, err, _ = validated
            assert code == 0 and "config ok" in out, (blocked, name, out, err)
            code, out, err, _ = ran
            assert code == 0 and f"PASS: {name}" in out, (blocked, name, out, err)
            for *_, loaded in (validated, ran):
                assert "numpy" in loaded
                assert not [m for m in loaded if m.startswith("numpy.random")], (blocked, name)


# modules whose names start threads or processes
PARALLEL = ("threading", "_thread", "multiprocessing", "concurrent")


def test_no_module_starts_a_thread():
    # every march is one loop in the calling thread: no module imports a
    # module that starts threads or processes.  Threads started outside
    # Python, such as OpenBLAS's workers, are counted by
    # test_a_run_holds_one_os_thread
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imports += [f"{path.name} {alias.name}" for alias in node.names
                            if alias.name.split(".")[0] in PARALLEL]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in PARALLEL:
                imports.append(f"{path.name} {node.module}")
    assert imports == []


# environment variables that set the thread count of numpy's BLAS
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_a_run_holds_one_os_thread(tmp_path):
    # OpenBLAS starts a worker per extra CPU as numpy loads, unless spdelab
    # loads numpy first and sets its thread count; this process imported
    # numpy before spdelab, and spdelab set the variable here, so the
    # fresh interpreter starts without it.  adjoint-suite reaches the
    # package's matrix product, feynman-kac-nonrandom draws and marches.
    # The test counts threads, not verdicts: the reduced adjoint-suite
    # fails three rows, so run exits 1, and 2 would be an error
    argvs = []
    for name in ("adjoint-suite", "feynman-kac-nonrandom"):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"experiment": name, "output_dir": str(tmp_path / name),
                                      **REDUCED[name]}))
        argvs.append(["run", str(config)])
    done = fresh("""
import json, sys
from spdelab.cli import main
for args in json.loads(sys.argv[1]):
    assert main(args) in (0, 1), args
""", json.dumps(argvs), env={k: v for k, v in os.environ.items() if k not in BLAS_THREADS})
    assert done.returncode == 0, done.stderr
    for name in ("adjoint-suite", "feynman-kac-nonrandom"):
        meta = json.loads((tmp_path / name / "metadata.json").read_text())
        assert meta["os_threads"] == 1, (name, meta)


def test_a_blas_thread_count_the_caller_set_wins():
    done = fresh("import os, spdelab; print(os.environ['OPENBLAS_NUM_THREADS'])",
                 env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]
