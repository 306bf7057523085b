"""The benchmark's tracer names package functions and arguments as strings.

benchmarks/tracer.py wraps "module:attribute" targets in every spdelab
module namespace that holds them and reads named arguments of the wrapped
calls, so renaming or deleting one of them under src/ breaks
`benchmarks/run.py --trace` without failing any package test.  These tests
import the tracer (without editing it) and check its names still resolve,
and that a march it traces stays in the one thread it accepts.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from spdelab import DomainSpec, build_tree, make_family, montecarlo, sample_tree_paths

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("spdelab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracer):
    for targets in tracer.SPANS.values():
        for target in targets:
            assert callable(tracer._resolve(target)[2]), target


# the arguments each work counter reads off the bound call
COUNTED_ARGS = {
    "domain:thomas_rows": {"X"},
    "domain:solve_tridiag": {"lower", "diag", "upper"},
    "montecarlo:simulate": {"paths", "s"},
    "tree:bridge_paths": set(),
    "tree:sample_tree_paths": set(),
    "tree:free_paths": set(),
    "backward:solve_R": set(),
}


def test_counted_and_sized_calls_bind_their_arguments(tracer):
    assert set(tracer.COUNTERS) == set(COUNTED_ARGS)
    for target, names in COUNTED_ARGS.items():
        params = inspect.signature(tracer._resolve(target)[2]).parameters
        assert names <= set(params), target
    for span in tracer.SIZED:
        for target in tracer.SPANS[span]:
            params = inspect.signature(tracer._resolve(target)[2]).parameters
            assert {"grid", "tree"} <= set(params), target


@pytest.mark.parametrize("module, name, home", [
    ("harness", "backward_sweep", "backward"),
    ("backward", "thomas_rows", "domain"),
    ("forward", "solve_tridiag", "domain"),
    ("montecarlo", "bridge_paths", "tree"),
])
def test_callers_hold_the_traced_functions_as_globals(module, name, home):
    # the tracer patches a function where its callers look it up: in their
    # own module globals
    holder = importlib.import_module("spdelab." + module)
    assert vars(holder).get(name) is getattr(importlib.import_module("spdelab." + home), name)


def test_a_traced_march_of_a_drift_that_reads_x_stays_in_one_thread(tracer):
    # the tracer raises for a traced call from a second thread; space-smooth
    # evaluates its drift at every fine step of a tree-bridged march
    coeffs = make_family("space-smooth", {"a": 1.5, "eps": 0.4, "sigma": [0.6, 0.8], "d": 1})
    paths = sample_tree_paths(build_tree(1, 5, 1.0), 3000, coeffs.sigma, 0.01, seed=43)
    with tracer.Tracer() as trace:
        trajs = montecarlo.simulate(coeffs, 0.3, 0.0, paths, DomainSpec(0.0, 1.0, 1.0))
    counts = trace.counts()
    assert counts["montecarlo.simulate.calls"] == 1
    assert counts["coefficients.drift.calls"] > 1 and trajs.normals_drawn > 0
