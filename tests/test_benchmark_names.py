"""The benchmark's tracer names package functions and arguments as strings.

benchmarks/tracer.py wraps "module:attribute" targets in every spdelab
module namespace that holds them and reads named arguments of the wrapped
calls, so renaming or deleting one of them under src/ breaks
`benchmarks/run.py --trace` without failing any package test.  These tests
import the tracer (without editing it) and check its names still resolve,
that its counters read the results they are handed, and that a march it
traces stays in the one thread it accepts.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from spdelab import (DomainSpec, build_grid, build_lattice, build_tree, free_paths, make_family,
                     montecarlo, sample_tree_paths)
from spdelab.fields import smooth_random_field

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


def counted_calls():
    """One small real call of each function the tracer counts: target ->
    (args, kwargs)."""
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    domain = DomainSpec(-1.0, 1.0, 1.0)
    grid, tree, lattice = build_grid(domain, 21), build_tree(1, 4, 1.0), build_lattice(4, 1.0)
    bands = (np.full((8, 3), -0.5), np.full((8, 3), 2.0), np.full((8, 3), -0.5))
    return {
        "domain:thomas_rows": ((*bands, np.ones((8, 3))), {}),
        "domain:solve_tridiag": ((*(b.T for b in bands), np.ones((3, 8))), {}),
        "tree:bridge_paths": ((tree.shape, 5, 40, coeffs.sigma, 0.125, 1), {}),
        "tree:sample_tree_paths": ((tree.shape, 40, coeffs.sigma, 0.125, 2), {}),
        "tree:free_paths": ((1.0, 40, coeffs.sigma, 0.125, 3), {}),
        # from 0.9 on (-1, 1) some paths leave before t = 1
        "montecarlo:simulate": ((coeffs, 0.9, 0.0,
                                 sample_tree_paths(tree.shape, 40, coeffs.sigma, 0.125, 4),
                                 domain), {}),
        "backward:solve_R": ((smooth_random_field(grid, lattice, seed=5), coeffs, grid, lattice),
                             {}),
    }


def test_every_counter_reads_a_real_result(tracer):
    # each counter reads attributes of the traced call's result (increments,
    # tau, times, the iteration count): called on a small real result, it
    # counts what the call did, so renaming one of them fails here rather
    # than in run.py --trace 1
    calls = counted_calls()
    assert set(calls) == set(tracer.COUNTERS)
    counts = {}
    for target, (args, kwargs) in calls.items():
        fn = tracer._resolve(target)[2]
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        counts[target] = tracer.COUNTERS[target](bound, fn(*args, **kwargs))
    assert counts["domain:thomas_rows"]["unknowns"] == 24
    assert counts["domain:solve_tridiag"]["unknowns"] == 24
    for target in ("tree:bridge_paths", "tree:sample_tree_paths", "tree:free_paths"):
        assert counts[target] == {"normals": 40 * 8, "bytes": 8 * 40 * 8}, target
    march = counts["montecarlo:simulate"]
    assert (march["paths"], march["path_steps"]) == (40, 40 * 8)
    assert 0 < march["exited"] < 40 and 0 < march["alive_steps"] < 40 * 8
    assert counts["backward:solve_R"]["iterations"] >= 1


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
    paths = sample_tree_paths((1, 5, 1.0), 3000, coeffs.sigma, 0.01, seed=43)
    with tracer.Tracer() as trace:
        trajs = montecarlo.simulate(coeffs, 0.3, 0.0, paths, DomainSpec(0.0, 1.0, 1.0))
    counts = trace.counts()
    assert counts["montecarlo.simulate.calls"] == 1
    assert counts["coefficients.drift.calls"] > 1 and trajs.normals_drawn > 0
