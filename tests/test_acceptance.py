"""Acceptance gate: every exit criterion at its stated tolerance and budget.

Each test prints one pass/fail line.  Criteria 3-9 drive the named harness
experiments at their default (pinned) configurations; criteria 1-2 exercise
the exact discrete calculus directly.
"""

import time

import numpy as np
import pytest

from spdelab import (
    DomainSpec,
    build_grid,
    build_lattice,
    build_tree,
    clark_decompose,
    cond_expect,
    ito_integral,
    make_family,
)
from spdelab.backward import backward_sweep
from spdelab.fields import norm_x0
from spdelab.harness import default_config, run

# criteria 3-9 each run in about 0.05-0.2 s on a 2-vCPU Xeon KVM guest, so
# 10 s catches a 50-fold slowdown while leaving room for a slow runner
BUDGETS = {1: 1.0, 2: 10.0, 3: 10.0, 4: 10.0, 5: 10.0, 6: 10.0,
           7: 10.0, 8: 10.0, 9: 10.0}


def _report(criterion, label, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} {status} ({elapsed:.1f} s / "
          f"budget {BUDGETS[criterion]:.0f} s): {label}", flush=True)
    assert ok, f"criterion {criterion} failed: {label}"
    assert elapsed < BUDGETS[criterion], (
        f"criterion {criterion} exceeded its runtime budget: "
        f"{elapsed:.1f} s >= {BUDGETS[criterion]:.0f} s"
    )


def _run_experiment(criterion, name, label):
    start = time.perf_counter()
    report = run(default_config(name), write=False)
    elapsed = time.perf_counter() - start
    for row in report.rows:
        mark = "pass" if row.passed else "FAIL"
        print(f"    [{mark}] {row.check}: lhs={row.lhs:.6g} rhs={row.rhs:.6g} "
              f"tol={row.tol:.3g}", flush=True)
    _report(criterion, label, report.passed, elapsed)


def test_criterion_1_exact_discrete_calculus():
    start = time.perf_counter()
    tree = build_tree(1, 10, 1.0)
    rng = np.random.default_rng(101)
    X = rng.normal(size=tree.n_leaves)
    scale = np.abs(X).max()

    dec = clark_decompose(X, tree)
    clark_ok = np.max(np.abs(dec.reconstruct(tree) - X)) <= 1e-12 * scale

    gam = [rng.normal(size=(tree.n_nodes(k), 1)) for k in range(tree.n_steps)]
    total = ito_integral(gam, tree)
    lhs = float((total**2).mean())
    rhs = float(sum(tree.dt * (g[:, 0] ** 2).mean() for g in gam))
    iso_ok = abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    tower_ok = True
    vals_t = cond_expect(X, 7, tree)
    for s in (0, 3, 5):
        direct = cond_expect(X, s, tree)
        through = vals_t.reshape(tree.n_nodes(s), -1).mean(axis=1)
        tower_ok &= bool(np.max(np.abs(direct - through)) <= 1e-12 * scale)

    _report(1, "Clark reconstruction, Ito isometry, tower property at 1e-12",
            clark_ok and iso_ok and tower_ok, time.perf_counter() - start)


def test_criterion_2_kernels_vanish_for_nonrandom_data(nonrandom_field):
    start = time.perf_counter()
    dom = DomainSpec(0.0, 1.0, 1.0)
    grid = build_grid(dom, 101)
    lattice = build_lattice(10, 1.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    ok = True
    for seed in (7, 8):
        g = nonrandom_field(grid, lattice, seed=seed)
        X = backward_sweep(g, coeffs, grid, lattice)[1]
        ok &= norm_x0(X[0]) <= 1e-12 * norm_x0(g)
    _report(2, "diffusion kernels vanish identically for nonrandom data",
            ok, time.perf_counter() - start)


def test_criterion_3_feynman_kac_nonrandom():
    _run_experiment(3, "feynman-kac-nonrandom",
                    "exit-time functional matches the solver and Monte Carlo")


def test_criterion_4_representation_random_drift():
    _run_experiment(4, "representation-random",
                    "random-drift representation agrees with Monte Carlo at 5 points")


def test_criterion_5_adjoint_suite():
    _run_experiment(5, "adjoint-suite",
                    "all five duality pairings contract >= 1.7x under refinement")


def test_criterion_6_solvability_and_uniqueness():
    _run_experiment(6, "solvability-R",
                    "fixed point of (I+B) converges from two starts to one solution")


def test_criterion_7_duality_identity():
    _run_experiment(7, "duality-63",
                    "density/solution pairing identity holds and halves under refinement")


def test_criterion_8_distribution_identities():
    _run_experiment(8, "density-64-65",
                    "conditional and unconditional distribution identities")


def test_criterion_9_norm_bound_probes():
    _run_experiment(9, "norm-bounds",
                    "C0 and X1 norm ratios show no growth across refinement")
