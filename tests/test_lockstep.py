"""The lockstep marches of the five forward duals and of the five primals.

solve_duals marches T*, G_0*, B*, R* and L* together, one banded solve per
level for all five; backward_sweep(g, ..., phi) marches T g, G g, B g and
L phi together, one factorization and two solves per level.  The
tridiagonal solver keeps columns independent and every other step is
elementwise, so each operator equals its own call bit for bit on the w1
lattice, under d = 1 and d = 2 coefficients; in the tree cases each also
matches its oracle on the tree of that d (tests/oracles.py): the duals the
per-state means of the duals stepped edge by edge, the primals, gathered,
the leaf-enumerated node values.  The adjoint suite makes three level solves
and two factorizations per level where five separate marches and two
separate sweeps made eight of each.
"""

import numpy as np
import pytest

from spdelab import (
    DomainSpec,
    SpaceTimeField,
    build_grid,
    build_lattice,
    build_tree,
    make_family,
    solve_B_star,
    solve_duals,
    solve_G_star,
    solve_L_star,
    solve_R_star,
    solve_T_star,
)
from spdelab import backward, domain
from spdelab.backward import backward_sweep, op_L
from spdelab.fields import smooth_random_field
from spdelab.harness import default_config, run
from oracles import assert_gathered, enumerated_primals, stepped_duals
from test_golden import REDUCED
from test_lattice import assert_levels_match

SINGLE = {
    "T": solve_T_star,
    "G": lambda h, *rest: solve_G_star(0, h, *rest),
    "B": solve_B_star,
    "R": solve_R_star,
    "L": solve_L_star,
}


CASES = pytest.mark.parametrize("space, d, family, nx, n_steps", [
    ("lattice", 1, "drift-random", 21, 4),
    ("lattice", 1, "space-smooth", 31, 6),
    ("tree", 1, "drift-random", 21, 4),
    ("tree", 1, "space-smooth", 21, 3),
    ("tree", 2, "drift-random", 21, 3),
    ("tree", 2, "space-smooth", 17, 2),
])


def _state_space(space, d, family, nx, n_steps):
    """(coeffs, grid, lattice, tree): the tree of the case's d, or None in
    the lattice cases."""
    params = {"drift-random": {"kappa": 0.25}, "space-smooth": {"a": 0.3, "eps": 0.5}}[family]
    coeffs = make_family(family, {**params, "sigma": [0.5, 0.5, 0.6], "d": d})
    grid = build_grid(DomainSpec(0.0, 4.0, 1.0), nx)
    tree = build_tree(d, n_steps, 1.0) if space == "tree" else None
    return coeffs, grid, build_lattice(n_steps, 1.0), tree


@CASES
def test_solve_duals_equals_the_single_marches_exactly(space, d, family, nx, n_steps):
    coeffs, grid, lattice, tree = _state_space(space, d, family, nx, n_steps)
    h = smooth_random_field(grid, lattice, seed=7)
    duals = solve_duals(h, coeffs, grid, lattice)
    assert list(duals) == list("TGBRL")
    stepped = {} if tree is None else stepped_duals(h, coeffs, grid, tree)
    for name, solve in SINGLE.items():
        single = solve(h, coeffs, grid, lattice)
        assert np.abs(single.levels[-1]).max() > 0.0, name
        for k, (a, b) in enumerate(zip(duals[name].levels, single.levels)):
            assert np.array_equal(a, b), (name, k)
        if stepped:
            assert_levels_match(SpaceTimeField(grid, tree, stepped[name]), single)


@CASES
def test_primal_march_equals_the_single_sweeps_exactly(space, d, family, nx, n_steps):
    coeffs, grid, lattice, tree = _state_space(space, d, family, nx, n_steps)
    g = smooth_random_field(grid, lattice, seed=8)
    phi = smooth_random_field(grid, lattice, seed=9)
    v, kernels, bg, sol = backward_sweep(g, coeffs, grid, lattice, phi)
    alone = backward_sweep(g, coeffs, grid, lattice)
    L = op_L(phi, coeffs, grid, lattice)
    pairs = [("T", v, alone[0]), ("B", bg, alone[2]), ("Lv", sol.v, L.v), ("Lg", sol.g, L.g)]
    pairs += [(f"G{j}", a, b) for j, (a, b) in enumerate(zip(kernels, alone[1]))]
    pairs += [(f"LX{j}", a, b) for j, (a, b) in enumerate(zip(sol.kernels, L.kernels))]
    assert len(pairs) == 6
    for name, march, single in pairs:
        assert np.abs(march.levels[0]).max() > 0.0, name
        for k, (a, b) in enumerate(zip(march.levels, single.levels)):
            assert np.array_equal(a, b), (name, k)
    if tree is not None:
        T, X, B = enumerated_primals(g.on(tree), coeffs, grid, tree)
        for name, field, oracle in (("T", v, T), ("G0", kernels[0], X[0]), ("B", bg, B)):
            assert_gathered(field, oracle, tree, what=name)
        T, X, B = enumerated_primals(sol.g.on(tree), coeffs, grid, tree)
        assert_gathered(sol.v, T, tree, what="Lv")
        assert_gathered(sol.kernels[0], X[0], tree, what="LX0")
        assert_gathered(sol.g, [p - b for p, b in zip(phi.on(tree).levels, B)], tree, what="Lg")


def test_adjoint_suite_makes_one_dual_solve_per_level(monkeypatch):
    # per level and draw: two solves of the primal march (T's v and kernels
    # with L's kernels, then L's v) under one factorization, and one
    # lockstep solve of the five duals under another (four solves and four
    # factorizations with separate primal sweeps, eight of each with five
    # separate dual marches as well)
    calls, factored = [], []
    thomas, factor = backward.thomas_rows, domain.cr_factors

    def counted(*args):
        calls.append(args[3].shape)
        return thomas(*args)

    def counted_factors(*args):
        factored.append(1)
        return factor(*args)

    monkeypatch.setattr(backward, "thomas_rows", counted)
    for module in (domain, backward):
        monkeypatch.setattr(module, "cr_factors", counted_factors)
    over = REDUCED["adjoint-suite"]
    report = run(default_config("adjoint-suite", **over), write=False)
    assert report.rows
    n_steps = over["tree"]["n_steps"] + over["params"]["fine_n_steps"]
    assert len(calls) == 3 * n_steps * over["params"]["n_draws"]
    assert len(factored) == 2 * n_steps * over["params"]["n_draws"]
    # the dual solves carry five problems of br = 2 children per node
    assert sum(shape[2:] == (5, 2) for shape in calls) == n_steps * over["params"]["n_draws"]
