"""The lockstep march of the five forward duals.

solve_duals marches T*, G_0*, B*, R* and L* together, one banded solve per
level for all five.  The tridiagonal solver keeps columns independent and
every other step is elementwise, so each dual equals its own solve_*_star
call bit for bit, on the w1 lattice and on the tree for d = 1 and d = 2;
and the adjoint suite makes half the level solves it made with five
separate marches.
"""

import numpy as np
import pytest

from spdelab import (
    DomainSpec,
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
from spdelab import backward
from spdelab.fields import smooth_random_field
from spdelab.harness import default_config, run
from test_golden import REDUCED

SINGLE = {
    "T": solve_T_star,
    "G": lambda h, *rest: solve_G_star(0, h, *rest),
    "B": solve_B_star,
    "R": solve_R_star,
    "L": solve_L_star,
}


@pytest.mark.parametrize("space, d, family, nx, n_steps", [
    ("lattice", 1, "drift-random", 21, 4),
    ("lattice", 1, "space-smooth", 31, 6),
    ("tree", 1, "drift-random", 21, 4),
    ("tree", 1, "space-smooth", 21, 3),
    ("tree", 2, "drift-random", 21, 3),
    ("tree", 2, "space-smooth", 17, 2),
])
def test_solve_duals_equals_the_single_marches_exactly(space, d, family, nx, n_steps):
    params = {"drift-random": {"kappa": 0.25}, "space-smooth": {"a": 0.3, "eps": 0.5}}[family]
    coeffs = make_family(family, {**params, "sigma": [0.5, 0.5, 0.6], "d": d})
    grid = build_grid(DomainSpec(0.0, 4.0, 1.0), nx)
    tree = build_lattice(n_steps, 1.0) if space == "lattice" else build_tree(d, n_steps, 1.0)
    h = smooth_random_field(grid, tree, seed=7)
    duals = solve_duals(h, coeffs, grid, tree)
    assert list(duals) == list("TGBRL")
    for name, solve in SINGLE.items():
        single = solve(h, coeffs, grid, tree)
        assert np.abs(single.levels[-1]).max() > 0.0, name
        for k, (a, b) in enumerate(zip(duals[name].levels, single.levels)):
            assert np.array_equal(a, b), (name, k)


def test_adjoint_suite_makes_one_dual_solve_per_level(monkeypatch):
    # per level and draw: one backward_sweep solve, two op_L solves and one
    # lockstep solve of the five duals (eight with five separate marches)
    calls = []
    thomas = backward.thomas_rows

    def counted(*args):
        calls.append(args[3].shape)
        return thomas(*args)

    monkeypatch.setattr(backward, "thomas_rows", counted)
    over = REDUCED["adjoint-suite"]
    report = run(default_config("adjoint-suite", **over), write=False)
    assert report.rows
    n_steps = over["tree"]["n_steps"] + over["params"]["fine_n_steps"]
    assert len(calls) == 4 * n_steps * over["params"]["n_draws"]
    # the dual solves carry five problems of br = 2 children per node
    assert sum(shape[2:] == (5, 2) for shape in calls) == n_steps * over["params"]["n_draws"]
