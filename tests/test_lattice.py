"""The w1 lattice against the scenario tree.

Every coefficient family and test field depends on the path only through
the first Wiener component, so on the lattice the level solvers give the
tree's values averaged over the nodes of each w1 state (j down steps, the
popcount of a d=1 node index), and the pairings and norms the experiments
report agree with the tree's to round-off.  The entry points that need
per-path values refuse a lattice.
"""

import numpy as np
import pytest

from spdelab import (
    DomainSpec,
    ForwardSolverError,
    SpaceTimeField,
    TreeError,
    build_grid,
    build_lattice,
    build_tree,
    lattice_density,
    make_family,
    op_L,
    residual_bspde,
    solve_backward_pathwise,
    solve_R,
    solve_density,
    step_forward,
)
from spdelab.backward import backward_sweep
from spdelab.fields import FieldError, norm_c0, norm_x0, norm_xk, pair_x0_dual, smooth_random_field
from spdelab.forward import ForwardState, solve_L_star, solve_R_star, solve_T_star
from spdelab.harness import (
    _adjoint_pairings,
    _dirichlet_profile,
    _duality_gap,
    _gaussian,
    _unit,
    default_config,
)
from spdelab.tree import TreeNode

FAMILIES = {
    "constant": {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1},
    "drift-random": {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1},
    "space-smooth": {"a": 0.3, "eps": 0.5, "sigma": [0.6, 0.8], "d": 1},
}
LEVELS = [(21, 3), (41, 6), (41, 8)]


def setup(family, nx, n_steps):
    grid = build_grid(DomainSpec("interval", 0.0, 8.0, 1.0), nx)
    tree, lattice = build_tree(1, n_steps, 1.0), build_lattice(n_steps, 1.0)
    return make_family(family, FAMILIES[family]), grid, tree, lattice


def per_state(field):
    """Tree field levels averaged over the nodes of each w1 state."""
    out = []
    for k, level in enumerate(field.levels):
        j = np.array([bin(n).count("1") for n in range(level.shape[1])])
        out.append(np.stack([level[:, j == s].mean(axis=1) for s in range(k + 1)], axis=1))
    return out


def assert_levels_match(tree_field, lattice_field, rtol=1e-12):
    for k, (agg, lat) in enumerate(zip(per_state(tree_field), lattice_field.levels)):
        scale = max(np.abs(agg).max(), 1e-300)
        np.testing.assert_allclose(lat, agg, rtol=rtol, atol=rtol * scale, err_msg=f"level {k}")


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("nx, n_steps", LEVELS)
def test_adjoint_pairings_match_the_tree(family, nx, n_steps):
    coeffs, grid, tree, lattice = setup(family, nx, n_steps)
    seed_pair = ((11, 0), (11, 1))
    on_tree, scale_tree = _adjoint_pairings(coeffs, grid, tree, seed_pair)
    on_lattice, scale_lattice = _adjoint_pairings(coeffs, grid, lattice, seed_pair)
    assert rel(scale_tree, scale_lattice) <= 1e-13
    assert sorted(on_tree) == sorted(on_lattice) == sorted("TGBRL")
    for k, (primal, dual) in on_tree.items():
        lat_primal, lat_dual = on_lattice[k]
        assert rel(primal, lat_primal) <= 1e-13, k
        assert rel(dual, lat_dual) <= 1e-13, k
        mismatch = abs(primal - dual) / scale_tree
        assert rel(mismatch, abs(lat_primal - lat_dual) / scale_lattice) <= 1e-10, k


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_backward_outputs_are_the_tree_values_per_state(family):
    coeffs, grid, tree, lattice = setup(family, 41, 8)
    for seed in (3, 4):
        g_tree = smooth_random_field(grid, tree, seed)
        g_lattice = smooth_random_field(grid, lattice, seed)
        sweep_tree = backward_sweep(g_tree, coeffs, grid, tree)
        sweep_lattice = backward_sweep(g_lattice, coeffs, grid, lattice)
        for a, b in [(sweep_tree[0], sweep_lattice[0]), (sweep_tree[1][0], sweep_lattice[1][0]),
                     (sweep_tree[2], sweep_lattice[2])]:
            assert_levels_match(a, b)
        sol_tree = op_L(g_tree, coeffs, grid, tree)
        sol_lattice = op_L(g_lattice, coeffs, grid, lattice)
        assert_levels_match(sol_tree.v, sol_lattice.v)
        assert_levels_match(sol_tree.g, sol_lattice.g)
        for k in (-1, 1):
            assert rel(norm_xk(sol_tree.v, k), norm_xk(sol_lattice.v, k)) <= 1e-12
        assert rel(norm_c0(sol_tree.v), norm_c0(sol_lattice.v)) <= 1e-12
        assert rel(norm_x0(sol_tree.v), norm_x0(sol_lattice.v)) <= 1e-12


@pytest.mark.parametrize("family, integrand", [("constant", _unit), ("drift-random", _gaussian)])
def test_op_L_root_is_the_tree_root_bit_for_bit(family, integrand):
    # feynman-kac-nonrandom, representation-random and density-64-65 read
    # op_L's root value on the lattice; a sweep reads the children in the
    # same order on both and the tridiagonal solve is elementwise across
    # systems, so their reports keep the tree's bits
    coeffs, grid, tree, lattice = setup(family, 41, 6)
    roots = [op_L(_dirichlet_profile(grid, t, integrand), coeffs, grid, t).v.levels[0]
             for t in (tree, lattice)]
    assert np.array_equal(*roots)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_solve_R_sweeps_match_the_tree(family):
    # solvability-R iterates on the lattice: from the zero start it stops at
    # the tree's sweep, with the tree's residuals to 1e-9 relative above a
    # round-off floor of ||phi|| (the last residual is round-off when a start
    # runs all N + 1 sweeps)
    coeffs, grid, tree, lattice = setup(family, 41, 10)
    runs = []
    for t in (tree, lattice):
        phi = smooth_random_field(grid, t, 2468)
        _, info = solve_R(phi, coeffs, grid, t, tol=1e-8, x0=SpaceTimeField.zeros(grid, t))
        runs.append((norm_x0(phi), info))
    (scale, on_tree), (_, on_lattice) = runs
    assert on_lattice["iterations"] == on_tree["iterations"]
    np.testing.assert_allclose(on_lattice["residual_history"], on_tree["residual_history"],
                               rtol=1e-9, atol=1e-15 * scale)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_forward_marches_are_the_tree_conditional_means(family):
    # forward solutions are path dependent on the tree; the lattice carries
    # their conditional means given w1
    coeffs, grid, tree, lattice = setup(family, 41, 8)
    h_tree, h_lattice = smooth_random_field(grid, tree, 5), smooth_random_field(grid, lattice, 5)
    for solve in (solve_T_star, solve_R_star, solve_L_star):
        assert_levels_match(solve(h_tree, coeffs, grid, tree),
                            solve(h_lattice, coeffs, grid, lattice))


@pytest.mark.parametrize("n_steps", [6, 10])
def test_duality_63_fine_pairing_matches_the_tree(n_steps):
    # duality-63 pairs its fine level on the lattice: lhs reads op_L's root
    # value and rhs pairs the density with phi, both w1-only
    cfg = default_config("duality-63")
    coeffs, grid = cfg.build_coeffs(), cfg.build_grid(cfg.params["fine_nx"])
    tree = cfg.build_tree(n_steps)
    lattice = build_lattice(n_steps, tree.horizon)
    on_tree = _duality_gap(cfg, coeffs, grid, tree)
    on_lattice = _duality_gap(cfg, coeffs, grid, lattice)
    for a, b in zip(on_tree[:2], on_lattice[:2]):
        assert rel(a, b) <= 1e-12
    # the lattice density is the tree density's conditional mean per state
    assert_levels_match(on_tree[3].p, on_lattice[3].p)


def test_lattice_levels_and_children():
    lattice = build_lattice(4, 1.0)
    assert [lattice.n_nodes(k) for k in range(5)] == [1, 2, 3, 4, 5]
    np.testing.assert_allclose(lattice.omega[4][:, 0], 0.5 * np.array([4, 2, 0, -2, -4]))
    nxt = np.arange(10.0).reshape(2, 5)
    np.testing.assert_array_equal(lattice.child(nxt, 1, 4), nxt[:, 1:])
    for b, sign in enumerate(lattice.digit_signs[:, 0]):
        step = lattice.child(lattice.omega[4].T, b, 4) - lattice.omega[3].T
        np.testing.assert_allclose(step, sign * lattice.sqdt)
    with pytest.raises(TreeError):
        build_lattice(0, 1.0)


def test_lattice_size_guard_edges():
    # (N+1)(N+2)/2 states against MAX_STATES = 131,071: 130,816 at N = 510
    lattice = build_lattice(510, 1.0)
    assert sum(lattice.n_nodes(k) for k in range(511)) == 130_816
    with pytest.raises(TreeError, match="131,328 states, past the size guard of 131,071"):
        build_lattice(511, 1.0)
    with pytest.raises(TreeError, match="size guard"):
        build_lattice(10**12, 1.0)


def test_fields_on_tree_and_lattice_do_not_mix():
    _, grid, tree, lattice = setup("drift-random", 21, 3)
    with pytest.raises(FieldError, match="different trees"):
        norm_x0(smooth_random_field(grid, tree, 1) - smooth_random_field(grid, lattice, 1))


# the entry points that need per-path values refuse a lattice -------------


def test_pair_x0_dual_refuses_a_lattice():
    _, grid, _, lattice = setup("drift-random", 21, 3)
    F = smooth_random_field(grid, lattice, 1)
    with pytest.raises(FieldError, match="per-path values"):
        pair_x0_dual(F, F)


def test_solve_density_refuses_a_lattice():
    coeffs, grid, _, lattice = setup("drift-random", 21, 3)
    p0 = np.zeros(grid.nx)
    p0[1:-1] = 1.0 / (grid.dx * grid.ni)
    with pytest.raises(ForwardSolverError, match="per-path values"):
        solve_density(p0, coeffs, grid, lattice)


def test_lattice_density_refuses_a_tree():
    coeffs, grid, tree, _ = setup("drift-random", 21, 3)
    p0 = np.zeros(grid.nx)
    p0[1:-1] = 1.0 / (grid.dx * grid.ni)
    with pytest.raises(ForwardSolverError, match="w1 lattice"):
        lattice_density(p0, coeffs, grid, tree)


def test_step_forward_refuses_a_lattice():
    coeffs, grid, _, lattice = setup("drift-random", 21, 3)
    state = ForwardState(values=np.zeros(grid.nx), node=TreeNode(0, 0))
    with pytest.raises(ForwardSolverError, match="per-path values"):
        step_forward(state, coeffs, None, None, [lattice.sqdt], grid, lattice)


def test_solve_backward_pathwise_refuses_a_lattice():
    coeffs, grid, _, lattice = setup("drift-random", 21, 3)
    with pytest.raises(TreeError, match="per-path values"):
        solve_backward_pathwise(SpaceTimeField.zeros(grid, lattice), coeffs, 0, grid, lattice)


def test_residual_bspde_refuses_a_lattice():
    coeffs, grid, _, lattice = setup("drift-random", 21, 3)
    g = smooth_random_field(grid, lattice, 1)
    with pytest.raises(TreeError, match="per-path values"):
        residual_bspde(op_L(g, coeffs, grid, lattice), g, coeffs, grid, lattice)
