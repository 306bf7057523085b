"""The w1 lattice against the scenario tree, at d = 1 and d = 2.

Every coefficient family and test field depends on the path only through
the first Wiener component, so on the lattice the level solvers give the
tree's values averaged over the nodes of each w1 state (j down steps of the
first component), and the pairings and norms the experiments report agree
with the tree's to round-off, whatever d is.  solve_density marches either
state space; the entry points that need per-path values refuse a lattice.
"""

import math

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
    make_family,
    op_L,
    residual_bspde,
    solve_backward_pathwise,
    solve_R,
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
    "constant": {"f0": 0.0},
    "drift-random": {"kappa": 0.25},
    "space-smooth": {"a": 0.3, "eps": 0.5},
}
# the diffusion columns per d: d = 2 keeps a nondegenerate tail column, so
# R*, L* and the density equation stay superparabolic
SIGMA = {1: [0.6, 0.8], 2: [0.6, 0.8, 0.5]}
FAMILY_CASES = [(family,) for family in sorted(FAMILIES)]


def by_d(d1, d2):
    """pytest params (d, *case): the d = 1 cases under their own ids, the
    d = 2 cases under ids that start with "d2"."""
    def name(case):
        return "-".join(map(str, case))

    return ([pytest.param(1, *case, id=name(case)) for case in d1]
            + [pytest.param(2, *case, id=f"d2-{name(case)}") for case in d2])


def setup(family, nx, n_steps, d=1):
    grid = build_grid(DomainSpec(0.0, 8.0, 1.0), nx)
    tree, lattice = build_tree(d, n_steps, 1.0), build_lattice(n_steps, 1.0)
    coeffs = make_family(family, {**FAMILIES[family], "sigma": SIGMA[d], "d": d})
    return coeffs, grid, tree, lattice


def node_states(tree, k):
    """The w1 state j of every level-k tree node: the down steps of component
    0, the set bits of its index at bit 0 of each d-bit digit (the popcount
    of n & 0x5555... at d = 2)."""
    mask = sum(1 << (tree.d * m) for m in range(k))
    return np.array([bin(n & mask).count("1") for n in range(tree.n_nodes(k))])


def per_state(field):
    """Tree field levels averaged over the nodes of each w1 state."""
    out = []
    for k, level in enumerate(field.levels):
        j = node_states(field.tree, k)
        out.append(np.stack([level[:, j == s].mean(axis=1) for s in range(k + 1)], axis=1))
    return out


def assert_levels_match(tree_field, lattice_field, rtol=1e-12):
    for k, (agg, lat) in enumerate(zip(per_state(tree_field), lattice_field.levels)):
        scale = max(np.abs(agg).max(), 1e-300)
        np.testing.assert_allclose(lat, agg, rtol=rtol, atol=rtol * scale, err_msg=f"level {k}")


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("d, nx, n_steps", by_d([(21, 3), (41, 6), (41, 8)],
                                                [(21, 3), (41, 6)]))
def test_adjoint_pairings_match_the_tree(family, d, nx, n_steps):
    # adjoint-suite and norm-bounds pair on the lattice at d = 2 as at d = 1:
    # the bounds are the same at both
    coeffs, grid, tree, lattice = setup(family, nx, n_steps, d)
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


@pytest.mark.parametrize("d, family", by_d(FAMILY_CASES, FAMILY_CASES))
def test_solve_R_sweeps_match_the_tree(d, family):
    # solvability-R iterates on the lattice: from the zero start it stops at
    # the tree's sweep, with the tree's residuals to 1e-9 relative above a
    # round-off floor of ||phi|| (the last residual is round-off when a start
    # runs all N + 1 sweeps); 10 steps at d = 1, 6 on the 4**N-leaf d = 2 tree
    coeffs, grid, tree, lattice = setup(family, 41, {1: 10, 2: 6}[d], d)
    runs = []
    for t in (tree, lattice):
        phi = smooth_random_field(grid, t, 2468)
        _, info = solve_R(phi, coeffs, grid, t, tol=1e-8, x0=SpaceTimeField.zeros(grid, t))
        runs.append((norm_x0(phi), info))
    (scale, on_tree), (_, on_lattice) = runs
    assert on_lattice["iterations"] == on_tree["iterations"]
    np.testing.assert_allclose(on_lattice["residual_history"], on_tree["residual_history"],
                               rtol=1e-9, atol=1e-15 * scale)


@pytest.mark.parametrize("d, family", by_d(FAMILY_CASES, FAMILY_CASES))
def test_forward_marches_are_the_tree_conditional_means(d, family):
    # forward solutions are path dependent on the tree; the lattice carries
    # their conditional means given w1, and at d = 2 the kicks of the second
    # component drop out of them
    coeffs, grid, tree, lattice = setup(family, 41, {1: 8, 2: 6}[d], d)
    h_tree, h_lattice = smooth_random_field(grid, tree, 5), smooth_random_field(grid, lattice, 5)
    for solve in (solve_T_star, solve_R_star, solve_L_star):
        assert_levels_match(solve(h_tree, coeffs, grid, tree),
                            solve(h_lattice, coeffs, grid, lattice))


@pytest.mark.parametrize("d, n_steps", by_d([(6,), (10,)], [(4,), (6,)]))
def test_duality_63_fine_pairing_matches_the_tree(d, n_steps):
    # duality-63 pairs its fine level on the lattice: lhs reads op_L's root
    # value and rhs pairs the density with phi, both w1-only; solve_density
    # marches the tree and the lattice alike
    cfg = default_config("duality-63", coefficients={"sigma": SIGMA[d], "d": d})
    coeffs, grid = cfg.build_coeffs(), cfg.build_grid(cfg.params["fine_nx"])
    tree = cfg.build_tree(n_steps)
    lattice = build_lattice(n_steps, tree.horizon)
    on_tree = _duality_gap(cfg, coeffs, grid, tree)
    on_lattice = _duality_gap(cfg, coeffs, grid, lattice)
    for a, b in zip(on_tree[:2], on_lattice[:2]):
        assert rel(a, b) <= 1e-12
    # the lattice density is the tree density's conditional mean per state
    assert_levels_match(on_tree[3].p, on_lattice[3].p)


@pytest.mark.parametrize("d, n_steps", [(1, 10), (2, 8)])
def test_tree_drift_and_fields_are_the_lattice_values_at_each_nodes_state(d, n_steps):
    # why the lattice is exact: coefficients and test fields read the path
    # only through w1, and a tree node's w1 is its lattice state's, so every
    # family's drift row and a field's column evaluated at each tree node's
    # own w1 are the lattice's at the node's j, bit for bit (at an
    # irrational sqrt(dt)): the rows the solvers gather by state and the
    # tree fields built from the lattice
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    def fn(x, t, w1):
        return np.sin(x) * np.tanh(w1) + t * w1

    for family in sorted(FAMILIES):
        coeffs, grid, tree, lattice = setup(family, 41, n_steps, d)
        on_tree = SpaceTimeField.from_function(grid, tree, fn)
        for k in range(n_steps + 1):
            j = node_states(tree, k)
            w1 = lattice.w1[k][j]  # each node's own w1, (n_nodes(k),)
            per_node = np.broadcast_to(coeffs.drift(grid.x_interior[None, :], k * tree.dt,
                                                    w1[:, None]), (tree.n_nodes(k), grid.ni))
            rows = np.broadcast_to(coeffs.drift_nodes(grid, lattice, k), (k + 1, grid.ni))
            assert np.array_equal(bits(per_node), bits(rows)[j]), (family, k)
            assert np.array_equal(bits(on_tree.levels[k]),
                                  bits(fn(grid.x[:, None], k * tree.dt, w1[None, :]))), k


@pytest.mark.parametrize("d, n_steps", by_d([(8,), (10,)], [(6,)]))
def test_tree_op_L_is_the_lattice_op_L_gathered(d, n_steps):
    # duality-63's coarse level solves op_L on the lattice and reads its tree
    # nodes by state: at d = 1 a sweep reads the children in the same order
    # on both and the tridiagonal solve is elementwise across systems, so v,
    # the first kernel and g gathered have the tree's bits; at d = 2 the
    # tree sums four children per node and the lattice merges two per state,
    # so they agree to round-off
    for family in sorted(FAMILIES):
        coeffs, grid, tree, lattice = setup(family, 41, n_steps, d)
        phi = smooth_random_field(grid, lattice, 6)
        on_tree = op_L(phi.on(tree), coeffs, grid, tree)
        on_lattice = op_L(phi, coeffs, grid, lattice)
        for a, b in [(on_tree.v, on_lattice.v), (on_tree.kernels[0], on_lattice.kernels[0]),
                     (on_tree.g, on_lattice.g)]:
            for k, (node, state) in enumerate(zip(a.levels, b.on(tree).levels)):
                if d == 1:
                    assert np.array_equal(node.view(np.uint64), state.view(np.uint64)), k
                else:
                    scale = max(np.abs(node).max(), 1e-300)
                    np.testing.assert_allclose(state, node, rtol=0, atol=1e-14 * scale)


def test_on_gathers_a_lattice_field_by_each_nodes_state():
    # on its own lattice a field is itself; on a tree, level k's column n is
    # state tree.states(k)[n], C-contiguous (an F-ordered gather moves a
    # norm's last bit); a tree field, or a lattice field on another time
    # grid, gathers onto nothing
    _, grid, tree, lattice = setup("drift-random", 21, 4, d=2)
    F = smooth_random_field(grid, lattice, 1)
    assert F.on(lattice) is F and F.on(tree.lattice) is F
    gathered = F.on(tree)
    assert gathered.tree is tree and gathered.grid is grid
    for k, level in enumerate(gathered.levels):
        assert level.flags["C_CONTIGUOUS"] and level.shape == (grid.nx, tree.n_nodes(k))
        assert np.array_equal(level, F.levels[k][:, node_states(tree, k)])
    for space in (build_tree(2, 5, 1.0), build_lattice(4, 2.0), build_tree(1, 4, 0.5)):
        with pytest.raises(FieldError, match="w1 lattice"):
            F.on(space)
    with pytest.raises(FieldError, match="w1 lattice"):
        gathered.on(tree)


def test_lattice_levels_and_children():
    lattice = build_lattice(4, 1.0)
    assert [lattice.n_nodes(k) for k in range(5)] == [1, 2, 3, 4, 5]
    np.testing.assert_allclose(lattice.w1[4], 0.5 * np.array([4, 2, 0, -2, -4]))
    nxt = np.arange(10.0).reshape(2, 5)
    np.testing.assert_array_equal(lattice.child(nxt, 1, 4), nxt[:, 1:])
    for b, sign in enumerate(lattice.digit_signs[:, 0]):
        step = lattice.child(lattice.w1[4][None, :], b, 4) - lattice.w1[3][None, :]
        np.testing.assert_allclose(step, sign * lattice.sqdt)
    with pytest.raises(TreeError):
        build_lattice(0, 1.0)


def test_lattice_weights_are_computed_once_per_level():
    # P_k(j) = C(k, j) / 2**k, the per-call expression's bits at every level
    # a lattice may hold, one read-only float64 array per level whichever
    # lattice asks: past level 67 the binomials outgrow int64, and an array
    # of them holds Python ints, which a level's dot product summed one by one
    lattice, other = build_lattice(510, 1.0), build_lattice(12, 3.0)
    for k in range(511):
        weights = lattice.weights(k)
        expected = np.array([math.comb(k, j) for j in range(k + 1)]) / 2.0**k
        assert np.array_equal(weights, expected) and not weights.flags.writeable
        assert weights.dtype == np.float64, k
        assert lattice.weights(k) is weights
        if k <= 12:
            assert other.weights(k) is weights


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
