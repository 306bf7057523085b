"""The w1 lattice against the scenario tree, at d = 1 and d = 2.

Every coefficient family and test field depends on the path only through
the first Wiener component, so every backward sweep and forward dual solves
on the lattice alone and refuses a tree: the lattice backward outputs,
gathered onto a tree by each node's state, are the node values of the
leaf-enumerated pathwise solutions, the lattice duals are the means over
each w1 state of the tree duals stepped edge by edge (both oracles in
tests/oracles.py), and the pairings and norms the experiments report agree
with the tree's to round-off, whatever d is.  solve_density marches either
state space; pair_x0_dual, which needs per-path values, refuses a lattice.
"""

import math

import numpy as np
import pytest

from spdelab import (
    DomainSpec,
    SpaceTimeField,
    TreeError,
    build_grid,
    build_lattice,
    build_tree,
    make_family,
    op_L,
    solve_B_star,
    solve_duals,
    solve_G_star,
    solve_R,
)
from spdelab.backward import backward_sweep
from spdelab.fields import (FieldError, inner_x0, norm_c0, norm_x0, norm_xk, pair_x0_dual,
                            smooth_random_field)
from spdelab.forward import solve_L_star, solve_R_star, solve_T_star
from spdelab.harness import (
    _adjoint_pairings,
    _dirichlet_profile,
    _duality_gap,
    _unit,
    default_config,
)
from oracles import assert_gathered, enumerated_primals, solve_backward_pathwise, stepped_duals

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


# the oracles' trees: the pathwise solves and step_forward visit every node
# of 2**(d N) leaves
ORACLE_STEPS = {1: 4, 2: 2}


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
    # the bounds are the same at both.  Each pairing, with the uniform node
    # weights of the tree, of the fields gathered onto it is the lattice
    # pairing with binomial state weights: a primal is its state's value at
    # every node, and a dual meets w1 fields only through its conditional
    # means given w1, which the lattice dual holds (the step_forward oracle
    # below)
    coeffs, grid, tree, lattice = setup(family, nx, n_steps, d)
    seed_pair = ((11, 0), (11, 1))
    pairs, scale = _adjoint_pairings(coeffs, grid, lattice, seed_pair)
    g, h = (smooth_random_field(grid, lattice, seed) for seed in seed_pair)
    duals = solve_duals(h, coeffs, grid, lattice)
    v, kernels, bg, sol = backward_sweep(g, coeffs, grid, lattice, phi=g)
    primals = {"T": v, "G": kernels[0], "B": bg, "R": sol.g, "L": sol.v}
    g_tree, h_tree = g.on(tree), h.on(tree)
    assert rel(scale, norm_x0(g_tree) * norm_x0(h_tree)) <= 1e-13
    assert sorted(pairs) == sorted("TGBRL")
    for k, (primal, dual) in pairs.items():
        assert rel(primal, inner_x0(primals[k].on(tree), h_tree)) <= 1e-13, k
        assert rel(dual, inner_x0(g_tree, duals[k].on(tree))) <= 1e-13, k


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_backward_outputs_are_the_tree_values_per_state(family):
    # T g, G g, B g and op_L on the lattice, gathered onto the tree, are the
    # leaf-enumerated node values, and the norms of the gathered fields,
    # with uniform node weights, are the lattice norms
    coeffs, grid, tree, lattice = setup(family, 31, ORACLE_STEPS[1])
    g = smooth_random_field(grid, lattice, 3)
    v, kernels, bg = backward_sweep(g, coeffs, grid, lattice)
    T, X, B = enumerated_primals(g.on(tree), coeffs, grid, tree)
    for field, oracle in ((v, T), (kernels[0], X[0]), (bg, B)):
        assert_gathered(field, oracle, tree)
    sol = op_L(g, coeffs, grid, lattice)
    assert_gathered(sol.v, enumerated_primals(sol.g.on(tree), coeffs, grid, tree)[0], tree)
    on_tree = sol.v.on(tree)
    for k in (-1, 1):
        assert rel(norm_xk(on_tree, k), norm_xk(sol.v, k)) <= 1e-12
    assert rel(norm_c0(on_tree), norm_c0(sol.v)) <= 1e-12
    assert rel(norm_x0(on_tree), norm_x0(sol.v)) <= 1e-12


@pytest.mark.parametrize("family, integrand", [("constant", _unit)])
def test_op_L_root_is_the_tree_root_bit_for_bit(family, integrand):
    # feynman-kac-nonrandom reads op_L's root value on the lattice: for its
    # nonrandom data the kernels vanish exactly, R phi = phi, and the sweep
    # makes the pathwise solve's operations, so the root has the bits of
    # the pathwise solution to every leaf
    coeffs, grid, tree, lattice = setup(family, 41, 6)
    root = op_L(_dirichlet_profile(grid, lattice, integrand), coeffs, grid, lattice).v.levels[0]
    phi = _dirichlet_profile(grid, tree, integrand)
    for leaf in (0, 37, tree.n_leaves - 1):
        U = solve_backward_pathwise(phi, coeffs, leaf, grid, tree)
        assert np.array_equal(root[:, 0], U[0]), leaf


@pytest.mark.parametrize("d, family", by_d(FAMILY_CASES, FAMILY_CASES))
def test_solve_R_sweeps_match_the_tree(d, family):
    # solvability-R iterates on the lattice: from the zero start the
    # residual history is the Neumann series norms ||B^n phi||, here of the
    # leaf-enumerated B iterated on the tree, to 1e-9 relative above a
    # round-off floor of ||phi||
    coeffs, grid, tree, lattice = setup(family, 21, ORACLE_STEPS[d], d)
    phi = smooth_random_field(grid, lattice, 2468)
    _, info = solve_R(phi, coeffs, grid, lattice, tol=1e-8,
                      x0=SpaceTimeField.zeros(grid, lattice))
    iterate, norms = phi.on(tree), []
    for _ in range(info["iterations"]):
        norms.append(norm_x0(iterate))
        iterate = SpaceTimeField(grid, tree, enumerated_primals(iterate, coeffs, grid, tree)[2])
    assert info["iterations"] == len(info["residual_history"]) <= tree.n_steps + 1
    np.testing.assert_allclose(info["residual_history"], norms, rtol=1e-9,
                               atol=1e-15 * norm_x0(phi))


@pytest.mark.parametrize("d, family", by_d(FAMILY_CASES, FAMILY_CASES))
def test_forward_marches_are_the_tree_conditional_means(d, family):
    # forward solutions are path dependent on the tree; the lattice carries
    # their conditional means given w1 (the tree duals stepped node by node
    # with step_forward, averaged per state), and at d = 2 the kicks of the
    # second component drop out of them
    coeffs, grid, tree, lattice = setup(family, 21, ORACLE_STEPS[d], d)
    h = smooth_random_field(grid, lattice, 5)
    stepped = stepped_duals(h, coeffs, grid, tree, "TRL")
    for name, solve in (("T", solve_T_star), ("R", solve_R_star), ("L", solve_L_star)):
        assert_levels_match(SpaceTimeField(grid, tree, stepped[name]),
                            solve(h, coeffs, grid, lattice))


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


# the solvers of w1 data refuse a tree; the entry points that need
# per-path values refuse a lattice -------------------------------------------


LATTICE_SOLVERS = {
    "backward_sweep": lambda f, c, g, t: backward_sweep(f, c, g, t),
    "op_L": op_L,
    "solve_R": solve_R,
    "solve_duals": solve_duals,
    "solve_T_star": solve_T_star,
    "solve_G_star": lambda f, c, g, t: solve_G_star(0, f, c, g, t),
    "solve_B_star": solve_B_star,
    "solve_R_star": solve_R_star,
    "solve_L_star": solve_L_star,
}


@pytest.mark.parametrize("name", LATTICE_SOLVERS)
def test_every_lattice_solver_refuses_a_tree(name):
    coeffs, grid, tree, _ = setup("drift-random", 21, 3, d=2)
    field = smooth_random_field(grid, tree, 1)
    with pytest.raises(TreeError, match=rf"^{name} solves on the w1 lattice: .*\.on\(tree\)"):
        LATTICE_SOLVERS[name](field, coeffs, grid, tree)


def test_pair_x0_dual_refuses_a_lattice():
    _, grid, _, lattice = setup("drift-random", 21, 3)
    F = smooth_random_field(grid, lattice, 1)
    with pytest.raises(FieldError, match="per-path values"):
        pair_x0_dual(F, F)
