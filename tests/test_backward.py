import numpy as np
import pytest

from spdelab import (
    DomainSpec,
    SpaceTimeField,
    TreeError,
    build_grid,
    build_lattice,
    build_tree,
    clark_decompose,
    cond_expect,
    make_family,
    op_L,
    residual_bspde,
    solve_backward_pathwise,
    solve_R,
)
from spdelab import backward
from spdelab.backward import BackwardSolution, ConvergenceError, backward_sweep
from spdelab.fields import inner_x0, norm_x0, norm_xk, pair_x0_dual, smooth_random_field
from spdelab.forward import (
    solve_B_star,
    solve_density,
    solve_G_star,
    solve_L_star,
    solve_R_star,
    solve_T_star,
)


def make_setup(nx=41, n_steps=5, horizon=1.0, family="drift-random", domain=(0.0, 1.0)):
    dom = DomainSpec(domain[0], domain[1], horizon)
    grid = build_grid(dom, nx)
    tree = build_tree(1, n_steps, horizon)
    if family == "drift-random":
        coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    else:
        coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    return dom, grid, tree, coeffs


def leaf_enumerated_U(g, coeffs, grid, tree):
    """Oracle: pathwise solves for every leaf, stacked (n_leaves, N+1, nx)."""
    return np.array([
        solve_backward_pathwise(g, coeffs, leaf, grid, tree)
        for leaf in range(tree.n_leaves)
    ])


def test_pathwise_zero_source():
    _, grid, tree, coeffs = make_setup()
    g = SpaceTimeField.zeros(grid, tree)
    U = solve_backward_pathwise(g, coeffs, 0, grid, tree)
    assert np.all(U == 0.0)


def test_pathwise_exit_time_oracle():
    # f=0, beta=1, g=1, T=4: U(x, 0) approaches x(1-x), the exit-time mean
    # of Brownian motion from the unit interval
    dom = DomainSpec(0.0, 1.0, 4.0)
    grid = build_grid(dom, 201)
    tree = build_tree(1, 8, 4.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    g = SpaceTimeField.from_function(grid, tree, lambda x, t, w1: np.ones_like(x) + 0 * w1)
    for lev in g.levels:
        lev[0] = lev[-1] = 0.0
    U = solve_backward_pathwise(g, coeffs, 0, grid, tree)
    exact = grid.x * (1.0 - grid.x)
    err = np.abs(U[0] - exact).max()
    assert err <= 0.02 * exact.max()


def test_pathwise_nonrandom_leaf_independent(nonrandom_field):
    _, grid, tree, coeffs = make_setup(family="constant")
    g = nonrandom_field(grid, tree, seed=3)
    U0 = solve_backward_pathwise(g, coeffs, 0, grid, tree)
    U1 = solve_backward_pathwise(g, coeffs, tree.n_leaves - 1, grid, tree)
    assert np.allclose(U0, U1, atol=1e-14)


def test_solve_backward_pathwise_rejects_bad_leaves():
    _, grid, tree, coeffs = make_setup()
    g = SpaceTimeField.zeros(grid, tree)
    with pytest.raises(TreeError, match="integer index"):
        solve_backward_pathwise(g, coeffs, np.arange(tree.n_steps + 1), grid, tree)
    with pytest.raises(TreeError, match="out of range"):
        solve_backward_pathwise(g, coeffs, tree.n_leaves, grid, tree)


def test_op_T_matches_leaf_enumeration():
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree, seed=7)
    v = backward_sweep(g, coeffs, grid, tree)[0]
    U = leaf_enumerated_U(g, coeffs, grid, tree)
    for k in (0, 2, tree.n_steps):
        expect = cond_expect(U[:, k, :], k, tree)
        assert np.max(np.abs(expect - v.levels[k].T)) < 1e-12


def test_op_T_zero_and_terminal():
    _, grid, tree, coeffs = make_setup()
    z = SpaceTimeField.zeros(grid, tree)
    v = backward_sweep(z, coeffs, grid, tree)[0]
    assert norm_x0(v) == 0.0
    g = smooth_random_field(grid, tree, seed=8)
    v = backward_sweep(g, coeffs, grid, tree)[0]
    assert np.all(v.levels[tree.n_steps] == 0.0)
    for lev in v.levels:
        assert np.all(lev[0] == 0.0) and np.all(lev[-1] == 0.0)


def test_op_G_is_clark_kernel_diagonal():
    # the kernels are the martingale-representation kernels of U(x, t, .)
    # on the diagonal: cross-check against clark_decompose of the
    # leaf-enumerated pathwise solutions at several (x, t)
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree, seed=9)
    X = backward_sweep(g, coeffs, grid, tree)[1]
    U = leaf_enumerated_U(g, coeffs, grid, tree)
    for k, ix in ((1, 11), (3, 25)):
        dec = clark_decompose(U[:, k, ix], tree)
        rec = dec.reconstruct(tree)
        assert np.max(np.abs(rec - U[:, k, ix])) <= 1e-12 * max(np.abs(U[:, k, ix]).max(), 1e-12)
        assert np.max(np.abs(dec.kernels[k][:, 0] - X[0].levels[k][ix])) < 1e-12


def test_op_G_vanishes_for_nonrandom_data(nonrandom_field):
    _, grid, tree, coeffs = make_setup(family="constant")
    g = nonrandom_field(grid, tree, seed=10)
    X = backward_sweep(g, coeffs, grid, tree)[1]
    assert norm_x0(X[0]) <= 1e-12 * norm_x0(g)


def test_op_G_zero_source():
    _, grid, tree, coeffs = make_setup()
    X = backward_sweep(SpaceTimeField.zeros(grid, tree), coeffs, grid, tree)[1]
    assert norm_x0(X[0]) == 0.0


def test_operators_linear():
    _, grid, tree, coeffs = make_setup()
    g1 = smooth_random_field(grid, tree, seed=11)
    g2 = smooth_random_field(grid, tree, seed=12)
    a, b = 0.7, -1.3
    combo = a * g1 + b * g2
    (vc, Xc, bc), (v1, X1, b1), (v2, X2, b2) = (
        backward_sweep(h, coeffs, grid, tree) for h in (combo, g1, g2))
    for lhs, r1, r2 in ((vc, v1, v2), (bc, b1, b2), (Xc[0], X1[0], X2[0])):
        rhs = a * r1 + b * r2
        assert norm_x0(lhs - rhs) <= 1e-10 * max(norm_x0(lhs), 1e-300)


def test_op_B_zero_cases(nonrandom_field):
    _, grid, tree, coeffs = make_setup(family="constant")
    g = nonrandom_field(grid, tree, seed=13)
    assert norm_x0(backward_sweep(g, coeffs, grid, tree)[2]) <= 1e-12 * norm_x0(g)
    _, grid, tree, coeffs = make_setup()
    assert norm_x0(backward_sweep(SpaceTimeField.zeros(grid, tree), coeffs, grid, tree)[2]) == 0.0


def test_op_B_nonzero_and_scales():
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree, seed=14)
    bg = backward_sweep(g, coeffs, grid, tree)[2]
    assert norm_x0(bg) > 0.0
    bg2 = backward_sweep(2.0 * g, coeffs, grid, tree)[2]
    assert norm_x0(bg2 - 2.0 * bg) <= 1e-10 * norm_x0(bg2)


@pytest.mark.parametrize("space", ["tree-d1", "tree-d2", "lattice"])
def test_op_B_is_nilpotent(space):
    # (B g)^k reads g only at levels after k, so B^N g == 0 bit for bit;
    # B^(N-1) g keeps level 0, so a zero B cannot pass
    dom = DomainSpec(0.0, 1.0, 1.0)
    grid = build_grid(dom, 41)
    d = 2 if space == "tree-d2" else 1
    tree = build_lattice(8, 1.0) if space == "lattice" else build_tree(d, 5, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.5, 0.5, 0.6], "d": d})
    g = smooth_random_field(grid, tree, seed=29)
    for _ in range(tree.n_steps - 1):
        g = backward_sweep(g, coeffs, grid, tree)[2]
    assert norm_x0(g) > 0.0
    assert all(not lev.any() for lev in g.levels[1:])
    g = backward_sweep(g, coeffs, grid, tree)[2]
    assert all(not lev.any() for lev in g.levels)


def test_solve_R_identity_when_B_vanishes(nonrandom_field):
    _, grid, tree, coeffs = make_setup(family="constant")
    phi = nonrandom_field(grid, tree, seed=15)
    g, info = solve_R(phi, coeffs, grid, tree)
    assert info["iterations"] == 1
    assert norm_x0(g - phi) <= 1e-12 * norm_x0(phi)


def test_solve_R_zero_input():
    _, grid, tree, coeffs = make_setup()
    g, info = solve_R(SpaceTimeField.zeros(grid, tree), coeffs, grid, tree)
    assert norm_x0(g) == 0.0 and info["iterations"] == 0


def test_solve_R_uniqueness_probe():
    # the zero start's first iterate is phi, so the second start is a field
    # independent of phi
    _, grid, tree, coeffs = make_setup()
    phi = smooth_random_field(grid, tree, seed=16)
    tol = 1e-9
    g_a, _ = solve_R(phi, coeffs, grid, tree, tol=tol, x0=SpaceTimeField.zeros(grid, tree))
    g_b, _ = solve_R(phi, coeffs, grid, tree, tol=tol,
                     x0=smooth_random_field(grid, tree, seed=(16, 1)))
    assert norm_x0(g_a - g_b) <= 10 * tol * norm_x0(phi)


def test_solve_R_residual_contract():
    _, grid, tree, coeffs = make_setup()
    phi = smooth_random_field(grid, tree, seed=17)
    g, info = solve_R(phi, coeffs, grid, tree, tol=1e-10)
    bg = backward_sweep(g, coeffs, grid, tree)[2]
    assert norm_x0(g + bg - phi) <= 1.0001 * 1e-10 * norm_x0(phi)
    assert info["residual_history"][0] > info["residual"]


def test_solve_R_nonconvergence_raises(monkeypatch):
    # a B that is not nilpotent (B g = 2 g) never settles: solve_R gives up
    # after N + 1 sweeps and blames B, not the drift
    monkeypatch.setattr(backward, "backward_sweep", lambda g, *_: (None, None, 2.0 * g))
    _, grid, tree, coeffs = make_setup()
    phi = smooth_random_field(grid, tree, seed=18)
    with pytest.raises(ConvergenceError, match="not causal") as err:
        solve_R(phi, coeffs, grid, tree)
    assert err.value.iterations == tree.n_steps + 1
    assert "drift" not in str(err.value)


def test_op_L_structure_and_exit_oracle():
    dom = DomainSpec(0.0, 1.0, 4.0)
    grid = build_grid(dom, 201)
    tree = build_tree(1, 8, 4.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    phi = SpaceTimeField.from_function(grid, tree, lambda x, t, w1: np.ones_like(x) + 0 * w1)
    for lev in phi.levels:
        lev[0] = lev[-1] = 0.0
    sol = op_L(phi, coeffs, grid, tree)
    assert isinstance(sol, BackwardSolution)
    exact = grid.x * (1 - grid.x)
    assert np.abs(sol.v.levels[0][:, 0] - exact).max() <= 0.02 * exact.max()
    # nonrandom data: L phi = plain backward solve of phi
    U = solve_backward_pathwise(phi, coeffs, 0, grid, tree)
    assert np.allclose(sol.v.levels[0][:, 0], U[0], atol=1e-9)
    assert norm_x0(sol.kernels[0]) <= 1e-12


def test_op_L_solves_I_plus_B_exactly():
    # op_L's back-substitution against the B g of backward_sweep, an
    # independent sweep, and against the undamped fixed point at a tight tolerance
    _, grid, tree, coeffs = make_setup()
    phi = smooth_random_field(grid, tree, seed=27)
    sol = op_L(phi, coeffs, grid, tree)
    residual = sol.g + backward_sweep(sol.g, coeffs, grid, tree)[2] - phi
    assert norm_x0(residual) <= 1e-12 * norm_x0(phi)
    g_iter, _ = solve_R(phi, coeffs, grid, tree, tol=1e-11)
    assert norm_x0(sol.g - g_iter) <= 1e-9 * norm_x0(sol.g)


def test_op_L_pair_is_the_sweep_of_R_phi():
    _, grid, tree, coeffs = make_setup()
    phi = smooth_random_field(grid, tree, seed=28)
    sol = op_L(phi, coeffs, grid, tree)
    v, kernels, _ = backward_sweep(sol.g, coeffs, grid, tree)
    for a, b in [(sol.v, v), (sol.kernels[0], kernels[0])]:
        assert norm_x0(a - b) <= 1e-14 * norm_x0(b)


def test_op_L_zero():
    _, grid, tree, coeffs = make_setup()
    sol = op_L(SpaceTimeField.zeros(grid, tree), coeffs, grid, tree)
    assert norm_x0(sol.v) == 0.0
    assert norm_x0(sol.kernels[0]) == 0.0


def test_residual_bspde_zero_solution():
    _, grid, tree, coeffs = make_setup()
    sol = BackwardSolution(
        v=SpaceTimeField.zeros(grid, tree),
        kernels=[SpaceTimeField.zeros(grid, tree)],
    )
    assert residual_bspde(sol, SpaceTimeField.zeros(grid, tree), coeffs, grid, tree) == 0.0


def test_residual_bspde_refinement_halving(nonrandom_field):
    # nonrandom data: the trapezoidal residual is O(dt), halving when dt and
    # dx^2 are halved together
    def resid(nx, n_steps):
        dom = DomainSpec(0.0, 1.0, 1.0)
        grid = build_grid(dom, nx)
        tree = build_tree(1, n_steps, 1.0)
        coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
        g = nonrandom_field(grid, tree, seed=20)
        v, kernels, _ = backward_sweep(g, coeffs, grid, tree)
        sol = BackwardSolution(v=v, kernels=kernels)
        return residual_bspde(sol, g, coeffs, grid, tree)

    coarse = resid(29, 4)
    fine = resid(41, 8)
    assert coarse > 0
    assert fine <= 0.65 * coarse


def test_residual_bspde_detects_corrupted_kernel():
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree, seed=21)
    v, kernels, _ = backward_sweep(g, coeffs, grid, tree)
    base = residual_bspde(BackwardSolution(v=v, kernels=kernels), g, coeffs, grid, tree)
    corrupted = [kernels[0].copy()]
    for k in range(tree.n_steps):
        corrupted[0].levels[k][1:-1] += 1.0
    bad = residual_bspde(BackwardSolution(v=v, kernels=corrupted), g, coeffs, grid, tree)
    assert bad - base > 0.1


def test_martingale_property_of_conditional_expectations():
    # level-s conditional expectations of U(x,t,.) form a martingale whose
    # increments reproduce the Clark kernels; reconstruction is exact
    _, grid, tree, coeffs = make_setup(n_steps=4)
    g = smooth_random_field(grid, tree, seed=22)
    U = leaf_enumerated_U(g, coeffs, grid, tree)
    k, ix = 2, 17
    X = U[:, k, ix]
    means = [cond_expect(X, s, tree) for s in range(tree.n_steps + 1)]
    dec = clark_decompose(X, tree)
    for s in range(tree.n_steps):
        child = means[s + 1].reshape(-1, tree.branching)
        increments = child - means[s][:, None]
        predicted = dec.kernels[s][:, 0:1] * (tree.digit_signs[:, 0] * tree.sqdt)[None, :]
        assert np.max(np.abs(increments - predicted)) < 1e-12


def test_norm_boundedness_probe():
    # ratio ||T g||_X1 / ||g||_X-1 stays bounded across refinement
    ratios = []
    for nx, n_steps in ((41, 4), (81, 8)):
        dom = DomainSpec(0.0, 1.0, 1.0)
        grid = build_grid(dom, nx)
        tree = build_tree(1, n_steps, 1.0)
        coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
        g = smooth_random_field(grid, tree, seed=23)
        v = backward_sweep(g, coeffs, grid, tree)[0]
        ratios.append(norm_xk(v, 1) / norm_xk(g, -1))
    assert ratios[1] <= 1.5 * ratios[0]


def test_exact_discrete_duality_pairing():
    # with the Ito-predictable dual march, the cell-aligned pairing makes the
    # discrete (G, G*) pair exactly adjoint, and the (T, T*) pair exactly
    # adjoint whenever the source carries no time variation (the new-time
    # drift evaluation is then immaterial): sharp internal consistency checks
    # of the two engines against each other
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree, seed=24)
    h = smooth_random_field(grid, tree, seed=25)
    from spdelab.forward import solve_G_star

    X = backward_sweep(g, coeffs, grid, tree)[1]
    q = solve_G_star(0, h, coeffs, grid, tree)
    lhs = inner_x0(X[0], h)
    rhs = pair_x0_dual(g, q)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-6)

    h_static = SpaceTimeField.from_function(
        grid, tree, lambda x, t, w1: np.sin(np.pi * x) + 0.0 * w1
    )
    v = backward_sweep(g, coeffs, grid, tree)[0]
    pi = solve_T_star(h_static, coeffs, grid, tree)
    lhs = inner_x0(v, h_static)
    rhs = pair_x0_dual(g, pi)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_solver_levels_are_x_major_and_c_contiguous():
    # every tree solver hands back levels of shape (nx, n_nodes(k)) that own
    # a C-contiguous layout, backward and forward alike
    _, grid, tree, coeffs = make_setup(n_steps=4)
    g = smooth_random_field(grid, tree, seed=29)
    v, kernels, bg = backward_sweep(g, coeffs, grid, tree)
    sol = op_L(g, coeffs, grid, tree)
    p0 = np.zeros(grid.nx)
    p0[1:-1] = 1.0 / (grid.dx * grid.ni)
    fields = [v, *kernels, bg, sol.v, *sol.kernels, sol.g,
              solve_T_star(g, coeffs, grid, tree), solve_G_star(0, g, coeffs, grid, tree),
              solve_B_star(g, coeffs, grid, tree), solve_R_star(g, coeffs, grid, tree),
              solve_L_star(g, coeffs, grid, tree), solve_density(p0, coeffs, grid, tree).p]
    for field in fields:
        for k, level in enumerate(field.levels):
            assert level.shape == (grid.nx, tree.n_nodes(k))
            assert level.flags["C_CONTIGUOUS"]
