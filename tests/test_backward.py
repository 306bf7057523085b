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
from oracles import (
    assert_gathered,
    enumerated_primals,
    leaf_enumerated_U,
    sine_solution,
    stepped_duals,
)


def make_setup(nx=41, n_steps=5, horizon=1.0, family="drift-random", domain=(0.0, 1.0)):
    """(domain, grid, d = 1 tree, coeffs); the operators solve on tree.lattice."""
    dom = DomainSpec(domain[0], domain[1], horizon)
    grid = build_grid(dom, nx)
    tree = build_tree(1, n_steps, horizon)
    if family == "drift-random":
        coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    else:
        coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    return dom, grid, tree, coeffs


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
    # T g on the lattice, gathered onto the tree, is the conditional mean of
    # the pathwise solutions to every leaf
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree.lattice, seed=7)
    v = backward_sweep(g, coeffs, grid, tree.lattice)[0].on(tree)
    U = leaf_enumerated_U(g.on(tree), coeffs, grid, tree)
    for k in (0, 2, tree.n_steps):
        expect = cond_expect(U[:, k, :], k, tree)
        assert np.max(np.abs(expect - v.levels[k].T)) < 1e-12


def test_op_T_zero_and_terminal():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    z = SpaceTimeField.zeros(grid, lattice)
    v = backward_sweep(z, coeffs, grid, lattice)[0]
    assert norm_x0(v) == 0.0
    g = smooth_random_field(grid, lattice, seed=8)
    v = backward_sweep(g, coeffs, grid, lattice)[0]
    assert np.all(v.levels[lattice.n_steps] == 0.0)
    for lev in v.levels:
        assert np.all(lev[0] == 0.0) and np.all(lev[-1] == 0.0)


def test_op_G_is_clark_kernel_diagonal():
    # the kernels are the martingale-representation kernels of U(x, t, .)
    # on the diagonal: the lattice kernel, gathered onto the tree, against
    # clark_decompose of the leaf-enumerated pathwise solutions at several
    # (x, t)
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree.lattice, seed=9)
    X = backward_sweep(g, coeffs, grid, tree.lattice)[1][0].on(tree)
    U = leaf_enumerated_U(g.on(tree), coeffs, grid, tree)
    for k, ix in ((1, 11), (3, 25)):
        dec = clark_decompose(U[:, k, ix], tree)
        rec = dec.reconstruct(tree)
        assert np.max(np.abs(rec - U[:, k, ix])) <= 1e-12 * max(np.abs(U[:, k, ix]).max(), 1e-12)
        assert np.max(np.abs(dec.kernels[k][:, 0] - X.levels[k][ix])) < 1e-12


# the oracle cases: each family at d = 1 and d = 2 on a small tree (the
# pathwise solves and Clark decompositions enumerate 2**(d N) leaves)
ORACLE_FAMILIES = {
    "constant": {"f0": 0.3},
    "drift-random": {"kappa": 0.25},
    "space-smooth": {"a": 0.3, "eps": 0.5},
}
ORACLE_TREES = {1: 4, 2: 3}


def oracle_case(d, family, nx=31):
    grid = build_grid(DomainSpec(0.0, 1.0, 1.0), nx)
    coeffs = make_family(family, {**ORACLE_FAMILIES[family], "sigma": [0.6, 0.8, 0.5][: d + 1],
                                  "d": d})
    return coeffs, grid, build_tree(d, ORACLE_TREES[d], 1.0)


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
@pytest.mark.parametrize("d", [1, 2])
def test_gathered_operators_match_leaf_enumeration(d, family):
    # T g, the first kernel, B g and L phi solved on the lattice and gathered
    # onto the tree are the node values of cond_expect and clark_decompose
    # of the pathwise solutions to every leaf; at d = 2 the second
    # component's kernel of such data is zero
    coeffs, grid, tree = oracle_case(d, family)
    g = smooth_random_field(grid, tree.lattice, seed=31)
    phi = smooth_random_field(grid, tree.lattice, seed=32)
    v, kernels, bg, sol = backward_sweep(g, coeffs, grid, tree.lattice, phi)
    T, X, B = enumerated_primals(g.on(tree), coeffs, grid, tree)
    assert_gathered(v, T, tree, what="T g")
    assert_gathered(kernels[0], X[0], tree, what="X_1")
    assert_gathered(bg, B, tree, what="B g")
    for other in X[1:]:
        assert max(np.abs(level).max() for level in other) <= 1e-12 * np.abs(X[0][0]).max()
    # L phi = T R phi: v and its kernel are those of g = R phi, and R phi is
    # the fixed point phi - B R phi of the enumerated B
    T, X, B = enumerated_primals(sol.g.on(tree), coeffs, grid, tree)
    assert_gathered(sol.v, T, tree, what="L phi")
    assert_gathered(sol.kernels[0], X[0], tree, what="L phi's X_1")
    assert_gathered(sol.g, [p - b for p, b in zip(phi.on(tree).levels, B)], tree, what="R phi")


# the constant family's T g, L g and T* g against the sine-basis closed form
# for data that do not read the path: feynman-kac-nonrandom's defaults (nx
# 201, N 8 over 4, f0 0), a drift of either sign and a coarser grid.  The
# solves and the sums over the modes round at up to 3e-13 of the peak
# (6.2e-14 against feynman-kac-nonrandom's v_mid of 0.24999)
@pytest.mark.parametrize("nx, n_steps, horizon, f0", [
    (201, 8, 4.0, 0.0), (101, 12, 1.0, 0.7), (41, 5, 2.0, -0.4)])
def test_lattice_sweep_matches_the_sine_oracle(nx, n_steps, horizon, f0):
    grid = build_grid(DomainSpec(0.0, 1.0, horizon), nx)
    lattice = build_lattice(n_steps, horizon)
    coeffs = make_family("constant", {"f0": f0, "sigma": [1.0]})
    profile = 1.0 + np.sin(3 * np.pi * grid.x) * grid.x
    profile[[0, -1]] = 0.0
    g = SpaceTimeField.from_function(grid, lattice, lambda x, t, w1: profile[:, None] + 0 * w1)
    solved = {"T": backward_sweep(g, coeffs, grid, lattice)[0],
              "L": op_L(g, coeffs, grid, lattice).v,
              "T*": solve_T_star(g, coeffs, grid, lattice)}
    for name, field in solved.items():
        exact = [sine_solution(grid, f0, coeffs.b_total, lattice.dt,
                               k if name == "T*" else n_steps - k, profile, dual=name == "T*")
                 for k in range(n_steps + 1)]
        bound = 1e-12 * max(np.abs(level).max() for level in exact)
        for k, level in enumerate(field.levels):
            assert np.abs(level - exact[k][:, None]).max() <= bound, (name, k)


def test_op_G_vanishes_for_nonrandom_data(nonrandom_field):
    _, grid, tree, coeffs = make_setup(family="constant")
    g = nonrandom_field(grid, tree.lattice, seed=10)
    X = backward_sweep(g, coeffs, grid, tree.lattice)[1]
    assert norm_x0(X[0]) <= 1e-12 * norm_x0(g)


def test_op_G_zero_source():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    X = backward_sweep(SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)[1]
    assert norm_x0(X[0]) == 0.0


def test_operators_linear():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    g1 = smooth_random_field(grid, lattice, seed=11)
    g2 = smooth_random_field(grid, lattice, seed=12)
    a, b = 0.7, -1.3
    combo = a * g1 + b * g2
    (vc, Xc, bc), (v1, X1, b1), (v2, X2, b2) = (
        backward_sweep(h, coeffs, grid, lattice) for h in (combo, g1, g2))
    for lhs, r1, r2 in ((vc, v1, v2), (bc, b1, b2), (Xc[0], X1[0], X2[0])):
        rhs = a * r1 + b * r2
        assert norm_x0(lhs - rhs) <= 1e-10 * max(norm_x0(lhs), 1e-300)


def test_op_B_zero_cases(nonrandom_field):
    _, grid, tree, coeffs = make_setup(family="constant")
    g = nonrandom_field(grid, tree.lattice, seed=13)
    assert norm_x0(backward_sweep(g, coeffs, grid, tree.lattice)[2]) <= 1e-12 * norm_x0(g)
    _, grid, tree, coeffs = make_setup()
    zero = SpaceTimeField.zeros(grid, tree.lattice)
    assert norm_x0(backward_sweep(zero, coeffs, grid, tree.lattice)[2]) == 0.0


def test_op_B_nonzero_and_scales():
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree.lattice, seed=14)
    bg = backward_sweep(g, coeffs, grid, tree.lattice)[2]
    assert norm_x0(bg) > 0.0
    bg2 = backward_sweep(2.0 * g, coeffs, grid, tree.lattice)[2]
    assert norm_x0(bg2 - 2.0 * bg) <= 1e-10 * norm_x0(bg2)


@pytest.mark.parametrize("space", ["tree-d1", "tree-d2", "lattice"])
def test_op_B_is_nilpotent(space):
    # (B g)^k reads g only at levels after k, so B^N g == 0 bit for bit;
    # B^(N-1) g keeps level 0, so a zero B cannot pass.  In the tree cases
    # each iterate, gathered onto the d = 1 or d = 2 tree, is the
    # leaf-enumerated B of the last one
    grid = build_grid(DomainSpec(0.0, 1.0, 1.0), 31)
    d = 2 if space == "tree-d2" else 1
    tree = None if space == "lattice" else build_tree(d, ORACLE_TREES[d], 1.0)
    lattice = build_lattice(8, 1.0) if tree is None else tree.lattice
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.5, 0.5, 0.6], "d": d})
    g = smooth_random_field(grid, lattice, seed=29)
    scale = np.abs(backward_sweep(g, coeffs, grid, lattice)[2].levels[0]).max()
    for _ in range(lattice.n_steps):
        bg = backward_sweep(g, coeffs, grid, lattice)[2]
        if tree is not None:
            assert_gathered(bg, enumerated_primals(g.on(tree), coeffs, grid, tree)[2], tree,
                            scale=scale)
        g, last = bg, g
    assert norm_x0(last) > 0.0
    assert all(not lev.any() for lev in last.levels[1:])
    assert all(not lev.any() for lev in g.levels)


def test_solve_R_identity_when_B_vanishes(nonrandom_field):
    _, grid, tree, coeffs = make_setup(family="constant")
    phi = nonrandom_field(grid, tree.lattice, seed=15)
    g, info = solve_R(phi, coeffs, grid, tree.lattice)
    assert info["iterations"] == 1
    assert norm_x0(g - phi) <= 1e-12 * norm_x0(phi)


def test_solve_R_zero_input():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    g, info = solve_R(SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    assert norm_x0(g) == 0.0 and info["iterations"] == 0


def test_solve_R_uniqueness_probe():
    # the zero start's first iterate is phi, so the second start is a field
    # independent of phi
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    phi = smooth_random_field(grid, lattice, seed=16)
    tol = 1e-9
    g_a, _ = solve_R(phi, coeffs, grid, lattice, tol=tol, x0=SpaceTimeField.zeros(grid, lattice))
    g_b, _ = solve_R(phi, coeffs, grid, lattice, tol=tol,
                     x0=smooth_random_field(grid, lattice, seed=(16, 1)))
    assert norm_x0(g_a - g_b) <= 10 * tol * norm_x0(phi)


def test_solve_R_residual_contract():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    phi = smooth_random_field(grid, lattice, seed=17)
    g, info = solve_R(phi, coeffs, grid, lattice, tol=1e-10)
    bg = backward_sweep(g, coeffs, grid, lattice)[2]
    assert norm_x0(g + bg - phi) <= 1.0001 * 1e-10 * norm_x0(phi)
    assert info["residual_history"][0] > info["residual"]


def test_solve_R_nonconvergence_raises(monkeypatch):
    # a B that is not nilpotent (B g = 2 g) never settles: solve_R gives up
    # after N + 1 sweeps and blames B, not the drift
    monkeypatch.setattr(backward, "backward_sweep", lambda g, *_: (None, None, 2.0 * g))
    _, grid, tree, coeffs = make_setup()
    phi = smooth_random_field(grid, tree.lattice, seed=18)
    with pytest.raises(ConvergenceError, match="not causal") as err:
        solve_R(phi, coeffs, grid, tree.lattice)
    assert err.value.iterations == tree.n_steps + 1
    assert "drift" not in str(err.value)


def test_op_L_structure_and_exit_oracle():
    dom = DomainSpec(0.0, 1.0, 4.0)
    grid = build_grid(dom, 201)
    tree = build_tree(1, 8, 4.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    phi = SpaceTimeField.from_function(grid, tree.lattice,
                                       lambda x, t, w1: np.ones_like(x) + 0 * w1)
    for lev in phi.levels:
        lev[0] = lev[-1] = 0.0
    sol = op_L(phi, coeffs, grid, tree.lattice)
    assert isinstance(sol, BackwardSolution)
    exact = grid.x * (1 - grid.x)
    assert np.abs(sol.v.levels[0][:, 0] - exact).max() <= 0.02 * exact.max()
    # nonrandom data: L phi = plain backward solve of phi
    U = solve_backward_pathwise(phi.on(tree), coeffs, 0, grid, tree)
    assert np.allclose(sol.v.levels[0][:, 0], U[0], atol=1e-9)
    assert norm_x0(sol.kernels[0]) <= 1e-12


# op_L's exactness cases: the w1 lattice under d = 1 and d = 2
# coefficients, for each coefficient family
OP_L_FAMILIES = ORACLE_FAMILIES


def op_L_cases(seed):
    """(case, phi, op_L's solution, coeffs, grid, lattice) per family and d."""
    grid = build_grid(DomainSpec(0.0, 1.0, 1.0), 41)
    lattice = build_lattice(5, 1.0)
    phi = smooth_random_field(grid, lattice, seed)
    for d in (1, 2):
        for family, params in OP_L_FAMILIES.items():
            coeffs = make_family(family, {**params, "sigma": [0.6, 0.8, 0.5][: d + 1], "d": d})
            yield (family, d), phi, op_L(phi, coeffs, grid, lattice), coeffs, grid, lattice


def test_op_L_solves_I_plus_B_exactly():
    # op_L's back-substitution is an exact fixed point of g = phi - B g at
    # every level, with the B g of backward_sweep, an independent sweep
    for case, phi, sol, coeffs, grid, lattice in op_L_cases(seed=27):
        bg = backward_sweep(sol.g, coeffs, grid, lattice)[2]
        for k, (g, p, b) in enumerate(zip(sol.g.levels, phi.levels, bg.levels)):
            assert np.array_equal(g, p - b), (case, k)
    # and it is the undamped fixed point, at a tight tolerance
    _, grid, tree, coeffs = make_setup()
    phi = smooth_random_field(grid, tree.lattice, seed=27)
    g_iter, _ = solve_R(phi, coeffs, grid, tree.lattice, tol=1e-11)
    g = op_L(phi, coeffs, grid, tree.lattice).g
    assert norm_x0(g - g_iter) <= 1e-9 * norm_x0(g)


def test_op_L_pair_is_the_sweep_of_R_phi():
    # v and the kernel are the bits of the sweep of g = R phi
    for case, _, sol, coeffs, grid, lattice in op_L_cases(seed=28):
        v, kernels, _ = backward_sweep(sol.g, coeffs, grid, lattice)
        assert len(sol.kernels) == len(kernels) == 1, case
        for a, b in [(sol.v, v), *zip(sol.kernels, kernels)]:
            for k, (x, y) in enumerate(zip(a.levels, b.levels)):
                assert np.array_equal(x, y), (case, k)


def test_op_L_zero():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    sol = op_L(SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    assert norm_x0(sol.v) == 0.0
    assert norm_x0(sol.kernels[0]) == 0.0


def test_residual_bspde_zero_solution():
    _, grid, tree, coeffs = make_setup()
    sol = BackwardSolution(
        v=SpaceTimeField.zeros(grid, tree),
        kernels=[SpaceTimeField.zeros(grid, tree)],
    )
    assert residual_bspde(sol, SpaceTimeField.zeros(grid, tree), coeffs, grid, tree) == 0.0


def gathered_solution(g, coeffs, grid, tree):
    """T g and G g solved on the lattice, gathered onto the d = 1 tree."""
    v, kernels, _ = backward_sweep(g, coeffs, grid, tree.lattice)
    return BackwardSolution(v=v.on(tree), kernels=[kernels[0].on(tree)])


def test_residual_bspde_refinement_halving(nonrandom_field):
    # nonrandom data: the trapezoidal residual is O(dt), halving when dt and
    # dx^2 are halved together
    def resid(nx, n_steps):
        dom = DomainSpec(0.0, 1.0, 1.0)
        grid = build_grid(dom, nx)
        tree = build_tree(1, n_steps, 1.0)
        coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
        g = nonrandom_field(grid, tree.lattice, seed=20)
        return residual_bspde(gathered_solution(g, coeffs, grid, tree), g.on(tree), coeffs,
                              grid, tree)

    coarse = resid(29, 4)
    fine = resid(41, 8)
    assert coarse > 0
    assert fine <= 0.65 * coarse


def test_residual_bspde_detects_corrupted_kernel():
    _, grid, tree, coeffs = make_setup()
    g = smooth_random_field(grid, tree.lattice, seed=21)
    sol = gathered_solution(g, coeffs, grid, tree)
    g = g.on(tree)
    base = residual_bspde(sol, g, coeffs, grid, tree)
    corrupted = [sol.kernels[0].copy()]
    for k in range(tree.n_steps):
        corrupted[0].levels[k][1:-1] += 1.0
    bad = residual_bspde(BackwardSolution(v=sol.v, kernels=corrupted), g, coeffs, grid, tree)
    assert bad - base > 0.1


def test_residual_bspde_reads_the_one_kernel_of_a_gathered_solve_at_d2():
    # on a d = 2 tree the lattice solve gathered carries X_1 alone; the
    # second component's kernel of w1 data is zero, so the residual is that
    # of an explicit zero X_2, and a corrupted X_1 still shows
    coeffs, grid, tree = oracle_case(2, "drift-random")
    g = smooth_random_field(grid, tree.lattice, seed=33)
    v, kernels, _ = backward_sweep(g, coeffs, grid, tree.lattice)
    v, x1, g = v.on(tree), kernels[0].on(tree), g.on(tree)
    zero = SpaceTimeField.zeros(grid, tree)
    one = residual_bspde(BackwardSolution(v=v, kernels=[x1]), g, coeffs, grid, tree)
    both = residual_bspde(BackwardSolution(v=v, kernels=[x1, zero]), g, coeffs, grid, tree)
    assert one == both > 0.0
    corrupted = x1.copy()
    for level in corrupted.levels[:-1]:
        level[1:-1] += 1.0
    bad = residual_bspde(BackwardSolution(v=v, kernels=[corrupted]), g, coeffs, grid, tree)
    assert bad - one > 0.1


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
        lattice = build_lattice(n_steps, 1.0)
        coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
        g = smooth_random_field(grid, lattice, seed=23)
        v = backward_sweep(g, coeffs, grid, lattice)[0]
        ratios.append(norm_xk(v, 1) / norm_xk(g, -1))
    assert ratios[1] <= 1.5 * ratios[0]


def test_exact_discrete_duality_pairing():
    # with the Ito-predictable dual march, the cell-aligned pairing makes the
    # discrete (G, G*) pair exactly adjoint, and the (T, T*) pair exactly
    # adjoint whenever the source carries no time variation (the new-time
    # drift evaluation is then immaterial): the lattice primals, gathered
    # onto the tree, against the duals stepped node by node with
    # step_forward, paired per path by pair_x0_dual
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    g = smooth_random_field(grid, lattice, seed=24)
    h = smooth_random_field(grid, lattice, seed=25)
    X = backward_sweep(g, coeffs, grid, lattice)[1]
    q = SpaceTimeField(grid, tree, stepped_duals(h, coeffs, grid, tree, "G")["G"])
    lhs = inner_x0(X[0], h)
    rhs = pair_x0_dual(g.on(tree), q)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-6)

    h_static = SpaceTimeField.from_function(
        grid, lattice, lambda x, t, w1: np.sin(np.pi * x) + 0.0 * w1
    )
    v = backward_sweep(g, coeffs, grid, lattice)[0]
    pi = SpaceTimeField(grid, tree, stepped_duals(h_static, coeffs, grid, tree, "T")["T"])
    lhs = inner_x0(v, h_static)
    rhs = pair_x0_dual(g.on(tree), pi)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_solver_levels_are_x_major_and_c_contiguous():
    # every solver hands back levels of shape (nx, n_nodes(k)) that own a
    # C-contiguous layout, backward and forward alike, and so does a
    # lattice field gathered onto a tree and the density on either space
    _, grid, tree, coeffs = make_setup(n_steps=4)
    lattice = tree.lattice
    g = smooth_random_field(grid, lattice, seed=29)
    v, kernels, bg = backward_sweep(g, coeffs, grid, lattice)
    sol = op_L(g, coeffs, grid, lattice)
    p0 = np.zeros(grid.nx)
    p0[1:-1] = 1.0 / (grid.dx * grid.ni)
    fields = [v, *kernels, bg, sol.v, *sol.kernels, sol.g,
              solve_T_star(g, coeffs, grid, lattice), solve_G_star(0, g, coeffs, grid, lattice),
              solve_B_star(g, coeffs, grid, lattice), solve_R_star(g, coeffs, grid, lattice),
              solve_L_star(g, coeffs, grid, lattice), solve_density(p0, coeffs, grid, lattice).p,
              solve_density(p0, coeffs, grid, tree).p, v.on(tree)]
    for field in fields:
        for k, level in enumerate(field.levels):
            assert level.shape == (grid.nx, field.tree.n_nodes(k))
            assert level.flags["C_CONTIGUOUS"]
