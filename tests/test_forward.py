import numpy as np
import pytest

from spdelab import (
    DomainSpec,
    ForwardSolverError,
    ForwardState,
    SpaceTimeField,
    build_grid,
    build_lattice,
    build_tree,
    make_family,
    solve_B_star,
    solve_density,
    solve_G_star,
    solve_L_star,
    solve_R,
    solve_R_star,
    solve_T_star,
    step_forward,
)
from spdelab import forward
from spdelab.backward import backward_sweep
from spdelab.domain import dx_centered
from spdelab.fields import inner_x0, norm_x0, smooth_random_field
from spdelab.forward import _forward_march
from spdelab.harness import _gaussian_density
from spdelab.tree import TreeNode
from oracles import stepped_duals
from test_lattice import assert_levels_match


def make_setup(nx=41, n_steps=5, horizon=1.0, family="drift-random", interval=(0.0, 1.0)):
    dom = DomainSpec(interval[0], interval[1], horizon)
    grid = build_grid(dom, nx)
    tree = build_tree(1, n_steps, horizon)
    if family == "drift-random":
        coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    else:
        coeffs = make_family("constant", {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1})
    return dom, grid, tree, coeffs


def test_step_forward_zero_state():
    _, grid, tree, coeffs = make_setup()
    state = ForwardState(np.zeros(grid.nx), TreeNode(0, 0))
    out = step_forward(state, coeffs, None, None, np.array([tree.sqdt]), grid, tree)
    assert np.all(out.values == 0.0)
    assert out.node == TreeNode(1, 0)


def test_step_forward_dense_factorization_oracle():
    # drift-only step against an independently assembled dense solve
    _, grid, tree, coeffs = make_setup(family="constant")
    rng = np.random.default_rng(1)
    p = np.zeros(grid.nx)
    p[1:-1] = rng.normal(size=grid.ni)
    drift = np.zeros(grid.nx)
    drift[1:-1] = rng.normal(size=grid.ni)
    state = ForwardState(p.copy(), TreeNode(0, 0))
    out = step_forward(state, coeffs, drift, None, np.array([tree.sqdt]), grid, tree)
    ni, dx = grid.ni, grid.dx
    b = coeffs.b_total
    A = np.zeros((ni, ni))
    for i in range(ni):
        A[i, i] = -b / dx**2
        if i > 0:
            A[i, i - 1] = b / (2 * dx**2)
        if i < ni - 1:
            A[i, i + 1] = b / (2 * dx**2)
    dense = np.linalg.solve(np.eye(ni) - tree.dt * A.T, (p + tree.dt * drift)[1:-1])
    assert np.allclose(out.values[1:-1], dense, atol=1e-12)


def test_step_forward_branch_average():
    # with the noise inside the predictably frozen solve, averaging the two
    # children reproduces the drift-only step exactly
    _, grid, tree, coeffs = make_setup()
    rng = np.random.default_rng(2)
    p = np.zeros(grid.nx)
    p[1:-1] = rng.normal(size=grid.ni)
    h = np.zeros(grid.nx)
    h[1:-1] = rng.normal(size=grid.ni)
    state = ForwardState(p.copy(), TreeNode(2, 1))
    up = step_forward(state, coeffs, None, [h], np.array([tree.sqdt]), grid, tree)
    dn = step_forward(state, coeffs, None, [h], np.array([-tree.sqdt]), grid, tree)
    drift_only = step_forward(state, coeffs, None, None, np.array([tree.sqdt]), grid, tree)
    avg = 0.5 * (up.values + dn.values)
    assert np.max(np.abs(avg - drift_only.values)) <= 1e-13 * max(np.abs(p).max(), 1.0)


def test_step_forward_rejects_bad_increment():
    _, grid, tree, coeffs = make_setup()
    state = ForwardState(np.zeros(grid.nx), TreeNode(0, 0))
    with pytest.raises(ForwardSolverError):
        step_forward(state, coeffs, None, None, np.array([0.5 * tree.sqdt]), grid, tree)
    # at horizon 1e-18, sqrt(dt) = 5e-10 is below an absolute tolerance of
    # 1e-8: the check is relative alone, so 0 and -2 sqrt(dt) are refused
    _, grid, tree, coeffs = make_setup(horizon=1e-18, n_steps=4)
    step_forward(state, coeffs, None, None, np.array([-tree.sqdt]), grid, tree)
    for dw in (0.0, -2.0 * tree.sqdt, tree.sqdt * (1.0 + 1e-9)):
        with pytest.raises(ForwardSolverError, match="dw must be"):
            step_forward(state, coeffs, None, None, np.array([dw]), grid, tree)


def test_step_forward_stays_on_the_tree():
    # a node steps only from levels 0 .. n_steps - 1, and only from an index
    # of its level: the last level's nodes and negative indices are refused
    _, grid, tree, coeffs = make_setup(n_steps=4)
    dw = np.array([tree.sqdt])
    last = step_forward(ForwardState(np.zeros(grid.nx), TreeNode(3, 7)), coeffs, None, None,
                        dw, grid, tree)
    assert last.node == TreeNode(4, 14)
    for node in (TreeNode(4, 3), TreeNode(2, -1), TreeNode(2, 4), TreeNode(-1, 0)):
        with pytest.raises(ForwardSolverError, match="has no step"):
            step_forward(ForwardState(np.zeros(grid.nx), node), coeffs, None, None, dw,
                         grid, tree)


def test_march_matches_repeated_steps():
    # the lattice march holds, per w1 state, the mean of the tree values
    # stepped node by node with the single-step op
    _, grid, tree, coeffs = make_setup()
    h = smooth_random_field(grid, tree.lattice, seed=3)
    pi = solve_T_star(h, coeffs, grid, tree.lattice)
    stepped = SpaceTimeField(grid, tree, stepped_duals(h, coeffs, grid, tree, "T")["T"])
    assert_levels_match(stepped, pi)


def test_T_star_zero():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    pi = solve_T_star(SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    assert norm_x0(pi) == 0.0


def test_T_star_time_reversal_identity():
    # constant coefficients, time-independent source: the forward march is the
    # exact time reversal of the backward one
    _, grid, tree, coeffs = make_setup(family="constant")
    h = SpaceTimeField.from_function(
        grid, tree.lattice, lambda x, t, w1: np.sin(np.pi * x) + 0.0 * w1
    )
    pi = solve_T_star(h, coeffs, grid, tree.lattice)
    from spdelab import solve_backward_pathwise

    U = solve_backward_pathwise(h.on(tree), coeffs, 0, grid, tree)
    for k in range(tree.n_steps + 1):
        assert np.allclose(pi.levels[k][:, 0], U[tree.n_steps - k], atol=1e-8)


def test_adjoint_pairing_refinement_T():
    def mismatch(nx, n_steps):
        dom = DomainSpec(0.0, 8.0, 1.0)
        grid = build_grid(dom, nx)
        lattice = build_lattice(n_steps, 1.0)
        coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
        g = smooth_random_field(grid, lattice, seed=4)
        h = smooth_random_field(grid, lattice, seed=5)
        v = backward_sweep(g, coeffs, grid, lattice)[0]
        pi = solve_T_star(h, coeffs, grid, lattice)
        return abs(inner_x0(v, h) - inner_x0(g, pi)) / (norm_x0(g) * norm_x0(h))

    coarse = mismatch(41, 4)
    fine = mismatch(57, 8)
    assert fine <= coarse / 1.5


def level_means(field):
    """Each level's probability-weighted mean over its lattice states."""
    return [level @ field.tree.weights(k) for k, level in enumerate(field.levels)]


def test_G_star_zero_and_adjoint():
    _, grid, tree, coeffs = make_setup(interval=(0.0, 4.0))
    lattice = tree.lattice
    q = solve_G_star(0, SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    assert norm_x0(q) == 0.0
    with pytest.raises(ForwardSolverError, match="outside 0..0"):
        solve_G_star(1, SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    g = smooth_random_field(grid, lattice, seed=6)
    h = smooth_random_field(grid, lattice, seed=7)
    X = backward_sweep(g, coeffs, grid, lattice)[1]
    q = solve_G_star(0, h, coeffs, grid, lattice)
    lhs, rhs = inner_x0(X[0], h), inner_x0(g, q)
    assert abs(lhs - rhs) <= 0.12 * norm_x0(g) * norm_x0(h)


def test_G_star_refuses_the_components_the_lattice_does_not_drive():
    # at d = 2 the lattice drives the first component alone: G_1* h has
    # zero conditional mean given w1 (each tree node's kick averages out
    # over its children), and solve_G_star says so rather than naming a
    # range of one component
    grid = build_grid(DomainSpec(0.0, 4.0, 1.0), 21)
    lattice = build_lattice(3, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8, 0.5], "d": 2})
    h = smooth_random_field(grid, lattice, seed=19)
    assert norm_x0(solve_G_star(0, h, coeffs, grid, lattice)) > 0.0
    with pytest.raises(ForwardSolverError,
                       match=r"G_1\* has zero conditional mean given w1 for j >= 1"):
        solve_G_star(1, h, coeffs, grid, lattice)
    for j in (2, -1):
        with pytest.raises(ForwardSolverError, match=f"component j={j} outside 0..1"):
            solve_G_star(j, h, coeffs, grid, lattice)


def test_G_star_mean_zero():
    # probability-average of the pure-noise solution solves the source-free
    # equation, hence vanishes; exact for any adapted source because the
    # dual generator is frozen predictably
    _, grid, tree, coeffs = make_setup(family="constant")
    h = smooth_random_field(grid, tree.lattice, seed=8)
    q = solve_G_star(0, h, coeffs, grid, tree.lattice)
    for mean in level_means(q):
        assert np.max(np.abs(mean)) <= 1e-10


def test_B_star_zero_and_mean_zero():
    _, grid, tree, coeffs = make_setup(family="constant")
    lattice = tree.lattice
    z = solve_B_star(SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    assert norm_x0(z) == 0.0
    h = SpaceTimeField.from_function(
        grid, lattice, lambda x, t, w1: np.sin(2 * np.pi * x) + 0.0 * w1
    )
    z = solve_B_star(h, coeffs, grid, lattice)
    assert norm_x0(z) > 0.0
    for mean in level_means(z):
        assert np.max(np.abs(mean)) <= 1e-10


def test_B_star_adjoint_to_op_B():
    _, grid, tree, coeffs = make_setup(interval=(0.0, 4.0))
    lattice = tree.lattice
    g = smooth_random_field(grid, lattice, seed=9)
    h = smooth_random_field(grid, lattice, seed=10)
    bg = backward_sweep(g, coeffs, grid, lattice)[2]
    z = solve_B_star(h, coeffs, grid, lattice)
    lhs, rhs = inner_x0(bg, h), inner_x0(g, z)
    assert abs(lhs - rhs) <= 0.12 * norm_x0(g) * norm_x0(h)


def test_R_star_requires_superparabolic():
    dom = DomainSpec(0.0, 1.0, 1.0)
    grid = build_grid(dom, 17)
    lattice = build_lattice(3, 1.0)
    degenerate = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    with pytest.raises(ForwardSolverError, match="superparabolic"):
        solve_R_star(SpaceTimeField.zeros(grid, lattice), degenerate, grid, lattice)
    with pytest.raises(ForwardSolverError, match="superparabolic"):
        solve_L_star(SpaceTimeField.zeros(grid, lattice), degenerate, grid, lattice)


def test_R_star_zero_and_nonrandom_average():
    _, grid, tree, coeffs = make_setup(family="constant")
    lattice = tree.lattice
    h = solve_R_star(SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    assert norm_x0(h) == 0.0
    pi = SpaceTimeField.from_function(
        grid, lattice, lambda x, t, w1: np.sin(np.pi * x) * (1 + 0.2 * t) + 0.0 * w1
    )
    h = solve_R_star(pi, coeffs, grid, lattice)
    z = pi - h
    # z is noise-built, so its probability average vanishes; h = pi on average
    for mean in level_means(z):
        assert np.max(np.abs(mean)) <= 1e-10


def test_R_star_inverts_I_plus_B_star():
    # one forward sweep of R* solves (I + B*) h = pi exactly in the discrete
    # sense: feeding h back through B* recovers pi to round-off
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    pi = smooth_random_field(grid, lattice, seed=11)
    h = solve_R_star(pi, coeffs, grid, lattice)
    z = solve_B_star(h, coeffs, grid, lattice)
    recon = h + z
    assert norm_x0(recon - pi) <= 1e-12 * norm_x0(pi)


def test_R_star_adjoint_to_solve_R():
    _, grid, tree, coeffs = make_setup(interval=(0.0, 4.0))
    lattice = tree.lattice
    phi = smooth_random_field(grid, lattice, seed=12)
    pi = smooth_random_field(grid, lattice, seed=13)
    g, _ = solve_R(phi, coeffs, grid, lattice, tol=1e-11)
    h = solve_R_star(pi, coeffs, grid, lattice)
    lhs, rhs = inner_x0(g, pi), inner_x0(phi, h)
    assert abs(lhs - rhs) <= 0.12 * norm_x0(phi) * norm_x0(pi)


def test_L_star_zero_and_composition():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    h = solve_L_star(SpaceTimeField.zeros(grid, lattice), coeffs, grid, lattice)
    assert norm_x0(h) == 0.0
    xi = smooth_random_field(grid, lattice, seed=14)
    direct = solve_L_star(xi, coeffs, grid, lattice)
    composed = solve_R_star(solve_T_star(xi, coeffs, grid, lattice), coeffs, grid, lattice)
    assert norm_x0(direct - composed) <= 1e-12 * max(norm_x0(direct), 1e-300)


def test_L_star_adjoint_to_op_L():
    _, grid, tree, coeffs = make_setup(interval=(0.0, 4.0))
    lattice = tree.lattice
    phi = smooth_random_field(grid, lattice, seed=15)
    xi = smooth_random_field(grid, lattice, seed=16)
    g, _ = solve_R(phi, coeffs, grid, lattice, tol=1e-11)
    v = backward_sweep(g, coeffs, grid, lattice)[0]
    hl = solve_L_star(xi, coeffs, grid, lattice)
    lhs, rhs = inner_x0(v, xi), inner_x0(phi, hl)
    assert abs(lhs - rhs) <= 0.12 * norm_x0(phi) * norm_x0(xi)


def test_forward_solvers_linear():
    _, grid, tree, coeffs = make_setup()
    lattice = tree.lattice
    h1 = smooth_random_field(grid, lattice, seed=17)
    h2 = smooth_random_field(grid, lattice, seed=18)
    a, b = 1.4, -0.6
    for solver in (
        lambda f: solve_T_star(f, coeffs, grid, lattice),
        lambda f: solve_G_star(0, f, coeffs, grid, lattice),
        lambda f: solve_B_star(f, coeffs, grid, lattice),
        lambda f: solve_R_star(f, coeffs, grid, lattice),
        lambda f: solve_L_star(f, coeffs, grid, lattice),
    ):
        lhs = solver(a * h1 + b * h2)
        rhs = a * solver(h1) + b * solver(h2)
        assert norm_x0(lhs - rhs) <= 1e-10 * max(norm_x0(lhs), 1e-300)


def gaussian_on(grid, width):
    p0 = np.exp(-grid.x**2 / (2 * width**2))
    p0[0] = p0[-1] = 0.0
    return p0 / (grid.dx * p0[1:-1].sum())


def test_density_gaussian_oracle():
    # E p solves the deterministic Fokker-Planck equation, so it matches the
    # closed-form Gaussian with variance width^2 + (sum sigma^2) t
    dom = DomainSpec(-8.0, 8.0, 1.0)
    grid = build_grid(dom, 161)
    tree = build_tree(1, 10, 1.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1})
    p0 = gaussian_on(grid, 0.3)
    sol = solve_density(p0, coeffs, grid, tree)
    Ep = sol.p.levels[-1].mean(axis=1)
    var = 0.3**2 + coeffs.b_total * 1.0
    ref = np.exp(-grid.x**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    assert grid.dx * np.abs(Ep - ref).sum() <= 0.05


def test_density_mass_audit():
    dom = DomainSpec(-8.0, 8.0, 1.0)
    grid = build_grid(dom, 161)
    tree = build_tree(1, 8, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    sol = solve_density(gaussian_on(grid, 0.4), coeffs, grid, tree)
    worst = np.array([sol.mass[k].max() for k in range(tree.n_steps + 1)])
    assert np.all(np.diff(worst) < 1e-8)
    assert not sol.flagged


def test_density_frozen_dynamics():
    # f = 0, beta = 0: the density march leaves p frozen in time (beta = 0
    # is not superparabolic, so this marches past solve_density's checks)
    dom = DomainSpec(0.0, 1.0, 1.0)
    grid = build_grid(dom, 21)
    tree = build_tree(1, 3, 1.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    frozen = type(coeffs)(
        family="constant", d=1, sigma=np.zeros(1), params={"f0": 0.0}
    )
    p0 = gaussian_on(grid, 0.2)

    def density_source(k, state):  # solve_density's noise source
        return None, [-dx_centered(grid, frozen.sigma[0] * state)]

    p = _forward_march(frozen, grid, tree, [density_source], p0[:, None].copy())[0]
    for k in range(tree.n_steps + 1):
        assert np.allclose(p.levels[k], p0[:, None], atol=1e-13)


def test_density_input_validation():
    dom = DomainSpec(0.0, 1.0, 1.0)
    grid = build_grid(dom, 21)
    tree = build_tree(1, 3, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.1, "sigma": [0.6, 0.8], "d": 1})
    bad = -gaussian_on(grid, 0.2)
    with pytest.raises(ForwardSolverError, match="nonnegative"):
        solve_density(bad, coeffs, grid, tree)
    unnormalized = 2.0 * gaussian_on(grid, 0.2)
    with pytest.raises(ForwardSolverError, match="unit mass"):
        solve_density(unnormalized, coeffs, grid, tree)
    degenerate = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    with pytest.raises(ForwardSolverError, match="superparabolic"):
        solve_density(gaussian_on(grid, 0.2), degenerate, grid, tree)


def test_density_blowup_guard(monkeypatch):
    # solve_density checks every level of the march against the guard; the
    # unit-mass p0 already exceeds 1e-3 at level 0
    dom = DomainSpec(-8.0, 8.0, 1.0)
    grid = build_grid(dom, 41)
    tree = build_tree(1, 3, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    p0 = gaussian_on(grid, 0.5)
    solve_density(p0, coeffs, grid, tree)  # within the default guard
    monkeypatch.setattr(forward, "_BLOWUP_GUARD", 1e-3)
    with pytest.raises(ForwardSolverError, match="density blow-up at level 0"):
        solve_density(p0, coeffs, grid, tree)


def test_march_rejects_nonfinite_levels():
    _, grid, tree, coeffs = make_setup()
    h = smooth_random_field(grid, tree.lattice, seed=3)
    h.levels[2][grid.nx // 2, 1] = np.nan  # enters the step from level 1 to 2
    with pytest.raises(ForwardSolverError, match="lost finiteness at level 2"):
        solve_T_star(h, coeffs, grid, tree.lattice)


def kick_ratio_audit(sigma, d):
    """(r, lobe, mass) of the density march on reduced density-64-65 (nx 41,
    N 5, Gaussian p0 of width 0.5 on [-8, 8], drift-random): the kick ratio
    r = (sum_{j<d} |sigma_j|)^2 / |sigma|^2, the most negative level minimum
    over that level's peak, and the largest node mass."""
    grid = build_grid(DomainSpec(-8.0, 8.0, 1.0), 41)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": sigma, "d": d})
    dens = solve_density(_gaussian_density(grid, 0.5), coeffs, grid, build_tree(d, 5, 1.0))
    s = np.abs(coeffs.sigma)
    return (s[:d].sum() ** 2 / (s @ s), min(lev.min() / lev.max() for lev in dens.p.levels),
            max(mass.max() for mass in dens.mass))


# These pin a known fault of the density march (ROADMAP, "the density
# march's noise kick outruns its implicit diffusion"): its explicit kick
# (sum_{j<d} |sigma_j|) sqrt(dt) against the implicit diffusion of
# |sigma|^2 leaves negative lobes whose size depends on r alone, not on d,
# dt or dx, and past r 0.85 a node's mass above 1 on an absorbing domain.
# A positivity-preserving kick is expected to change them.
@pytest.mark.parametrize("d, sigmas", [
    (1, ([0.6, 0.8], [1.2, 0.5], [1.2, 0.2])),  # r 0.36, 0.85, 0.97
    (2, ([0.3, 0.4, 1.0], [0.6, 0.8, 1.5], [0.6, 0.8, 0.5])),  # r 0.39, 0.60, 1.57
])
def test_density_lobes_grow_with_the_kick_ratio(d, sigmas):
    rs, lobes, masses = zip(*(kick_ratio_audit(sigma, d) for sigma in sigmas))
    assert rs[0] < 0.4 < 0.85 < rs[2] and rs[0] < rs[1] < rs[2]
    # min / peak: -0.005, -0.196, -0.235 at d = 1; -0.007, -0.081, -0.456 at d = 2
    assert 0.0 > lobes[0] > -0.01 and lobes[0] > lobes[1] > lobes[2] and lobes[2] < -0.2
    assert masses[0] <= 1.0 + 1e-12 < 1.0 + 1e-6 < masses[2]


def test_density_lobes_depend_on_d_only_through_the_kick_ratio():
    # r 0.852 at d = 1 and at d = 2: lobes of -0.196 and -0.199, where
    # sigma and its tail block differ; both node masses pass 1 + 1e-6
    (r1, lobe1, mass1), (r2, lobe2, mass2) = (kick_ratio_audit([1.2, 0.5], 1),
                                              kick_ratio_audit([0.6, 0.8, 1.1404], 2))
    assert r1 == pytest.approx(r2, abs=1e-4) and r1 > 0.85
    assert lobe1 == pytest.approx(lobe2, rel=0.03)
    assert min(mass1, mass2) > 1.0 + 1e-6
