import numpy as np
import pytest
from scipy.fft import dst

from spdelab import DomainSpec, GridError, build_grid, build_tree, h0_inner, make_family
from spdelab import domain
from spdelab.domain import (
    cr_factors,
    dx_centered,
    dx_centered_onesided,
    generator_bands,
    hk_norm_sq,
    solve_tridiag,
    thomas_rows,
)
from spdelab import backward
from spdelab.backward import level_factors, op_L, solve_level
from spdelab.fields import smooth_random_field
from spdelab.forward import solve_density
from fine_tree_engine import DENSITY_BOUND, measure
from oracles import apply_A, apply_bands, node_bands


def dense_generator(grid, fvals, bvals):
    """Independent dense assembly of A on the interior (oracle)."""
    ni = grid.ni
    f = np.broadcast_to(fvals, (ni,))
    b = np.broadcast_to(bvals, (ni,))
    A = np.zeros((ni, ni))
    for i in range(ni):
        if i > 0:
            A[i, i - 1] = -f[i] / (2 * grid.dx) + b[i] / (2 * grid.dx**2)
        A[i, i] = -b[i] / grid.dx**2
        if i < ni - 1:
            A[i, i + 1] = f[i] / (2 * grid.dx) + b[i] / (2 * grid.dx**2)
    return A


@pytest.fixture
def unit_interval():
    dom = DomainSpec(0.0, 1.0, 1.0)
    return build_grid(dom, 41)


def test_domain_spec_validation():
    with pytest.raises(GridError):
        DomainSpec(1.0, 0.0, 1.0)
    with pytest.raises(GridError):
        DomainSpec(0.0, 1.0, -1.0)


def test_build_grid_rejects_small_nx():
    dom = DomainSpec(0.0, 1.0, 1.0)
    with pytest.raises(GridError, match="nx too small"):
        build_grid(dom, 5)


def test_build_grid_interval():
    dom = DomainSpec(0.0, 1.0, 1.0)
    grid = build_grid(dom, 11)
    assert grid.dx == pytest.approx(0.1)
    assert np.allclose(grid.x, np.linspace(0, 1, 11))


def test_build_grid_truncated_line():
    dom = DomainSpec(-8.0, 8.0, 1.0)
    grid = build_grid(dom, 161)
    assert grid.dx == pytest.approx(0.1)
    assert grid.ni == 159


def test_apply_A_pure_diffusion_on_quadratic(unit_interval):
    # constant b=2, f=0: (1/2) b u'' = 2 exactly for u = x^2
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [np.sqrt(2.0)]})
    u = unit_interval.x**2
    out = apply_A(coeffs, u, 0.0, 0.0, unit_interval)
    assert np.allclose(out[1:-1], 2.0, atol=1e-10)
    assert out[0] == 0.0 and out[-1] == 0.0


def test_apply_A_pure_drift_on_linear(unit_interval):
    coeffs = make_family("constant", {"f0": 1.0, "sigma": [1.0]})
    u = unit_interval.x.copy()
    out = apply_A(coeffs, u, 0.0, 0.0, unit_interval)
    # subtract the diffusion part (zero for linear u), drift gives u' = 1
    assert np.allclose(out[1:-1], 1.0, atol=1e-10)


def test_apply_A_matches_dense_assembly(unit_interval):
    grid = unit_interval
    coeffs = make_family("space-smooth", {"a": 1.0, "eps": 0.5, "sigma": [1.0]})
    u = np.sin(np.pi * grid.x)
    u[0] = u[-1] = 0.0
    out = apply_A(coeffs, u, 0.0, 0.7, grid)  # at w1 = 0.7
    f = coeffs.drift(grid.x_interior, 0.0, 0.7)
    dense = dense_generator(grid, f, coeffs.b_total)
    assert np.allclose(out[1:-1], dense @ u[1:-1], atol=1e-12)


def apply_A_star(coeffs, u, grid):
    """The dual generator's bands at t = 0 and w1 = 0 applied to u."""
    f = coeffs.drift(grid.x_interior[None, :], 0.0, 0.0)
    return apply_bands(generator_bands(grid, f, coeffs.b_total, dual=True), u[:, None])[:, 0]


def test_apply_A_star_is_exact_transpose(unit_interval):
    grid = unit_interval
    coeffs = make_family("space-smooth", {"a": 0.7, "eps": 0.0, "sigma": [0.9]})
    rng = np.random.default_rng(5)
    u = np.zeros(grid.nx)
    w = np.zeros(grid.nx)
    u[1:-1] = rng.normal(size=grid.ni)
    w[1:-1] = rng.normal(size=grid.ni)
    au = apply_A(coeffs, u, 0.0, 0.0, grid)
    asw = apply_A_star(coeffs, w, grid)
    lhs = h0_inner(au, w, grid)
    rhs = h0_inner(u, asw, grid)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_apply_A_star_self_adjoint_case(unit_interval):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.3]})
    rng = np.random.default_rng(7)
    u = np.zeros(unit_interval.nx)
    u[1:-1] = rng.normal(size=unit_interval.ni)
    au = apply_A(coeffs, u, 0.0, 0.0, unit_interval)
    asu = apply_A_star(coeffs, u, unit_interval)
    assert np.allclose(au, asu, atol=1e-12)


def test_apply_A_star_advection_on_quadratic(unit_interval):
    # f = 1, b = 0 is outside the builtin families' nondegeneracy, so assemble
    # the bands directly: A* u should look like -(d/dx) u = -2x away from edges
    grid = unit_interval
    bands = generator_bands(grid, np.ones((1, 1)), 0.0, dual=True)
    u = grid.x**2
    out = apply_bands(bands, u[:, None])[:, 0]
    interior_x = grid.x_interior[1:-1]
    assert np.allclose(out[2:-2], -2.0 * interior_x, atol=1e-10)


def dst_norm_sq(u, k, grid):
    """Oracle: the orthonormal DST-I diagonalizes the 3-point Dirichlet
    Laplacian, with eigenvalues (2/dx^2)(1 - cos(m pi / (ni + 1))) of its
    negative, so the squared H^k norm is dx sum_m (1 + lambda_m)^k c_m^2."""
    m = np.arange(1, grid.ni + 1)
    lam = (2.0 / grid.dx**2) * (1.0 - np.cos(m * np.pi / (grid.ni + 1)))
    coef = dst(u[1:-1], type=1, norm="ortho", axis=0)
    return grid.dx * np.einsum("m...,m->...", coef**2, (1.0 + lam) ** k)


def test_hk_norms_match_a_sine_transform_oracle():
    # an odd and an even interior count, one column and batches on one and
    # two trailing axes; the boundary rows are not read
    rng = np.random.default_rng(19)
    for nx in (201, 202):
        grid = build_grid(DomainSpec(-8.0, 8.0, 1.0), nx)
        for shape in ((nx,), (nx, 300), (nx, 6, 5)):
            u = rng.normal(size=shape)
            for k in (-1, 0, 1):
                got, want = hk_norm_sq(u, k, grid), dst_norm_sq(u, k, grid)
                assert np.shape(got) == shape[1:]
                assert np.max(np.abs(got - want) / want) <= 1e-13, (nx, shape, k)


def test_lambda_norm_monotonicity(unit_interval):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = np.zeros(unit_interval.nx)
        u[1:-1] = rng.normal(size=unit_interval.ni)
        n_minus = np.sqrt(hk_norm_sq(u, -1, unit_interval))
        n_zero = np.sqrt(hk_norm_sq(u, 0, unit_interval))
        n_plus = np.sqrt(hk_norm_sq(u, 1, unit_interval))
        assert n_minus <= n_zero <= n_plus
        assert n_minus > 0
    with pytest.raises(GridError):
        hk_norm_sq(u, 2, unit_interval)


def test_hk_norms_are_dual(unit_interval):
    # with v = (I - Laplacian) u, applied by the stencil, the H^-1 norm of v
    # (a tridiagonal solve) equals the H^1 norm of u and <u, v>_H0
    rng = np.random.default_rng(13)
    grid = unit_interval
    u = np.zeros(grid.nx)
    u[1:-1] = rng.normal(size=grid.ni)
    v = u - np.diff(u, 2, prepend=0.0, append=0.0) / grid.dx**2
    v[0] = v[-1] = 0.0
    h1 = hk_norm_sq(u, 1, grid)
    assert abs(hk_norm_sq(v, -1, grid) - h1) <= 1e-12 * h1
    assert abs(h0_inner(u, v, grid) - h1) <= 1e-12 * h1


def test_generator_convergence_rate():
    # A sin(pi x) with f=0, b=1 converges to -(pi^2/2) sin(pi x) at O(dx^2)
    dom = DomainSpec(0.0, 1.0, 1.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    errs = []
    for nx in (21, 41, 81):
        grid = build_grid(dom, nx)
        u = np.sin(np.pi * grid.x)
        u[0] = u[-1] = 0.0
        out = apply_A(coeffs, u, 0.0, 0.0, grid)
        exact = -0.5 * np.pi**2 * np.sin(np.pi * grid.x_interior)
        errs.append(np.max(np.abs(out[1:-1] - exact)))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_solve_tridiag_against_dense():
    rng = np.random.default_rng(3)
    n = 24
    lo = rng.normal(size=n) * 0.1
    dg = 2.0 + np.abs(rng.normal(size=n))
    up = rng.normal(size=n) * 0.1
    lo[0] = up[-1] = 0.0
    rhs = rng.normal(size=n)
    dense = np.diag(dg) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    x = solve_tridiag(lo, dg, up, rhs)
    assert np.allclose(x, np.linalg.solve(dense, rhs), atol=1e-12)


def test_thomas_rows_against_dense():
    rng = np.random.default_rng(4)
    n, nb, m = 15, 7, 2

    def dense(lo, dg, up):
        return np.diag(dg) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)

    # per-column bands: one system per column b, m right-hand sides each
    lo = rng.normal(size=(n, nb)) * 0.1
    dg = 2.0 + np.abs(rng.normal(size=(n, nb)))
    up = rng.normal(size=(n, nb)) * 0.1
    rhs = rng.normal(size=(n, nb, m))
    X = thomas_rows(lo, dg, up, rhs.copy())
    for b in range(nb):
        ref = np.linalg.solve(dense(lo[:, b], dg[:, b], up[:, b]), rhs[:, b])
        assert np.allclose(X[:, b], ref, atol=1e-12)
    # (1, nb) bands broadcast along the system axis
    lo1, dg1, up1 = (np.broadcast_to(a[:1], (n, nb)) for a in (lo, dg, up))
    X = thomas_rows(lo1, dg1, up1, rhs.copy())
    for b in range(nb):
        ref = np.linalg.solve(dense(lo1[:, b], dg1[:, b], up1[:, b]), rhs[:, b])
        assert np.allclose(X[:, b], ref, atol=1e-12)


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)])
@pytest.mark.parametrize("full_bands", [False, True])
@pytest.mark.parametrize("strided", [False, True])
def test_reused_factors_solve_like_a_fresh_one_shot_solve(trailing, full_bands, strided):
    # one factorization applied to many right-hand sides gives each the bits
    # of a fresh one-shot solve, for X (n, nb), (n, nb, m) and (n, nb, m1, m2)
    rng = np.random.default_rng(6)
    n, nb = 13, 5
    rows = n if full_bands else 1
    lo, up = (0.2 * rng.normal(size=(rows, nb)) for _ in range(2))
    dg = 2.0 + np.abs(rng.normal(size=(rows, nb)))
    factors = cr_factors(lo, dg, up, n)
    for seed in range(3):
        rhs = np.random.default_rng(seed).normal(size=(n, nb) + trailing)
        if strided:  # the same values, Fortran-ordered: the system axis innermost
            rhs = np.asfortranarray(rhs)
        reused, fresh = rhs.copy(order="K"), rhs.copy(order="K")
        assert thomas_rows(factors, None, None, reused) is reused
        thomas_rows(lo, dg, up, fresh)
        assert np.array_equal(reused, fresh)


def _count_level_solves(monkeypatch):
    """(columns, solved): the column count of every factorization and one
    entry per level solve the backward module makes from now on."""
    columns, solved = [], []
    factor, thomas = domain.cr_factors, domain.thomas_rows

    def counted_factors(*args):
        stages, last = factor(*args)
        columns.append(last.shape[1])
        return stages, last

    def counted_solve(*args):
        solved.append(1)
        return thomas(*args)

    for module in (domain, backward):
        monkeypatch.setattr(module, "cr_factors", counted_factors)
    monkeypatch.setattr(backward, "thomas_rows", counted_solve)
    return columns, solved


def _small_tree():
    grid = build_grid(DomainSpec(0.0, 4.0, 1.0), 21)
    tree = build_tree(1, 4, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    return grid, tree, coeffs


def test_op_L_factors_each_level_once(monkeypatch):
    # op_L's 2N level solves (kernels, then v) share N factorizations, each
    # of the k + 1 lattice states of its level
    grid, tree, coeffs = _small_tree()
    lattice = tree.lattice
    phi = smooth_random_field(grid, lattice, seed=3)
    columns, solved = _count_level_solves(monkeypatch)
    op_L(phi, coeffs, grid, lattice)
    assert columns == [k + 1 for k in reversed(range(lattice.n_steps))]
    assert len(solved) == 2 * lattice.n_steps


def test_solve_density_factors_each_level_once(monkeypatch):
    # the density march solves each level once, with the factors of its
    # k + 1 lattice states
    grid, tree, coeffs = _small_tree()
    p0 = np.zeros(grid.nx)
    p0[1:-1] = 1.0 / (grid.dx * grid.ni)
    columns, solved = _count_level_solves(monkeypatch)
    solve_density(p0, coeffs, grid, tree)
    assert columns == [k + 1 for k in range(tree.n_steps)]
    assert len(solved) == tree.n_steps


@pytest.mark.parametrize("d, n_steps", [(1, 10), (2, 6)])
@pytest.mark.parametrize("family", ["drift-random", "space-smooth"])
@pytest.mark.parametrize("dual", [False, True])
def test_a_level_solved_with_its_states_factors_equals_the_per_node_solve(d, n_steps, family,
                                                                          dual):
    # a tree node's drift row has its lattice state's bits, and cyclic
    # reduction is elementwise across systems: the factors of the k + 1
    # states, gathered by each node's j, solve every node as its own
    # factors do, bit for bit, for A and A*, with right-hand sides on
    # trailing (S, br) axes as the marches lay them
    params = {"drift-random": {"kappa": 0.25}, "space-smooth": {"a": 0.3, "eps": 0.5}}[family]
    coeffs = make_family(family, {**params, "sigma": [0.6, 0.8, 0.5], "d": d})
    grid = build_grid(DomainSpec(-4.0, 4.0, 1.0), 33)
    tree = build_tree(d, n_steps, 1.0)
    rng = np.random.default_rng(17)
    for k in range(n_steps + 1):
        per_node = node_bands(coeffs, grid, tree, k, dual=dual)[1]
        per_state = generator_bands(grid, coeffs.drift_nodes(grid, tree, k), coeffs.b_total, dual)
        factors = level_factors(per_state, tree.dt, grid.ni)
        assert factors[1].shape == (1, k + 1)
        block = rng.normal(size=(3, tree.branching, grid.nx, tree.n_nodes(k)))
        alone = solve_level(level_factors(per_node, tree.dt, grid.ni),
                            block.copy().transpose(2, 3, 0, 1))
        assert np.abs(alone).max() > 0.0
        solved = solve_level(factors, block.copy().transpose(2, 3, 0, 1), tree.states(k))
        assert np.array_equal(solved, alone), k


def test_a_tree_solve_holds_no_factors_of_a_levels_size():
    # on the d = 1 tree of 12 steps at nx 101, solve_density's tracemalloc
    # peak is within 1.55 times its field: the earlier levels, the last
    # level's block and the level merged out of it, 1.50; factors with a
    # column per node lifted it to 2.46, and level-sized noise-source
    # temporaries to 1.75
    _, peak, held = measure(n_steps=12, nx=101)
    assert peak <= DENSITY_BOUND * held


def test_solve_level_x_dependent_against_dense(unit_interval):
    # space-smooth drift varies in x and, through omega_1, from node to node
    grid = unit_interval
    tree = build_tree(1, 4, 1.0)
    coeffs = make_family("space-smooth", {"a": 0.8, "eps": 0.5, "sigma": [0.6, 0.8], "d": 1})
    level, dt = 3, tree.dt
    f = node_bands(coeffs, grid, tree, level)[0]
    n = tree.n_nodes(level)
    assert f.shape == (n, grid.ni) and len(np.unique(f[:, 0])) > 1
    rng = np.random.default_rng(21)
    rhs = rng.normal(size=(grid.nx, n, 2))  # x-major, two right-hand sides per node
    eye = np.eye(grid.ni)
    for dual in (False, True):
        factors = level_factors(generator_bands(grid, f, coeffs.b_total, dual), dt, grid.ni)
        u = solve_level(factors, rhs.copy())
        assert u.shape == rhs.shape
        assert np.all(u[0] == 0.0) and np.all(u[-1] == 0.0)
        assert np.array_equal(solve_level(factors, rhs[:, :, 0].copy()), u[:, :, 0])
        for node in range(n):
            A = dense_generator(grid, f[node], coeffs.b_total)
            M = eye - dt * (A.T if dual else A)
            ref = np.linalg.solve(M, rhs[1:-1, node])
            assert np.allclose(u[1:-1, node], ref, rtol=0, atol=1e-13)


def test_solve_level_works_in_place_on_x_major_levels(unit_interval):
    # the right-hand side is solved where it lies, C-contiguous (nx, n) in,
    # the same array out; a strided stack of levels is solved in place too
    grid = unit_interval
    tree = build_tree(1, 4, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    factors = level_factors(node_bands(coeffs, grid, tree, 3)[1], tree.dt, grid.ni)
    rhs0 = np.random.default_rng(5).normal(size=(grid.nx, tree.n_nodes(3)))
    rhs = rhs0.copy()
    out = solve_level(factors, rhs)
    assert out is rhs and out.flags["C_CONTIGUOUS"]
    assert np.all(out[[0, -1]] == 0.0) and not np.array_equal(out, rhs0)
    stack = np.stack([rhs0, 2.0 * rhs0])  # (2, nx, n): two levels, one solve
    solved = solve_level(factors, stack.transpose(1, 2, 0))
    assert np.shares_memory(solved, stack)
    assert np.array_equal(stack[0], out) and np.array_equal(stack[1], 2.0 * out)


def test_derivative_stencils(unit_interval):
    grid = unit_interval
    u = np.sin(np.pi * grid.x)
    du = dx_centered(grid, u)
    exact = np.pi * np.cos(np.pi * grid.x)
    assert np.max(np.abs(du[2:-2] - exact[2:-2])) < 5e-3
    duo = dx_centered_onesided(grid, u)
    assert np.max(np.abs(duo[1:-1] - exact[1:-1])) < 1e-2
    assert du[0] == du[-1] == 0.0


def test_h0_norm_matches_inner(unit_interval):
    # the H0 norm sqrt(dx) |u| of every node, boundary rows included
    rng = np.random.default_rng(17)
    u = rng.normal(size=unit_interval.nx)
    assert np.sqrt(h0_inner(u, u, unit_interval)) == pytest.approx(
        np.sqrt(unit_interval.dx) * np.linalg.norm(u)
    )
