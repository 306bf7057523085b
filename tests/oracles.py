"""Independent oracles of the lattice operators, sharing no sweep or march code.

- `sine_solution`: the constant family's discrete T g, L g and T* h for data
  that do not read the path, mode by mode in the discrete sine basis: no
  tridiagonal solve.
- `apply_A`: the generator by centered differences, with no bands.
- `solve_backward_pathwise` and `step_forward`: the implicit Euler march
  down one tree path and the semi-implicit step along one tree edge, each
  a `solve_level` with the bands of its node (`node_bands`).
- `enumerated_primals`: T g, the kernels X_j and B g per tree node from
  `cond_expect` and `clark_decompose` of the pathwise solutions to every
  leaf (`leaf_enumerated_U`).
- `stepped_duals`: the five forward duals per tree node, stepped edge by
  edge with `step_forward`, each edge's sources read at its own node.
- `residual_bspde`: the discrete residual of the integrated backward
  relation along every path.

A lattice solve gathered onto a tree (`SpaceTimeField.on`) must match
`enumerated_primals` node by node; a lattice dual holds the conditional
means given w1 of `stepped_duals`.  The oracles may import the banded core,
the tree, fields and coefficients, never a sweep or a march.
"""

import numpy as np

from spdelab import clark_decompose, cond_expect
from spdelab.backward import level_factors, solve_level
from spdelab.domain import dx_centered, dx_centered_onesided, generator_bands


def sine_solution(grid, f0, b, dt, steps, profile, dual=False):
    """dt sum_{j=1}^{steps} M^{-j} profile with M = I - dt A (or I - dt A*,
    dual), A = f0 d/dx + (b/2) d2/dx2 by centered differences on the
    interior with Dirichlet rows, as a grid function (zero boundary rows).

    The interior A is tridiagonal Toeplitz, sub-diagonal lo = b/(2dx^2) -
    f0/(2dx), super-diagonal up = b/(2dx^2) + f0/(2dx), diagonal -b/dx^2.
    With D = diag(rho^i), rho = sqrt(lo/up), D^-1 A D is symmetric with
    off-diagonal sqrt(lo up), so A = D Q diag(lam) Q^T D^-1 with the
    orthonormal sine basis Q[i, m] = sqrt(2/(n+1)) sin(i m pi/(n+1)) and
    lam_m = -b/dx^2 + 2 sqrt(lo up) cos(m pi/(n+1)) (lo up > 0), evaluated
    without cancellation as - 4 dif sin^2(theta/2) - 2 cos(theta) adv^2 /
    (dif + sqrt(lo up)), dif = b/(2dx^2), adv = f0/(2dx).  Each mode of
    M^-1 is the factor r = 1/(1 - dt lam_m), and the sum is geometric:
    dt r (1 - r^steps) / (1 - r).  A* = A^T swaps D and D^-1.
    """
    n, dx = grid.nx - 2, grid.dx
    dif, adv = b / (2 * dx**2), f0 / (2 * dx)
    lo, up = dif - adv, dif + adv
    i = np.arange(1, n + 1)
    theta = i * np.pi / (n + 1)
    Q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, theta))  # symmetric
    lam = -4 * dif * np.sin(theta / 2) ** 2 - 2 * np.cos(theta) * adv**2 / (dif + np.sqrt(lo * up))
    r = 1.0 / (1.0 - dt * lam)
    scale = np.sqrt(lo / up) ** i
    if dual:
        scale = 1.0 / scale
    coeff = Q @ (np.asarray(profile, dtype=float)[1:-1] / scale)
    out = np.zeros(grid.nx)
    out[1:-1] = scale * (Q @ (dt * r * (1.0 - r**steps) / (1.0 - r) * coeff))
    return out


def apply_A(coeffs, u, t, w1, grid):
    """The generator at time t and first Wiener component w1 applied to the
    grid function u by centered differences: f u' + (1/2) b u'' at the
    interior nodes from the stored values of u (boundary entries
    included), zero boundary rows."""
    f = coeffs.drift(grid.x_interior, t, w1)
    out = np.zeros_like(u)
    du = (u[2:] - u[:-2]) / (2.0 * grid.dx)
    d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / grid.dx**2
    out[1:-1] = f * du + 0.5 * coeffs.b_total * d2u
    return out


def apply_bands(bands, u):
    """Apply the interior matrix given by rows-layout bands to x-major
    values u of shape (nx, n).  The boundary rows of u are not read; the
    result has zero boundary rows."""
    ui, out = u[1:-1], np.zeros(u.shape)
    lower, diag, upper = (np.broadcast_to(a, ui.shape) for a in bands)
    out[1:-1] = diag * ui
    out[2:-1] += lower[1:] * ui[:-1]
    out[1:-2] += upper[:-1] * ui[1:]
    return out


def node_bands(coeffs, grid, tree, k, nodes=slice(None), dual=False):
    """(f, bands) of tree's level-k nodes, all of them or those that nodes
    indexes (an index for one node): each node's drift row, (n, ni), or
    (n, 1) when the drift does not read x, evaluated at the node's own w1,
    its lattice state's, and the rows-layout bands of A, or of A* when
    dual, built from the rows."""
    x = grid.x_interior[None, :] if coeffs.drift_reads_x else grid.x_interior[None, :1]
    w1 = np.reshape(tree.lattice.w1[k][tree.states(k)[nodes]], (-1, 1))
    f = np.atleast_2d(coeffs.drift(x, k * tree.dt, w1))
    return f, generator_bands(grid, f, coeffs.b_total, dual)


def solve_backward_pathwise(g, coeffs, leaf, grid, tree):
    """U, (n_steps + 1, nx), of the terminal-value problem dU/dt + A U = -g,
    U(T) = 0, marched by implicit Euler down the path to one leaf, with
    zero boundary columns."""
    path, dt = tree.leaf_path(leaf), tree.dt
    U = np.zeros((tree.n_steps + 1, grid.nx))
    for k in range(tree.n_steps - 1, -1, -1):
        rhs = U[k + 1] + dt * g.levels[k][:, path[k]]
        factors = level_factors(node_bands(coeffs, grid, tree, k, path[k])[1], dt, grid.ni)
        U[k] = solve_level(factors, rhs[:, None])[:, 0]
    return U


def step_forward(u, k, i, b, coeffs, drift, noise, grid, tree):
    """The values at child b of tree node (k, i), from the node's values u:
    u' solves (I - dt A*) u' = u + dt drift + sum_j noise_j dw_j with the
    dual generator frozen at the node and dw = digit_signs[b] sqrt(dt), the
    edge's increment; noise holds a grid function or None per driving
    component, or is None."""
    rhs = u + tree.dt * drift if drift is not None else u.copy()
    for src, sign in zip(noise or [], tree.digit_signs[b]):
        if src is not None:
            rhs += src * (sign * tree.sqdt)
    bands = node_bands(coeffs, grid, tree, k, i, dual=True)[1]
    return solve_level(level_factors(bands, tree.dt, grid.ni), rhs[:, None])[:, 0]


def leaf_enumerated_U(g, coeffs, grid, tree):
    """Oracle: pathwise solves for every leaf, stacked (n_leaves, N+1, nx)."""
    return np.array([
        solve_backward_pathwise(g, coeffs, leaf, grid, tree)
        for leaf in range(tree.n_leaves)
    ])


def enumerated_primals(g, coeffs, grid, tree):
    """(T, X, B) of the tree field g, each per level an (nx, n_nodes(k))
    array (X one list per Wiener component): T g^k is cond_expect of the
    pathwise U^k, X_j^k the level-k Clark kernel of U^k at each interior x
    (E[U^k domega_j | node] / dt), and B g^k = - sum_j beta_j dX_j^k/dx with
    one-sided stencils at the first interior nodes."""
    U = leaf_enumerated_U(g, coeffs, grid, tree)
    N, d = tree.n_steps, tree.d
    T = [np.ascontiguousarray(cond_expect(U[:, k], k, tree).T) for k in range(N + 1)]
    X = [[np.zeros((grid.nx, tree.n_nodes(k))) for k in range(N + 1)] for _ in range(d)]
    for k in range(N):
        for ix in range(1, grid.nx - 1):
            kernel = clark_decompose(U[:, k, ix], tree).kernels[k]  # (n_nodes(k), d)
            for j in range(d):
                X[j][k][ix] = kernel[:, j]
    B = [0.0 - sum(coeffs.sigma[j] * dx_centered_onesided(grid, X[j][k]) for j in range(d))
         for k in range(N + 1)]
    return T, X, B


def stepped_duals(h, coeffs, grid, tree, names="TGBRL"):
    """{name: levels} of T* h, G_0* h, B* h, R* h and L* h on tree for the
    lattice field h, each stepped from a zero root edge by edge with
    step_forward at every tree component.  An edge from node n reads h at
    n's own state (h.on(tree)) and, for R* and L*, n's own value; T*'s and
    L*'s drift reads h at the child."""
    hn = h.on(tree)
    d, sigma = tree.d, coeffs.sigma

    def sources(name, k, node, child, u):
        here = hn.levels[k][:, node]
        if name == "T":
            return hn.levels[k + 1][:, child], None
        if name == "G":
            return None, [here] + [None] * (d - 1)
        if name == "B":
            return None, [dx_centered(grid, sigma[j] * here) for j in range(d)]
        if name == "R":
            return None, [dx_centered(grid, sigma[j] * (here - u)) for j in range(d)]
        return hn.levels[k + 1][:, child], [-dx_centered(grid, sigma[j] * u) for j in range(d)]

    out = {}
    for name in names:
        levels = [np.zeros((grid.nx, 1))]
        for k in range(tree.n_steps):
            nxt = np.empty((grid.nx, tree.n_nodes(k + 1)))
            for node in range(tree.n_nodes(k)):
                u = levels[k][:, node]
                for b in range(tree.branching):
                    child = node * tree.branching + b
                    drift, noise = sources(name, k, node, child, u)
                    nxt[:, child] = step_forward(u, k, node, b, coeffs, drift, noise, grid, tree)
            levels.append(nxt)
        if name == "R":  # R* h = h - z
            levels = [a - z for a, z in zip(hn.levels, levels)]
        out[name] = levels
    return out


def residual_bspde(sol, g, coeffs, grid, tree):
    """X0 norm of the discrete residual of the integrated backward relation

        v(t) = int_t^T [A v + g] - int_t^T X domega,

    evaluated per leaf with a trapezoidal rule in the drift integral and the
    Ito (left-point) rule in the stochastic sum.  sol.kernels may stop short
    of tree.d, the rest zero: a lattice solve gathered carries X_1 alone.
    """
    N, dt, d = tree.n_steps, tree.dt, tree.d
    leaves = np.arange(tree.n_leaves)
    drift_acc = np.zeros((grid.nx, tree.n_leaves))
    noise_acc = np.zeros((grid.nx, tree.n_leaves))

    def drift_term(k):
        av = apply_bands(node_bands(coeffs, grid, tree, k)[1], sol.v.levels[k]) + g.levels[k]
        return av[:, tree.ancestor_index(leaves, k)]

    total = 0.0
    d_hi = drift_term(N)
    for k in range(N - 1, -1, -1):
        d_lo = drift_term(k)
        drift_acc += 0.5 * dt * (d_lo + d_hi)
        d_hi = d_lo
        digits = (leaves >> (d * (N - k - 1))) % tree.branching
        kick = tree.digit_signs[digits].T * tree.sqdt  # (d, n_leaves)
        anc = tree.ancestor_index(leaves, k)
        for kernel, kick_j in zip(sol.kernels, kick):
            noise_acc += kernel.levels[k][:, anc] * kick_j
        r = sol.v.levels[k][:, anc] - drift_acc + noise_acc
        total += dt * grid.dx * float(np.einsum("xl,xl->", r, r)) / tree.n_leaves
    return float(np.sqrt(total))


def assert_gathered(lattice_field, tree_levels, tree, rtol=1e-12, what="", scale=None):
    """The lattice field gathered onto tree matches the per-node levels to
    rtol of scale, by default their largest magnitude over all levels."""
    if scale is None:
        scale = max(max(np.abs(node).max() for node in tree_levels), 1e-300)
    for k, (state, node) in enumerate(zip(lattice_field.on(tree).levels, tree_levels)):
        np.testing.assert_allclose(state, node, rtol=0, atol=rtol * scale,
                                   err_msg=f"{what} level {k}")
