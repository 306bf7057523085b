"""Independent oracles of the lattice operators, sharing no sweep or march code.

- `sine_solution`: the constant family's discrete T g, L g and T* h for data
  that do not read the path, mode by mode in the discrete sine basis: no
  tridiagonal solve.
- `enumerated_primals`: T g, the kernels X_j and B g per tree node from
  `cond_expect` and `clark_decompose` of the pathwise solutions to every
  leaf (`leaf_enumerated_U`).
- `stepped_duals`: the five forward duals per tree node, stepped edge by
  edge with `step_forward`, each edge's sources read at its own node.

A lattice solve gathered onto a tree (`SpaceTimeField.on`) must match the
first two node by node; a lattice dual holds the conditional means given
w1 of the third.
"""

import numpy as np

from spdelab import ForwardState, clark_decompose, cond_expect, solve_backward_pathwise, step_forward
from spdelab.domain import dx_centered, dx_centered_onesided
from spdelab.tree import TreeNode


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
                    step = step_forward(ForwardState(u, TreeNode(k, node)), coeffs, drift, noise,
                                        tree.digit_signs[b] * tree.sqdt, grid, tree)
                    assert step.node == TreeNode(k + 1, child)
                    nxt[:, child] = step.values
            levels.append(nxt)
        if name == "R":  # R* h = h - z
            levels = [a - z for a, z in zip(hn.levels, levels)]
        out[name] = levels
    return out


def assert_gathered(lattice_field, tree_levels, tree, rtol=1e-12, what="", scale=None):
    """The lattice field gathered onto tree matches the per-node levels to
    rtol of scale, by default their largest magnitude over all levels."""
    if scale is None:
        scale = max(max(np.abs(node).max() for node in tree_levels), 1e-300)
    for k, (state, node) in enumerate(zip(lattice_field.on(tree).levels, tree_levels)):
        np.testing.assert_allclose(state, node, rtol=0, atol=rtol * scale,
                                   err_msg=f"{what} level {k}")
