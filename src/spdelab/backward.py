"""Backward parabolic solvers and the operator calculus built on them.

The pathwise solver marches the terminal-value problem

    dU/dt + A U = -g,   U(.,T) = 0,   U = 0 on the lateral boundary,

down a single tree path with the implicit Euler scheme.  The tree operators
never enumerate leaves: conditional expectations obey the recursion

    v^k(n) = S_k(n) [ mean_children v^{k+1} + dt g^k(n) ],
    S_k(n) = (I - dt A(t_k, n))^{-1},

and the diffusion kernels of the martingale representation fall out of the
same sweep from the child spread,

    X_j^k(n) = S_k(n) E[ v^{k+1} domega_j | n ] / dt.

Levels are x-major, (nx, n_nodes(k)), children are read through tree.child
(tree or w1 lattice), and solve_level applies S_k in place at every node of
a level, from factors (level_factors) that serve any number of solves; the
forward marcher reuses it with A*'s bands.  A's coefficients read the path
only through w1, so a tree level has the k + 1 distinct matrices of its
lattice states (tree.lattice): it factors those, and each node's solve
gathers the factors of its state (tree.states(k)); on the lattice the
states are the nodes.

Since (B g)^k is built from X^k, which depends only on g at later levels,
B is strictly block-triangular in time and B^N = 0: op_L inverts I + B by
back-substitution in a backward sweep, and solve_R's undamped fixed-point
iteration, whose convergence is itself a checked claim, ends within N + 1
sweeps.  backward_sweep marches T, G, B and L in lockstep, with one
factorization and two solves per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .domain import (
    Grid,
    apply_bands,
    cr_factors,
    dx_centered_onesided,
    generator_bands,
    thomas_rows,
)
from .fields import SpaceTimeField, norm_x0
from .tree import ScenarioTree, require_tree


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the requested residual."""

    def __init__(self, message, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass
class BackwardSolution:
    """Adapted pair (v, X) solving the backward problem; g = R phi when the
    pair comes from op_L."""

    v: SpaceTimeField
    kernels: list
    g: SpaceTimeField | None = None


def level_factors(bands, dt, ni):
    """cr_factors of (I - dt A) from a level's bands (generator_bands, of A or A*)."""
    lo, dg, up = bands
    return cr_factors(-dt * lo, 1.0 - dt * dg, -dt * up, ni)


def solve_level(bands, dt, rhs, states=None):
    """Solve (I - dt A) u = rhs in place at every node of one tree level.

    bands are the level's rows-layout bands from generator_bands (of A or
    of A*), or, with dt None, their level_factors: the band half of the
    cyclic reduction, done once for any number of solves.  Without states
    the bands have a column per node; with states, one per lattice state,
    and node i solves with column states[i] (tree.states(k)).  rhs is
    x-major, (nx, n), or (nx, n, m, ...) with right-hand sides per node on
    the trailing axes, any strides; its interior rows are solved where they
    lie (thomas_rows, the right-hand-side half, gets a view) and its
    boundary rows zeroed; returns rhs.  Keep the node axis innermost in
    memory (a plane (nx, n) per right-hand side): the factors, gathered to
    one per row and node a stage at a time, then broadcast along the
    trailing axes at unit stride.
    """
    factors = bands if dt is None else level_factors(bands, dt, len(rhs) - 2)
    thomas_rows(factors, None, None, rhs[1:-1], states)
    rhs[[0, -1]] = 0.0
    return rhs


def _children_into(tree, nxt, out):
    """From the next level nxt (nx, n_k * br), write mean_children v^{k+1}
    into out[0] and, when out is (1 + d, nx, n_k), E[v^{k+1} domega_j | n]
    / dt into out[1 + j]; children are summed in branch order."""
    br, n_k = tree.branching, out.shape[2]
    # branch digit 0 steps up in every component: each sum starts at child 0
    for plane, sign in zip(out, np.vstack([np.ones(br), tree.digit_signs.T])):
        acc = tree.child(nxt, 0, n_k)
        for b in range(1, br):
            acc = (np.add if sign[b] > 0 else np.subtract)(acc, tree.child(nxt, b, n_k), out=plane)
    out[0] /= br
    out[1:] /= br * tree.sqdt


def _b_of_kernels(grid, sigma, kern):
    """(B g)^k = - sum_j beta_j dX_j^k/dx from the level-k kernels
    (d, nx, n_k); boundary rows zero."""
    bg = np.zeros(kern.shape[1:])
    for j in range(kern.shape[0]):
        bg -= sigma[j] * dx_centered_onesided(grid, kern[j])
    return bg


def backward_sweep(g: SpaceTimeField | None, coeffs: CoefficientSet, grid: Grid,
                   tree: ScenarioTree, phi: SpaceTimeField | None = None):
    """One backward pass over the tree; returns (v, kernels, bg): T g = E{ U | F_t }
    of the pathwise solutions U, the representation kernels G g = [X_j], and
    B g = - sum_j beta_j dX_j/dx (one-sided at the first interior nodes).
    With phi, op_L(phi)'s solution follows as a fourth item (g may be None,
    and the first three with it).  Each level, factored once at its lattice
    states, solves all planes but L's v, then L's v, which needs (R phi)^k
    first."""
    N, d, dt = tree.n_steps, tree.d, tree.dt
    lq, tq = (0 if f is None else 1 + d for f in (phi, g))  # planes of L and of T
    sol = [None] * N + [np.zeros((lq + tq, grid.nx, tree.n_nodes(N)))]
    bg = [None] * N + [np.zeros((grid.nx, tree.n_nodes(N))) if tq else None]
    rphi = [None] * N + [None if phi is None else phi.levels[N].copy()]
    for k in range(N - 1, -1, -1):
        sol[k] = np.empty((lq + tq, grid.nx, tree.n_nodes(k)))
        for p in range(0, lq + tq, 1 + d):
            _children_into(tree, sol[k + 1][p], sol[k][p : p + 1 + d])
        if g is not None:
            sol[k][lq] += dt * g.levels[k]
        bands = generator_bands(grid, coeffs.drift_nodes(grid, tree, k), coeffs.b_total)
        factors, states = level_factors(bands, dt, grid.ni), tree.states(k)
        solve_level(factors, None, sol[k][1 if lq else 0:].transpose(1, 2, 0), states)
        if g is not None:
            bg[k] = _b_of_kernels(grid, coeffs.sigma, sol[k][lq + 1:])
        if phi is not None:
            rphi[k] = phi.levels[k] - _b_of_kernels(grid, coeffs.sigma, sol[k][1:lq])
            sol[k][0] += dt * rphi[k]
            solve_level(factors, None, sol[k][0], states)
    planes = [SpaceTimeField(grid, tree, [s[p] for s in sol]) for p in range(lq + tq)]
    out = (None,) * 3 if g is None else (
        planes[lq], planes[lq + 1:], SpaceTimeField(grid, tree, bg))
    if phi is None:
        return out
    return (*out, BackwardSolution(planes[0], planes[1:lq], SpaceTimeField(grid, tree, rphi)))


def solve_backward_pathwise(g: SpaceTimeField, coeffs: CoefficientSet, leaf: int, grid: Grid,
                            tree: ScenarioTree) -> np.ndarray:
    """March the terminal-value problem down the path to one leaf.

    Returns U of shape (n_steps + 1, nx) with U[N] = 0 and zero boundary
    columns.  Serves as the leaf-enumeration oracle for the tree operators.
    """
    require_tree(tree, "solve_backward_pathwise")
    path = tree.leaf_path(leaf)
    N, dt = tree.n_steps, tree.dt
    U = np.zeros((N + 1, grid.nx))
    for k in range(N - 1, -1, -1):
        rhs = U[k + 1] + dt * g.levels[k][:, path[k]]
        w1 = tree.lattice.w1[k][tree.states(k)[path[k]]]
        f = coeffs.drift(grid.x_interior[None, :], k * dt, w1)
        U[k] = solve_level(generator_bands(grid, f, coeffs.b_total), dt, rhs[:, None])[:, 0]
    return U


def solve_R(phi: SpaceTimeField, coeffs: CoefficientSet, grid: Grid, tree: ScenarioTree,
            tol: float = 1e-8, x0: SpaceTimeField | None = None):
    """Solve (I + B) g = phi by the undamped fixed-point iteration g <- phi - B g.

    Returns (g, info) where info reports the iteration count and residual
    history (X0 norms of (I+B)g - phi).  The error after n steps is
    (-B)^n (g_0 - g), and B^N = 0, so the residual falls below
    tol * ||phi|| within N + 1 sweeps unless tol is below round-off; from
    the zero start the history is the Neumann series norms ||B^n phi||.
    Raises ConvergenceError otherwise.  op_L solves the same system by
    back-substitution; this iteration is kept because its convergence is a
    claim of its own (the solvability experiment).
    """
    phi_norm = norm_x0(phi)
    if phi_norm == 0.0:
        return SpaceTimeField.zeros(grid, tree), {
            "iterations": 0,
            "residual": 0.0,
            "residual_history": [],
        }
    g = phi.copy() if x0 is None else x0.copy()
    history = []
    sweeps = tree.n_steps + 1
    for it in range(1, sweeps + 1):
        bg = backward_sweep(g, coeffs, grid, tree)[2]
        r = g + bg - phi
        rn = norm_x0(r)
        history.append(rn)
        if rn <= tol * phi_norm:
            return g, {"iterations": it, "residual": rn, "residual_history": history}
        g = phi - bg
    raise ConvergenceError(
        f"(I+B) g = phi did not reach tol={tol:g} in {sweeps} sweeps "
        f"(last residual {history[-1]:.3e}), though B^N = 0 makes it exact in N: "
        f"B is not causal or tol is below round-off",
        iterations=sweeps,
        residual=history[-1],
    )


def op_L(phi: SpaceTimeField, coeffs: CoefficientSet, grid: Grid,
         tree: ScenarioTree) -> BackwardSolution:
    """L phi = T R phi: the generalized solution pair (v, X) representing
    the conditional functional with integrand phi, and g = R phi.

    One backward sweep: at each level the kernels come from the child
    spread of v^{k+1}, then g^k = phi^k - (B g)^k, then v^k; this solves
    (I + B) g = phi exactly by back-substitution.
    """
    return backward_sweep(None, coeffs, grid, tree, phi)[3]


def residual_bspde(sol: BackwardSolution, g: SpaceTimeField, coeffs: CoefficientSet, grid: Grid,
                   tree: ScenarioTree) -> float:
    """X0 norm of the discrete residual of the integrated backward relation

        v(t) = int_t^T [A v + g] - int_t^T X domega,

    evaluated per leaf with a trapezoidal rule in the drift integral and the
    Ito (left-point) rule in the stochastic sum.
    """
    require_tree(tree, "residual_bspde")
    N, dt, d = tree.n_steps, tree.dt, tree.d
    leaves = np.arange(tree.n_leaves)
    drift_acc = np.zeros((grid.nx, tree.n_leaves))
    noise_acc = np.zeros((grid.nx, tree.n_leaves))

    def drift_term(k):  # each node's drift row is its lattice state's
        bands = generator_bands(grid, coeffs.drift_nodes(grid, tree, k)[tree.states(k)],
                                coeffs.b_total)
        av = apply_bands(bands, sol.v.levels[k]) + g.levels[k]
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
        for j in range(d):
            noise_acc += sol.kernels[j].levels[k][:, anc] * kick[j]
        r = sol.v.levels[k][:, anc] - drift_acc + noise_acc
        total += dt * grid.dx * float(np.einsum("xl,xl->", r, r)) / tree.n_leaves
    return float(np.sqrt(total))
