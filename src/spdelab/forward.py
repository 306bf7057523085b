"""Forward-in-time solvers for the dual problems and the density equation.

Every equation here advances by the semi-implicit step

    (I - dt A*(t_k, n_k)) u^{k+1} = u^k + dt * drift^{k+1}
                                        + sum_j noise_j^k * domega_{j,k},

fully implicit in the dual generator (with the drift source at the new
time, matching the fully implicit backward marcher) and Ito-explicit in the
stochastic term: the noise source is evaluated at the old level and at the
left time point.  The coefficients of A* are frozen predictably at the
step's left node; letting them anticipate the child state would correlate
the operator with the very increment it multiplies and leave a drift-scale
bias in the duality pairings that refinement cannot remove.  Solutions stay
adapted because each child of a node gets its own increment.  Homogeneous
Dirichlet data are imposed at every step.  A step builds the right-hand
side of every child as one (br, nx, n_k) array, solves it in place with the
parent's matrix, and merges it into the (nx, n_{k+1}) next level
(tree.merge: on the w1 lattice, conditional means given the state).

Problems that share the generator march in lockstep: solve_duals advances
T*, G_0*, B*, R* and L* of one h together, and every level's right-hand
sides of all S problems sit side by side, S * br columns per node, in one
banded solve with the level's A* bands.  The result is bit-identical to S
separate marches: the tridiagonal solver (no pivoting) never mixes
columns and every other step is elementwise per problem, so only the
number of solves changes (one per level instead of S).  The
single-operator solvers and solve_density are one-problem calls of the same
march.  The duals pair with fields that read the path only through w1, so
they need only their conditional means given it and solve on the w1
lattice (the second component's kicks drop out).  solve_density also
marches the tree, whose levels factor their k + 1 lattice states' bands
and gather each node's factors by its state.

Operator forms (all with zero data at t = 0 and on the boundary):

    T* h        d pi = [A* pi + h] dt
    G_j* h      d q  = A* q dt + h domega_j
    B* h        d z  = A* z dt + sum_j (div, beta_j h) domega_j
    R* pi       h = pi - z,  d z = A* z dt + sum_j (div, beta_j (pi - z)) domega_j
    L* xi       d h  = [A* h + xi] dt - sum_j (div, beta_j h) domega_j

and the density equation  d p = A* p dt - sum_j (div, beta_j p) domega_j
with initial datum p0.  R*, L* and the density equation require the
superparabolic regime (d < d0 with a nondegenerate tail block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import level_factors, solve_level
from .coefficients import CoefficientSet
from .domain import Grid, dx_centered, generator_bands
from .domain import solve_tridiag as solve_tridiag  # benchmarks/test_bench.py reads it here
from .fields import SpaceTimeField
from .tree import Lattice, ScenarioTree, require_space


class ForwardSolverError(RuntimeError):
    """Raised on degenerate regimes, singular steps or blow-up."""


@dataclass
class DensitySolution:
    """Conditional density field with its mass trace and positivity audit."""

    p: SpaceTimeField
    mass: list  # per level k: (n_nodes(k),) values of int_D p dx
    min_density: list  # per level: smallest nodal value
    flagged: bool  # True when min p dips below -1e-3 * max p at some level


def _require_superparabolic(coeffs: CoefficientSet, what: str):
    if not coeffs.superparabolic():
        raise ForwardSolverError(
            f"{what} requires the superparabolic regime (d < d0 with "
            "nondegenerate beta tilde); validation failed"
        )


def _forward_march(coeffs, grid, tree, sources, state0=None):
    """March len(sources) problems over every node of tree (the w1 lattice;
    a scenario tree only for the density, whose sources carry no drift) in
    lockstep with the splitting step, each from the root slice state0
    (nx, 1), zero when not given; returns one SpaceTimeField per problem.

    Each source(k, state) -> (drift, noise) reads its own problem's level-k
    state: drift holds the level-(k+1) source slice entering the implicit
    half (or None), noise a list per driving component of level-k slices for
    the explicit kick (or None).  A level's right-hand sides fill one
    (S, br, nx, n_k) block, solved by one solve_level call through its
    x-major (nx, n_k, S, br) view, with the factors of the level's lattice
    states: the node axis innermost, so the solve's loops run along the
    nodes, not along the children against a zero-stride factor.
    """
    N, br = tree.n_steps, tree.branching
    root = np.zeros((grid.nx, 1)) if state0 is None else np.asarray(state0, dtype=float)
    if root.shape != (grid.nx, 1):
        raise ForwardSolverError("initial state must be a single root slice")
    fields = [[root.copy()] for _ in sources]
    for k in range(N):
        n_k = tree.n_nodes(k)
        block = np.empty((len(sources), br, grid.nx, n_k))
        for rhs, source, levels in zip(block, sources, fields):
            _children_rhs(tree, k, levels[-1], source, rhs)
        bands = generator_bands(grid, coeffs.drift_nodes(grid, tree, k), coeffs.b_total, dual=True)
        solve_level(level_factors(bands, tree.dt, grid.ni), block.transpose(2, 3, 0, 1),
                    tree.states(k))
        for rhs, levels in zip(block, fields):
            state = tree.merge(rhs.transpose(1, 2, 0))
            if not (np.isfinite(state.max()) and np.isfinite(state.min())):
                raise ForwardSolverError(f"forward march lost finiteness at level {k + 1}")
            levels.append(state)
    return [SpaceTimeField(grid, tree, levels) for levels in fields]


def _children_rhs(tree, k, state, source, out):
    """Write the right-hand side of every child of the level-k nodes into out
    (br, nx, n_k); the sources' temporaries die on return, and a child's
    kicks are dropped before the next child's are formed."""
    n_k = out.shape[2]
    drift, noise = source(k, state)
    for b, plane in enumerate(out):  # child b of every node: a contiguous (nx, n_k) plane
        np.add(state, 0.0 if drift is None else tree.dt * tree.child(drift, b, n_k), out=plane)
        kicks = [src * (tree.digit_signs[b, j] * tree.sqdt)
                 for j, src in enumerate(noise or []) if src is not None]
        if kicks:
            plane += sum(kicks[1:], kicks[0])
        del kicks


# Sources of the forward duals, one per operator: source(k, state) -> (drift,
# noise) as _forward_march reads them; the lattice drives one component.

def _T_source(h):
    return lambda k, state: (h.levels[k + 1], None)


def _G_source(h):
    return lambda k, state: (None, [h.levels[k]])


def _B_source(h, sigma, grid):
    return lambda k, state: (None, [dx_centered(grid, sigma[0] * h.levels[k])])


def _R_source(pi, sigma, grid):
    """z of h = pi - z: the feedback (div, beta_1 (pi - z)) is taken
    explicitly from the previous level."""
    return lambda k, state: (None, [dx_centered(grid, sigma[0] * (pi.levels[k] - state))])


def _L_source(xi, sigma, grid, d):
    """L* xi; with xi None, the density equation (d kicks on a tree)."""
    return lambda k, state: (
        None if xi is None else xi.levels[k + 1],
        [np.negative(u, out=u) for u in (dx_centered(grid, sigma[j] * state) for j in range(d))])


def solve_T_star(h: SpaceTimeField, coeffs, grid: Grid, tree: Lattice) -> SpaceTimeField:
    """pi with d pi = [A* pi + h] dt, zero initial and boundary data."""
    require_space(tree, "lattice", "solve_T_star")
    return _forward_march(coeffs, grid, tree, [_T_source(h)])[0]


def solve_G_star(j: int, h: SpaceTimeField, coeffs, grid: Grid, tree: Lattice) -> SpaceTimeField:
    """q with d q = A* q dt + h domega_j, zero initial and boundary data; j
    is 0, since for j >= 1 q has zero conditional mean given w1."""
    require_space(tree, "lattice", "solve_G_star")
    if j != 0:
        raise ForwardSolverError(
            f"G_{j}* has zero conditional mean given w1 for j >= 1 and is not marched"
            if 0 < j < coeffs.d else f"component j={j} outside 0..{coeffs.d - 1}")
    return _forward_march(coeffs, grid, tree, [_G_source(h)])[0]


def solve_B_star(h: SpaceTimeField, coeffs, grid: Grid, tree: Lattice) -> SpaceTimeField:
    """z with d z = A* z dt + sum_j (div, beta_j h) domega_j."""
    require_space(tree, "lattice", "solve_B_star")
    return _forward_march(coeffs, grid, tree, [_B_source(h, coeffs.sigma, grid)])[0]


def solve_R_star(pi: SpaceTimeField, coeffs, grid: Grid, tree: Lattice) -> SpaceTimeField:
    """h = pi - z where z feeds back into its own noise source.

    The feedback (div, beta_j (pi - z)) is taken explicitly from the previous
    level, so one forward sweep inverts I + B* exactly in the discrete sense.
    """
    require_space(tree, "lattice", "solve_R_star")
    _require_superparabolic(coeffs, "R*")
    return pi - _forward_march(coeffs, grid, tree, [_R_source(pi, coeffs.sigma, grid)])[0]


def solve_L_star(xi: SpaceTimeField, coeffs, grid: Grid, tree: Lattice) -> SpaceTimeField:
    """h with d h = [A* h + xi] dt - sum_j (div, beta_j h) domega_j."""
    require_space(tree, "lattice", "solve_L_star")
    _require_superparabolic(coeffs, "L*")
    return _forward_march(coeffs, grid, tree, [_L_source(xi, coeffs.sigma, grid, 1)])[0]


def solve_duals(h: SpaceTimeField, coeffs, grid: Grid, tree: Lattice) -> dict:
    """{"T": T* h, "G": G_0* h, "B": B* h, "R": R* h, "L": L* h} from one
    lockstep march: one banded solve per level for all five, each equal to
    its solve_*_star call bit for bit."""
    require_space(tree, "lattice", "solve_duals")
    _require_superparabolic(coeffs, "solve_duals")
    sigma = coeffs.sigma
    t, g, b, z, l = _forward_march(coeffs, grid, tree, [
        _T_source(h), _G_source(h), _B_source(h, sigma, grid),
        _R_source(h, sigma, grid), _L_source(h, sigma, grid, 1)])
    for pi, level in zip(h.levels, z.levels):  # R* h = h - z, in z's storage
        np.subtract(pi, level, out=level)
    return {"T": t, "G": g, "B": b, "R": z, "L": l}


_BLOWUP_GUARD = 1e6


def solve_density(
    p0: np.ndarray,
    coeffs: CoefficientSet,
    grid: Grid,
    tree: ScenarioTree,
) -> DensitySolution:
    """Conditional density along every tree path, marched from p0 with its
    boundary values clamped to zero; on the w1 lattice, its conditional means
    given (k, w1), exact wherever they are paired with a field that reads the
    path only through w1.

    p0 must be a nonnegative grid function of unit mass.  The density is not
    clipped: small negative lobes of the scheme are reported through the
    positivity audit instead of being removed, since clipping would destroy
    the duality identities.  On the lattice the audit covers the conditional
    means, which is weaker than the tree's per-node audit.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (grid.nx,):
        raise ForwardSolverError("p0 must be a grid function")
    _require_superparabolic(coeffs, "the density equation")
    if p0.min() < -1e-12:
        raise ForwardSolverError("p0 must be nonnegative")
    mass0 = grid.dx * float(p0[1:-1].sum())
    if abs(mass0 - 1.0) > 1e-8:
        raise ForwardSolverError(f"p0 must have unit mass, got {mass0:.6f}")
    start = p0[:, None].copy()
    start[[0, -1]] = 0.0
    p = _forward_march(coeffs, grid, tree, [_L_source(None, coeffs.sigma, grid, tree.d)], start)[0]
    for level, state in enumerate(p.levels):
        if state.max() > _BLOWUP_GUARD or state.min() < -_BLOWUP_GUARD:
            raise ForwardSolverError(f"density blow-up at level {level}")
    mass = [grid.dx * state[1:-1].sum(axis=0) for state in p.levels]
    min_density = [float(state.min()) for state in p.levels]
    peak = max(a.max() for a in p.levels)
    flagged = min(min_density) < -1e-3 * max(peak, 1e-300)
    return DensitySolution(p=p, mass=mass, min_density=min_density, flagged=flagged)
