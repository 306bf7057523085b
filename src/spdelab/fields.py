"""Adapted space-time fields on a grid and scenario tree, their pairings and
norms, and the seeded test field the experiments draw.

A SpaceTimeField stores one array per time level with one column per tree
node of that level, so adaptedness is structural: a value cannot depend on
more of the path than its node.  Levels are x-major ("node-last"): level k
is a C-contiguous (nx, n_nodes(k)) array, so the interior rows [1:-1] are
the contiguous system-axis-first block the tridiagonal solver (no
pivoting) works on in place, and the children of node n are the
contiguous columns levels[k + 1].reshape(nx, n_nodes(k), branching)[:, n].
On the w1 lattice column j of level k is the conditional mean given its w1.
The X0 inner product discretizes the time integral with the left rule over
the n_steps cells, weighting level k by P_k = tree.weights(k),

    <F, G> = dt * sum_k  sum_n P_k(n) <F^k(n), G^k(n)>_{H0},   k = 0 .. n_steps-1,

and the norms weight the levels the same way.  `pair_x0_dual` pairs a
backward-type field with a forward-marched one cell by cell (slice k
against slice k+1), which aligns the two one-sided quadratures of the same
time integral; it refuses a lattice.  `norm_xk` gives the X^-1 and X^1
norms from the level slices' H^k norms (`domain.hk_norm_sq`: the H^1 norm
by stencil, the H^-1 norm by one tridiagonal solve), `norm_c0` the largest
mean-square H0 norm over the levels.
"""

from __future__ import annotations

import numpy as np

from .domain import Grid, hk_norm_sq
from .rng import pcg64_normal
from .tree import ScenarioTree, require_tree


class FieldError(ValueError):
    """Raised on mismatched grids/trees or mis-shaped level data."""


class SpaceTimeField:
    """Adapted space-time random field on a grid and scenario tree.

    levels[k] has shape (nx, n_nodes(k)): one column per level-k node, one row
    per grid node, C-contiguous.  Dirichlet fields carry zeros in the first
    and last row.
    """

    __slots__ = ("grid", "tree", "levels")

    def __init__(self, grid: Grid, tree: ScenarioTree, levels):
        if len(levels) != tree.n_steps + 1:
            raise FieldError(
                f"need {tree.n_steps + 1} level slices, got {len(levels)}"
            )
        self.grid = grid
        self.tree = tree
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        for k, a in enumerate(self.levels):
            if a.shape != (grid.nx, tree.n_nodes(k)):
                raise FieldError(
                    f"level {k} slice has shape {a.shape}, expected "
                    f"{(grid.nx, tree.n_nodes(k))}"
                )

    @classmethod
    def zeros(cls, grid: Grid, tree: ScenarioTree) -> "SpaceTimeField":
        return cls(
            grid,
            tree,
            [np.zeros((grid.nx, tree.n_nodes(k))) for k in range(tree.n_steps + 1)],
        )

    @classmethod
    def from_function(cls, grid: Grid, tree: ScenarioTree, fn) -> "SpaceTimeField":
        """Evaluate fn(x_column, t, w1_row) on every level; fn must broadcast."""
        levels = []
        for k in range(tree.n_steps + 1):
            w1 = tree.w1[k][None, :]
            vals = np.broadcast_to(
                fn(grid.x[:, None], k * tree.dt, w1), (grid.nx, tree.n_nodes(k))
            )
            levels.append(np.array(vals, dtype=float))
        return cls(grid, tree, levels)

    def copy(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.tree, [a.copy() for a in self.levels])

    # arithmetic ---------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, SpaceTimeField):
            _check_compatible(self, other)
            return SpaceTimeField(
                self.grid,
                self.tree,
                [op(a, b) for a, b in zip(self.levels, other.levels)],
            )
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return SpaceTimeField(self.grid, self.tree, [c * a for a in self.levels])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _check_compatible(F: SpaceTimeField, G: SpaceTimeField):
    if F.grid is not G.grid and not np.array_equal(F.grid.x, G.grid.x):
        raise FieldError("fields live on different grids")
    if F.tree is not G.tree and any(getattr(F.tree, key) != getattr(G.tree, key)
                                    for key in ("kind", "d", "n_steps", "horizon")):
        raise FieldError("fields live on different trees")


def _level_dot(tree, k: int, a: np.ndarray, b: np.ndarray) -> float:
    """sum_n P_k(n) sum_x a[x, n] b[x, n]; uniform (tree) weights factor out."""
    w = tree.weights(k)
    if np.ndim(w) == 0:
        return float(np.einsum("xn,xn->", a, b)) * w
    return float(np.einsum("xn,xn->n", a, b) @ w)


def inner_x0(F: SpaceTimeField, G: SpaceTimeField) -> float:
    """Discrete X0 inner product (left-rule time quadrature)."""
    _check_compatible(F, G)
    tree, grid = F.tree, F.grid
    total = 0.0
    for k in range(tree.n_steps):
        total += _level_dot(tree, k, F.levels[k], G.levels[k])
    return total * tree.dt * grid.dx


def pair_x0_dual(F: SpaceTimeField, P: SpaceTimeField) -> float:
    """Duality pairing of a backward-type field with a forward-marched one.

    Cell k pairs the level-k slice of F (value at the left edge) with the
    level-(k+1) slice of P (value carried to the right edge), expanding F
    onto the children nodes.
    """
    _check_compatible(F, P)
    require_tree(F.tree, "pair_x0_dual", FieldError)
    tree, grid = F.tree, F.grid
    br = tree.branching
    total = 0.0
    for k in range(tree.n_steps):
        child = P.levels[k + 1].reshape(grid.nx, tree.n_nodes(k), br)
        total += float(np.einsum("xn,xnb->", F.levels[k], child)) / tree.n_nodes(k + 1)
    return total * tree.dt * grid.dx


def norm_x0(F: SpaceTimeField) -> float:
    return float(np.sqrt(max(inner_x0(F, F), 0.0)))


def norm_xk(F: SpaceTimeField, k: int) -> float:
    """X^k norm for k in {-1, 0, 1}: the left-rule time quadrature of the
    mean H^k norms of the level slices (domain.hk_norm_sq)."""
    if k == 0:
        return norm_x0(F)
    tree = F.tree
    total = 0.0
    for lev in range(tree.n_steps):
        total += float((hk_norm_sq(F.levels[lev], k, F.grid) * tree.weights(lev)).sum())
    return float(np.sqrt(total * tree.dt))


def norm_c0(F: SpaceTimeField) -> float:
    """C0-type norm: max over time of the mean-square H0 norm."""
    worst = max(_level_dot(F.tree, k, a, a) * F.grid.dx for k, a in enumerate(F.levels))
    return float(np.sqrt(worst))


def smooth_random_field(grid: Grid, tree: ScenarioTree, seed: int) -> SpaceTimeField:
    """Seeded random test field: smooth sine profile in x, adapted in time.

    Each of four sine modes carries a constant part, a bounded function of
    the Brownian state (genuinely random across nodes) and a slow
    deterministic ramp, so the field is smooth in x and adapted.  The two
    boundary rows are set to exactly zero (sin(m pi) is not), so the field
    is Dirichlet-compatible.
    """
    n_modes = 4
    amp = pcg64_normal(seed, 3 * n_modes).reshape(3, n_modes) / np.arange(1, n_modes + 1)
    z = (grid.x - grid.domain.a) / (grid.domain.b - grid.domain.a)
    modes = np.sin(np.outer(np.arange(1, n_modes + 1), np.pi * z))  # (m, nx)
    horizon = tree.horizon
    levels = []
    for k in range(tree.n_steps + 1):
        w1 = tree.w1[k][None, :]
        ramp = (k * tree.dt) / horizon
        weights = amp[0][:, None] + amp[1][:, None] * np.tanh(w1) + amp[2][:, None] * ramp
        level = modes.T @ weights  # (nx, m) @ (m, n_k)
        level[[0, -1]] = 0.0
        levels.append(level)
    return SpaceTimeField(grid, tree, levels)
