"""Adapted space-time fields on a grid and a state space, their pairings
and norms, and the seeded test field the experiments draw.

A SpaceTimeField stores one array per time level with one column per node
of that level, so adaptedness is structural: a value cannot depend on more
of the path than its node.  Levels are x-major ("node-last"): level k is a
C-contiguous (nx, n_nodes(k)) array, so the interior rows [1:-1] are the
contiguous system-axis-first block the tridiagonal solver (no pivoting)
works on in place.  The solvers' fields live on the w1 lattice, column j
of level k the conditional mean given its w1; `from_function` and
`smooth_random_field` evaluate there, and on a scenario tree (the density's
and the per-path oracles') gather that field by each node's state (`on`).
The X0 inner product discretizes the time integral with the left rule over
the n_steps cells, weighting level k by P_k = tree.weights(k),

    <F, G> = dt * sum_k  sum_n P_k(n) <F^k(n), G^k(n)>_{H0},   k = 0 .. n_steps-1,

and the norms weight the levels the same way.  `pair_x0_dual` pairs a
backward-type tree field with a forward-marched one cell by cell (slice k
against the children's slice k+1), which aligns the two one-sided
quadratures of the same time integral; it refuses a lattice.  `norm_xk`
gives the X^-1 and X^1 norms from the level slices' H^k norms
(`domain.hk_norm_sq`: the H^1 norm by stencil, the H^-1 norm by one
tridiagonal solve), `norm_c0` the largest mean-square H0 norm over the
levels.
"""

from __future__ import annotations

import numpy as np

from .domain import Grid, hk_norm_sq
from .rng import pcg64_normal
from .tree import ScenarioTree, require_space


class FieldError(ValueError):
    """Raised on mismatched grids/trees or mis-shaped level data."""


class SpaceTimeField:
    """Adapted space-time random field on a grid and a state space, the w1
    lattice or a scenario tree (`tree`).

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
    def from_function(cls, grid: Grid, space, fn) -> "SpaceTimeField":
        """Evaluate fn(x_column, t, w1_row) at every state of space's w1
        lattice, on space (a tree or the lattice itself); fn must broadcast."""
        lattice = space.lattice
        levels = [np.array(np.broadcast_to(fn(grid.x[:, None], k * lattice.dt, w1[None, :]),
                                           (grid.nx, k + 1)), dtype=float)
                  for k, w1 in enumerate(lattice.w1)]
        return cls(grid, lattice, levels).on(space)

    def on(self, space) -> "SpaceTimeField":
        """This w1-lattice field on space: itself on its own lattice; on a
        tree, level k's column n is state space.states(k)[n], C-contiguous.
        FieldError unless the field lives on space's lattice."""
        if not _same_space(self.tree, space.lattice):
            raise FieldError("only a field on a space's w1 lattice gathers onto it")
        if space.kind == "lattice":
            return self
        return SpaceTimeField(self.grid, space, [np.take(a, space.states(k), axis=1)
                                                 for k, a in enumerate(self.levels)])

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


def _same_space(a, b) -> bool:
    """Whether two trees or lattices are one state space and time grid."""
    return a is b or all(getattr(a, key) == getattr(b, key)
                         for key in ("kind", "d", "n_steps", "horizon"))


def _check_compatible(F: SpaceTimeField, G: SpaceTimeField):
    if F.grid is not G.grid and not np.array_equal(F.grid.x, G.grid.x):
        raise FieldError("fields live on different grids")
    if not _same_space(F.tree, G.tree):
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
    require_space(F.tree, "tree", "pair_x0_dual", FieldError)
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


def smooth_random_field(grid: Grid, space, seed: int) -> SpaceTimeField:
    """Seeded random test field on space (a tree or a lattice): smooth sine
    profile in x, adapted in time, evaluated at the states of space's w1
    lattice.

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
    lattice = space.lattice
    levels = []
    for k, w1 in enumerate(lattice.w1):
        ramp = (k * lattice.dt) / lattice.horizon
        weights = amp[0][:, None] + amp[1][:, None] * np.tanh(w1[None, :]) + amp[2][:, None] * ramp
        level = modes.T @ weights  # (nx, m) @ (m, k + 1)
        level[[0, -1]] = 0.0
        levels.append(level)
    return SpaceTimeField(grid, lattice, levels).on(space)
