"""Spatial discretization of the state space.

Provides uniform 1-d grids on an interval (absorbing boundary) or on a wide
truncated line standing in for the whole real axis, the second-order
generator

    A u = f du/dx + (1/2) b d2u/dx2,        b = beta beta^T,

its discrete dual A* (the exact transpose of the interior matrix of A in
the dx-weighted inner product), and the discrete H^-1, H^0 and H^1 norms.
Grid functions are plain numpy arrays with the grid nodes on axis 0
(batched values add trailing axes); Dirichlet fields carry zeros on the two
boundary nodes.

One banded core serves every solver and every norm: generator_bands alone
turns drift and diffusion into the bands of A or A*, thomas_rows is the
only tridiagonal solve (odd-even cyclic reduction at every batch width,
its band half cr_factors reusable across solves),
and hk_norm_sq takes the H^1 norm by the 3-point stencil and the H^-1 norm
by one thomas_rows solve with I - Laplacian.  apply_A is an independent
centered stencil (an oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Raised for invalid domain/grid construction or mismatched grids."""


@dataclass(frozen=True)
class DomainSpec:
    """Spatial domain and time horizon of the cylinder D x (0, T).

    The interval (a, b) carries a homogeneous Dirichlet (absorbing)
    condition, whether it is a bounded domain or a truncation of the line.
    """

    a: float
    b: float
    horizon: float

    def __post_init__(self):
        if not self.a < self.b:
            raise GridError(f"need a < b, got a={self.a}, b={self.b}")
        if not self.horizon > 0:
            raise GridError(f"need horizon > 0, got {self.horizon}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [a, b]; nodes 0 and nx-1 are boundary nodes."""

    domain: DomainSpec
    x: np.ndarray
    dx: float

    @property
    def nx(self) -> int:
        return self.x.size

    @property
    def ni(self) -> int:
        """Number of interior nodes."""
        return self.x.size - 2

    @property
    def x_interior(self) -> np.ndarray:
        return self.x[1:-1]


def build_grid(domain: DomainSpec, nx: int) -> Grid:
    """Build a uniform grid covering the domain.

    Parameters
    ----------
    domain : DomainSpec
    nx : int
        Node count including the two boundary nodes; at least 8.  The
        nodes must be finite and strictly increasing, and dx^2, which the
        generator's bands divide by, finite and positive.
    """
    if nx < 8:
        raise GridError(f"nx too small: need nx >= 8, got {nx}")
    with np.errstate(all="ignore"):  # b - a may overflow
        x = np.linspace(domain.a, domain.b, nx)
    x.setflags(write=False)
    dx = (domain.b - domain.a) / (nx - 1)
    if not (np.isfinite(x).all() and (np.diff(x) > 0).all() and 0.0 < dx * dx < np.inf):
        raise GridError(f"nx={nx} on [{domain.a!r}, {domain.b!r}] is no grid in floating "
                        f"point: its nodes must be finite and strictly increasing and dx^2 "
                        f"finite and positive, got dx={dx:g}")
    return Grid(domain=domain, x=x, dx=dx)


def _check_grid_function(grid: Grid, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[0] != grid.nx:
        raise GridError(f"grid function has {u.shape[0]} values, grid has {grid.nx} nodes")
    if not np.all(np.isfinite(u)):
        raise GridError("grid function contains non-finite entries")
    return u


def generator_bands(grid: Grid, f, b, dual=False):
    """Interior tridiagonal bands of A = f d/dx + (1/2) b d2/dx2, or of its
    dual A* (the exact transpose of that interior matrix) when dual is set.

    Rows layout, system axis first: f holds one drift row per system,
    shape (n, ni), or (n, 1) when the drift does not depend on x; b is the
    scalar beta beta^T.  Returns (lower, diag, upper), each broadcastable to
    (ni, n): lower[i] couples interior row i to i-1, upper[i] couples it to
    i+1.  lower[0] and upper[-1] lie outside the matrix and are never read.
    """
    adv = np.asarray(f, dtype=float).T / (2.0 * grid.dx)
    dif = b / (2.0 * grid.dx**2)
    lower, upper = dif - adv, dif + adv
    if dual:
        # A*[i, i-1] = A[i-1, i] and A*[i, i+1] = A[i+1, i]: a shift by one
        # row, which is a plain swap when the bands hold a single row
        lower, upper = (np.concatenate([upper[:1], upper[:-1]]),
                        np.concatenate([lower[1:], lower[-1:]]))
    return lower, -2.0 * dif, upper


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


def cr_factors(L, D, U, n):
    """The band half of thomas_rows for n-row systems with bands L, D, U
    broadcastable to (n, nb): per halving, the multipliers alpha, gamma and
    the even rows ae, be, ce of the bands; then the diagonal of the row left."""
    w = (n,) + np.broadcast_shapes(*(np.shape(a)[1:] for a in (L, D, U)))
    a, c = np.negative(np.broadcast_to(L, w)), np.negative(np.broadcast_to(U, w))
    a[0] = c[-1] = 0.0
    b, stages = np.broadcast_to(D, w), []
    while len(b) > 1:
        ne, no = len(b) - len(b) // 2, len(b) // 2  # even and odd rows
        ae, be, ce = a[0::2], b[0::2], c[0::2]
        # alpha eliminates the left even neighbour of every odd row, gamma
        # the right one, which the last odd row lacks when len(b) is even;
        # both overwrite the odd rows of a and c, which nothing reads again
        alpha = np.divide(a[1::2], be[:no], out=a[1::2])
        gamma = np.divide(c[1::2][: ne - 1], be[1:], out=c[1::2][: ne - 1])
        stages.append((alpha, gamma, ae, be, ce))
        a = alpha * ae[:no]
        b = b[1::2] - alpha * ce[:no]
        b[: ne - 1] -= gamma * ae[1:]
        c = np.zeros_like(b)
        np.multiply(gamma, ce[1:], out=c[: ne - 1])
    return stages, b


def thomas_rows(L, D, U, X, states=None):
    """Tridiagonal solve in rows layout: system axis first, by odd-even
    cyclic reduction, in place on X.

    L, D, U broadcastable to (n, nb), or L the cr_factors of them and D, U
    None; X is (n, nb) or (n, nb, m1, m2, ...), any strides, and is
    overwritten with the solution: every trailing index is one right-hand
    side sharing system nb's matrix.  With states, an index per system of
    X into the bands' columns, system i of X solves with column states[i],
    and X's nb is len(states): each stage's factors are gathered by state
    just before they are applied, one array at a time, so factors are never
    held with a column per system.  The values of L[0] and U[n-1] never
    influence the solution.  No pivoting: callers must supply diagonally
    dominant systems (I - dt*A is one when 2 dt (|f|/(2dx) - b/(2dx^2)) <= 1,
    which the load rule config._levels_dominant in config.RULES checks).
    The name predates the algorithm; callers and the benchmark tracer look
    it up by it.

    With a = -L, c = -U, row i reads -a_i x_{i-1} + D_i x_i - c_i x_{i+1}
    = X_i.  Each stage adds multiples of the even rows 2k and 2k+2 to the
    odd row 2k+1 so that its even neighbours drop out, which leaves the odd
    rows as a tridiagonal system of half the size; diagonal dominance
    survives the step (Heller 1976).  The band half, cr_factors, reduces the
    bands; this half applies its multipliers to the odd rows of each stage's
    view of X.  Once one row is left, the stages are undone in reverse: each
    even row follows from its two odd neighbours.  Every operation is
    elementwise across systems and right-hand sides, so each solution is
    bit-identical whatever else is solved with it, fresh, reused or
    gathered factors.  Factors broadcast along X's trailing axes: with nb
    innermost in memory, the loops run along nb, not along a short axis
    against a zero stride.
    """
    stages, last = L if D is None else cr_factors(L, D, U, len(X))
    col = (slice(None), slice(None)) + (None,) * (X.ndim - 2)  # bands against X

    def at(a):  # a factor against X, its columns gathered by state
        if states is not None:  # a broadcast factor has one column's values
            a = a[:, :1] if a.strides[1] == 0 else np.take(a, states, axis=1)
        return a[col]

    d, levels = X, []
    for alpha, gamma, *_ in stages:
        levels.append(d)
        de, d = d[0::2], d[1::2]
        d += at(alpha) * de[: len(alpha)]
        d[: len(gamma)] += at(gamma) * de[1:]
    np.divide(d, at(last), out=d)
    for (_, _, ae, be, ce), level in zip(reversed(stages), reversed(levels)):
        # the odd rows of level hold this stage's solution, d
        xe = level[0::2]
        xe[1:] += at(ae[1:]) * d[: len(be) - 1]
        xe[: len(d)] += at(ce[: len(d)]) * d
        xe /= at(be)
        d = level
    return X


def solve_tridiag(lower, diag, upper, rhs):
    """Solve batched tridiagonal systems along the last axis.

    All arguments broadcast against each other; the last axis is the
    system dimension.  A layout adapter over thomas_rows.
    """
    shape = np.broadcast_shapes(*map(np.shape, (lower, diag, upper, rhs)))
    n = shape[-1]

    def rows(a):
        return np.moveaxis(np.broadcast_to(a, shape), -1, 0).reshape(n, -1)

    X = np.array(rows(rhs), dtype=float, order="C")
    thomas_rows(rows(lower), rows(diag), rows(upper), X)
    return np.moveaxis(X.reshape((n,) + shape[:-1]), 0, -1)


def apply_A(coeffs, u, t, w1, grid: Grid) -> np.ndarray:
    """Apply the generator at time t and first Wiener component w1 by
    centered differences.

    Interior nodes get f u' + (1/2) b u'' using the stored values of u
    (including its boundary entries); boundary rows are zero.
    """
    u = _check_grid_function(grid, u)
    f, b = coeffs.drift(grid.x_interior, t, w1), coeffs.b_total
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(b))):
        raise GridError("coefficient evaluation returned non-finite values")
    out = np.zeros_like(u)
    dx = grid.dx
    du = (u[2:] - u[:-2]) / (2.0 * dx)
    d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
    out[1:-1] = f * du + 0.5 * b * d2u
    return out


def apply_A_star(coeffs, u, t, w1, grid: Grid) -> np.ndarray:
    """Apply the dual generator: the exact transpose of the interior matrix
    of apply_A in the dx-weighted inner product."""
    u = _check_grid_function(grid, u)
    f = coeffs.drift(grid.x_interior[None, :], t, w1)
    return apply_bands(generator_bands(grid, f, coeffs.b_total, dual=True), u[:, None])[:, 0]


def h0_inner(u: np.ndarray, v: np.ndarray, grid: Grid) -> float:
    """Discrete L2(D) inner product, dx-weighted over the nodes."""
    return float(grid.dx * np.dot(np.asarray(u), np.asarray(v)))


def hk_norm_sq(u: np.ndarray, k: int, grid: Grid) -> np.ndarray:
    """Squared H^k norms of the columns of u (grid nodes on axis 0, boundary
    rows not read), k in {-1, 0, 1}, with Laplacian the 3-point Dirichlet
    stencil on the interior values ui:

        k = 1:  dx (sum ui^2 + sum over the ni + 1 edges (u_{i+1} - u_i)^2 / dx^2)
        k = 0:  dx sum ui^2
        k = -1: dx ui^T (I - Laplacian)^-1 ui, one thomas_rows solve; the
                matrix is strictly diagonally dominant.
    """
    if k not in (-1, 0, 1):
        raise GridError(f"H^k norms need k in {{-1, 0, 1}}, got {k}")
    ui, dx = np.asarray(u, dtype=float)[1:-1], grid.dx
    if k == 1:
        edges = np.diff(ui, axis=0, prepend=0.0, append=0.0)
        return dx * ((ui * ui).sum(axis=0) + (edges * edges).sum(axis=0) / dx**2)
    if k == 0:
        return dx * (ui * ui).sum(axis=0)
    w = np.array(ui.reshape(len(ui), 1, -1))
    off = np.full((1, 1), -1.0 / dx**2)
    thomas_rows(off, np.full((1, 1), 1.0 + 2.0 / dx**2), off, w)
    return dx * (ui * w.reshape(ui.shape)).sum(axis=0)


def dx_centered(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Centered first derivative along axis 0; boundary rows zero; u may be
    batched on trailing axes."""
    out = np.empty_like(u)
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * grid.dx
    out[[0, -1]] = 0.0
    return out


def dx_centered_onesided(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Like dx_centered but with second-order one-sided stencils at the
    first and last interior nodes (does not touch the boundary values)."""
    out = dx_centered(grid, u)
    h2 = 2.0 * grid.dx
    out[1] = (-3.0 * u[1] + 4.0 * u[2] - u[3]) / h2
    out[-2] = (3.0 * u[-2] - 4.0 * u[-3] + u[-4]) / h2
    return out
