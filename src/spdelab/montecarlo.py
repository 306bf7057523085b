"""Euler-Maruyama simulation with first-exit detection and estimators.

Paths follow

    y_{m+1} = y_m + f(y_m, t_m, node(t_m)) dt_mc + sigma . dW_m,

with the drift's noise state taken from the tree node active on the coarse
step containing t_m, so Monte Carlo and the tree solvers see the same
coefficient process; a bridged path carries that node's j (the down steps of
its first component, one edge's bit of its leaf added per block) and w1
(`tree.w1_at`) where an integrand or the drift reads it, and no march holds
a tree.  The march draws the scalar noise
sigma . dW, one normal per path and fine step, one block at a time for the
paths live at the block's start, by one routine, `tree.PathBundle.draw`: a
block is a coarse step on a tree, or a span of a few fine steps of free
paths, hashed `tree.HASH_NORMALS` normals per call and, on a tree, shifted
by the bridge through each path's leaf.  The march stops as soon as every
path has exited.  A march is one loop in the calling thread.  Each fine step
does only the update (y + f dt) + noise, the weights, the exit test and the
integrands: a drift that does not read x is taken once per block, times
dt_mc, on a tree at the k + 1 lattice states of the block's level and read
by each path's j, and an exit compacts the live paths' index, state,
weight, running integrals and, on a tree, leaf, j, w1 and f dt through one
integer index, while the block stays as drawn and a column index maps the
live paths to its columns.
No fine-mesh history is stored, and the live state is the only copy of the
path positions: a path is recorded at the requested snapshot times, at its
exit into every snapshot still to come, and through the running integrals
of the integrands registered with `simulate`.  Exits are tested at mesh points, and
between two of them each path is weighed by the survival of its Brownian
bridge (`_bridge_survival`), the one exit rule of every march: a path's
weight is the product of its factors, its running integrals sum
phi(y_m) dt_mc (w_m + w_{m+1}) / 2, and an estimate weighs a snapshot by
the weight there.  A path with both ends of a step at least sqrt(40 / c)
inside the walls takes the factor 1.0 without computing it.  Tree-bridged
estimates under a drift that does not read x march at the tree step and
take what lies between two tree times from the bridge: a running integral
is integrated over each step's bridge in closed form (`functional_estimate`,
`_bridge_step`).  Exited paths freeze, their alive indicator
flips once and their weight is 0.  Estimates run in chunks of CHUNK paths,
one after another; `rng` says how a chunk is seeded and what it draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .domain import Grid
from .rng import pcg64_uniform
from .tree import PathBundle, branch_digits, bridge_paths, free_paths, sample_tree_paths, w1_at


class SimulationError(ValueError):
    """Raised for inconsistent simulation inputs."""


@dataclass(frozen=True)
class EstimatorResult:
    """A Monte Carlo mean and its standard error, with the record of the
    marches behind it: the paths per chunk, the normals drawn and the share
    of paths that exited (on the last fine step too), summed over the chunks
    in chunk order so the record is deterministic, and the step dt and the
    fine steps over the horizon its paths marched.  summary.json prints it
    as it is.
    """

    value: float
    stderr: float
    chunks: tuple
    normals_drawn: int
    exit_frac: float
    dt: float
    fine_steps: int


@dataclass
class TrajectorySet:
    """Simulated paths: snapshots, exit data and accumulated integrals.

    Integrands registered at simulation time are accumulated online, so no
    estimate needs the fine-mesh history; a fine history, when wanted, is
    the snapshot set at every mesh time.  A path's weight is the survival
    of its bridges between the mesh points so far, 0 once it has exited.
    `normals_drawn` counts the normals the march drew, one per live path and
    fine step of each block it drew, and `exits` the paths that left the
    domain, each counted at its exit.
    """

    snapshot_times: np.ndarray  # (n_snap,)
    snapshots: np.ndarray  # (M, n_snap)
    alive: np.ndarray  # (M, n_snap) bool, not exited by the snapshot time
    weights: np.ndarray  # (M, n_snap) survival weight at the snapshot time
    tau: np.ndarray  # (M,)
    integrals: dict  # name -> (M,) path integrals
    normals_drawn: int
    exits: int


# sample_from_density reads each draw's CDF interval from a table of
# _CDF_BUCKETS equal buckets of [0, 1): on 25,000 draws over 161 nodes it took
# 0.36 ms against 1.0 ms for np.interp, whose binary search was most of it
# (2-vCPU Xeon KVM guest)
_CDF_BUCKETS = 1024


def sample_from_density(p0: np.ndarray, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Draws from a gridded density, one per uniform in u (in [0, 1)), by
    inverse CDF on the node values: np.interp(u, cdf, grid.x), bit for bit,
    where cdf is nondecreasing.  u's interval j, the last with cdf[j] <= u,
    is the one at the start of u's bucket, searched for only where u is past
    its end; the draw is slope_j (u - cdf[j]) + x[j], np.interp's expression."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (grid.nx,) or p0.min() < -1e-12:
        raise SimulationError("p0 must be a nonnegative grid function")
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p0[1:] + p0[:-1]) * grid.dx)])
    if cdf[-1] <= 0:
        raise SimulationError("p0 has no mass")
    cdf /= cdf[-1]
    k = _CDF_BUCKETS
    first = np.searchsorted(cdf, np.arange(k) / k, side="right") - 1
    j = first[(u * k).astype(np.intp)]
    past = (cdf[1:][j] <= u).nonzero()[0]  # cdf[j + 1] <= u
    j[past] = np.searchsorted(cdf, u[past], side="right") - 1
    with np.errstate(divide="ignore"):  # no u falls in an interval of no mass
        slope = np.diff(grid.x) / np.diff(cdf)
    y = np.subtract(u, cdf[j])
    y *= slope[j]
    y += grid.x[j]
    return y


def simulate(coeffs: CoefficientSet, init, s: float, paths: PathBundle, domain,
             grid: Grid | None = None, integrands: dict | None = None, snapshot_times=(),
             bridge_steps: bool = False) -> TrajectorySet:
    """Euler-Maruyama marching of (1.1)-type dynamics over a path bundle.

    init is either a point inside the closed domain or a gridded initial
    density (requires grid); integrands maps names to callables
    phi(y, t, w1) whose running integrals
    sum_{t < tau} phi_m dt_mc (w_m + w_{m+1}) / 2 are accumulated online,
    phi_m = phi(y_m, t_m, w1), or with bridge_steps the mean of phi over the
    step's Brownian bridge (_bridge_step, which passes phi a var);
    snapshot_times are the mesh times in [s, horizon] at which every path
    is recorded, none by default.  Deterministic given the bundle's seed.

    Each step multiplies a path's weight w by the survival of the bridge
    between its two ends (_bridge_survival, c = 2 / (|sigma|^2 dt_mc)).
    With the drift frozen on the step that law is exact for free paths, and
    on a tree for a drift that does not read x, at any n_sub: each
    component minus its linear interpolation on a sub-step is a standard
    bridge.  For a drift that reads x (space-smooth) freezing it is an
    approximation, O(dt_mc) (Gobet, Stoch. Proc. Appl. 87, 2000).
    """
    if not np.array_equal(coeffs.sigma, paths.sigma):
        raise SimulationError(f"coefficients have sigma={coeffs.sigma} but the bundle was "
                              f"built for sigma={paths.sigma}")
    if coeffs.is_random and paths.leaves is None:
        raise SimulationError("random coefficients require tree-constrained paths (bridge_paths "
                              "or sample_tree_paths), otherwise the drift noise state is "
                              "undefined")
    M = paths.n_paths
    n_fine = paths.n_fine
    dt = paths.dt_mc
    m0 = s / dt
    if abs(m0 - round(m0)) > 1e-9 or not 0 <= round(m0) <= n_fine:
        raise SimulationError(f"start time {s} is not on the fine mesh")
    m0 = int(round(m0))

    if np.isscalar(init):
        yl = np.full(M, float(init))
    else:
        if grid is None:
            raise SimulationError("density initial data needs the grid")
        yl = sample_from_density(init, grid, pcg64_uniform((paths.seed, 0xA11), M))
    lo_x, hi_x = domain.a, domain.b
    if np.any((yl < lo_x) | (yl > hi_x)):
        raise SimulationError("initial value outside the closed domain")
    # a step whose two ends lie in [lo_r, hi_r], at least sqrt(40 / c) inside
    # both walls, survives with probability exactly 1.0 (_bridge_survival)
    c = 2.0 / (coeffs.b_total * dt)
    lo_r, hi_r = lo_x + math.sqrt(40.0 / c), hi_x - math.sqrt(40.0 / c)

    horizon = paths.times[-1]
    snapshot_times = np.asarray(snapshot_times, dtype=float)
    snap_idx = np.rint(snapshot_times / dt).astype(int)
    if np.any(np.abs(snap_idx * dt - snapshot_times) > 1e-9):
        raise SimulationError("snapshot times must lie on the fine mesh")
    if np.any((snap_idx < m0) | (snap_idx > n_fine)):
        raise SimulationError(f"snapshot times must lie in [s, horizon] = [{s}, {horizon}]")
    snap_of = {}  # fine step -> the snapshot columns taken there (a time may repeat)
    for i, m in enumerate(snap_idx):
        snap_of.setdefault(int(m), []).append(i)

    tau = np.full(M, horizon)
    snapshots = np.empty((M, snapshot_times.size))
    alive = np.zeros((M, snapshot_times.size), dtype=bool)
    weights = np.zeros((M, snapshot_times.size))
    integrands = integrands or {}
    totals = {name: np.zeros(M) for name in integrands}
    # f dt, taken once per block when f does not read x: for free paths one
    # value, on a tree one per lattice state of the block's level, gathered
    # by each path's j
    per_block = not coeffs.drift_reads_x
    fdt0 = None
    if per_block and paths.leaves is None:
        fdt0 = np.asarray(coeffs.drift(0.0, m0 * dt, 0.0)) * dt

    # live paths: index, state, weight, whether outside [lo_r, hi_r], running
    # integrals and, on a tree, leaf, j and w1 at the current block's level
    # (the level of the start's block, then a step per block; w1 is written
    # at each draw, and only where an integrand or the drift reads it).  The
    # current noise block holds fine steps first .. end - 1 and has a column
    # per path live when it was drawn; once one of them has exited, cols maps
    # the live paths to their columns (None until then).
    live = np.arange(M)
    wl = np.ones(M)
    reads_w1 = bool(integrands) or not per_block
    ll, jl, w1 = paths.leaves, paths.down_steps(m0 // paths.n_sub), None
    near = (yl < lo_r) | (yl > hi_r)
    acc = {name: np.zeros(M) for name in integrands}
    drawn = exits = 0
    m = end = m0
    while True:
        if m in snap_of:
            snapshots[np.ix_(live, snap_of[m])] = yl[:, None]
            alive[np.ix_(live, snap_of[m])] = True
            weights[np.ix_(live, snap_of[m])] = wl[:, None]
        if m == n_fine or live.size == 0:
            break
        t = m * dt
        if m == end:
            block = fdt = None  # drop the spent block and its f dt, then draw
            first, block = paths.draw(m, live)
            end, cols = first + len(block), None
            drawn += block.size
            if jl is None:
                fdt = fdt0
            else:  # on a tree, j, w1 and f dt at the block's level
                k = m // paths.n_sub
                if m > m0:  # the last block's edge adds its down bit to j
                    jl += branch_digits(ll, paths.d, paths.n_steps, k - 1, mask=1)
                if reads_w1:
                    w1 = w1_at(k, jl, paths.sqdt, out=w1)
                if per_block:
                    states = w1_at(k, np.arange(k + 1), paths.sqdt)
                    fdt = np.multiply(coeffs.drift(0.0, k * paths.dt, states), dt)[jl]
        j = m - first
        y0, w0 = yl, wl  # the step's start
        yl = yl + (fdt if per_block else coeffs.drift(yl, t, w1) * dt)
        yl += block[j] if cols is None else block[j][cols]  # half the cost of block[j, cols]
        m += 1
        # only a path with an end outside [lo_r, hi_r] is weighed, and only
        # such a path can be outside the domain
        was, near = near, (yl < lo_r) | (yl > hi_r)
        weigh = was | near
        if weigh.all():
            wl = wl * _bridge_survival(y0, yl, lo_x, hi_x, c)
        elif weigh.any():  # weigh those paths only
            at = weigh.nonzero()[0]
            wl = wl.copy()
            wl[at] *= _bridge_survival(y0[at], yl[at], lo_x, hi_x, c)
        for fn, a in zip(integrands.values(), acc.values()):
            a += (_bridge_step(fn, y0, yl, t, w1, dt, coeffs.b_total) if bridge_steps
                  else np.asarray(fn(y0, t, w1))) * dt * (0.5 * (w0 + wl))
        del y0, w0  # neither is held through the next draw
        if near.any() and (out := (yl < lo_x) | (yl > hi_x)).any():
            at = out.nonzero()[0]
            exits += at.size
            gone = live[at]
            tau[gone] = m * dt
            if snapshots.size:  # the exit point fills every snapshot still to come
                snapshots[np.ix_(gone, (snap_idx >= m).nonzero()[0])] = yl[at, None]
            for name in totals:
                totals[name][gone] = acc[name][at]
            keep = (~out).nonzero()[0]
            live, yl, wl, near = live[keep], yl[keep], wl[keep], near[keep]
            acc = {name: a[keep] for name, a in acc.items()}
            if jl is not None:  # on a tree leaf, j, w1 (w1_at of j) and f dt are per path
                ll, jl = ll[keep], jl[keep]
                if reads_w1:
                    w1 = w1[keep]
                if per_block:
                    fdt = fdt[keep]
            if m < end:  # the block has steps left; a spent one is dropped
                cols = keep if cols is None else cols[keep]
    for name in totals:
        totals[name][live] = acc[name]
    return TrajectorySet(snapshot_times, snapshots, alive, weights, tau, totals, drawn, exits)


def _estimate(s1: float, s2: float, n: int) -> tuple:
    """Sample mean and standard error from the sums of v and v^2 over n paths."""
    mean = s1 / n
    var = max(s2 / n - mean**2, 0.0) * n / (n - 1)
    return float(mean), float(np.sqrt(var / n))


# paths per chunk of a chunked estimate
CHUNK = 25_000


def _chunked(M: int, job) -> list:
    """Deterministic chunked estimation: job(chunk_index, chunk_count) ->
    (vals, trajs, bundle) with vals of shape (n_est, chunk_count).

    The chunks run one after another, each reduced to its sums as it
    finishes, and the sums are added in chunk order; returns one
    EstimatorResult per row of vals, each carrying the record of the same
    marches.  SimulationError for M < 2: a standard error needs two paths.
    """
    if M < 2:
        raise SimulationError(f"an estimate needs at least 2 paths, got M={M}")
    sizes = [min(CHUNK, M - lo) for lo in range(0, M, CHUNK)]
    s1 = s2 = 0.0
    normals_drawn = exits = 0
    for i, m in enumerate(sizes):
        vals, trajs, bundle = job(i, m)
        s1, s2 = s1 + vals.sum(axis=1), s2 + (vals**2).sum(axis=1)
        normals_drawn, exits = normals_drawn + trajs.normals_drawn, exits + trajs.exits
        dt, fine_steps = bundle.dt_mc, bundle.n_fine
        del vals, trajs, bundle  # one chunk's paths at a time
    return [EstimatorResult(*_estimate(a, b, M), chunks=tuple(sizes),
                            normals_drawn=normals_drawn, exit_frac=exits / M, dt=dt,
                            fine_steps=fine_steps)
            for a, b in zip(s1, s2)]


def expected_exit_time(x: float, a: float, b: float, f0: float, b_total: float) -> float:
    """E[exit time of (a, b)] from x for dX = f0 dt + sigma dW, b_total =
    |sigma|^2: the solution of (b_total/2) u'' + f0 u' = -1 with
    u(a) = u(b) = 0, the exact value of the exit-time functional, as
    u = (2 p q / b_total) (-D) / phi(k L): p = x - a, q = b - x, L = b - a,
    k = 2 f0 / b_total, phi(z) = (1 - e^-z) / z and D phi's divided
    difference over [k p, k L], which neither cancels as f0 -> 0 nor
    overflows at f0 > 0 (f0 < 0 is its mirror x -> a + b - x)."""
    if f0 == 0.0:
        return (x - a) * (b - x) / b_total
    p, q = x - a, b - x
    if f0 < 0.0:
        p, q, f0 = q, p, -f0
    if p <= 0.0 or q <= 0.0:  # on a wall the path has exited
        return 0.0
    k = 2.0 * f0 / b_total
    z, z_L = k * p, k * (b - a)
    if z_L < 1.0:
        # D = sum_{n >= 1} (-1)^n h_{n-1} / (n + 1)!, h_n = sum_j z^j z_L^(n-j);
        # the first term left out is below 2^-64 of the first
        D, h, z_Ln = 0.0, 1.0, 1.0
        for n in range(1, 21):
            D += (-1) ** n * h / math.factorial(n + 1)
            z_Ln *= z_L
            h = z_Ln + z * h
    else:  # phi(z) - phi(z_L) without its cancellation near b
        D = (z * math.exp(-z) * _phi(k * q) + math.expm1(-z)) / (z * z_L)
    return 2.0 * p * q / b_total * -D / _phi(z_L)


def _phi(z: float) -> float:
    """(1 - e^-z) / z, 1 at z = 0."""
    return -math.expm1(-z) / z if z else 1.0


def _bridge_survival(y0, y1, a: float, b: float, c: float):
    """The probability that a bridge of rate 2 / (c dt) from y0 to y1 over a
    step dt stays inside (a, b), one wall at a time:
    (1 - exp(-c (y0 - a)(y1 - a))) (1 - exp(-c (b - y0)(b - y1))), and 0 for
    an end on or past a wall (clipped, so no exponential overflows).

    Between two mesh points a path of a march is such a bridge, exactly for
    a drift that does not read x (simulate): on a tree, at d = 1 and d = 2,
    the driving part is pinned by the tree increment and the free part once
    y1 is known.  One wall at a time errs by at most about
    exp(-(b - a)^2 / (|sigma|^2 dt)) per step: e^-2560 at density-64-65's
    tree step, e^-160 on (-2, 2).  A factor is exactly 1.0 once both
    exponents pass 37.4, where exp(-u) < 2^-54.
    """
    f, v = y0 - a, y1 - a  # worked in place: a march holds few arrays
    np.maximum(f, 0.0, out=f)
    np.maximum(v, 0.0, out=v)
    f *= v
    f *= -c
    np.expm1(f, out=f)  # e^-u - 1
    u = np.subtract(b, y0, out=v)
    np.maximum(u, 0.0, out=u)
    v = b - y1
    np.maximum(v, 0.0, out=v)
    u *= v
    u *= -c
    f *= np.expm1(u, out=u)  # (e^-u - 1)(e^-v - 1) = (1 - e^-u)(1 - e^-v)
    return f


def conditional_functional(coeffs: CoefficientSet, phi, leaf, t_grid, M: int, seed, *,
                           shape: tuple, grid: Grid, p0: np.ndarray, dt_mc: float):
    """Common-noise estimate of E{ I_tau(t) phi(y(t), t) | leaf path } at the
    requested times: the driving components are bridged through the path to
    the leaf of the tree of shape (d, n_steps, horizon), the tail components
    and the initial draw from p0 stay free.

    dt_mc is the step the paths march at; it must divide the tree step and
    put every entry of t_grid on its mesh.  For a drift that does not read
    x and t_grid on tree times, the tree step itself gives each snapshot the
    law of any finer mesh (a block's steps sum to the same law).  Each
    path's value at t is weighed by its weight there (simulate): the
    survival of its bridges between the mesh points before t.

    Returns one EstimatorResult per entry of t_grid; each carries the record
    of the same marches.
    """
    if not coeffs.superparabolic():
        raise SimulationError(
            "conditional estimates need d < d0 with a nondegenerate tail block"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    _, n_steps, horizon = shape
    levels = [min(int(round(t / (horizon / n_steps))), n_steps) for t in t_grid]

    def job(i, m):
        bundle = bridge_paths(shape, leaf, m, coeffs.sigma, dt_mc, (seed, 0xC0, i))
        trajs = simulate(coeffs, p0, 0.0, bundle, grid.domain, grid=grid, snapshot_times=t_grid)
        y, w = trajs.snapshots, trajs.weights
        vals = np.empty((t_grid.size, m))
        for j, (t, k) in enumerate(zip(t_grid, levels)):
            # every path follows the one leaf: its w1 at level k, one value for all
            np.multiply(w[:, j], phi(y[:, j], t, bundle.w1(k, [0])), out=vals[j])
        return vals, trajs, bundle

    return _chunked(M, job)


# the nodes u and weights of a step's bridge integral: the 4-point
# Gauss-Legendre rule moved to [0, 1], nodes (1 -+ x) / 2 and weights w / 2
# for x = sqrt(3/7 -+ 2/7 sqrt(6/5)) and w = (18 +- sqrt(30)) / 36, in closed
# form: numpy.polynomial.legendre.leggauss(4) would import about 0.8 MB into
# every run.  At density-64-65's defaults 4, 8 and 16 nodes agree to 3e-11
_X = (math.sqrt(3 / 7 - 2 / 7 * math.sqrt(1.2)), math.sqrt(3 / 7 + 2 / 7 * math.sqrt(1.2)))
_W = ((18 + math.sqrt(30)) / 36, (18 - math.sqrt(30)) / 36)
BRIDGE_NODES = np.array([1 - _X[1], 1 - _X[0], 1 + _X[0], 1 + _X[1]]) / 2
BRIDGE_WEIGHTS = np.array([_W[1], _W[0], _W[0], _W[1]]) / 2


def _bridge_step(phi, y0, y1, t: float, w1, dt: float, b_total: float) -> np.ndarray:
    """The mean of phi over a step dt on the Brownian bridge of rate b_total
    from y0 to y1: sum_j w_j phi(m_j, t + u_j dt, w1, v_j), with
    m_j = y0 + u_j (y1 - y0) and v_j = b_total dt u_j (1 - u_j) the bridge's
    mean and variance at the Gauss-Legendre nodes u_j.  Each node's point,
    then its weighted value, is written to one buffer of the paths' size."""
    dy = y1 - y0
    mean = np.zeros(np.shape(y0))
    point = np.empty(np.shape(y0))
    for u, w in zip(BRIDGE_NODES, BRIDGE_WEIGHTS):
        np.multiply(u, dy, out=point)
        point += y0
        mean += np.multiply(phi(point, t + u * dt, w1, b_total * dt * u * (1.0 - u)), w,
                            out=point)
    return mean


def functional_estimate(coeffs: CoefficientSet, phi, init, M: int, seed, *, grid: Grid,
                        dt_mc: float, shape: tuple | None = None) -> EstimatorResult:
    """Chunked unconditional estimate of E int_s^tau phi(y, t) dt at s = 0.

    With the shape (d, n_steps, horizon) of a tree, leaves are sampled
    uniformly per path and the driving components bridged through them (so
    adapted coefficients stay coupled to the noise); without one, plain
    Wiener increments are used.  phi(y, t, w1,
    var=0.0) returns E phi(Y) for Y ~ N(y, var).

    Bridged paths at the tree step (dt_mc the tree step) under a drift that
    does not read x march only the tree times: between two of them a path is
    a Brownian bridge of rate |sigma|^2 (see _bridge_survival), so each
    block's integral is taken in closed form over the bridge (simulate's
    bridge_steps).  This is conditional Monte Carlo over the bridge
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2004, ch. 3-4):
    it estimates the continuous-time integral and draws one normal per path
    and tree step.  Every other case sums phi(y_m) dt_mc over the mesh points
    before the exit.  Either sum weighs a step by the trapezoid of the
    path's survival weights at its ends.
    """
    def job(i, m):
        chunk_seed = (seed, 0xF0, i)
        if shape is not None:
            bundle = sample_tree_paths(shape, m, coeffs.sigma, dt_mc, chunk_seed)
        else:
            bundle = free_paths(grid.domain.horizon, m, coeffs.sigma, dt_mc, chunk_seed)
        bridged = shape is not None and bundle.n_sub == 1 and not coeffs.drift_reads_x
        trajs = simulate(coeffs, init, 0.0, bundle, grid.domain, grid=grid,
                         integrands={"phi": phi}, bridge_steps=bridged)
        return trajs.integrals["phi"][None], trajs, bundle

    return _chunked(M, job)[0]
