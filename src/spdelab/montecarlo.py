"""Euler-Maruyama simulation with first-exit detection and estimators.

Paths follow

    y_{m+1} = y_m + f(y_m, t_m, node(t_m)) dt_mc + sigma . dW_m,

with the drift's noise state taken from the tree node active on the coarse
step containing t_m, so Monte Carlo and the tree solvers see the same
coefficient process.  The march draws the scalar noise sigma . dW, one
normal per path and fine step, one block at a time for the paths live at
the block's start, by one routine, `tree.PathBundle.draw`: a block is a
coarse step on a tree, or a span of a few fine steps of free paths, hashed
`tree.HASH_NORMALS` normals per call and, on a tree, shifted by the bridge
through each path's leaf.  The march stops as soon as every path has
exited.  A march runs as contiguous groups of paths, one per draw thread
on a tree and one for free paths: the calling thread marches the first and
a pool that the march opens and joins itself the others (the only threads
the package starts), each group drawing its own blocks and writing only its
own rows, with the same bits for any group count; a march of one group
starts no thread.  Each fine step does only the update
(y + f dt) + noise, the exit test and the integrands: a drift that does
not read x is taken once per block at the block's w1, times dt_mc (on a
tree from its values per node, evaluated in the calling thread), and an
exit compacts the live paths' index, state, running integrals and w1
through one integer index, while the block stays as drawn and a column
index maps the live paths to its columns.
No fine-mesh history is stored: a path is recorded at the requested
snapshot times, at its exit, and through the running integrals of the
integrands registered with `simulate`, sums of phi(y_m) dt_mc over the mesh
points.  Tree-bridged estimates under a drift that does not read x march at
the tree step instead, snapshot every tree time and take what lies between
two of them from the Brownian bridge that a path is there: a running
integral is integrated over each block's bridge in closed form
(`functional_estimate`).  Exits are tested at mesh points.
Free paths test them against the domain shifted inwards by
EXIT_SHIFT |sigma| sqrt(dt_mc) at each end, which removes the leading
O(sqrt(dt_mc)) bias of the exits missed between mesh points; tree-bridged
paths, whose block increments are conditioned on their sum, test them
against the domain itself, and that bias stays in the acceptance
tolerances, except in the estimates at the tree step, which weigh each
path by the survival of its bridges between tree times
(`_bridge_survival`).  Exited paths freeze and their alive indicator
flips once.  Estimates run in chunks of CHUNK paths, one after another;
chunk i of an estimate is seeded (seed, tag, i), which SeedSequence
flattens at any nesting (the rule in `tree`).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import tree as tree_module
from .coefficients import CoefficientSet
from .domain import Grid
from .tree import (
    PathBundle,
    ScenarioTree,
    bridge_paths,
    free_paths,
    sample_tree_paths,
)


class SimulationError(ValueError):
    """Raised for inconsistent simulation inputs."""


# beta = -zeta(1/2) / sqrt(2 pi).  A march that tests for an exit of (a, b)
# at mesh points alone misses exits between them, an O(sqrt(dt)) bias;
# testing against (a + beta |sigma| sqrt(dt), b - beta |sigma| sqrt(dt))
# removes its leading term (Broadie, Glasserman and Kou, Math. Finance 7,
# 1997; for general diffusions Gobet and Menozzi, Stoch. Proc. Appl. 120, 2010)
EXIT_SHIFT = 0.5825971579390107


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
    the snapshot set at every mesh time.  `normals_drawn` counts the normals
    the march drew, one per live path and fine step of each block it drew,
    and `exits` the paths that left the domain, each counted at its exit.
    """

    snapshot_times: np.ndarray  # (n_snap,)
    snapshots: np.ndarray  # (M, n_snap)
    alive: np.ndarray  # (M, n_snap) bool, not exited by the snapshot time
    tau: np.ndarray  # (M,)
    integrals: dict  # name -> (M,) path integrals
    normals_drawn: int
    exits: int


def sample_from_density(p0: np.ndarray, grid: Grid, n: int, rng) -> np.ndarray:
    """Draw from a gridded density by inverse CDF on the node values."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (grid.nx,) or p0.min() < -1e-12:
        raise SimulationError("p0 must be a nonnegative grid function")
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p0[1:] + p0[:-1]) * grid.dx)])
    if cdf[-1] <= 0:
        raise SimulationError("p0 has no mass")
    cdf /= cdf[-1]
    return np.interp(rng.uniform(size=n), cdf, grid.x)


def simulate(
    coeffs: CoefficientSet,
    init,
    s: float,
    paths: PathBundle,
    domain,
    grid: Grid | None = None,
    integrands: dict | None = None,
    snapshot_times=(),
) -> TrajectorySet:
    """Euler-Maruyama marching of (1.1)-type dynamics over a path bundle.

    init is either a point inside the closed domain or a gridded initial
    density (requires grid); integrands maps names to callables
    phi(y, t, w1) whose running integrals sum_{t < tau} phi dt_mc are
    accumulated online (an integrand's optional var stays 0 here);
    snapshot_times are the mesh times in [s, horizon] at which every path is
    recorded, none by default.  On a tree the path
    groups call the integrands (and a drift that reads x) from several
    threads at once, so they must not keep state.  Deterministic given the
    bundle's seed.
    """
    if not np.array_equal(coeffs.sigma, paths.sigma):
        raise SimulationError(
            f"coefficients have sigma={coeffs.sigma} but the bundle was built for "
            f"sigma={paths.sigma}"
        )
    if coeffs.is_random and paths.tree is None:
        raise SimulationError(
            "random coefficients require tree-constrained paths (bridge_paths "
            "or sample_tree_paths), otherwise the drift noise state is undefined"
        )
    M = paths.n_paths
    n_fine = paths.n_fine
    dt = paths.dt_mc
    m0 = s / dt
    if abs(m0 - round(m0)) > 1e-9 or not 0 <= round(m0) <= n_fine:
        raise SimulationError(f"start time {s} is not on the fine mesh")
    m0 = int(round(m0))

    if np.isscalar(init):
        y = np.full(M, float(init))
    else:
        if grid is None:
            raise SimulationError("density initial data needs the grid")
        rng = default_rng(SeedSequence((paths.seed, 0xA11)))
        y = sample_from_density(init, grid, M, rng)
    lo_x, hi_x = domain.a, domain.b
    if np.any((y < lo_x) | (y > hi_x)):
        raise SimulationError("initial value outside the closed domain")
    if paths.tree is None:
        # free paths test exits against the shifted band, which corrects the
        # exits missed between mesh points; a bridged block's increments are
        # conditioned on their sum, so its paths keep mesh-only exits
        shift = EXIT_SHIFT * np.sqrt(coeffs.b_total * dt)
        lo_x, hi_x = lo_x + shift, hi_x - shift

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
    integrands = integrands or {}
    totals = {name: np.zeros(M) for name in integrands}
    # f dt, taken once per block when f reads neither x nor t: for free paths
    # one value, on a tree one per node of each level, evaluated once here in
    # the calling thread (not once per group, and benchmarks/tracer.py
    # traces drift calls from one thread) and looked up at each block's nodes
    per_block = not coeffs.drift_reads_x
    fdt0 = node_fdt = None
    if per_block and paths.tree is None:
        fdt0 = np.asarray(coeffs.drift(0.0, m0 * dt, 0.0)) * dt
    elif per_block:
        node_fdt = [np.asarray(coeffs.drift(0.0, k * paths.tree.dt, w)) * dt
                    for k, w in enumerate(paths.tree.w1[:-1])]

    def march(lo, hi):
        """March paths lo .. hi - 1 from m0, writing only their rows of tau,
        y, snapshots, alive and totals; returns the normals drawn and the
        paths that exited."""
        # live paths: index, state, running integrals.  The current noise
        # block holds fine steps first .. end - 1 and has a column per path
        # live when it was drawn; once one of them has exited, cols maps the
        # live paths to their columns (None until then).
        live = np.arange(lo, hi)
        yl = y[lo:hi].copy()
        acc = {name: np.zeros(hi - lo) for name in integrands}
        drawn = exits = 0
        m = end = m0
        while True:
            if m in snap_of:
                y[live] = yl
                snapshots[lo:hi, snap_of[m]] = y[lo:hi, None]
                alive[np.ix_(live, snap_of[m])] = True
            if m == n_fine or live.size == 0:
                break
            t = m * dt
            if m == end:
                block = w1 = fdt = None  # drop the spent block, its w1 and f dt, then draw
                first, block = paths.draw(m, live)
                end, cols = first + len(block), None
                drawn += block.size
                k = m // paths.n_sub
                w1 = paths.w1(k, live)
                fdt = fdt0 if node_fdt is None else node_fdt[k][paths.nodes(k, live)]
            j = m - first
            for name, fn in integrands.items():
                acc[name] += np.asarray(fn(yl, t, w1)) * dt
            yl += fdt if per_block else coeffs.drift(yl, t, 0.0 if w1 is None else w1) * dt
            yl += block[j] if cols is None else block[j][cols]  # half the cost of block[j, cols]
            m += 1
            out = (yl < lo_x) | (yl > hi_x)
            if out.any():
                at = out.nonzero()[0]
                exits += at.size
                gone = live[at]
                tau[gone] = m * dt
                y[gone] = yl[at]
                for name in totals:
                    totals[name][gone] = acc[name][at]
                keep = (~out).nonzero()[0]
                live, yl = live[keep], yl[keep]
                acc = {name: a[keep] for name, a in acc.items()}
                if w1 is not None:  # on a tree w1, and f dt with it, is per path
                    w1 = w1[keep]
                    if per_block:
                        fdt = fdt[keep]
                if m < end:  # the block has steps left; a spent one is dropped
                    cols = keep if cols is None else cols[keep]
        y[live] = yl
        for name in totals:
            totals[name][live] = acc[name]
        # after an early stop the later snapshots hold the frozen paths
        snapshots[lo:hi, snap_idx > m] = y[lo:hi, None]
        return drawn, exits

    # the march runs as contiguous groups of paths: the calling thread
    # marches the first and a pool of this march's own the others, joined
    # before it returns.  A pool starts a thread only when a group is
    # submitted, so a free march (one group: path groups ran slower there,
    # ROADMAP) or a march of one group starts none.  The draws' transform is
    # resolved here first, so no draw thread imports it, also for a caller
    # that bypasses the harness's load.
    tree_module.normal_transform()
    groups = 1 if paths.tree is None else max(1, min(tree_module.draw_threads(), M))
    cuts = [g * M // groups for g in range(groups + 1)]
    with ThreadPoolExecutor(groups, thread_name_prefix="spdelab-draw") as pool:
        tasks = [pool.submit(march, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
        counts = [march(cuts[0], cuts[1])] + [task.result() for task in tasks]
    drawn, exits = map(sum, zip(*counts))
    return TrajectorySet(
        snapshot_times=snapshot_times,
        snapshots=snapshots,
        alive=alive,
        tau=tau,
        integrals=totals,
        normals_drawn=drawn,
        exits=exits,
    )


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

    Between two tree times a tree-bridged path is such a bridge, exactly for
    a drift that does not read x, at d = 1 and d = 2: the driving part is
    pinned by the tree increment, and the free part once y1 is known.  One
    wall at a time errs by at most about exp(-(b - a)^2 / (|sigma|^2 dt)) per
    step: e^-2560 at density-64-65's defaults, e^-160 on (-2, 2).  A factor
    is exactly 1.0 once both exponents pass 37.4, where exp(-u) < 2^-54.
    """
    lo = np.maximum(y0 - a, 0.0) * np.maximum(y1 - a, 0.0)
    hi = np.maximum(b - y0, 0.0) * np.maximum(b - y1, 0.0)
    return np.expm1(-c * lo) * np.expm1(-c * hi)  # (1 - e^-u)(1 - e^-v)


def conditional_functional(
    coeffs: CoefficientSet,
    phi,
    leaf,
    t_grid,
    M: int,
    seed,
    *,
    tree: ScenarioTree,
    grid: Grid,
    p0: np.ndarray,
    dt_mc: float,
):
    """Common-noise estimate of E{ I_tau(t) phi(y(t), t) | leaf path } at the
    requested times: the driving components are bridged through the path to
    the leaf, the tail components and the initial draw from p0 stay free.

    dt_mc is the step the paths march at; it must divide the tree step and
    put every entry of t_grid on its mesh.  For a drift that does not read
    x and t_grid on tree times, the tree step itself gives each snapshot the
    law of any finer mesh (a block's steps sum to the same law).  It tests
    exits at tree times only, so each path's value at t is weighed by the
    survival of its bridges between the tree times before t
    (_bridge_survival), for the paths that come within sqrt(40 / c) of a
    wall, c = 2 / (|sigma|^2 dt): every other factor is exactly 1.0.

    Returns one EstimatorResult per entry of t_grid; each carries the record
    of the same marches.
    """
    if not coeffs.superparabolic():
        raise SimulationError(
            "conditional estimates need d < d0 with a nondegenerate tail block"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    levels = [min(int(round(t / tree.dt)), tree.n_steps) for t in t_grid]
    a, b = grid.domain.a, grid.domain.b
    c = 2.0 / (coeffs.b_total * tree.dt)
    mid, inner = 0.5 * (a + b), 0.5 * (b - a) - np.sqrt(40.0 / c)

    def job(i, m):
        bundle = bridge_paths(tree, leaf, m, coeffs.sigma, dt_mc, (seed, 0xC0, i))
        tree_step = bundle.n_sub == 1
        snaps, cols = (bundle.times.copy(), levels) if tree_step else (t_grid, range(t_grid.size))
        if tree_step:  # every tree time, t_grid's entries as given (simulate checks them)
            snaps[levels] = t_grid
        trajs = simulate(coeffs, p0, 0.0, bundle, grid.domain, grid=grid, snapshot_times=snaps)
        y = trajs.snapshots
        vals = np.reshape([trajs.alive[:, j] * np.asarray(phi(y[:, j], t, bundle.w1(k)))
                           for t, k, j in zip(t_grid, levels, cols)], (t_grid.size, m))
        if tree_step:
            reach = np.abs(y[:, 0] - mid)  # a loop over columns beats a max over rows
            for col in y.T[1:]:
                np.maximum(reach, np.abs(col - mid), out=reach)
            near = reach > inner
            y = y[near]
            survival = np.ones_like(y)
            np.cumprod(_bridge_survival(y[:, :-1], y[:, 1:], a, b, c), axis=1,
                       out=survival[:, 1:])
            vals[:, near] *= survival[:, levels].T
        return vals, trajs, bundle

    return _chunked(M, job)


# the nodes u and weights of a tree block's bridge integral: the 4-point
# Gauss-Legendre rule moved to [0, 1], nodes (1 -+ x) / 2 and weights w / 2
# for x = sqrt(3/7 -+ 2/7 sqrt(6/5)) and w = (18 +- sqrt(30)) / 36, in closed
# form: numpy.polynomial.legendre.leggauss(4) would import about 0.8 MB into
# every run.  At density-64-65's defaults 4, 8 and 16 nodes agree to 3e-11
_X = (math.sqrt(3 / 7 - 2 / 7 * math.sqrt(1.2)), math.sqrt(3 / 7 + 2 / 7 * math.sqrt(1.2)))
_W = ((18 + math.sqrt(30)) / 36, (18 - math.sqrt(30)) / 36)
BRIDGE_NODES = np.array([1 - _X[1], 1 - _X[0], 1 + _X[0], 1 + _X[1]]) / 2
BRIDGE_WEIGHTS = np.array([_W[1], _W[0], _W[0], _W[1]]) / 2


def _bridge_integrals(phi, y: np.ndarray, bundle: PathBundle, b_total: float,
                      domain) -> np.ndarray:
    """Each path's int_0^tau phi(y, t) dt, given its values y_k at every tree
    time, y (paths, tree times): block k adds Delta sum_j w_j phi(m_j, t_k + u_j Delta, w1_k, v_j),
    m_j = y_k + u_j (y_{k+1} - y_k) and v_j = |sigma|^2 Delta u_j (1 - u_j),
    the bridge's mean and variance at the Gauss-Legendre nodes u_j, weighed
    by (S_k + S_{k+1}) / 2, S_k the survival of the path's bridges before
    t_k (_bridge_survival).  One block column, (paths,) arrays, at a time,
    each snapshot column copied once out of its strided rows."""
    dt = bundle.dt_mc
    c = 2.0 / (b_total * dt)
    total, survival = np.zeros(bundle.n_paths), np.ones(bundle.n_paths)
    y1 = y[:, 0].copy()
    for k in range(bundle.n_fine):
        y0, y1, w1 = y1, y[:, k + 1].copy(), bundle.w1(k)
        dy = y1 - y0
        block = np.zeros(bundle.n_paths)
        for u, w in zip(BRIDGE_NODES, BRIDGE_WEIGHTS):
            block += w * np.asarray(phi(y0 + u * dy, bundle.times[k] + u * dt, w1,
                                        b_total * dt * u * (1.0 - u)))
        after = survival * _bridge_survival(y0, y1, domain.a, domain.b, c)
        total += 0.5 * dt * (survival + after) * block
        survival = after
    return total


def functional_estimate(
    coeffs: CoefficientSet,
    phi,
    init,
    M: int,
    seed,
    *,
    grid: Grid,
    dt_mc: float,
    tree: ScenarioTree | None = None,
) -> EstimatorResult:
    """Chunked unconditional estimate of E int_s^tau phi(y, t) dt at s = 0.

    With a tree, leaves are sampled uniformly per path and the driving
    components bridged through them (so adapted coefficients stay coupled to
    the noise); without one, plain Wiener increments are used.  phi(y, t, w1,
    var=0.0) returns E phi(Y) for Y ~ N(y, var).

    Bridged paths at the tree step (dt_mc the tree step) under a drift that
    does not read x march only the tree times: between two of them a path is
    a Brownian bridge of rate |sigma|^2 (see _bridge_survival), so each
    block's integral is taken in closed form over the bridge, by
    _bridge_integrals.  This is conditional Monte Carlo over the bridge
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2004, ch. 3-4):
    it estimates the continuous-time integral and draws one normal per path
    and tree step.  Every other case sums phi(y_m) dt_mc over the mesh points
    before the exit.
    """
    def job(i, m):
        chunk_seed = (seed, 0xF0, i)
        if tree is not None:
            bundle = sample_tree_paths(tree, m, coeffs.sigma, dt_mc, chunk_seed)
        else:
            bundle = free_paths(grid.domain.horizon, m, coeffs.sigma, dt_mc, chunk_seed)
        if tree is None or bundle.n_sub > 1 or coeffs.drift_reads_x:
            trajs = simulate(coeffs, init, 0.0, bundle, grid.domain, grid=grid,
                             integrands={"phi": phi})
            return trajs.integrals["phi"][None], trajs, bundle
        trajs = simulate(coeffs, init, 0.0, bundle, grid.domain, grid=grid,
                         snapshot_times=bundle.times)
        vals = _bridge_integrals(phi, trajs.snapshots, bundle, coeffs.b_total, grid.domain)
        return vals[None], trajs, bundle

    return _chunked(M, job)[0]
