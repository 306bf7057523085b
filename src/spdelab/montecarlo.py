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
exited.  A tree-bridged march runs as contiguous groups of paths, one per
draw thread: the calling thread marches the first and threads that the
march starts and joins itself the others (the only threads the package
starts), each group drawing its own blocks and writing only its own rows,
with the same bits for any group count; a free march, or a march of one
group, stays in the calling thread.  Each fine step does only the update
(y + f dt) + noise, the exit test and the integrands: a drift that does
not read x is taken once per block at the block's w1, times dt_mc (on a
tree from its values per node, evaluated in the calling thread), and an
exit compacts the live paths' index, state, running integrals and w1
through one integer index, while the block stays as drawn and a column
index maps the live paths to its columns.
No fine-mesh history is stored: a path is recorded at the requested
snapshot times, at its exit, and through the running integrals of the
integrands registered with `simulate`.  Exits are tested at mesh points.
Free paths test them against the domain shifted inwards by
EXIT_SHIFT |sigma| sqrt(dt_mc) at each end, which removes the leading
O(sqrt(dt_mc)) bias of the exits missed between mesh points; tree-bridged
paths, whose block increments are conditioned on their sum, test them
against the domain itself, and that bias stays in the acceptance
tolerances (exit_bound says where it is negligible).  Exited paths freeze
and their alive indicator flips once.  Estimates run in chunks of CHUNK
paths, one after another; chunk i of an estimate is seeded (seed, tag, i),
which SeedSequence flattens at any nesting (the rule in `tree`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
    leaf_walk,
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
    """A Monte Carlo mean and its standard error.

    A chunked estimator also records its marches: the paths per chunk, the
    normals drawn and the share of paths that exited before the horizon,
    summed over the chunks in chunk order so the record is deterministic,
    and the step dt and the fine steps over the horizon its paths marched.
    """

    value: float
    stderr: float
    chunks: tuple = ()
    normals_drawn: int = 0
    exit_frac: float = 0.0
    dt: float = 0.0
    fine_steps: int = 0

    def marches(self) -> dict:
        """The estimate and the record of the marches behind it, for summary.json."""
        return {"value": self.value, "stderr": self.stderr, "chunks": list(self.chunks),
                "normals_drawn": self.normals_drawn, "exit_frac": self.exit_frac,
                "dt": self.dt, "fine_steps": self.fine_steps}


@dataclass
class TrajectorySet:
    """Simulated paths: snapshots, exit data and accumulated integrals.

    Integrands registered at simulation time are accumulated online, so no
    estimate needs the fine-mesh history; a fine history, when wanted, is
    the snapshot set at every mesh time.  `normals_drawn` counts the normals
    the march drew, one per live path and fine step of each block it drew.
    """

    snapshot_times: np.ndarray  # (n_snap,)
    snapshots: np.ndarray  # (M, n_snap)
    alive: np.ndarray  # (M, n_snap) bool, t <= tau
    tau: np.ndarray  # (M,)
    integrals: dict = field(default_factory=dict)  # name -> (M,) path integrals
    normals_drawn: int = 0

    @property
    def n_paths(self) -> int:
        return self.tau.size


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
    snapshot_times=None,
) -> TrajectorySet:
    """Euler-Maruyama marching of (1.1)-type dynamics over a path bundle.

    init is either a point inside the closed domain or a gridded initial
    density (requires grid); integrands maps names to callables
    phi(y, t, w1) whose running integrals sum_{t < tau} phi dt_mc are
    accumulated online.  On a tree the path groups call the integrands (and
    a drift that reads x) from several threads at once, so they must not
    keep state.  Deterministic given the bundle's seed.
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
    if snapshot_times is None:
        snapshot_times = np.array([0.0, horizon]) if paths.tree is None else paths.tree.times()
        snapshot_times = snapshot_times[snapshot_times >= s - 1e-9]
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
        y, snapshots, alive and totals; returns the normals drawn."""
        # live paths: index, state, running integrals.  The current noise
        # block holds fine steps first .. end - 1 and has a column per path
        # live when it was drawn; once one of them has exited, cols maps the
        # live paths to their columns (None until then).
        live = np.arange(lo, hi)
        yl = y[lo:hi].copy()
        acc = {name: np.zeros(hi - lo) for name in integrands}
        drawn = 0
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
        return drawn

    # a tree-bridged march runs as contiguous groups of paths: the calling
    # thread marches the first and a pool of this march's own the others,
    # joined before it returns.  Free marches stay in the calling thread
    # (path groups ran slower there, ROADMAP), as does a march of one group.
    # The draws' transform is resolved here first, so no draw thread imports
    # it, also for a caller that bypasses the harness's load.
    tree_module.normal_transform()
    groups = 1 if paths.tree is None else max(1, min(tree_module.draw_threads(), M))
    cuts = [g * M // groups for g in range(groups + 1)]
    if groups == 1:
        drawn = march(0, M)
    else:
        with ThreadPoolExecutor(groups - 1, thread_name_prefix="spdelab-draw") as pool:
            tasks = [pool.submit(march, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
            drawn = march(cuts[0], cuts[1]) + sum(task.result() for task in tasks)
    return TrajectorySet(
        snapshot_times=snapshot_times,
        snapshots=snapshots,
        alive=alive,
        tau=tau,
        integrals=totals,
        normals_drawn=drawn,
    )


def _estimate(chunks) -> EstimatorResult:
    """Sample mean and standard error from per-chunk (sum v, sum v^2, n)
    triples, summed in chunk order."""
    s1 = s2 = 0.0
    n = 0
    for c1, c2, m in chunks:
        s1, s2, n = s1 + c1, s2 + c2, n + m
    mean = s1 / n
    var = max(s2 / n - mean**2, 0.0) * n / max(n - 1, 1)
    return EstimatorResult(value=float(mean), stderr=float(np.sqrt(var / n)))


# paths per chunk of a chunked estimate
CHUNK = 25_000


def _chunked(M: int, job) -> list:
    """Deterministic chunked estimation: job(chunk_index, chunk_count) ->
    (vals, trajs, bundle) with vals of shape (n_est, chunk_count).

    The chunks run one after another, each reduced to its sums as it
    finishes, and the sums are added in chunk order; returns one
    EstimatorResult per row of vals, each carrying the record of the same
    marches.
    """
    def sums(i, m):
        vals, trajs, bundle = job(i, m)
        exited = int(np.count_nonzero(trajs.tau < bundle.times[-1]))
        return (vals.sum(axis=1), (vals**2).sum(axis=1), trajs.normals_drawn, exited,
                bundle.dt_mc, bundle.n_fine)

    sizes = [min(CHUNK, M - lo) for lo in range(0, M, CHUNK)]
    out = list(map(sums, range(len(sizes)), sizes))
    record = dict(chunks=tuple(sizes), normals_drawn=sum(c[2] for c in out),
                  exit_frac=sum(c[3] for c in out) / M, dt=out[0][4], fine_steps=out[0][5])
    return [
        replace(_estimate((c[0][a], c[1][a], m) for c, m in zip(out, sizes)), **record)
        for a in range(out[0][0].size)
    ]


def expected_exit_time(x: float, a: float, b: float, f0: float, b_total: float) -> float:
    """E[exit time of (a, b)] from x for dX = f0 dt + sigma dW, b_total =
    |sigma|^2: the solution of (b_total/2) u'' + f0 u' = -1 with
    u(a) = u(b) = 0, the exact value of the exit-time functional."""
    if f0 == 0.0:
        return (x - a) * (b - x) / b_total
    k = 2.0 * f0 / b_total
    return ((b - a) * np.expm1(-k * (x - a)) / np.expm1(-k * (b - a)) - (x - a)) / f0


# the share of exit_bound spent on the bridges between tree times
BRIDGE_SHARE = 1e-12


def exit_bound(coeffs: CoefficientSet, leaf: int, n_steps: int, p0: np.ndarray,
               grid: Grid) -> float:
    """An upper bound on the probability that a path bridged to leaf of the
    n_steps tree over the grid's horizon, from an initial draw from p0,
    leaves the domain at any time before the horizon (not only at mesh
    points), for a drift that does not read x.

    Given the leaf, y(t) = y0 + m(t) + sigma[:d].B(t) + s_f W(t): m is
    linear between the tree times, where it is
    sum_{j<k} f_j dt + sigma[:d].w_k; B is a Brownian bridge on each tree
    step and W a Brownian motion.  So y exits only if |sigma[:d].B| reaches
    v on some step, with probability at most
    2 n_steps exp(-2 v^2 / (|sigma[:d]|^2 dt)) = BRIDGE_SHARE for the v
    taken here, or s_f W reaches b - y0 - max m - v (a - y0 - min m + v),
    with probability at most exp(-u^2 / (2 s_f^2 horizon)) at distance
    u >= 0 (reflection and the Gaussian tail).  y0 is uniform on each cell
    (`sample_from_density`), taken at the cell's end nearer the exit.
    """
    if coeffs.drift_reads_x:
        raise SimulationError("exit_bound needs a drift that does not read x")
    sigma, d, horizon = coeffs.sigma, coeffs.d, grid.domain.horizon
    dt = horizon / n_steps
    w = leaf_walk(d, n_steps, horizon, leaf)
    drift = [float(coeffs.drift(0.0, k * dt, w[k, 0])) for k in range(n_steps)]
    m = np.concatenate([[0.0], np.cumsum(np.array(drift) * dt)]) + w @ sigma[:d]
    v = np.linalg.norm(sigma[:d]) * np.sqrt(0.5 * dt * np.log(2 * n_steps / BRIDGE_SHARE))
    up = np.maximum(grid.domain.b - grid.x[1:] - m.max() - v, 0.0)
    down = np.maximum(grid.x[:-1] - grid.domain.a + m.min() - v, 0.0)
    spread = max(2.0 * float(np.dot(sigma[d:], sigma[d:])) * horizon, 1e-300)
    cells = 0.5 * (p0[1:] + p0[:-1])
    tails = np.exp(-up**2 / spread) + np.exp(-down**2 / spread)
    return min(1.0, BRIDGE_SHARE + float(cells @ tails / cells.sum()))


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
    law of any finer mesh (a block's steps sum to the same law), but exits
    are then detected at tree times only: exit_bound tells where that is
    negligible.

    Returns one EstimatorResult per entry of t_grid; each carries the record
    of the same marches.
    """
    if not coeffs.superparabolic():
        raise SimulationError(
            "conditional estimates need d < d0 with a nondegenerate tail block"
        )
    t_grid = np.asarray(t_grid, dtype=float)

    def job(i, m):
        bundle = bridge_paths(tree, leaf, m, coeffs.sigma, dt_mc, (seed, 0xC0, i))
        trajs = simulate(coeffs, p0, 0.0, bundle, grid.domain, grid=grid, snapshot_times=t_grid)
        vals = np.empty((t_grid.size, m))
        for a, t in enumerate(t_grid):
            w1 = bundle.w1(min(int(round(t / tree.dt)), tree.n_steps))
            vals[a] = trajs.alive[:, a] * np.asarray(
                phi(trajs.snapshots[:, a], t, w1)
            )
        return vals, trajs, bundle

    return _chunked(M, job)


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
    the noise); without one, plain Wiener increments are used.
    """
    def job(i, m):
        chunk_seed = (seed, 0xF0, i)
        if tree is not None:
            bundle = sample_tree_paths(tree, m, coeffs.sigma, dt_mc, chunk_seed)
        else:
            bundle = free_paths(grid.domain.horizon, m, coeffs.sigma, dt_mc, chunk_seed)
        trajs = simulate(coeffs, init, 0.0, bundle, grid.domain, grid=grid,
                         integrands={"phi": phi}, snapshot_times=())
        return trajs.integrals["phi"][None], trajs, bundle

    return _chunked(M, job)[0]
