"""The Euler-Maruyama march as it stood before its lean step loop, kept as
the reference that `montecarlo.simulate` must match bit for bit.

Each fine step evaluates the drift at every live path, and every exit
compacts the live paths, their running integrals, their w1 and the current
noise block with one boolean mask.  A bridged path's w1 is read from the
table of a scenario tree built here, at the path's node of each level.  A noise block is the first n_sub steps
of a draw, so free paths are drawn one fine step at a time.  Every path
tests exits against the domain at mesh points, and every step multiplies
every live path's weight by the survival of its bridge, with no screen.
"""

from __future__ import annotations

import numpy as np

from spdelab.coefficients import CoefficientSet
from spdelab.domain import Grid
from spdelab.montecarlo import SimulationError, TrajectorySet, sample_from_density
from spdelab.tree import PathBundle, build_tree


def bridge_survival(y0, y1, a, b, c):
    """(1 - exp(-c (y0 - a)(y1 - a))) (1 - exp(-c (b - y0)(b - y1))), each
    distance clipped at 0, in the one expression montecarlo's in-place
    _bridge_survival must match."""
    lo = np.maximum(y0 - a, 0.0) * np.maximum(y1 - a, 0.0)
    hi = np.maximum(b - y0, 0.0) * np.maximum(b - y1, 0.0)
    return np.expm1(-c * lo) * np.expm1(-c * hi)


def reference_simulate(
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
    phi(y, t, w1) whose running integrals sum_{t < tau} phi dt_mc
    (w_m + w_{m+1}) / 2 are accumulated online; snapshot_times are the mesh
    times at which every path is recorded, none by default.  Deterministic
    given the bundle's seed.
    """
    if not np.array_equal(coeffs.sigma, paths.sigma):
        raise SimulationError(
            f"coefficients have sigma={coeffs.sigma} but the bundle was built for "
            f"sigma={paths.sigma}"
        )
    if coeffs.is_random and paths.leaves is None:
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
        # numpy.random itself, so the match checks montecarlo's port of it
        rng = np.random.default_rng(np.random.SeedSequence((paths.seed, 0xA11)))
        y = sample_from_density(init, grid, rng.uniform(size=M))
    lo, hi = domain.a, domain.b
    if np.any((y < lo) | (y > hi)):
        raise SimulationError("initial value outside the closed domain")
    c = 2.0 / (coeffs.b_total * dt)

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

    # w1 at each path's node from the tree its leaves name, built here
    tree = None
    if paths.leaves is not None:
        tree = build_tree(paths.d, paths.n_steps, paths.times[-1])
        assert (tree.dt, tree.sqdt) == (paths.dt, paths.sqdt)

    # live paths, compacted: index, state, weight, running integrals, current block
    live = np.arange(M)
    yl = y.copy()
    wl = np.ones(M)
    acc = {name: np.zeros(M) for name in integrands}
    drawn = exits = 0
    m = m0
    while True:
        if m in snap_of:
            y[live] = yl
            snapshots[:, snap_of[m]] = y[:, None]
            alive[np.ix_(live, snap_of[m])] = True
            weights[np.ix_(live, snap_of[m])] = wl[:, None]
        if m == n_fine or live.size == 0:
            break
        j = m % paths.n_sub
        if j == 0 or m == m0:
            k = m // paths.n_sub
            block = None  # let the spent block go before its successor is drawn
            block = paths.draw(k * paths.n_sub, live)[1][: paths.n_sub]
            drawn += block.size
            nodes = None if tree is None else tree.ancestor_index(paths.leaves[live], k)
            w1 = None if tree is None else tree.lattice.w1[k][tree.states(k)[nodes]]
        t = m * dt
        vals = {name: np.asarray(fn(yl, t, w1)) * dt for name, fn in integrands.items()}
        drift = coeffs.drift(yl, t, 0.0 if w1 is None else w1)
        y0, w0 = yl, wl
        yl = yl + drift * dt + block[j]
        wl = wl * bridge_survival(y0, yl, lo, hi, c)
        for name in integrands:
            acc[name] += vals[name] * (0.5 * (w0 + wl))
        m += 1
        out = (yl < lo) | (yl > hi)
        if out.any():
            gone = live[out]
            exits += gone.size
            tau[gone] = m * dt
            y[gone] = yl[out]
            for name in totals:
                totals[name][gone] = acc[name][out]
            keep = ~out
            live, yl, wl, block = live[keep], yl[keep], wl[keep], block[:, keep]
            acc = {name: a[keep] for name, a in acc.items()}
            if np.ndim(w1):
                w1 = w1[keep]
    y[live] = yl
    for name in totals:
        totals[name][live] = acc[name]
    # after an early stop the later snapshots hold the frozen paths
    snapshots[:, snap_idx > m] = y[:, None]
    return TrajectorySet(
        snapshot_times=snapshot_times,
        snapshots=snapshots,
        alive=alive,
        weights=weights,
        tau=tau,
        integrals=totals,
        normals_drawn=drawn,
        exits=exits,
    )
