import dataclasses
import decimal
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from reference_march import reference_simulate

from spdelab import (
    DomainSpec,
    build_grid,
    build_tree,
    bridge_paths,
    conditional_functional,
    free_paths,
    functional_estimate,
    make_family,
    sample_tree_paths,
    simulate,
    solve_density,
)
from spdelab import montecarlo
from spdelab import tree as tree_module
from spdelab.harness import _gaussian
from spdelab.montecarlo import SimulationError, sample_from_density
from spdelab.tree import PathBundle


class SilentBundle(PathBundle):
    """A bundle whose increments are all zero, drawn one fine step at a time."""

    def draw(self, m, rows):
        return m, np.zeros((1, np.size(rows)))


def silent_free_paths(horizon, M, sigma, dt_mc):
    bundle = free_paths(horizon, M=M, sigma=sigma, dt_mc=dt_mc, seed=0)
    return SilentBundle(**{f.name: getattr(bundle, f.name) for f in dataclasses.fields(bundle)})


def free_draws(paths, tau, s=0.0):
    """(steps, paths) of each draw of a march over free paths from time s,
    rebuilt from its exit times: the draw at fine step m holds the L paths
    live at m and spans min(ceil(SPAN_NORMALS / L), SPAN_MAX, n_fine - m) steps."""
    exit_step = np.rint(tau / paths.dt_mc).astype(int)
    m, draws = round(s / paths.dt_mc), []
    while m < paths.n_fine and (L := np.count_nonzero(exit_step > m)):
        draws.append((min(-(-tree_module.SPAN_NORMALS // L), tree_module.SPAN_MAX,
                          paths.n_fine - m), L))
        m += draws[-1][0]
    return draws


def estimate_functional(trajs, name):
    """(mean, standard error) of sum_{t < tau} phi(y(t), t) dt_mc for the
    integrand registered under `name`, reduced as one chunk."""
    vals = trajs.integrals[name]
    return montecarlo._estimate(vals.sum(), (vals**2).sum(), vals.size)


def empirical_density(trajs, t, grid):
    """Histogram of the paths alive at snapshot time t, normalized by M dx."""
    hit = np.flatnonzero(np.abs(trajs.snapshot_times - t) < 1e-9)[0]
    ok = trajs.alive[:, hit]
    edges = np.concatenate([[grid.x[0] - 0.5 * grid.dx], 0.5 * (grid.x[1:] + grid.x[:-1]),
                            [grid.x[-1] + 0.5 * grid.dx]])
    counts, _ = np.histogram(trajs.snapshots[ok, hit], bins=edges)
    return counts / (trajs.tau.size * grid.dx)


@pytest.fixture
def unit_domain():
    return DomainSpec(0.0, 1.0, 1.0)


@pytest.fixture
def line_domain():
    return DomainSpec(-8.0, 8.0, 1.0)


def test_simulate_frozen_dynamics(line_domain):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1e-3]})
    # beta ~ 0 within the nondegeneracy floor; scale noise away by hand instead
    paths = silent_free_paths(1.0, M=64, sigma=coeffs.sigma, dt_mc=0.25)
    trajs = simulate(coeffs, 0.3, 0.0, paths, line_domain, snapshot_times=[0.0, 1.0])
    assert np.all(trajs.snapshots == 0.3)
    assert np.all(trajs.tau == 1.0)
    assert np.all(trajs.alive)


def test_simulate_gaussian_statistics(line_domain):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(1.0, M=20000, sigma=coeffs.sigma, dt_mc=0.01, seed=2)
    trajs = simulate(coeffs, 0.0, 0.0, paths, line_domain, snapshot_times=[1.0])
    yT = trajs.snapshots[:, -1]
    m = yT.size
    assert abs(yT.mean()) < 3.0 / np.sqrt(m)
    assert abs(yT.var() - 1.0) < 3.0 * np.sqrt(2.0 / (m - 1))


def test_simulate_exit_time_oracle(unit_domain):
    # E tau for Brownian motion from x=0.5 in (0,1) is 0.25; the weighted
    # running integral of 1 leaves an O(dt_mc) bias
    dom = DomainSpec(0.0, 1.0, 4.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(4.0, M=20000, sigma=coeffs.sigma, dt_mc=2e-3, seed=3)
    trajs = simulate(coeffs, 0.5, 0.0, paths, dom, snapshot_times=[0.0, 4.0],
                     integrands={"one": lambda y, t, w1: np.ones_like(y)})
    value, stderr = estimate_functional(trajs, "one")
    bias_allowance = 2e-3 + 3 * stderr
    assert abs(value - 0.25) <= bias_allowance
    # exited paths freeze: the alive indicator flips once and stays down
    flips = np.diff(trajs.alive.astype(int), axis=1)
    assert np.all(flips <= 0)


def _exit_time_reference(x, a, b, f0, b_total):
    """The closed form of expected_exit_time in 800-digit decimals."""
    with decimal.localcontext(decimal.Context(prec=800)):
        x, a, b, f0, b_total = map(decimal.Decimal, (x, a, b, f0, b_total))
        if f0 == 0:
            return float((x - a) * (b - x) / b_total)
        k = 2 * f0 / b_total
        return float(((b - a) * ((-k * (x - a)).exp() - 1) / ((-k * (b - a)).exp() - 1)
                      - (x - a)) / f0)


@pytest.mark.parametrize("x, a, b", [(0.5, 0.0, 1.0), (0.3, 0.0, 1.0), (1e-9, 0.0, 1.0),
                                     (0.999999, 0.0, 1.0), (50.0, 0.0, 100.0), (-1.0, -2.0, 2.0)])
def test_exit_time_oracle_neither_cancels_nor_overflows(x, a, b):
    # the closed form's subtraction cancelled as f0 -> 0 (0.0, 1.11 and 0.244
    # for 0.25 at f0 = 1e-300, 1e-16, 1e-14) and its expm1 overflowed at
    # k (b - a) past 709 (nan)
    for f0 in (0.0, 1e-300, 1e-16, 1e-12, 1e-8, 1e-4, 0.1, 0.5, 1.0, 3.0, 20.0):
        for f, b_total in itertools.product((f0, -f0), (1.0, 0.36)):
            assert montecarlo.expected_exit_time(x, a, b, f, b_total) == pytest.approx(
                _exit_time_reference(x, a, b, f, b_total), rel=1e-14, abs=0.0), (f, b_total)
    # the f0 -> 0 limit is the driftless (x - a)(b - x) / b_total
    for f0 in (1e-300, -1e-300, 1e-16, -1e-16, 1e-14):
        assert montecarlo.expected_exit_time(x, a, b, f0, 1.0) == pytest.approx(
            (x - a) * (b - x), rel=1e-12, abs=0.0)


def test_exit_time_oracle_is_mirror_symmetric():
    # x -> a + b - x turns the drift around (exact mirrors of x here)
    for x, a, b in ((0.25, 0.0, 1.0), (50.0, 0.0, 100.0), (-1.0, -2.0, 2.0)):
        for f0 in (1e-16, 0.1, 0.5, 3.0, 20.0):
            assert montecarlo.expected_exit_time(x, a, b, f0, 0.36) \
                == montecarlo.expected_exit_time(a + b - x, a, b, -f0, 0.36)


def test_bridge_weights_remove_the_mesh_bias_at_a_coarse_step():
    # Brownian motion from 0.5 on (0, 1), E tau = 0.25, at dt_mc 0.04: the
    # exit-time functional of 1M weighted paths lands within 4 standard
    # errors of it, where the mesh-point exit times alone read more than 10
    # standard errors above it
    dom = DomainSpec(0.0, 1.0, 4.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    exact = montecarlo.expected_exit_time(0.5, 0.0, 1.0, 0.0, coeffs.b_total)
    assert exact == 0.25
    est = functional_estimate(coeffs, lambda y, t, w1: np.ones_like(y), 0.5, 1_000_000, 48,
                              grid=build_grid(dom, 21), dt_mc=0.04)
    assert est.fine_steps == 100
    assert abs(est.value - exact) < 4.0 * est.stderr
    tau = simulate(coeffs, 0.5, 0.0, free_paths(4.0, 20000, coeffs.sigma, 0.04, seed=48), dom).tau
    assert tau.mean() - exact > 10.0 * tau.std(ddof=1) / np.sqrt(tau.size)


def test_simulate_validations(unit_domain):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(1.0, M=4, sigma=coeffs.sigma, dt_mc=0.25, seed=4)
    with pytest.raises(SimulationError, match="outside"):
        simulate(coeffs, 1.5, 0.0, paths, unit_domain)
    # the bundle's increments are sigma . dW for the sigma it was built for
    for sigma in ([1.0, 1.0], [0.5]):
        with pytest.raises(SimulationError, match="sigma"):
            simulate(make_family("constant", {"f0": 0.0, "sigma": sigma}),
                     0.5, 0.0, paths, unit_domain)
    random_coeffs = make_family("drift-random", {"kappa": 0.2, "sigma": [1.0], "d": 1})
    with pytest.raises(SimulationError, match="tree"):
        simulate(random_coeffs, 0.5, 0.0, paths, unit_domain)


def test_exits_on_the_last_fine_step_are_counted():
    # four fine steps from 0.5 on (0, 1): a path that exits on the last step
    # has tau at the horizon, as a path that never exits does, and the march
    # counts it as it leaves
    dom = DomainSpec(0.0, 1.0, 0.04)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(0.04, 20000, coeffs.sigma, 0.01, seed=3)
    trajs = simulate(coeffs, 0.5, 0.0, paths, dom, snapshot_times=[0.0, 0.04])
    gone = np.count_nonzero(~trajs.alive[:, -1])
    assert paths.n_fine == 4 and trajs.alive[:, 0].all()
    assert trajs.exits == gone > np.count_nonzero(trajs.tau < 0.04) > 0
    # the estimate's record counts them too: its one chunk marches the
    # bundle seeded (seed, 0xF0, 0)
    est = functional_estimate(coeffs, lambda y, t, w1: np.ones_like(y), 0.5, 20000, 3,
                              grid=build_grid(dom, 21), dt_mc=0.01)
    paths = free_paths(0.04, 20000, coeffs.sigma, 0.01, seed=(3, 0xF0, 0))
    trajs = simulate(coeffs, 0.5, 0.0, paths, dom, snapshot_times=[0.04])
    assert est.exit_frac == np.count_nonzero(~trajs.alive[:, -1]) / 20000
    assert est.exit_frac > np.count_nonzero(trajs.tau < 0.04) / 20000


def test_no_normals_drawn_for_exited_paths():
    # free paths: a draw spans a few fine steps of the paths live at its
    # start, so a path that exits inside a span leaves at most SPAN_MAX - 1
    # normals unused, and the march stops at the last exit
    dom = DomainSpec(0.0, 1.0, 4.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(4.0, M=3000, sigma=coeffs.sigma, dt_mc=0.01, seed=20)
    # a snapshot at every mesh time is the fine history
    trajs = simulate(coeffs, 0.5, 0.0, paths, dom, snapshot_times=paths.times)
    steps = np.rint(trajs.tau / 0.01).astype(int)
    assert steps.max() < paths.n_fine  # every path exits before the horizon
    assert trajs.normals_drawn == sum(S * L for S, L in free_draws(paths, trajs.tau))
    assert 0 < trajs.normals_drawn - steps.sum() <= (tree_module.SPAN_MAX - 1) * steps.size
    last = trajs.snapshots[np.arange(paths.n_paths), steps]
    assert np.all((last < 0.0) | (last > 1.0))  # a path exits outside the domain
    # after the early stop the record holds the frozen exit values
    assert np.array_equal(trajs.snapshots[:, -1], last)
    assert not trajs.alive[:, -1].any()


def test_bridged_blocks_drawn_only_for_live_paths(unit_domain):
    # a tree bundle draws a whole block (n_sub steps, one normal per step)
    # for each path still alive when the block starts, here from mid-block
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 4, 1.0)
    paths = sample_tree_paths(tree.shape, 2000, coeffs.sigma, 0.01, seed=21)
    s = 0.13
    trajs = simulate(coeffs, 0.5, s, paths, unit_domain)
    exit_step = np.rint(trajs.tau / 0.01).astype(int)
    first = round(s / 0.01) // paths.n_sub
    blocks = -(-exit_step // paths.n_sub) - first  # blocks started while alive
    assert 0 < (exit_step < paths.n_fine).mean() < 1
    assert trajs.normals_drawn == paths.n_sub * blocks.sum()


@pytest.mark.parametrize("n_sub", [1, 25])
def test_bridged_snapshots_have_the_leaf_law_at_any_mesh(line_domain, n_sub):
    # drift-random bridged to one leaf from a scalar start: a tree step's
    # n_sub fine steps sum to s_f sum(Z) + sigma_0 dW_tree, so at every tree
    # time, at any n_sub (1 marches at the tree step itself),
    #   y(t_k) ~ N(y0 + sum_{j<k} kappa tanh(w1_j) dt + sigma_0 w1_k, s_f^2 t_k)
    kappa, sigma, y0, M = 0.25, [0.6, 0.8], 0.3, 20000
    coeffs = make_family("drift-random", {"kappa": kappa, "sigma": sigma, "d": 1})
    tree = build_tree(1, 5, 1.0)
    leaf = 0b10110
    w1 = np.array([tree.lattice.w1[k][tree.states(k)[node]]
                   for k, node in enumerate(tree.leaf_path(leaf))])
    paths = bridge_paths(tree.shape, leaf, M, coeffs.sigma, tree.dt / n_sub, seed=(23, n_sub))
    assert paths.n_sub == n_sub
    times = paths.times[::n_sub]  # the tree times
    trajs = simulate(coeffs, y0, 0.0, paths, line_domain, snapshot_times=times)
    assert trajs.alive.all()
    mean = y0 + np.cumsum(kappa * np.tanh(w1[:-1]) * tree.dt) + sigma[0] * w1[1:]
    var = sigma[1] ** 2 * times[1:]
    y = trajs.snapshots[:, 1:]
    assert np.all(np.abs(y.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / M))
    assert np.all(np.abs(y.var(axis=0, ddof=1) - var) <= 4.0 * var * np.sqrt(2.0 / (M - 1)))


def test_bridge_survival_is_one_past_the_screen_and_zero_past_a_wall():
    # c = 20: density-64-65's tree step.  Ends at least sqrt(40 / c) from both
    # walls give exactly 1.0 (what lets conditional_functional skip them);
    # nearer ends less; an end on or past a wall 0, with no warning
    a, b, c = -2.0, 2.0, 20.0
    r = np.sqrt(40.0 / c)
    y0 = np.array([a + r, b - r, 0.0, a + 0.5 * r, 0.0, b + 0.1, a])
    y1 = np.array([b - r, a + r, b - r, 0.0, a - 0.3, b + 0.1, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = montecarlo._bridge_survival(y0, y1, a, b, c)
    assert np.array_equal(f[:3], [1.0, 1.0, 1.0])
    assert 0.0 < f[3] < 1.0
    assert np.array_equal(f[4:], [0.0, 0.0, 0.0])


def test_bridge_weights_hold_at_d2():
    # at d = 2 the tree-bridged path between tree times is a bridge of rate
    # |sigma|^2 too: on (-2, 2) the weighed march at the tree step agrees with
    # a fine march, which its unweighted survival does not
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8, 0.5], "d": 2})
    tree = build_tree(2, 5, 1.0)
    grid = build_grid(DomainSpec(-2.0, 2.0, 1.0), 41)
    p0 = np.exp(-grid.x**2 / 0.5)
    p0[[0, -1]] = 0.0
    p0 /= grid.dx * p0.sum()
    (weighted,), (fine,) = (
        conditional_functional(coeffs, lambda y, t, w1: np.ones_like(y), 0b1001110010, [1.0],
                               M, 8, shape=tree.shape, grid=grid, p0=p0, dt_mc=dt)
        for M, dt in ((200_000, 0.2), (20_000, 2.5e-4)))
    spread = 4.0 * np.hypot(weighted.stderr, fine.stderr)
    assert abs(weighted.value - fine.value) < spread
    assert 1.0 - weighted.exit_frac - fine.value > spread


def test_bridge_steps_integrate_each_step_over_its_bridge(unit_domain):
    # at the tree step a running integral with bridge_steps adds, per step,
    # the Gauss-Legendre mean of phi over the step's bridge times dt, weighed
    # by the trapezoid of the survival weights at the step's ends: the sum
    # over the snapshots and weights at every tree time, bit for bit, on
    # (0, 1), where most paths are weighed and exit
    coeffs = make_family("drift-random", {"kappa": 0.7, "sigma": [0.6, 0.8], "d": 1})
    paths = sample_tree_paths((1, 10, 1.0), 4000, coeffs.sigma, 0.1, seed=50)
    trajs = simulate(coeffs, 0.5, 0.0, paths, unit_domain, integrands={"phi": _gaussian},
                     snapshot_times=paths.times, bridge_steps=True)
    y, w, dt = trajs.snapshots, trajs.weights, paths.dt_mc
    direct = np.zeros(paths.n_paths)
    for k in range(paths.n_fine):
        mean = np.zeros(paths.n_paths)
        for u, wj in zip(montecarlo.BRIDGE_NODES, montecarlo.BRIDGE_WEIGHTS):
            mean += wj * _gaussian(y[:, k] + u * (y[:, k + 1] - y[:, k]), k * dt + u * dt,
                                   paths.w1(k), coeffs.b_total * dt * u * (1.0 - u))
        direct += mean * dt * (0.5 * (w[:, k] + w[:, k + 1]))
    assert trajs.exits > 2000 and np.any((w > 0.0) & (w < 1.0))
    assert np.array_equal(trajs.integrals["phi"], direct)


def test_bridge_integral_matches_the_leaf_enumeration(line_domain):
    # representation-random's control (constant, f0 0, sigma [0.6, 0.8]) from
    # x = 0 on its tree (N 10): given its leaf a path is Gaussian at every t,
    # mean 0.6 W1(t), W1 linear between tree times, and variance
    # 0.36 tau (dt - tau) / dt + 0.64 t at tau past the last tree time, so
    # E int_0^1 exp(-y^2) dt averages a closed form over the 1,024 leaves,
    # here by 16 Gauss-Legendre nodes per block.  sqrt(3) - 1 = 0.732051 is
    # the Brownian value; the tree's binomial W1 moves it by 0.0009.  The
    # estimator's own 4-point rule is leggauss(4), in closed form
    x, w = np.polynomial.legendre.leggauss(4)
    np.testing.assert_allclose(montecarlo.BRIDGE_NODES, (x + 1.0) / 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(montecarlo.BRIDGE_WEIGHTS, w / 2.0, rtol=0, atol=1e-15)
    tree = build_tree(1, 10, 1.0)
    s1, s2 = 0.6, 0.8
    u, w = np.polynomial.legendre.leggauss(16)
    leaves = np.arange(tree.n_leaves)
    w1 = [tree.lattice.w1[k][tree.states(k)[tree.ancestor_index(leaves, k)]]
          for k in range(tree.n_steps + 1)]
    exact = 0.0
    for k in range(tree.n_steps):
        for uj, wj in zip((u + 1.0) / 2.0, w / 2.0):
            mean = s1 * (w1[k] + uj * (w1[k + 1] - w1[k]))
            var = s1**2 * tree.dt * uj * (1.0 - uj) + s2**2 * (k + uj) * tree.dt
            spread = 1.0 + 2.0 * var
            exact += wj * tree.dt * np.mean(np.exp(-mean**2 / spread) / np.sqrt(spread))
    assert exact == pytest.approx(0.731120, abs=5e-7)
    control = make_family("constant", {"f0": 0.0, "sigma": [s1, s2], "d": 1})
    # the control's own stream at x = 0 in representation-random, 10x its paths
    est = functional_estimate(control, _gaussian, 0.0, 200_000, (1357, 0, 80),
                              grid=build_grid(line_domain, 161), dt_mc=tree.dt, shape=tree.shape)
    assert (est.dt, est.normals_drawn) == (tree.dt, 200_000 * 10)
    assert abs(est.value - exact) < 4.0 * est.stderr


def test_mid_block_start_hits_coarse_targets(line_domain):
    # zero drift, beta = 1 on the tree component: from a start inside block 1,
    # every later tree step moves y by exactly its per-path tree increment
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0], "d": 1})
    tree = build_tree(1, 4, 1.0)
    paths = sample_tree_paths(tree.shape, 300, coeffs.sigma, 0.025, seed=22)
    trajs = simulate(coeffs, 0.0, 0.35, paths, line_domain, snapshot_times=paths.times[14:])
    coarse = trajs.snapshots[:, [20 - 14, 30 - 14, 40 - 14]]  # t = 0.5, 0.75, 1.0
    w1 = np.stack([paths.w1(k) for k in range(2, tree.n_steps + 1)], axis=1)
    assert np.max(np.abs(np.diff(coarse, axis=1) - np.diff(w1, axis=1))) < 1e-12


def _reads_y_t_w1(y, t, w1):
    """An integrand of the state, the time and w1 (None on free paths)."""
    return np.sin(3.0 * y) * (1.0 + t) + (0.0 if w1 is None else np.tanh(w1))


def march_cases():
    """(coeffs, init, s, paths, snapshot_times) on the unit interval, where
    most paths exit: every drift family, free paths, paths bridged through one
    leaf and through a leaf per path, and start points drawn from a density
    on 41 nodes (the march draws them from rng.pcg64_uniform, the
    reference from numpy.random)."""
    tree = build_tree(1, 5, 1.0)
    tree_times = tree.dt * np.arange(tree.n_steps + 1)
    constant = make_family("constant", {"f0": 0.8, "sigma": [1.0]})
    smooth = make_family("space-smooth", {"a": 1.5, "eps": 0.4, "sigma": [0.6, 0.8], "d": 1})
    random = make_family("drift-random", {"kappa": 0.7, "sigma": [0.6, 0.8], "d": 1})
    drifting = make_family("constant", {"f0": 0.8, "sigma": [0.06, 0.08], "d": 1})
    return {
        "free-constant": (constant, 0.5, 0.0, free_paths(1.0, 4000, [1.0], 1e-3, seed=40),
                          [0.0, 1.0]),
        # every path's every step is weighed, and exits come within a few steps
        "free-coarse-step": (make_family("constant", {"f0": 0.0, "sigma": [1.0]}), 0.5, 0.0,
                             free_paths(1.0, 4000, [1.0], 0.04, seed=48),
                             np.linspace(0.0, 1.0, 6)),
        # a drift of w1 needs tree-bridged paths, here through one leaf
        "leaf-space-smooth": (smooth, 0.3, 0.0,
                              bridge_paths(tree.shape, 6, 3000, smooth.sigma, 2e-3, seed=41),
                              np.linspace(0.0, 1.0, 11)),
        "leaf-drift-random": (random, 0.5, 0.0,
                              bridge_paths(tree.shape, 19, 3000, random.sigma, 0.01, seed=42),
                              tree_times),
        "per-path-leaves": (random, 0.5, 0.0,
                            sample_tree_paths(tree.shape, 3000, random.sigma, 0.01, seed=43),
                            tree_times),
        "start-inside-a-block": (smooth, 0.4, 0.13,
                                 sample_tree_paths(tree.shape, 3000, smooth.sigma, 0.01, seed=44),
                                 np.array([0.13, 0.2, 0.2, 0.55, 1.0])),
        # sigma 0.1: near a wall a step is weighed, away from both it is not
        "near-a-wall-n_sub-20": (drifting, 0.5, 0.0,
                                 sample_tree_paths(tree.shape, 3000, drifting.sigma, 0.01, seed=49),
                                 tree_times),
        "density-start": (random, np.sin(np.linspace(0.0, np.pi, 41)) ** 2, 0.0,
                          sample_tree_paths(tree.shape, 3000, random.sigma, 0.01, seed=50),
                          tree_times),
        # nine paths: blocks of a few live paths (9, 5 and 2 at the block
        # starts); all are out by t = 0.52, an early stop before the last
        # three snapshots, which hold the exit points
        "one-live-path-in-a-group": (random, 0.5, 0.0,
                                     sample_tree_paths(tree.shape, 9, random.sigma, 0.01, seed=47),
                                     tree_times),
    }


def check_march_against_the_reference(domain, case):
    """The march with per-block drifts, free spans and a column index into the
    noise block against the march that re-evaluates the drift, draws a free
    bundle one fine step at a time and compacts the block on every exit
    (tests/reference_march.py)."""
    coeffs, init, s, paths, times = march_cases()[case]
    grid = None if np.isscalar(init) else build_grid(domain, init.size)
    integrands = {"one": lambda y, t, w1: np.ones_like(y), "phi": _reads_y_t_w1}
    new, ref = (march(coeffs, init, s, paths, domain, grid=grid, integrands=integrands,
                      snapshot_times=times) for march in (simulate, reference_simulate))
    for name in ("tau", "snapshots", "alive", "weights"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    assert new.exits == ref.exits == np.count_nonzero(~new.alive[:, -1])
    assert new.integrals.keys() == ref.integrals.keys()
    for name in new.integrals:
        assert np.array_equal(new.integrals[name], ref.integrals[name]), name
    if paths.leaves is None:  # spans, where the reference draws step by step
        assert new.normals_drawn == sum(S * L for S, L in free_draws(paths, new.tau, s))
        assert new.normals_drawn > ref.normals_drawn
    else:
        assert new.normals_drawn == ref.normals_drawn
    exit_step = np.rint(new.tau / paths.dt_mc).astype(int)
    exited = exit_step < paths.n_fine
    assert exited.mean() > 0.5
    assert np.any(new.weights[new.alive] < 1.0)  # live paths were weighed
    if paths.n_sub > 1:  # paths exit inside blocks, while others march on
        assert np.any(exited & (exit_step % paths.n_sub != 0))


@pytest.mark.parametrize("case", list(march_cases()))
def test_march_matches_the_reference_bit_for_bit(unit_domain, case):
    check_march_against_the_reference(unit_domain, case)


def test_free_draws_hold_at_most_a_span_of_normals(unit_domain, monkeypatch):
    # a free draw spans the fewest steps that reach SPAN_NORMALS normals, at
    # most SPAN_MAX steps and never past the horizon, and the march matches
    # the reference bit for bit
    shapes, draw = [], PathBundle.draw

    def recorded(self, m, rows):
        first, z = draw(self, m, rows)
        shapes.append((m, first, z.shape))
        return first, z

    monkeypatch.setattr(PathBundle, "draw", recorded)
    coeffs = make_family("constant", {"f0": 0.5, "sigma": [1.0]})
    paths = free_paths(1.0, 12_000, coeffs.sigma, 2e-3, seed=46)
    trajs = simulate(coeffs, 0.5, 0.0, paths, unit_domain, snapshot_times=[0.0, 1.0])
    span_normals, span_max = tree_module.SPAN_NORMALS, tree_module.SPAN_MAX
    assert [shape for _, _, shape in shapes] == free_draws(paths, trajs.tau)
    ref = reference_simulate(coeffs, 0.5, 0.0, paths, unit_domain, snapshot_times=[0.0, 1.0])
    assert np.array_equal(trajs.tau, ref.tau) and np.array_equal(trajs.snapshots, ref.snapshots)
    exited = trajs.tau < 1.0
    assert exited.any() and np.all(np.abs(trajs.snapshots[exited, -1] - 0.5) > 0.5)
    for m, first, (S, L) in shapes:
        assert first == m
        assert S * L <= span_normals + L
        assert S * L >= span_normals or S == span_max or m + S == paths.n_fine
    # draws above SPAN_NORMALS normals and spans of several steps both occur
    assert max(S * L for _, _, (S, L) in shapes) > span_normals
    assert any(1 < S < span_max for _, _, (S, _) in shapes)


def test_march_holds_one_noise_block_at_a_time(line_domain):
    # 20k bridged paths, 50 fine steps per block: a block is 8 MB, and the
    # march's own arrays add about a third of that.  Holding a view of the
    # spent block while its successor is drawn would double the peak.
    coeffs = make_family("drift-random", {"kappa": 0.5, "sigma": [0.6, 0.8], "d": 1})
    paths = bridge_paths((1, 4, 1.0), 5, 20_000, coeffs.sigma, 0.005, seed=45)
    assert paths.n_sub == 50
    block_bytes = 8 * paths.n_sub * paths.n_paths
    tracemalloc.start()
    try:
        simulate(coeffs, 0.0, 0.0, paths, line_domain, snapshot_times=paths.times[::paths.n_sub])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block_bytes < peak < 1.5 * block_bytes


def test_a_free_march_holds_no_copy_of_its_paths(unit_domain):
    # 25,000 free paths with one integrand and no snapshot times: the march
    # holds its per-path state, weights, running integral and outputs, the
    # noise block and a step's temporaries, under 14 per-path float64 arrays:
    # 13.4 with the live state as the only copy of the positions, 14.4 with
    # a second copy beside it
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(1.0, 25_000, coeffs.sigma, 0.04, seed=3)
    tracemalloc.start()
    try:
        simulate(coeffs, 0.5, 0.0, paths, unit_domain,
                 integrands={"one": lambda y, t, w1: np.ones_like(y)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 8 * paths.n_paths


def test_a_bridged_march_takes_f_dt_per_lattice_state(line_domain, monkeypatch):
    # under a drift that does not read x, a tree block's f dt is a table over
    # the k + 1 lattice states of its level, gathered by each path's j: with
    # no integrand to read it, the march forms w1 at those states only, never
    # per path; an integrand gets the per-path w1
    formed, w1_at = [], montecarlo.w1_at

    def recorded(level, down, sqdt, out=None):
        formed.append((level, np.size(down)))
        return w1_at(level, down, sqdt, out=out)

    monkeypatch.setattr(montecarlo, "w1_at", recorded)
    coeffs = make_family("drift-random", {"kappa": 0.7, "sigma": [0.6, 0.8], "d": 1})
    paths = sample_tree_paths((1, 5, 1.0), 300, coeffs.sigma, 0.05, seed=43)
    simulate(coeffs, 0.0, 0.0, paths, line_domain, snapshot_times=[1.0])
    assert formed == [(k, k + 1) for k in range(5)]
    formed.clear()
    simulate(coeffs, 0.0, 0.0, paths, line_domain, integrands={"phi": _reads_y_t_w1})
    assert formed == [(k, n) for k in range(5) for n in (300, k + 1)]


def test_snapshot_times_lie_between_start_and_horizon(unit_domain):
    # by default no path is recorded; a snapshot at s holds the start
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1})
    paths = sample_tree_paths((1, 4, 1.0), 5, coeffs.sigma, 0.01, seed=21)
    none = simulate(coeffs, 0.5, 0.5, paths, unit_domain)
    assert none.snapshot_times.shape == (0,) and none.snapshots.shape == none.alive.shape == (5, 0)
    trajs = simulate(coeffs, 0.5, 0.5, paths, unit_domain, snapshot_times=[0.5, 0.75, 1.0])
    assert np.all(trajs.snapshots[:, 0] == 0.5) and trajs.alive[:, 0].all()
    # explicit times before the start or past the horizon raise
    for times in ([0.25, 1.0], [0.5, 1.01]):
        with pytest.raises(SimulationError, match="horizon"):
            simulate(coeffs, 0.5, 0.5, paths, unit_domain, snapshot_times=times)
    # a repeated time fills every column that asks for it
    twice = simulate(coeffs, 0.5, 0.5, paths, unit_domain, snapshot_times=[0.75, 0.75, 1.0])
    assert np.array_equal(twice.snapshots[:, 0], twice.snapshots[:, 1])
    assert np.array_equal(twice.snapshots[:, [1, 2]], trajs.snapshots[:, [1, 2]])
    assert np.array_equal(twice.alive[:, [1, 2]], trajs.alive[:, [1, 2]])


def test_estimate_functional_zero_and_linearity(unit_domain):
    dom = DomainSpec(0.0, 1.0, 1.0)
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(1.0, M=500, sigma=coeffs.sigma, dt_mc=0.02, seed=5)
    trajs = simulate(
        coeffs, 0.5, 0.0, paths, dom,
        integrands={
            "zero": lambda y, t, w1: np.zeros_like(y),
            "one": lambda y, t, w1: np.ones_like(y),
            "two": lambda y, t, w1: 2.0 * np.ones_like(y),
            "sq": lambda y, t, w1: y**2,
        },
        snapshot_times=paths.times,
    )
    assert estimate_functional(trajs, "zero") == (0.0, 0.0)
    one, _ = estimate_functional(trajs, "one")
    two, _ = estimate_functional(trajs, "two")
    assert two == pytest.approx(2.0 * one, rel=1e-14)
    # a running integral sums phi(y_m) dt_mc by the trapezoid of the weights
    # at the step's ends, 0 once a path has exited
    w = trajs.weights
    assert np.all(w[trajs.alive] > 0.0) and np.all(w[~trajs.alive] == 0.0)
    assert np.all(np.diff(w, axis=1) <= 0.0)
    trap = 0.5 * (w[:, :-1] + w[:, 1:])
    assert one == pytest.approx((trap.sum(axis=1) * 0.02).mean(), rel=1e-12)
    assert one < trajs.tau.mean()  # the weights count the exits between mesh points
    direct = (trajs.snapshots[:, :-1] ** 2 * trap).sum(axis=1) * 0.02
    assert estimate_functional(trajs, "sq")[0] == pytest.approx(direct.mean(), rel=1e-12)


def test_reproducibility(line_domain):
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 4, 1.0)

    def run():
        paths = sample_tree_paths(tree.shape, 256, coeffs.sigma, 0.05, seed=7)
        return simulate(coeffs, 0.0, 0.0, paths, line_domain,
                        integrands={"phi": lambda y, t, w1: np.exp(-y**2)},
                        snapshot_times=paths.times[::paths.n_sub])

    a, b = run(), run()
    assert np.array_equal(a.snapshots, b.snapshots)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.integrals["phi"], b.integrals["phi"])


def test_exit_monotonicity(unit_domain):
    # shrinking the domain can only shorten each path's exit time
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    paths = free_paths(1.0, M=2000, sigma=coeffs.sigma, dt_mc=0.005, seed=8)
    wide = simulate(coeffs, 0.5, 0.0, paths, DomainSpec(0.0, 1.0, 1.0))
    paths2 = free_paths(1.0, M=2000, sigma=coeffs.sigma, dt_mc=0.005, seed=8)
    narrow = simulate(coeffs, 0.5, 0.0, paths2, DomainSpec(0.25, 0.75, 1.0))
    assert np.all(narrow.tau <= wide.tau + 1e-15)


def test_stderr_scaling(line_domain):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    errs = []
    for M in (2000, 8000):
        paths = free_paths(1.0, M=M, sigma=coeffs.sigma, dt_mc=0.02, seed=9)
        trajs = simulate(coeffs, 0.0, 0.0, paths, line_domain,
                         integrands={"phi": lambda y, t, w1: np.exp(-y**2)})
        errs.append(estimate_functional(trajs, "phi")[1])
    # quadrupling the sample halves the standard error, within 20%
    assert abs(errs[0] / errs[1] - 2.0) < 0.4


def test_empirical_density_spike(unit_domain):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    grid = build_grid(unit_domain, 21)
    paths = silent_free_paths(1.0, M=100, sigma=coeffs.sigma, dt_mc=0.25)
    trajs = simulate(coeffs, 0.5, 0.0, paths, unit_domain, snapshot_times=[0.0])
    hist = empirical_density(trajs, 0.0, grid)
    ix = np.argmin(np.abs(grid.x - 0.5))
    assert hist[ix] == pytest.approx(1.0 / grid.dx)
    assert hist.sum() * grid.dx == pytest.approx(1.0)


def test_empirical_density_gaussian(line_domain):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1})
    grid = build_grid(line_domain, 161)
    tree = build_tree(1, 4, 1.0)
    paths = sample_tree_paths(tree.shape, 100000, coeffs.sigma, 0.01, seed=11)
    trajs = simulate(coeffs, 0.0, 0.0, paths, line_domain, snapshot_times=[1.0])
    hist = empirical_density(trajs, 1.0, grid)
    ref = np.exp(-grid.x**2 / 2.0) / np.sqrt(2 * np.pi)
    assert grid.dx * np.abs(hist - ref).sum() <= 0.05


def test_empirical_density_mass_counts_alive(unit_domain):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    grid = build_grid(unit_domain, 21)
    paths = free_paths(1.0, M=4000, sigma=coeffs.sigma, dt_mc=0.01, seed=12)
    trajs = simulate(coeffs, 0.5, 0.0, paths, unit_domain, snapshot_times=[1.0])
    hist = empirical_density(trajs, 1.0, grid)
    alive_fraction = trajs.alive[:, -1].mean()
    assert hist.sum() * grid.dx == pytest.approx(alive_fraction, abs=1e-12)


def test_sample_from_density_matches_cdf(line_domain):
    grid = build_grid(line_domain, 161)
    p0 = np.exp(-((grid.x - 1.0) ** 2) / 0.5)
    p0[0] = p0[-1] = 0.0
    p0 /= grid.dx * p0[1:-1].sum()
    draws = sample_from_density(p0, grid, np.random.default_rng(13).uniform(size=50000))
    assert abs(draws.mean() - 1.0) < 0.02
    assert abs(draws.var() - 0.25) < 0.02


def test_sample_from_density_has_the_bits_of_np_interp(line_domain):
    # the bucketed interval search against np.interp(u, cdf, grid.x): a
    # narrow Gaussian whose tails hold intervals of no mass in float64, a
    # density that is zero over a stretch, and uniforms at, just above and
    # just below every CDF node as well as random ones
    grid = build_grid(line_domain, 161)
    gap = np.where(np.abs(grid.x - 1.0) < 2.0, 0.0, np.exp(-grid.x**2 / 8.0))
    for p0 in (np.exp(-grid.x**2 / 0.5), gap):
        p0[0] = p0[-1] = 0.0
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p0[1:] + p0[:-1]) * grid.dx)])
        cdf /= cdf[-1]
        u = np.concatenate([cdf, np.nextafter(cdf, 1.0), np.nextafter(cdf, 0.0),
                            np.random.default_rng(7).uniform(size=20_000), [1.0 - 2.0**-53]])
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = np.interp(u, cdf, grid.x)
        assert np.array_equal(sample_from_density(p0, grid, u).view(np.uint64),
                              expected.view(np.uint64))


def test_conditional_functional_trivials(line_domain):
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 4, 1.0)
    grid = build_grid(line_domain, 161)
    p0 = np.exp(-grid.x**2)
    p0[0] = p0[-1] = 0.0
    p0 /= grid.dx * p0[1:-1].sum()
    zero = conditional_functional(
        coeffs, lambda x, t, w1: np.zeros_like(x), 3, [0.5, 1.0], 500, 14,
        shape=tree.shape, grid=grid, p0=p0, dt_mc=0.05,
    )
    assert all(r.value == 0.0 for r in zero)
    ones = conditional_functional(
        coeffs, lambda x, t, w1: np.ones_like(x), 3, [0.5, 1.0], 4000, 15,
        shape=tree.shape, grid=grid, p0=p0, dt_mc=0.05,
    )
    for r in ones:
        # no exits on the wide truncated line: I_tau is identically one
        assert r.value == pytest.approx(1.0, abs=1e-12)
    # at the tree step too, a time off the mesh is refused, not rounded
    with pytest.raises(SimulationError, match="fine mesh"):
        conditional_functional(coeffs, lambda x, t, w1: np.ones_like(x), 3, [0.3], 10, 1,
                               shape=tree.shape, grid=grid, p0=p0, dt_mc=0.25)


def test_conditional_vs_unconditional_coherence(line_domain):
    # probability-weighted average over all leaf paths of the conditional
    # estimator agrees with the unconditional estimator within combined noise
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 2, 1.0)
    grid = build_grid(line_domain, 161)
    p0 = np.exp(-grid.x**2)
    p0[0] = p0[-1] = 0.0
    p0 /= grid.dx * p0[1:-1].sum()
    phi = lambda x, t, w1: np.exp(-x**2)
    t_pt = 1.0
    cond_vals, cond_errs = [], []
    for leaf in range(tree.n_leaves):
        r = conditional_functional(
            coeffs, phi, leaf, [t_pt], 4000, (16, leaf),
            shape=tree.shape, grid=grid, p0=p0, dt_mc=0.05,
        )[0]
        cond_vals.append(r.value)
        cond_errs.append(r.stderr)
    avg = np.mean(cond_vals)
    avg_err = np.sqrt(np.mean(np.square(cond_errs)) / tree.n_leaves)

    # unconditional side: integral estimator of phi at the same time via
    # simulate over sampled tree paths
    paths = sample_tree_paths(tree.shape, 16000, coeffs.sigma, 0.05, seed=17)
    trajs = simulate(coeffs, p0, 0.0, paths, line_domain, grid=grid, snapshot_times=[t_pt])
    yT = trajs.snapshots[:, -1]
    unc = (trajs.alive[:, -1] * np.exp(-yT**2))
    tol = 3.0 * np.sqrt(avg_err**2 + unc.std(ddof=1) ** 2 / unc.size)
    assert abs(avg - unc.mean()) <= tol


def test_functional_estimate_worker_independence(line_domain, monkeypatch):
    # chunks of CHUNK paths, the last one short, and the same record from a
    # second run of the same estimate
    monkeypatch.setattr(montecarlo, "CHUNK", 1500)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 4, 1.0)
    grid = build_grid(line_domain, 161)
    kw = dict(grid=grid, dt_mc=0.05, shape=tree.shape)
    a = functional_estimate(coeffs, lambda y, t, w1: np.exp(-y**2), 0.0, 5000, 18, **kw)
    b = functional_estimate(coeffs, lambda y, t, w1: np.exp(-y**2), 0.0, 5000, 18, **kw)
    assert a.chunks == (1500, 1500, 1500, 500)
    assert a == b


def test_conditional_functional_worker_independence(line_domain, monkeypatch):
    # chunks of CHUNK paths, the last one short, and the same record from a
    # second run of the same estimate
    monkeypatch.setattr(montecarlo, "CHUNK", 700)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 4, 1.0)
    grid = build_grid(line_domain, 161)
    p0 = np.exp(-grid.x**2)
    p0[0] = p0[-1] = 0.0
    p0 /= grid.dx * p0[1:-1].sum()
    kw = dict(shape=tree.shape, grid=grid, p0=p0, dt_mc=0.05)
    phi = lambda x, t, w1: np.exp(-x**2) * (1.0 + w1)
    a = conditional_functional(coeffs, phi, 5, [0.25, 0.5, 1.0], 2000, 20, **kw)
    b = conditional_functional(coeffs, phi, 5, [0.25, 0.5, 1.0], 2000, 20, **kw)
    assert a[0].chunks == (700, 700, 600)
    # value, stderr and the march record (chunks, normals_drawn, exit_frac, dt, fine_steps)
    assert a == b


def test_a_list_seed_draws_what_its_tuple_draws(line_domain, monkeypatch):
    # each chunk seeds (seed, tag, chunk), which SeedSequence flattens at any
    # depth: a list seed, which the config allows, names the streams of the
    # tuple with its entries, over several chunks, bridged and free
    monkeypatch.setattr(montecarlo, "CHUNK", 700)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 4, 1.0)
    grid = build_grid(line_domain, 81)
    p0 = np.exp(-grid.x**2)
    p0[0] = p0[-1] = 0.0
    p0 /= grid.dx * p0[1:-1].sum()
    phi = lambda x, t, w1: np.exp(-x**2) * (1.0 + w1)
    cond = [conditional_functional(coeffs, phi, 5, [0.5, 1.0], 1500, seed,
                                   shape=tree.shape, grid=grid, p0=p0, dt_mc=0.05)
            for seed in ([3, 4], (3, 4))]
    assert cond[0][0].chunks == (700, 700, 100) and cond[0] == cond[1]
    constant = make_family("constant", {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1})
    for family, kw in ((coeffs, {"shape": tree.shape}), (constant, {})):
        est = [functional_estimate(family, lambda x, t, w1: np.exp(-x**2), p0, 1500, seed,
                                   grid=grid, dt_mc=0.05, **kw)
               for seed in ([3, 4], (3, 4))]
        assert est[0] == est[1]


def test_conditional_matches_density_solver(line_domain):
    # the (6.4)-style cross-check at moderate size: conditional Monte Carlo
    # against the density solver along the same leaf path
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    tree = build_tree(1, 8, 1.0)
    grid = build_grid(line_domain, 121)
    p0 = np.exp(-grid.x**2 / (2 * 0.5**2))
    p0[0] = p0[-1] = 0.0
    p0 /= grid.dx * p0[1:-1].sum()
    leaf = 0b10110101 % tree.n_leaves
    dens = solve_density(p0, coeffs, grid, tree)
    anc = tree.leaf_path(leaf)
    res = conditional_functional(
        coeffs, lambda x, t, w1: np.exp(-x**2), leaf, [0.5, 1.0], 30000, 19,
        shape=tree.shape, grid=grid, p0=p0, dt_mc=0.0025,
    )
    for r, t in zip(res, [0.5, 1.0]):
        k = int(round(t / tree.dt))
        pde = grid.dx * float((dens.p.levels[k][:, anc[k]] * np.exp(-grid.x**2))[1:-1].sum())
        assert abs(pde - r.value) / abs(pde) <= 0.05


@pytest.mark.parametrize("M", [0, 1])
def test_estimators_refuse_fewer_than_two_paths(unit_domain, line_domain, M):
    # a standard error needs two paths: one path used to read stderr 0, and
    # none divided by zero
    constant = make_family("constant", {"f0": 0.0, "sigma": [1.0], "d": 1})
    grid = build_grid(unit_domain, 41)
    with pytest.raises(SimulationError, match=f"at least 2 paths, got M={M}"):
        functional_estimate(constant, lambda x, t, w1: np.ones_like(x), 0.5, M, 1,
                            grid=grid, dt_mc=0.01)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    grid = build_grid(line_domain, 41)
    p0 = np.exp(-grid.x**2)
    p0[0] = p0[-1] = 0.0
    p0 /= grid.dx * p0[1:-1].sum()
    with pytest.raises(SimulationError, match=f"at least 2 paths, got M={M}"):
        conditional_functional(coeffs, lambda x, t, w1: np.ones_like(x), 1, [0.5], M, 1,
                               shape=(1, 2, 1.0), grid=grid, p0=p0, dt_mc=0.05)
    # two paths give a standard error
    est = functional_estimate(constant, lambda x, t, w1: np.ones_like(x), 0.5, 2, 1,
                              grid=build_grid(unit_domain, 41), dt_mc=0.01)
    assert est.stderr > 0.0
