import threading

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from spdelab import (
    DomainSpec,
    TreeError,
    bridge_paths,
    build_lattice,
    build_tree,
    clark_decompose,
    cond_expect,
    free_paths,
    ito_integral,
    make_family,
    sample_tree_paths,
    simulate,
)
from spdelab import tree as tree_module
from spdelab.rng import counter_normals
from spdelab.tree import w1_at


def drawn(bundle):
    """Every increment sigma.dW of a bundle, (n_paths, n_fine), walked draw by draw."""
    rows, m, draws = np.arange(bundle.n_paths), 0, []
    while m < bundle.n_fine:
        first, z = bundle.draw(m, rows)
        draws.append(z)
        m = first + len(z)
    return np.concatenate(draws, axis=0).T


def tree_block(bundle, k, rows):
    """Tree block k, (n_sub, rows): the draw of its first fine step."""
    return bundle.draw(k * bundle.n_sub, rows)[1]


def normals(bundle, k, rows):
    """The block's draws Z ~ N(0, dt_mc), (n_sub, rows): sqrt(dt_mc) times the
    counter normal of (path p, fine step m) at counter p * n_fine + m."""
    m = k * bundle.n_sub + np.arange(bundle.n_sub, dtype=np.uint64)[:, None]
    counters = np.asarray(rows, dtype=np.uint64) * np.uint64(bundle.n_fine) + m
    return np.sqrt(bundle.dt_mc) * counter_normals(bundle._key, counters)


def serial_block(bundle, k, rows):
    """A tree block from the per-step reference draws, by the documented law
    s Z_j - (s - s_f) mean_j(Z) + sigma[:d] . dW_tree / n_sub, in the order
    of operations of PathBundle.draw."""
    d, sigma = bundle.d, bundle.sigma
    z = normals(bundle, k, rows)
    s, s_f = np.linalg.norm(sigma), np.linalg.norm(sigma[d:])
    digits = (bundle.leaves[rows] >> d * (bundle.n_steps - 1 - k)) % 2**d
    edge = bundle.digit_signs[digits]
    shift = (edge @ sigma[:d]) * (bundle.sqdt / bundle.n_sub) - (s - s_f) * z.mean(axis=0)
    return s * z + shift


def bridged_sum(bundle, k, rows):
    """A tree block's sum less its free part s_f * sum_j Z_j: the part of the
    noise that runs through the tree edge."""
    s_f = np.linalg.norm(bundle.sigma[bundle.d :])
    return tree_block(bundle, k, rows).sum(axis=0) - s_f * normals(bundle, k, rows).sum(axis=0)


def edge_digits(tree, leaf):
    """The branch digit of each edge of a leaf's path, (n_steps,): the leaf's
    bits, d per step, the first step's the highest."""
    shifts = tree.d * np.arange(tree.n_steps - 1, -1, -1)
    return (int(leaf) >> shifts) % tree.branching


def edge_targets(tree, sigma, leaf):
    """sigma[:d] . dW_tree on each edge of a leaf's path, (n_steps,)."""
    dw = tree.digit_signs[edge_digits(tree, leaf)] * tree.sqdt
    return dw @ np.asarray(sigma)[: tree.d]


def brute_subtree_mean(tree, X, level, index):
    """Independent conditional expectation by explicit descendant averaging."""
    span = tree.branching ** (tree.n_steps - level)
    block = X[index * span : (index + 1) * span]
    return block.mean()


@pytest.fixture
def tree2():
    return build_tree(1, 2, 1.0)


@pytest.fixture
def tree5():
    return build_tree(1, 5, 1.0)


@pytest.fixture
def unit_interval():
    return DomainSpec(0.0, 1.0, 1.0)


def test_build_tree_counts(tree2):
    assert [tree2.n_nodes(k) for k in range(3)] == [1, 2, 4]
    assert tree2.n_leaves == 4


def test_build_tree_guards():
    with pytest.raises(TreeError):
        build_tree(3, 4, 1.0)
    with pytest.raises(TreeError):
        build_tree(1, 0, 1.0)
    # MAX_STATES = 2**17 - 1 nodes over all levels: the d = 1 tree at 16 steps
    # and the d = 2 tree at 8 (87,381 nodes) build, one step more does not
    assert tree_module.MAX_STATES == 131_071
    assert sum(build_tree(1, 16, 1.0).n_nodes(k) for k in range(17)) == 131_071
    assert build_tree(2, 8, 1.0).n_leaves == 4**8
    with pytest.raises(TreeError, match="262,143 states, past the size guard of 131,071"):
        build_tree(1, 17, 1.0)
    with pytest.raises(TreeError, match="349,525 states, past the size guard"):
        build_tree(2, 9, 1.0)
    # refused before any count or node is formed
    with pytest.raises(TreeError, match="more than 2..63 states"):
        build_tree(2, 10**12, 1.0)


def down_steps(index, d: int, level: int):
    """j of the level's node with the given index: the 1-bits among bit 0 of
    its branch digits, counted digit by digit."""
    return sum(((index >> (d * e)) & 1 for e in range(level)), np.zeros_like(index))


@pytest.mark.parametrize("d, n_steps, horizon", [(1, 10, 1.0), (1, 16, 1.0), (2, 8, 1.0),
                                                 (1, 10, 0.7)])
def test_tree_w1_is_the_lattice_w1_at_each_nodes_down_steps(d, n_steps, horizon):
    # one rule, sqrt(dt) (k - 2j), stored by the lattice alone: a tree keeps
    # each node's j, the down steps of its first component, and a node's w1
    # is its state's, sqrt(dt) (k - 2j) to the bit at an irrational sqrt(dt)
    # too, where sums of +-sqrt(dt) would round apart
    tree, lattice = build_tree(d, n_steps, horizon), build_lattice(n_steps, horizon)
    assert not hasattr(tree, "w1")
    assert (lattice.dt, lattice.sqdt) == (tree.dt, tree.sqdt)
    assert (tree.lattice.n_steps, tree.lattice.horizon) == (n_steps, horizon)
    assert np.array_equal(lattice.digit_signs, tree.digit_signs[:2, :1])
    for k in range(n_steps + 1):
        j = down_steps(np.arange(tree.n_nodes(k)), d, k)
        assert np.array_equal(tree.states(k), j) and tree.states(k).dtype == np.intp
        assert lattice.w1[k].shape == (k + 1,)
        expected = np.sqrt(horizon / n_steps) * (k - 2.0 * np.arange(k + 1))
        for w1 in (lattice.w1[k], tree.lattice.w1[k]):
            assert np.array_equal(w1.view(np.uint64), expected.view(np.uint64))
        nodes = tree.lattice.w1[k][tree.states(k)]
        assert np.array_equal(nodes.view(np.uint64), expected[j].view(np.uint64))


@pytest.mark.parametrize("d, n_steps", [(1, 10), (2, 6), (1, 16), (2, 8)])
def test_a_bundle_holds_the_tree_w1_at_each_paths_node(d, n_steps):
    # a bridged path carries no tree: its j counts the down bits of its
    # leaf's branch digits (PathBundle.down_steps, as the march adds them
    # one edge per block) and its w1 is the one rule at j.  Its drift times
    # dt_mc, taken per path, and the march's table of it over the level's
    # k + 1 lattice states, gathered by j, are one value.  Over 100,003
    # random leaves all have the bits of the tree's w1 and of its per-node
    # drift table at the path's node, at every level and at array offsets
    # 0, 1, 3 and 7, where numpy's vector loops start elsewhere
    tree = build_tree(d, n_steps, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8, 0.5], "d": d})
    bundle = sample_tree_paths(tree.shape, 100_003, coeffs.sigma, tree.dt / 4, seed=52)
    assert (bundle.d, bundle.n_steps, bundle.dt, bundle.sqdt) == (d, n_steps, tree.dt, tree.sqdt)
    assert np.array_equal(bundle.digit_signs, tree.digit_signs)
    dt, rows = bundle.dt_mc, np.arange(0, bundle.n_paths, 7)
    for k in range(n_steps + 1):
        nodes = tree.ancestor_index(bundle.leaves, k)
        assert bundle.down_steps(k).dtype == np.int8
        assert np.array_equal(bundle.down_steps(k), down_steps(nodes, d, k))
        w1, node_w1 = bundle.w1(k), tree.lattice.w1[k][tree.states(k)]
        assert np.array_equal(w1.view(np.uint64), node_w1[nodes].view(np.uint64))
        assert np.array_equal(bundle.w1(k, rows), w1[rows])
        table = (np.asarray(coeffs.drift(0.0, k * tree.dt, node_w1)) * dt)[nodes]
        states = w1_at(k, np.arange(k + 1), bundle.sqdt)
        by_state = np.multiply(coeffs.drift(0.0, k * bundle.dt, states), dt)[bundle.down_steps(k)]
        assert np.array_equal(by_state.view(np.uint64), table.view(np.uint64))
        for offset in (0, 1, 3, 7):
            moved = np.empty(offset + w1.size)[offset:]
            moved[:] = w1
            per_path = np.multiply(coeffs.drift(0.0, k * bundle.dt, moved), dt)
            assert np.array_equal(per_path.view(np.uint64), table.view(np.uint64))
    free = free_paths(1.0, 3, coeffs.sigma, 0.25, seed=52)
    assert free.down_steps(2) is None and free.w1(2) is None


def test_bridged_leaves_fit_int64():
    # a leaf index holds d bits per tree step in an int64: 63 bits draw (the
    # leaves numpy.random draws, through the port's 64-bit branch) and
    # bridge, 64 are refused before any leaf is drawn
    for d, n_steps in ((1, 63), (2, 31)):
        shape = (d, n_steps, 1.0)
        sampled = sample_tree_paths(shape, 4, [0.6, 0.8, 0.5], 1.0 / n_steps, seed=1)
        assert sampled.leaves.dtype == np.int64 and sampled.leaves.min() >= 0
        assert np.array_equal(sampled.leaves, default_rng(SeedSequence((1, 0x1EAF))).integers(
            0, 2**(d * n_steps), size=4))
        leaf = 2**(d * n_steps) - 1
        assert bridge_paths(shape, leaf, 4, [0.6, 0.8, 0.5], 1.0 / n_steps, seed=1).leaves[0] == leaf
    for d, n_steps in ((1, 64), (2, 32)):
        for make in (lambda shape: sample_tree_paths(shape, 4, [0.6, 0.8, 0.5], 1.0, seed=1),
                     lambda shape: bridge_paths(shape, 0, 4, [0.6, 0.8, 0.5], 1.0, seed=1)):
            with pytest.raises(TreeError, match="past the int64 leaf bound of 63 bits"):
                make((d, n_steps, 1.0))


def test_increment_moments_exact():
    for d in (1, 2):
        tree = build_tree(d, 4, 2.0)
        for k in range(1, tree.n_steps + 1):
            # component 0 from the nodes' lattice w1, the others from the branch digits
            w1 = [tree.lattice.w1[m][tree.states(m)] for m in (k - 1, k)]
            inc = np.tile(tree.digit_signs * tree.sqdt, (tree.n_nodes(k - 1), 1))
            inc[:, 0] = w1[1] - np.repeat(w1[0], tree.branching)
            assert np.abs(inc.mean(axis=0)).max() == 0.0
            assert np.allclose((inc**2).mean(axis=0), tree.dt, rtol=0, atol=1e-15)
            if d == 2:
                # independence across components: E[dw1 dw2] = 0 exactly
                assert abs((inc[:, 0] * inc[:, 1]).mean()) == 0.0


def test_leaf_path_rejects_bad_leaves(tree5):
    # a leaf is one integer index below n_leaves; its path holds each
    # level's ancestor, root to leaf
    assert tree5.leaf_path(np.int64(22)).tolist() == [0, 1, 2, 5, 11, 22]
    with pytest.raises(TreeError, match="integer index"):
        tree5.leaf_path(np.arange(tree5.n_steps + 1))
    with pytest.raises(TreeError, match="out of range"):
        tree5.leaf_path(tree5.n_leaves)


def test_cond_expect_constant(tree5):
    X = np.full(tree5.n_leaves, 3.25)
    for k in range(tree5.n_steps + 1):
        assert np.allclose(cond_expect(X, k, tree5), 3.25)


def test_cond_expect_terminal_identity(tree5):
    rng = np.random.default_rng(0)
    X = rng.normal(size=tree5.n_leaves)
    assert np.array_equal(cond_expect(X, tree5.n_steps, tree5), X)


def test_cond_expect_tower_and_brute_force(tree5):
    rng = np.random.default_rng(1)
    X = rng.normal(size=tree5.n_leaves)
    for s in range(tree5.n_steps + 1):
        vals = cond_expect(X, s, tree5)
        for idx in range(tree5.n_nodes(s)):
            assert vals[idx] == pytest.approx(
                brute_subtree_mean(tree5, X, s, idx), abs=1e-14
            )
    # tower property: averaging the level-3 projection onto level 1 equals
    # the direct projection, exactly
    mid = cond_expect(X, 3, tree5)
    regrouped = mid.reshape(tree5.n_nodes(1), -1).mean(axis=1)
    assert np.allclose(regrouped, cond_expect(X, 1, tree5), atol=1e-15)


def test_cond_expect_range_check(tree5):
    with pytest.raises(TreeError):
        cond_expect(np.zeros(tree5.n_leaves), 7, tree5)
    with pytest.raises(TreeError):
        cond_expect(np.zeros(5), 0, tree5)


def test_ito_integral_zero_and_telescoping(tree5):
    zeros = [np.zeros((tree5.n_nodes(k), 1)) for k in range(tree5.n_steps)]
    assert np.allclose(ito_integral(zeros, tree5), 0.0)
    ones = [np.ones((tree5.n_nodes(k), 1)) for k in range(tree5.n_steps)]
    total = ito_integral(ones, tree5)
    # integrating 1 against domega telescopes to omega(T)
    N = tree5.n_steps
    assert np.allclose(total, tree5.lattice.w1[N][tree5.states(N)], atol=1e-14)
    assert abs(total.mean()) < 1e-14


def test_ito_isometry_exact(tree5):
    rng = np.random.default_rng(2)
    gam = [rng.normal(size=(tree5.n_nodes(k), 1)) for k in range(tree5.n_steps)]
    total = ito_integral(gam, tree5)
    lhs = (total**2).mean()
    rhs = sum(
        tree5.dt * (g[:, 0] ** 2).mean() for g in gam
    )
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_ito_integral_rejects_non_adapted(tree5):
    gam = [np.zeros((tree5.n_nodes(k) + 1, 1)) for k in range(tree5.n_steps)]
    with pytest.raises(TreeError, match="non-adapted"):
        ito_integral(gam, tree5)


def test_ito_martingale_partial_sums(tree5):
    # E[ integral | F_s ] equals the partial Ito sum up to level s, exactly
    rng = np.random.default_rng(8)
    gam = [rng.normal(size=(tree5.n_nodes(k), 1)) for k in range(tree5.n_steps)]
    total = ito_integral(gam, tree5)
    s = 3
    partial_tree = build_tree(1, s, s * tree5.dt)
    partial = ito_integral(gam[:s], partial_tree)
    assert np.allclose(cond_expect(total, s, tree5), partial, atol=1e-13)


def test_clark_of_brownian_endpoint(tree5):
    X = tree5.lattice.w1[tree5.n_steps][tree5.states(tree5.n_steps)]
    dec = clark_decompose(X, tree5)
    assert dec.mean == pytest.approx(0.0, abs=1e-15)
    for k in range(tree5.n_steps):
        assert np.allclose(dec.kernels[k], 1.0, atol=1e-13)


def test_clark_of_constant(tree5):
    dec = clark_decompose(np.full(tree5.n_leaves, 2.5), tree5)
    assert dec.mean == pytest.approx(2.5)
    for k in range(tree5.n_steps):
        assert np.allclose(dec.kernels[k], 0.0, atol=1e-15)


def test_clark_reconstruction_exact(tree5):
    rng = np.random.default_rng(3)
    X = rng.normal(size=tree5.n_leaves)
    dec = clark_decompose(X, tree5)
    rec = dec.reconstruct(tree5)
    scale = np.abs(X).max()
    assert np.max(np.abs(rec - X)) <= 1e-12 * scale


def test_bridge_paths_hit_constraints():
    # each block's bridged part sums to sigma[:d] . dW_tree over the edge; with
    # no free columns (d0 = d) that is the whole block sum
    for d, sigma in [(1, [0.7]), (1, [0.6, 0.8]), (2, [0.6, -0.8, 0.5]), (2, [0.6, 0.8])]:
        tree = build_tree(d, 4, 1.0)
        leaf = tree.n_leaves - 3
        bundle = bridge_paths(tree.shape, leaf, M=16, sigma=sigma, dt_mc=0.025, seed=42)
        rows = np.arange(16)
        target = edge_targets(tree, sigma, leaf)
        for k in range(tree.n_steps):
            assert np.max(np.abs(bridged_sum(bundle, k, rows) - target[k])) < 1e-12
            if len(sigma) == d:
                assert np.max(np.abs(tree_block(bundle, k, rows).sum(axis=0) - target[k])) < 1e-12


def test_block_law():
    # one block over 10^5 paths: mean sigma[:d] . dW_tree / n_sub and covariance
    # dt_mc (s^2 I - |sigma[:d]|^2 11^T / n_sub), each entry within 5 standard
    # errors (Gaussian: Var(x_i x_j) = S_ii S_jj + S_ij^2)
    for d, sigma in [(1, [0.6, 0.8]), (2, [0.6, -0.8, 0.5])]:
        tree = build_tree(d, 4, 1.0)
        leaf, M, dt_mc, k = 1, 100_000, 0.0625, 2
        bundle = bridge_paths(tree.shape, leaf, M=M, sigma=sigma, dt_mc=dt_mc, seed=2024)
        n = bundle.n_sub
        x = tree_block(bundle, k, np.arange(M))
        sigma = np.asarray(sigma)
        mean = edge_targets(tree, sigma, leaf)[k] / n
        cov = dt_mc * (sigma @ sigma * np.eye(n) - sigma[:d] @ sigma[:d] * np.ones((n, n)) / n)
        dev = x - mean
        emp = dev @ dev.T / M
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / M)
        assert np.all(np.abs(emp - cov) <= 5 * se)
        assert np.all(np.abs(dev.mean(axis=1)) <= 5 * np.sqrt(np.diag(cov) / M))


def test_free_bundle_pins_the_counter_stream():
    # d0 = 1: one counter normal per (path, fine step) at p * n_fine + m,
    # scaled by sigma_0 with its sign
    bundle = free_paths(1.0, M=7, sigma=[-1.3], dt_mc=0.125, seed=(3, 4))
    rows = np.array([5, 0, 3])
    for k in range(bundle.n_fine):
        counters = rows.astype(np.uint64) * np.uint64(bundle.n_fine) + np.uint64(k)
        expected = -1.3 * (np.sqrt(0.125) * counter_normals(bundle._key, counters))
        assert np.array_equal(bundle.draw(k, rows)[1][0], expected)


def test_a_bundle_key_is_the_seed_sequence_of_the_flat_seed():
    # one rule seeds every stream: SeedSequence((seed, *tags)), which flattens
    # nested tuples and lists of ints at any depth, also past 2**32
    for seed, flat in [(7, (7,)), ((3, 4), (3, 4)), ([3, 4], (3, 4)), (2**40, (2**40,)),
                       (((3, 4), 0xF0, 2), (3, 4, 0xF0, 2)), ([[3, [4]], 2**40], (3, 4, 2**40))]:
        key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=seed)._key
        assert key == SeedSequence(flat).generate_state(1, np.uint64)[0]


def test_bridge_paths_deterministic(tree5):
    a = bridge_paths(tree5.shape, 11, M=8, sigma=[0.6, 0.8], dt_mc=0.1, seed=123)
    b = bridge_paths(tree5.shape, 11, M=8, sigma=[0.6, 0.8], dt_mc=0.1, seed=123)
    assert np.array_equal(drawn(a), drawn(b))
    assert np.array_equal(drawn(a), drawn(a))  # drawing again repeats
    c = bridge_paths(tree5.shape, 11, M=8, sigma=[0.6, 0.8], dt_mc=0.1, seed=124)
    assert not np.array_equal(drawn(a), drawn(c))


def test_bridge_paths_rejects_bad_steps(tree5):
    with pytest.raises(TreeError):
        bridge_paths(tree5.shape, 0, M=4, sigma=[0.6, 0.8], dt_mc=0.15, seed=1)
    with pytest.raises(TreeError, match="d0 >= d"):
        bridge_paths(tree5.shape, 0, M=4, sigma=[], dt_mc=0.1, seed=1)
    with pytest.raises(TreeError, match="d0 >= d"):
        bridge_paths((2, 2, 1.0), 0, M=4, sigma=[1.0], dt_mc=0.1, seed=1)
    # a path is named by one leaf index; per-path leaf draws are
    # sample_tree_paths' job
    with pytest.raises(TreeError, match="integer index"):
        bridge_paths(tree5.shape, np.arange(4), M=4, sigma=[0.6, 0.8], dt_mc=0.1, seed=1)
    with pytest.raises(TreeError, match="out of range"):
        bridge_paths(tree5.shape, tree5.n_leaves, M=4, sigma=[0.6, 0.8], dt_mc=0.1, seed=1)


def test_free_paths_shape_and_determinism():
    a = free_paths(1.0, M=6, sigma=[0.3, 0.4, 1.2], dt_mc=0.25, seed=5)
    assert a.increments.shape == (6, 4)
    assert drawn(a).shape == (6, 4)
    b = free_paths(1.0, M=6, sigma=[0.3, 0.4, 1.2], dt_mc=0.25, seed=5)
    assert np.array_equal(drawn(a), drawn(b))
    # d0 >= 2 without a tree: |sigma| Z
    rows = np.arange(6)
    assert np.allclose(a.draw(2, rows)[1][0], 1.3 * normals(a, 2, rows)[0], rtol=1e-15, atol=0)


def test_sample_tree_paths_per_path_constraint(tree5):
    # M = n_steps + 1: the leaf draws must not be taken for one node sequence
    sigma = [0.6, 0.8]
    for M in (32, tree5.n_steps + 1):
        bundle = sample_tree_paths(tree5.shape, M=M, sigma=sigma, dt_mc=0.1, seed=9)
        rows = np.arange(M)
        sums = np.array([bridged_sum(bundle, k, rows) for k in range(tree5.n_steps)])
        for p in range(M):
            target = edge_targets(tree5, sigma, bundle.leaves[p])
            assert np.max(np.abs(sums[:, p] - target)) < 1e-12


def test_blocks_for_row_subsets(tree5):
    # a block drawn for any subset of paths holds exactly those paths'
    # columns of the full block, each running through its own tree edge
    sigma = [0.6, 0.8]
    bundle = sample_tree_paths(tree5.shape, M=40, sigma=sigma, dt_mc=0.025, seed=13)
    rng = np.random.default_rng(14)
    everyone = np.arange(bundle.n_paths)
    for k in range(tree5.n_steps):
        full = tree_block(bundle, k, everyone)
        assert full.shape == (bundle.n_sub, 40)
        rows = rng.choice(40, size=rng.integers(1, 40), replace=False)
        part = tree_block(bundle, k, rows)
        assert np.array_equal(part, full[:, rows])
        target = np.array([edge_targets(tree5, sigma, leaf)[k] for leaf in bundle.leaves[rows]])
        assert np.max(np.abs(bridged_sum(bundle, k, rows) - target)) < 1e-12


def split_bundles():
    """Designated-leaf and sampled-leaf bundles whose n_sub (8, 5 and 4)
    splits evenly and unevenly into hash calls of three steps."""
    tree1, tree2 = build_tree(1, 5, 1.0), build_tree(2, 3, 1.0)
    return [
        bridge_paths(tree1.shape, 19, M=40, sigma=[0.6, 0.8], dt_mc=0.025, seed=31),
        sample_tree_paths(tree1.shape, M=40, sigma=[0.6, 0.8], dt_mc=0.04, seed=32),
        sample_tree_paths(tree2.shape, M=40, sigma=[0.6, -0.8, 0.5], dt_mc=1 / 12, seed=33),
    ]


def free_span(bundle, m, steps, rows):
    """Fine steps m .. m + steps - 1 of a free bundle from the per-step
    reference draws: |sigma| Z, in the order of operations of PathBundle.draw."""
    z = np.concatenate([normals(bundle, k, rows) for k in range(m, m + steps)])
    return z * np.linalg.norm(bundle.sigma)


def test_blocks_hold_the_bits_of_the_per_step_reference(monkeypatch):
    rows_sets = [np.arange(40), np.array([39, 2, 17, 5])]
    free = free_paths(1.0, M=40, sigma=[0.6, -0.8, 0.5], dt_mc=1 / 64, seed=34)
    big = free_paths(1.0, M=3 * tree_module.SPAN_NORMALS, sigma=[0.6, 0.8], dt_mc=1 / 16, seed=35)
    # hash calls of one step, of three steps at 40 rows, and of the whole
    # block or span
    for hash_normals in (1, 120, tree_module.HASH_NORMALS):
        monkeypatch.setattr(tree_module, "HASH_NORMALS", hash_normals)
        for bundle in split_bundles():
            for k in range(bundle.n_steps):
                for rows in rows_sets:
                    block = tree_block(bundle, k, rows)
                    assert np.array_equal(block, serial_block(bundle, k, rows))
                    # a draw at the block's last step is the block
                    first, z = bundle.draw((k + 1) * bundle.n_sub - 1, rows)
                    assert first == k * bundle.n_sub and np.array_equal(z, block)
        # a free draw spans ceil(SPAN_NORMALS / rows) steps, at most SPAN_MAX
        # and up to the horizon, with the same bits however many calls hash it
        for rows in rows_sets:
            for m in (0, 5, 60):
                first, z = free.draw(m, rows)
                span = min(-(-tree_module.SPAN_NORMALS // rows.size), tree_module.SPAN_MAX, 64 - m)
                assert first == m and z.shape == (span, rows.size)
                assert np.array_equal(z, free_span(free, m, span, rows))
        for size in (tree_module.SPAN_NORMALS // 3, 3 * tree_module.SPAN_NORMALS):
            rows = np.arange(size)
            first, z = big.draw(2, rows)
            assert z.shape == (-(-tree_module.SPAN_NORMALS // size), size)
            assert np.array_equal(z, free_span(big, 2, len(z), rows))


def test_a_draw_hashes_in_the_fewest_calls(monkeypatch):
    # at the default constants a free span is one counter_normals call at
    # any row count, and a tree block of n_sub steps takes
    # ceil(n_sub / max(1, HASH_NORMALS // rows)) calls
    calls = []

    def counted(key, counters, out=None):
        calls.append(counters.shape)
        return counter_normals(key, counters, out=out)

    monkeypatch.setattr(tree_module, "counter_normals", counted)
    free = free_paths(1.0, M=25_000, sigma=[0.6, 0.8], dt_mc=1 / 64, seed=38)
    bridged = sample_tree_paths((1, 4, 1.0), M=25_000, sigma=[0.6, 0.8],
                                dt_mc=0.005, seed=39)
    assert bridged.n_sub == 50
    for size in (1, 30, 4095, 4096, 25_000):
        rows = np.arange(size)
        calls.clear()
        free.draw(3, rows)
        assert len(calls) == 1
        calls.clear()
        bridged.draw(60, rows)
        per_call = max(1, tree_module.HASH_NORMALS // size)
        assert len(calls) == -(-bridged.n_sub // per_call)
        assert sum(steps for steps, _ in calls) == bridged.n_sub


def test_a_path_has_the_same_column_at_every_width():
    # the bridge's column sum is taken step after step, so a path drawn alone
    # (where numpy's mean would sum pairwise) gets the column it has in a
    # block of two paths or of all of them; n_sub = 50, both bundle kinds
    tree = build_tree(1, 4, 1.0)
    for bundle in (bridge_paths(tree.shape, 5, M=12, sigma=[0.6, 0.8], dt_mc=0.005, seed=36),
                   sample_tree_paths(tree.shape, M=12, sigma=[0.6, 0.8], dt_mc=0.005, seed=37)):
        assert bundle.n_sub == 50
        for k in range(tree.n_steps):
            full = tree_block(bundle, k, np.arange(12))
            for p in range(12):
                assert np.array_equal(tree_block(bundle, k, [p])[:, 0], full[:, p])
                assert np.array_equal(tree_block(bundle, k, [p, (p + 5) % 12])[:, 0],
                                      full[:, p])


def test_blocks_and_free_marches_start_no_thread(monkeypatch, unit_interval):
    def tripwire(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", tripwire)
    # tree blocks of one step and of several are drawn in the calling thread
    rows = np.arange(30)
    for bundle in (free_paths(1.0, M=30, sigma=[0.6, 0.8], dt_mc=0.125, seed=1),
                   bridge_paths((1, 4, 1.0), 3, M=30, sigma=[0.6, 0.8],
                                dt_mc=0.25, seed=2), *split_bundles()):
        bundle.draw(bundle.n_sub, rows)
    # free draws of any size are drawn in the calling thread: spans of several
    # steps, and one step of more than SPAN_NORMALS paths
    free = free_paths(1.0, M=2 * tree_module.SPAN_NORMALS, sigma=[0.6, 0.8], dt_mc=1 / 16, seed=3)
    assert free.draw(0, rows)[1].shape == (tree_module.SPAN_MAX, 30)
    assert free.draw(4, np.arange(free.n_paths))[1].shape == (1, free.n_paths)
    # free and tree-bridged marches are one march in the calling thread
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [0.6, 0.8], "d": 1})
    assert simulate(coeffs, 0.5, 0.0, free, unit_interval).normals_drawn > 0
    assert simulate(coeffs, 0.5, 0.0, split_bundles()[1], unit_interval).normals_drawn > 0


def test_d2_ito_isometry_and_clark_recovery():
    # on the d=2 tree the representation kernels are projections, but any
    # variable that IS an Ito integral is recovered exactly, kernels included
    tree = build_tree(2, 4, 1.0)
    rng = np.random.default_rng(21)
    gam = [rng.normal(size=(tree.n_nodes(k), 2)) for k in range(tree.n_steps)]
    total = ito_integral(gam, tree)
    lhs = (total**2).mean()
    rhs = sum(tree.dt * (g**2).sum(axis=1).mean() for g in gam)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    dec = clark_decompose(total, tree)
    assert dec.mean == pytest.approx(0.0, abs=1e-14)
    for k in range(tree.n_steps):
        assert np.allclose(dec.kernels[k], gam[k], atol=1e-12)
    rec = dec.reconstruct(tree)
    assert np.max(np.abs(rec - total)) <= 1e-12 * max(np.abs(total).max(), 1e-12)


def test_d2_general_variable_projection_residual():
    # a generic leaf variable on the d=2 tree is NOT representable by the two
    # kernels alone; the reconstruction is its best adapted approximation and
    # the residual is orthogonal to every Ito integral
    tree = build_tree(2, 3, 1.0)
    rng = np.random.default_rng(22)
    X = rng.normal(size=tree.n_leaves)
    dec = clark_decompose(X, tree)
    resid = X - dec.reconstruct(tree)
    gam = [rng.normal(size=(tree.n_nodes(k), 2)) for k in range(tree.n_steps)]
    probe = ito_integral(gam, tree)
    assert abs(np.mean(resid * probe)) <= 1e-13 * max(np.abs(X).max(), 1.0)
