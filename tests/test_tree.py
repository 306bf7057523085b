import numpy as np
import pytest

from spdelab import (
    TreeError,
    bridge_paths,
    build_tree,
    clark_decompose,
    cond_expect,
    free_paths,
    ito_integral,
    sample_tree_paths,
)


def drawn(bundle):
    """Every increment of a bundle, (n_paths, d0, n_fine), drawn block by block."""
    rows = np.arange(bundle.n_paths)
    blocks = [bundle.block(k, rows) for k in range(bundle.n_fine // bundle.n_sub)]
    return np.concatenate(blocks, axis=0).transpose(2, 1, 0)


def wiener_paths(bundle):
    """Cumulative Wiener values, (n_paths, d0, n_fine + 1)."""
    inc = drawn(bundle)
    out = np.zeros(inc.shape[:2] + (inc.shape[2] + 1,))
    np.cumsum(inc, axis=2, out=out[:, :, 1:])
    return out


def coarse_targets(tree, leaf):
    """First Wiener component at the tree nodes along a leaf's path."""
    anc = tree.leaf_path(int(leaf))
    return np.array([tree.omega[k][anc[k], 0] for k in range(tree.n_steps + 1)])


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


def test_build_tree_counts(tree2):
    assert [tree2.n_nodes(k) for k in range(3)] == [1, 2, 4]
    assert tree2.n_leaves == 4


def test_build_tree_guards():
    with pytest.raises(TreeError):
        build_tree(3, 4, 1.0)
    with pytest.raises(TreeError):
        build_tree(1, 17, 1.0)
    with pytest.raises(TreeError):
        build_tree(2, 9, 1.0)
    with pytest.raises(TreeError):
        build_tree(1, 0, 1.0)


def test_increment_moments_exact():
    for d in (1, 2):
        tree = build_tree(d, 4, 2.0)
        for k in range(1, tree.n_steps + 1):
            inc = tree.omega[k] - np.repeat(tree.omega[k - 1], tree.branching, axis=0)
            assert np.abs(inc.mean(axis=0)).max() == 0.0
            assert np.allclose((inc**2).mean(axis=0), tree.dt, rtol=0, atol=1e-15)
            if d == 2:
                # independence across components: E[dw1 dw2] = 0 exactly
                assert abs((inc[:, 0] * inc[:, 1]).mean()) == 0.0


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
    assert np.allclose(total, tree5.omega[tree5.n_steps][:, 0], atol=1e-14)
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
    X = tree5.omega[tree5.n_steps][:, 0]
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


def test_bridge_paths_hit_constraints(tree5):
    leaf = 19
    bundle = bridge_paths(tree5, leaf, M=16, d0=2, dt_mc=0.025, seed=42)
    paths = wiener_paths(bundle)
    at_coarse = paths[:, 0, :: bundle.n_sub]
    assert np.max(np.abs(at_coarse - coarse_targets(tree5, leaf)[None, :])) < 1e-12


def test_bridge_paths_free_component_variance():
    tree = build_tree(1, 4, 1.0)
    bundle = bridge_paths(tree, 3, M=20000, d0=2, dt_mc=0.05, seed=7)
    inc = drawn(bundle)[:, 1, :]  # free component
    var = inc.var()
    n = inc.size
    # 3 sigma band for a variance estimate from n samples
    assert abs(var - 0.05) < 3 * 0.05 * np.sqrt(2.0 / (n - 1))
    assert abs(inc.mean()) < 3 * np.sqrt(0.05 / n)


def test_bridge_paths_deterministic(tree5):
    a = bridge_paths(tree5, 11, M=8, d0=2, dt_mc=0.1, seed=123)
    b = bridge_paths(tree5, 11, M=8, d0=2, dt_mc=0.1, seed=123)
    assert np.array_equal(drawn(a), drawn(b))
    assert np.array_equal(drawn(a), drawn(a))  # drawing again repeats
    c = bridge_paths(tree5, 11, M=8, d0=2, dt_mc=0.1, seed=124)
    assert not np.array_equal(drawn(a), drawn(c))


def test_bridge_paths_rejects_bad_steps(tree5):
    with pytest.raises(TreeError):
        bridge_paths(tree5, 0, M=4, d0=2, dt_mc=0.15, seed=1)
    with pytest.raises(TreeError):
        bridge_paths(tree5, 0, M=4, d0=0, dt_mc=0.1, seed=1)
    # per-path leaf draws are sample_tree_paths' job; a node sequence must
    # be a root-to-leaf path
    with pytest.raises(TreeError, match="node sequence"):
        bridge_paths(tree5, np.arange(4), M=4, d0=2, dt_mc=0.1, seed=1)
    with pytest.raises(TreeError, match="node sequence"):
        bridge_paths(tree5, np.arange(tree5.n_steps + 1), M=6, d0=2, dt_mc=0.1, seed=1)


def test_free_paths_shape_and_determinism():
    a = free_paths(1.0, M=6, d0=3, dt_mc=0.25, seed=5)
    assert a.increments.shape == (6, 3, 4)
    assert drawn(a).shape == (6, 3, 4)
    b = free_paths(1.0, M=6, d0=3, dt_mc=0.25, seed=5)
    assert np.array_equal(drawn(a), drawn(b))


def test_sample_tree_paths_per_path_constraint(tree5):
    # M = n_steps + 1: the leaf draws must not be taken for one node sequence
    for M in (32, tree5.n_steps + 1):
        bundle = sample_tree_paths(tree5, M=M, d0=2, dt_mc=0.1, seed=9)
        at_coarse = wiener_paths(bundle)[:, 0, :: bundle.n_sub]
        for p in range(M):
            target = coarse_targets(tree5, bundle.leaves[p])
            assert np.max(np.abs(at_coarse[p] - target)) < 1e-12


def test_blocks_for_row_subsets(tree5):
    # a block drawn for any subset of paths holds exactly those paths'
    # columns of the full block, each summing to its tree increment
    bundle = sample_tree_paths(tree5, M=40, d0=2, dt_mc=0.025, seed=13)
    rng = np.random.default_rng(14)
    everyone = np.arange(bundle.n_paths)
    for k in range(tree5.n_steps):
        full = bundle.block(k, everyone)
        assert full.shape == (bundle.n_sub, 2, 40)
        rows = rng.choice(40, size=rng.integers(1, 40), replace=False)
        part = bundle.block(k, rows)
        assert np.array_equal(part, full[:, :, rows])
        target = np.array([np.diff(coarse_targets(tree5, leaf))[k] for leaf in bundle.leaves[rows]])
        assert np.max(np.abs(part[:, 0].sum(axis=0) - target)) < 1e-12


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
