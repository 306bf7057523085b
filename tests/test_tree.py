import math
import threading

import numpy as np
import pytest
from numpy.random import PCG64, SeedSequence, default_rng
from scipy.special import ndtri

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
from spdelab.harness import _representation_estimates, default_config
from spdelab.montecarlo import CHUNK
from spdelab.tree import (_GOLDEN, _MIX1, _MIX2, _counter_normals, _pcg64_seeded, pcg64_integers,
                          pcg64_uniform, seed_key)


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
    return np.sqrt(bundle.dt_mc) * _counter_normals(bundle._key, counters)


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


def test_w1_bits_are_running_sums_of_branch_digits():
    # each node's w1 is 0.0 plus sign * sqdt over its branch digits, added
    # level by level: the same bits as an independent sum per node
    for d, n_steps in ((1, 10), (2, 5)):
        tree = build_tree(d, n_steps, 1.0)
        for k in range(n_steps + 1):
            assert tree.w1[k].shape == (tree.branching**k,)
            expected = np.empty(tree.n_nodes(k))
            for i in range(tree.n_nodes(k)):
                w = 0.0
                for j in range(k):
                    digit = (i >> (d * (k - 1 - j))) % tree.branching
                    w = w + tree.digit_signs[digit, 0] * tree.sqdt
                expected[i] = w
            assert np.array_equal(tree.w1[k], expected)
    lattice = build_lattice(10, 1.0)
    for k in range(11):
        assert np.array_equal(lattice.w1[k], np.sqrt(0.1) * (k - 2.0 * np.arange(k + 1)))


@pytest.mark.parametrize("d, n_steps", [(1, 16), (2, 8)])
def test_a_bundle_sums_the_bits_of_the_tree_tables(d, n_steps):
    # a bridged path carries no tree: its w1 is 0.0 plus one step per level
    # from its leaf's branch digits (PathBundle.w1, and the march's update
    # by w1_step), and its drift times dt_mc is taken per path.  Over 100,003
    # random leaves both have the bits of the tree's w1 and of its per-node
    # drift table at the path's node, at every level and at array offsets
    # 0, 1, 3 and 7, where numpy's vector loops start elsewhere
    tree = build_tree(d, n_steps, 1.0)
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8, 0.5], "d": d})
    bundle = sample_tree_paths(tree.shape, 100_003, coeffs.sigma, tree.dt / 4, seed=52)
    assert (bundle.d, bundle.n_steps, bundle.dt, bundle.sqdt) == (d, n_steps, tree.dt, tree.sqdt)
    assert np.array_equal(bundle.digit_signs, tree.digit_signs)
    w1, dt = np.zeros(bundle.n_paths), bundle.dt_mc
    for k in range(n_steps + 1):
        nodes = tree.ancestor_index(bundle.leaves, k)
        assert np.array_equal(w1.view(np.uint64), tree.w1[k][nodes].view(np.uint64))
        assert np.array_equal(bundle.w1(k).view(np.uint64), w1.view(np.uint64))
        table = (np.asarray(coeffs.drift(0.0, k * tree.dt, tree.w1[k])) * dt)[nodes]
        for offset in (0, 1, 3, 7):
            moved = np.empty(offset + w1.size)[offset:]
            moved[:] = w1
            per_path = np.multiply(coeffs.drift(0.0, k * bundle.dt, moved), dt)
            assert np.array_equal(per_path.view(np.uint64), table.view(np.uint64))
        if k < n_steps:
            w1 += bundle.w1_step(k, bundle.leaves)


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
            # component 0 from the stored w1, the others from the branch digits
            inc = np.tile(tree.digit_signs * tree.sqdt, (tree.n_nodes(k - 1), 1))
            inc[:, 0] = tree.w1[k] - np.repeat(tree.w1[k - 1], tree.branching)
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
    assert np.allclose(total, tree5.w1[tree5.n_steps], atol=1e-14)
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
    X = tree5.w1[tree5.n_steps]
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
        expected = -1.3 * (np.sqrt(0.125) * _counter_normals(bundle._key, counters))
        assert np.array_equal(bundle.draw(k, rows)[1][0], expected)


def test_a_bundle_key_is_the_seed_sequence_of_the_flat_seed():
    # one rule seeds every stream: SeedSequence((seed, *tags)), which flattens
    # nested tuples and lists of ints at any depth, also past 2**32
    for seed, flat in [(7, (7,)), ((3, 4), (3, 4)), ([3, 4], (3, 4)), (2**40, (2**40,)),
                       (((3, 4), 0xF0, 2), (3, 4, 0xF0, 2)), ([[3, [4]], 2**40], (3, 4, 2**40))]:
        key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=seed)._key
        assert key == SeedSequence(flat).generate_state(1, np.uint64)[0]


def seed_sequence_key(seed):
    return SeedSequence((seed,)).generate_state(1, np.uint64)[0]


def default_chunk_seeds():
    """Every chunk seed the seven default runs build: feynman-kac-nonrandom's
    (seed, 0xF0, i), density-64-65's conditional (seed, 0xC0, i) and
    unconditional ((seed, 65), 0xF0, i), and representation-random's
    ((seed, tag, ix), 0xF0, i); the other four draw no normals."""
    def chunks(cfg):
        return range(-(-cfg.mc["paths"] // CHUNK))

    fk, dens = default_config("feynman-kac-nonrandom"), default_config("density-64-65")
    rep = default_config("representation-random")
    seeds = [(fk.mc["seed"], 0xF0, i) for i in chunks(fk)]
    seeds += [(dens.mc["seed"], 0xC0, i) for i in chunks(dens)]
    seeds += [((dens.mc["seed"], 65), 0xF0, i) for i in chunks(dens)]
    seeds += [((rep.mc["seed"], tag, ix), 0xF0, i)
              for tag, ix, _ in _representation_estimates(rep, nodes=True) for i in chunks(rep)]
    return seeds


def test_seed_key_has_the_bits_of_the_seed_sequence():
    # tree.seed_key ports SeedSequence((seed,)).generate_state(1, np.uint64)[0]
    # to Python ints: random tuples of up to 14 words (the pool holds 4),
    # nesting, ints past 2**32 and 2**64, numpy integers, the empty seeds,
    # and every chunk seed of the default runs
    rng = np.random.default_rng(20240)
    seeds = [tuple(int(v) for v in rng.integers(0, 2**62, size=rng.integers(0, 8)))
             for _ in range(2000)]
    seeds += [[[3, [4]], 2**40], [(), [[], [0]]], (((1,),),), [[2**33, 5], (7, [2**65 + 9])]]
    seeds += [2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64, 2**70, 2**200 + 1]
    seeds += [np.int64(5), np.uint32(2**32 - 1), np.uint64(2**63 + 7), [np.int8(3), np.uint16(9)]]
    seeds += [0, [], [0], ((),)]
    chunk_seeds = default_chunk_seeds()
    assert len(chunk_seeds) == 4 + 4 + 4 + 10
    for seed in seeds + chunk_seeds:
        key = seed_key(seed)
        assert type(key) is np.uint64 and key == seed_sequence_key(seed), seed


def test_seed_key_refuses_what_the_seed_sequence_refuses():
    for seed in (-1, [3, -2], 1.5):
        with pytest.raises((TypeError, ValueError)):
            seed_sequence_key(seed)
        with pytest.raises((TypeError, ValueError)):
            seed_key(seed)


# seeds of the PCG64 port: an int, a tuple, nested tuples (a chunk's start
# points are seeded (chunk seed, 0xA11)) and ints past 2**32
PCG_SEEDS = [5, (12, 3), (97531, 0xA11), ((97531, 65, 2), 0xA11), 2**40 + 7,
             ((2**33, (7, 2**65 + 9)), 0x1EAF)]


@pytest.mark.parametrize("seed", PCG_SEEDS)
def test_the_pcg64_port_seeds_numpys_state(seed):
    # numpy's srandom from SeedSequence(seed).generate_state(4, np.uint64)
    state = PCG64(SeedSequence(seed)).state["state"]
    assert _pcg64_seeded(seed) == (state["state"], state["inc"])


@pytest.mark.parametrize("seed", PCG_SEEDS)
def test_pcg64_uniform_has_numpys_bits(seed):
    # n from one state, past the Python-stepped states, and odd sizes around
    # the doubling passes and a chunk of montecarlo.CHUNK paths
    for n in (1, 2, 3, 4097, 25_000, 25_001):
        expected = default_rng(SeedSequence(seed)).uniform(size=n)
        got = pcg64_uniform(seed, n)
        assert got.dtype == np.float64 and got.shape == (n,), n
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), n


@pytest.mark.parametrize("seed", PCG_SEEDS)
def test_pcg64_integers_have_numpys_values(seed):
    # a power-of-two range: no draw at b = 0, 32-bit words up to b = 32 (an
    # odd n leaves one half unused), whole outputs past it, up to 63 bits
    for bits in (0, 1, 10, 31, 32, 33, 63):
        for n in (1, 3, 4097, 25_001):
            expected = default_rng(SeedSequence(seed)).integers(0, 2**bits, size=n)
            got = pcg64_integers(seed, 2**bits, n)
            assert got.dtype == expected.dtype == np.int64, (bits, n)
            assert np.array_equal(got, expected), (bits, n)


def test_pcg64_port_pins_its_first_values():
    # literal values, which hold whatever numpy a later test runs against:
    # density-64-65's start points of conditional chunk 0 and leaves of
    # unconditional chunk 0 (10 bits), and 63-bit leaves of the same stream
    assert pcg64_uniform(((97531, 0xC0, 0), 0xA11), 4).tolist() == [
        0.09609360032148728, 0.8138972619407319, 0.7490538117713543, 0.5901065118039391]
    leaf_seed = (((97531, 65), 0xF0, 0), 0x1EAF)
    assert pcg64_integers(leaf_seed, 2**10, 6).tolist() == [667, 203, 633, 329, 488, 116]
    assert pcg64_integers(leaf_seed, 2**63, 2).tolist() == [1831907431222281470,
                                                            2966646904674919304]


def _counter_of_hash(key, h):
    """The counter whose SplitMix64 hash under key is h: each xorshift and
    each odd multiply of the finalizer is invertible mod 2^64."""
    mask = 2**64 - 1

    def unshift(x, s):
        y = x
        for _ in range(64 // s):
            y = x ^ (y >> s)
        return y

    for shift, mult in ((31, _MIX2), (27, _MIX1), (30, None)):
        h = unshift(h, shift)
        if mult is not None:
            h = h * pow(int(mult), -1, 2**64) & mask
    return (h - int(key)) * pow(int(_GOLDEN), -1, 2**64) & mask


def test_counter_normals_top_counter_is_finite():
    # the hashes 2^64 - 2^11 .. 2^64 - 1 share the top 53 bits, which round
    # to u = 1; the clamp moves only them, and the next hash keeps u = 1 - 2^-52
    key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=7)._key
    hashes = (2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1)
    z = _counter_normals(key, np.array([_counter_of_hash(key, h) for h in hashes], dtype=np.uint64))
    assert z[0] == z[1] == ndtri(1.0 - 2.0**-53) < np.inf
    assert z[2] == ndtri(1.0 - 2.0**-52) < z[0]


def cephes_ndtri(u):
    """Cephes' ndtri of one u, step for step in Python floats, with the C
    library's log (math.log): polevl and p1evl by Horner's rule."""
    def horner(x, coeffs, monic=False):
        coeffs = [float(c) for c in coeffs]
        acc = x + coeffs[0] if monic else coeffs[0]
        for c in coeffs[1:]:
            acc = acc * x + c
        return acc

    t = tree_module
    y, negate = u, True
    if y > 1.0 - t._EXP_M2:
        y, negate = 1.0 - y, False
    if y > t._EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * horner(y2, t._P0) / horner(y2, t._Q0, monic=True))
        return x * t._S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    P, Q = (t._P1, t._Q1) if x < 8.0 else (t._P2, t._Q2)
    x = x0 - z * horner(z, P) / horner(z, Q, monic=True)
    return -x if negate else x


def test_ndtri_has_the_bits_of_scipy(monkeypatch):
    # 2^21 hashed uniforms, the uniforms of the draws, and the branch edges:
    # the centre is scipy's bits; the tails are within 8 ulp, and every tail
    # value that differs is the cephes steps' with the C library's log, so
    # numpy's log is the only difference
    monkeypatch.setattr(tree_module, "ndtri", lambda u, out, scratch: out)
    key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=47)._key
    hashed = _counter_normals(key, np.arange(2**21, dtype=np.uint64))
    monkeypatch.undo()
    e2 = tree_module._EXP_M2
    edges = [e2, 1.0 - e2, 0.5, 2.0**-54, 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    edges += [np.nextafter(e, side) for e in (e2, 1.0 - e2) for side in (0.0, 1.0)]
    u = np.concatenate([hashed, edges])
    assert np.all((u > 0.0) & (u < 1.0))
    z, expected = tree_module.ndtri(u), ndtri(u)
    bits, expected_bits = z.view(np.int64), expected.view(np.int64)
    centre = (u > e2) & (u <= 1.0 - e2)
    assert 0.7 < centre.mean() < 0.75
    assert np.array_equal(bits[centre], expected_bits[centre])
    assert np.all(np.sign(z) == np.sign(u - 0.5))
    assert np.abs(bits - expected_bits).max() <= 8
    differ = (bits != expected_bits).nonzero()[0]
    assert all(cephes_ndtri(float(u[i])) == expected[i] for i in differ), differ
    # the smallest uniform of a draw, 2^-54, and the largest reach x >= 8
    assert np.all(np.abs(z[-len(edges):][[3, 6]]) > 8.0)
    assert all(cephes_ndtri(float(e)) == ndtri(e) for e in edges)
    # the values are written to out, which may be u, as _counter_normals
    # calls it with the counters' bytes as scratch
    out = np.empty_like(u)
    assert tree_module.ndtri(u, out=out) is out and np.array_equal(out, z)
    block = u[:20_000].reshape(2, -1).copy()
    scratch = np.empty(block.shape, dtype=np.uint64)
    assert tree_module.ndtri(block, out=block, scratch=scratch.view(np.float64)) is block
    assert np.array_equal(block.reshape(-1), z[:20_000])


def allocating_counter_normals(key, counters):
    """_counter_normals as written before it filled its output in place: a
    temporary per shift and a new array for the uniforms.  It maps them
    through the package's own ndtri, so the test compares the two forms of
    the hash alone; test_ndtri_has_the_bits_of_scipy holds ndtri to scipy's."""
    z = counters
    z *= _GOLDEN
    z += key
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return tree_module.ndtri(u, out=u)


def test_counter_normals_in_place_match_the_allocating_form():
    # random counters and the counters of the top 2^11 + 2 hashes, where the
    # uniforms round to 1 and are clamped; two arguments or an output row
    key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=7)._key
    top = [_counter_of_hash(key, h) for h in range(2**64 - 2**11 - 2, 2**64)]
    counters = np.concatenate([
        np.random.default_rng(46).integers(0, 2**64, size=5000, dtype=np.uint64),
        np.array(top, dtype=np.uint64)])
    expected = allocating_counter_normals(key, counters.copy())
    assert np.isfinite(expected).all()
    assert np.array_equal(_counter_normals(key, counters.copy()), expected)
    block = np.empty((2, counters.size))
    row = block[1]
    assert _counter_normals(key, counters.copy(), out=row) is row
    assert np.array_equal(block[1], expected)


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
    # at the default constants a free span is one _counter_normals call at
    # any row count, and a tree block of n_sub steps takes
    # ceil(n_sub / max(1, HASH_NORMALS // rows)) calls
    calls, counter_normals = [], tree_module._counter_normals

    def counted(key, counters, out=None):
        calls.append(counters.shape)
        return counter_normals(key, counters, out=out)

    monkeypatch.setattr(tree_module, "_counter_normals", counted)
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
