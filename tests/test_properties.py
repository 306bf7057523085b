"""Property tests of the banded core, of the tree calculus and of the
level structure of both state spaces.

Each example draws its sizes and a numpy seed from hypothesis.  The banded
core is checked against numpy.linalg.solve and explicitly assembled dense
matrices; the tree calculus against its own identities (tower property,
exact Clark reconstruction, kernels as conditional covariances); the level
weights and `merge` of the tree and the w1 lattice against the expectation
they must preserve.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab import (
    DomainSpec,
    build_grid,
    build_lattice,
    build_tree,
    clark_decompose,
    cond_expect,
)
from spdelab.domain import generator_bands, thomas_rows

SEEDS = st.integers(0, 2**32 - 1)
# narrow batches and wide ones: the widest tree levels the experiments solve
# hold 512 systems and more
BATCHES = st.one_of(st.integers(1, 5), st.sampled_from([64, 65, 513]))


def dense(lo, dg, up):
    """Tridiagonal matrix with sub-, main and super-diagonal taken from
    lo[1:], dg and up[:-1]."""
    return np.diag(dg) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)


def dominant_bands(rng, n, nb):
    """(n, nb) bands of strictly diagonally dominant systems, either sign."""
    lo, up = rng.normal(size=(2, n, nb))
    dg = rng.choice([-1.0, 1.0], size=(n, nb)) * (np.abs(lo) + np.abs(up) + rng.uniform(0.1, 2.0, size=(n, nb)))
    return lo, dg, up


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    nb=BATCHES,
    m=st.integers(1, 3),
    layout=st.sampled_from(["full", "constant-along-system", "shared-by-batch"]),
    seed=SEEDS,
)
def test_thomas_rows_matches_dense_solve(n, nb, m, layout, seed):
    rng = np.random.default_rng(seed)
    shape = {"full": (n, nb), "constant-along-system": (1, nb), "shared-by-batch": (n, 1)}[layout]
    lo = rng.normal(size=shape)
    up = rng.normal(size=shape)
    # strictly diagonally dominant, either sign
    dg = rng.choice([-1.0, 1.0], size=shape) * (np.abs(lo) + np.abs(up) + rng.uniform(0.1, 2.0, size=shape))
    L, D, U = (np.broadcast_to(a, (n, a.shape[1])) for a in (lo, dg, up))
    rhs = rng.normal(size=(n, nb, m))
    X = thomas_rows(L, D, U, rhs.copy())
    for b in range(nb):
        c = b if shape[1] > 1 else 0
        ref = np.linalg.solve(dense(L[:, c], D[:, c], U[:, c]), rhs[:, b])
        np.testing.assert_allclose(X[:, b], ref, rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    nb=BATCHES,
    widths=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    seed=SEEDS,
)
def test_thomas_rows_on_stacked_columns_equals_each_column_alone(n, nb, widths, seed):
    # the invariant the lockstep forward march rests on: right-hand sides
    # concatenated along m solve to exactly the columns solved one by one
    rng = np.random.default_rng(seed)
    lo, dg, up = dominant_bands(rng, n, nb)
    parts = [rng.normal(size=(n, nb, m)) for m in widths]
    stacked = thomas_rows(lo, dg, up, np.concatenate(parts, axis=2))
    alone = np.concatenate([thomas_rows(lo, dg, up, p.copy()) for p in parts], axis=2)
    assert np.array_equal(stacked, alone)
    # and so do they as the trailing axes of a problem-major block's x-major view
    block = np.stack([np.concatenate(parts, axis=2)] * 2)  # (2, n, nb, m)
    thomas_rows(lo, dg, up, block.transpose(1, 2, 0, 3))
    assert np.array_equal(block[0], alone) and np.array_equal(block[1], alone)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 70), m=st.integers(1, 3), at=st.integers(0, 512), seed=SEEDS)
def test_thomas_rows_solves_a_system_alone_as_in_a_wide_batch(n, m, at, seed):
    # every step is elementwise across systems: system `at` of a 513-wide
    # batch solves to the same bits as the same system solved alone
    rng = np.random.default_rng(seed)
    bands = dominant_bands(rng, n, 513)
    rhs = rng.normal(size=(n, 513, m))
    wide = thomas_rows(*bands, rhs.copy())
    alone = thomas_rows(*(a[:, at:at + 1] for a in bands), rhs[:, at:at + 1].copy())
    assert np.array_equal(wide[:, at:at + 1], alone)
    # and so does a 2-D right-hand side, one per system
    assert np.array_equal(thomas_rows(*bands, rhs[:, :, 0].copy()), wide[:, :, 0])


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(8, 40),
    n=st.integers(1, 6),
    x_dependent=st.booleans(),
    seed=SEEDS,
)
def test_dual_bands_are_the_transpose_of_the_primal(nx, n, x_dependent, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(DomainSpec(-1.0, 2.0, 1.0), nx)
    f = rng.normal(scale=3.0, size=(n, grid.ni if x_dependent else 1))
    b = rng.uniform(0.05, 2.0)
    primal = [np.broadcast_to(a, (grid.ni, n)) for a in generator_bands(grid, f, b)]
    dual = [np.broadcast_to(a, (grid.ni, n)) for a in generator_bands(grid, f, b, dual=True)]
    for node in range(n):
        A = dense(*(a[:, node] for a in primal))
        # independent assembly of the primal generator
        drift = np.broadcast_to(f[node], (grid.ni,))
        ref = (np.diag(-drift[1:] / (2 * grid.dx) + b / (2 * grid.dx**2), -1)
               + np.diag(np.full(grid.ni, -b / grid.dx**2))
               + np.diag(drift[:-1] / (2 * grid.dx) + b / (2 * grid.dx**2), 1))
        np.testing.assert_allclose(A, ref, rtol=1e-13, atol=0.0)
        assert np.array_equal(dense(*(a[:, node] for a in dual)), A.T)


# --- the tree calculus on random trees -----------------------------------

TREES = st.sampled_from([(d, n) for d in (1, 2) for n in range(1, 7)])


def lift(tree, values, level):
    """Level-`level` node values repeated onto the leaves below each node."""
    return np.repeat(values, tree.branching ** (tree.n_steps - level), axis=0)


@settings(max_examples=40, deadline=None)
@given(dn=TREES, m=st.integers(1, 3), data=st.data(), seed=SEEDS)
def test_cond_expect_tower_property(dn, m, data, seed):
    tree = build_tree(*dn, 1.0)
    s = data.draw(st.integers(0, tree.n_steps), label="s")
    t = data.draw(st.integers(s, tree.n_steps), label="t")
    X = np.random.default_rng(seed).normal(size=(tree.n_leaves, m))
    inner = cond_expect(X, t, tree)
    assert inner.shape == (tree.n_nodes(t), m)
    nested = cond_expect(lift(tree, inner, t), s, tree)
    np.testing.assert_allclose(nested, cond_expect(X, s, tree), rtol=0, atol=1e-12 * np.abs(X).max())


@settings(max_examples=40, deadline=None)
@given(n_steps=st.integers(1, 6), seed=SEEDS)
def test_clark_reconstruction_is_exact_for_d1(n_steps, seed):
    tree = build_tree(1, n_steps, 1.0)
    X = np.random.default_rng(seed).normal(size=tree.n_leaves)
    rec = clark_decompose(X, tree).reconstruct(tree)
    np.testing.assert_allclose(rec, X, rtol=0, atol=1e-12 * np.abs(X).max())


@settings(max_examples=40, deadline=None)
@given(n_steps=st.integers(1, 6), seed=SEEDS)
def test_clark_kernels_are_conditional_covariances_for_d2(n_steps, seed):
    # kernel_j at a level-k node is E[X domega_j | node] / dt, with domega_j
    # the increment of the edge from level k to k + 1 below that node
    tree = build_tree(2, n_steps, 1.0)
    X = np.random.default_rng(seed).normal(size=tree.n_leaves)
    dec = clark_decompose(X, tree)
    leaves = np.arange(tree.n_leaves)
    for k in range(tree.n_steps):
        digits = (leaves >> (tree.d * (tree.n_steps - k - 1))) % tree.branching
        for j in range(tree.d):
            dw = tree.digit_signs[digits, j] * tree.sqdt
            ref = cond_expect(X * dw, k, tree) / tree.dt
            np.testing.assert_allclose(dec.kernels[k][:, j], ref, rtol=0,
                                       atol=1e-12 * np.abs(X).max())


# --- level weights and merge of the tree and the lattice -----------------


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(["lattice", "tree-d1", "tree-d2"]),
    n_steps=st.integers(1, 40),
    nx=st.integers(1, 4),
    data=st.data(),
    seed=SEEDS,
)
def test_level_weights_sum_to_one_and_merge_preserves_the_expectation(
    space, n_steps, nx, data, seed
):
    if space == "lattice":
        states = build_lattice(n_steps, 1.0)
    else:
        states = build_tree(1 if space == "tree-d1" else 2, min(n_steps, 6), 1.0)
    k = data.draw(st.integers(0, states.n_steps - 1), label="k")
    n_k, n_next, br = states.n_nodes(k), states.n_nodes(k + 1), states.branching
    w_k = np.broadcast_to(states.weights(k), (n_k,))
    w_next = np.broadcast_to(states.weights(k + 1), (n_next,))
    assert abs(w_k.sum() - 1.0) <= 1e-13 and abs(w_next.sum() - 1.0) <= 1e-13
    # each child is reached with probability 1 / branching
    rng = np.random.default_rng(seed)
    rhs = rng.normal(size=(nx, n_k, br))
    merged = states.merge(rhs)
    assert merged.shape == (nx, n_next)
    np.testing.assert_allclose(merged @ w_next, rhs.mean(axis=2) @ w_k, rtol=1e-12, atol=1e-12)
    if space == "lattice":
        # child values that depend only on the child state merge back to it
        u = rng.normal(size=(nx, n_next))
        children = np.stack([states.child(u, b, n_k) for b in range(br)], axis=2)
        np.testing.assert_allclose(states.merge(children), u, rtol=1e-14, atol=1e-14)
    else:
        # the tree keeps every child: node n's children are the contiguous
        # columns n * br .. n * br + br - 1 of the next level
        np.testing.assert_array_equal(merged.reshape(nx, n_k, br), rhs)
