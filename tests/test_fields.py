import numpy as np
import pytest

from spdelab import DomainSpec, SpaceTimeField, build_grid, build_tree
from spdelab.fields import (
    FieldError,
    inner_x0,
    norm_c0,
    norm_x0,
    norm_xk,
    pair_x0_dual,
    smooth_random_field,
)


@pytest.fixture
def setup():
    dom = DomainSpec(0.0, 1.0, 1.0)
    return build_grid(dom, 17), build_tree(1, 4, 1.0)


def brute_inner_x0(F, G):
    """Flat-vector dot product with probability x dt x dx weights (oracle)."""
    tree, grid = F.tree, F.grid
    total = 0.0
    for k in range(tree.n_steps):
        prob = 1.0 / tree.n_nodes(k)
        for n in range(tree.n_nodes(k)):
            for i in range(grid.nx):
                total += prob * tree.dt * grid.dx * F.levels[k][i, n] * G.levels[k][i, n]
    return total


def test_inner_x0_zero_and_positive(setup):
    grid, tree = setup
    F = smooth_random_field(grid, tree, seed=1)
    Z = SpaceTimeField.zeros(grid, tree)
    assert inner_x0(F, Z) == 0.0
    assert inner_x0(F, F) > 0.0


def test_inner_x0_brute_force_oracle(setup):
    grid, tree = setup
    F = smooth_random_field(grid, tree, seed=2)
    G = smooth_random_field(grid, tree, seed=3)
    fast = inner_x0(F, G)
    slow = brute_inner_x0(F, G)
    assert fast == pytest.approx(slow, rel=1e-12)


def test_inner_x0_symmetry(setup):
    grid, tree = setup
    F = smooth_random_field(grid, tree, seed=4)
    G = smooth_random_field(grid, tree, seed=5)
    assert inner_x0(F, G) == pytest.approx(inner_x0(G, F), rel=1e-14)


def test_shape_mismatch_raises(setup):
    grid, tree = setup
    other_tree = build_tree(1, 3, 1.0)
    F = SpaceTimeField.zeros(grid, tree)
    G = SpaceTimeField.zeros(grid, other_tree)
    with pytest.raises(FieldError):
        inner_x0(F, G)
    with pytest.raises(FieldError):
        SpaceTimeField(grid, tree, [np.zeros((grid.nx, 1))])


def test_fields_on_other_nodes_or_horizons_do_not_pair():
    # the same nx on another interval, or the same tree shape over another
    # horizon, would pair to a value that depends on the argument order
    tree = build_tree(1, 4, 1.0)
    grid, wide = build_grid(DomainSpec(0.0, 1.0, 1.0), 11), build_grid(DomainSpec(0.0, 2.0, 1.0), 11)
    F = smooth_random_field(grid, tree, seed=1)
    with pytest.raises(FieldError, match="different grids"):
        inner_x0(F, smooth_random_field(wide, tree, seed=2))
    with pytest.raises(FieldError, match="different trees"):
        inner_x0(F, smooth_random_field(grid, build_tree(1, 4, 2.0), seed=2))
    # equal grids and trees built apart, as each _state_space call builds its own, pair
    again = build_grid(DomainSpec(0.0, 1.0, 1.0), 11)
    G = smooth_random_field(again, build_tree(1, 4, 1.0), seed=2)
    assert again is not grid and inner_x0(F, G) == inner_x0(G, F)


def test_norms_consistent(setup):
    grid, tree = setup
    F = smooth_random_field(grid, tree, seed=6)
    assert norm_x0(F) == pytest.approx(np.sqrt(inner_x0(F, F)), rel=1e-12)
    assert norm_xk(F, 0) == pytest.approx(norm_x0(F), rel=1e-12)
    # Lambda-scale ordering carries over to the space-time norms
    assert norm_xk(F, -1) <= norm_x0(F) <= norm_xk(F, 1)
    assert norm_c0(F) > 0


def test_field_arithmetic(setup):
    grid, tree = setup
    F = smooth_random_field(grid, tree, seed=7)
    G = smooth_random_field(grid, tree, seed=8)
    H = 2.0 * F - G
    for k in range(tree.n_steps + 1):
        assert np.allclose(H.levels[k], 2.0 * F.levels[k] - G.levels[k])
    assert norm_x0(F + (-F)) == 0.0


def test_ancestor_index_lifts_levels_to_leaves(setup):
    # lifted through ancestor_index, every leaf below a node carries that
    # node's value
    grid, tree = setup
    F = smooth_random_field(grid, tree, seed=9)
    leaves = np.arange(tree.n_leaves)
    for k in range(tree.n_steps + 1):
        lifted = F.levels[k][:, tree.ancestor_index(leaves, k)]
        assert lifted.shape == (grid.nx, tree.n_leaves)
        span = tree.branching ** (tree.n_steps - k)
        assert np.all(lifted.reshape(grid.nx, tree.n_nodes(k), span) == F.levels[k][:, :, None])


def test_pair_x0_dual_matches_brute(setup):
    grid, tree = setup
    F = smooth_random_field(grid, tree, seed=10)
    G = smooth_random_field(grid, tree, seed=11)
    slow = 0.0
    for k in range(tree.n_steps):
        for c in range(tree.n_nodes(k + 1)):
            parent = c // tree.branching
            slow += (
                tree.dt * grid.dx / tree.n_nodes(k + 1)
                * float(F.levels[k][:, parent] @ G.levels[k + 1][:, c])
            )
    assert pair_x0_dual(F, G) == pytest.approx(slow, rel=1e-12)


def test_field_generators_deterministic(setup):
    grid, tree = setup
    a = smooth_random_field(grid, tree, seed=12)
    b = smooth_random_field(grid, tree, seed=12)
    for k in range(tree.n_steps + 1):
        assert np.array_equal(a.levels[k], b.levels[k])


def test_smooth_random_field_boundary_rows_are_zero():
    # sin(m pi) leaves up to 1.8e-16 at x = b on this grid; both boundary
    # rows must be exactly 0 for the field to be Dirichlet-compatible
    grid = build_grid(DomainSpec(0.0, 8.0, 1.0), 201)
    tree = build_tree(1, 4, 1.0)
    for seed in (1, 2, 3):
        for level in smooth_random_field(grid, tree, seed=seed).levels:
            assert np.all(level[[0, -1]] == 0.0)
