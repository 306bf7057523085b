import numpy as np
import pytest

from spdelab import DomainSpec, build_grid, build_tree, make_family, validate
from spdelab.coefficients import CoefficientError, CoefficientSet


@pytest.fixture
def grid():
    return build_grid(DomainSpec(0.0, 1.0, 1.0), 21)


@pytest.fixture
def tree():
    return build_tree(1, 10, 1.0)


def test_constant_family_bounds(grid, tree):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    rep = validate(coeffs, grid, tree)
    assert rep.k1 == 0.0
    assert rep.k2 == pytest.approx(1.0)
    assert rep.delta_b == pytest.approx(1.0)
    assert rep.passed


def test_drift_random_tail_block(grid, tree):
    coeffs = make_family("drift-random", {"kappa": 0.5, "sigma": [0.6, 0.8], "d": 1})
    rep = validate(coeffs, grid, tree, require_superparabolic=True)
    assert rep.delta == pytest.approx(0.64)
    assert rep.k1 <= 0.5
    assert rep.passed


def test_drift_random_k1_measured_range(grid, tree):
    # sup over the tree of kappa*|tanh(omega_1)|: the deepest node reaches
    # |omega| = sqrt(n_steps * horizon), so the measured bound sits in [0.4, 0.5]
    coeffs = make_family("drift-random", {"kappa": 0.5, "sigma": [0.6, 0.8], "d": 1})
    rep = validate(coeffs, grid, tree)
    assert 0.4 <= rep.k1 <= 0.5


def test_space_smooth_lipschitz(grid, tree):
    coeffs = make_family("space-smooth", {"a": 0.3, "eps": 0.2, "sigma": [0.7, 0.7], "d": 1})
    rep = validate(coeffs, grid, tree)
    assert rep.passed
    assert rep.lipschitz_f <= 0.3 * np.pi * 1.2
    assert rep.k1 <= 0.3 * 1.2 + 1e-12
    assert rep.k3 == pytest.approx(0.0)


def test_superparabolic_flag_degenerate(grid, tree):
    coeffs = make_family("constant", {"f0": 0.0, "sigma": [1.0]})
    rep = validate(coeffs, grid, tree, require_superparabolic=True)
    assert not rep.passed
    assert not rep.flags["superparabolic"]
    assert any("degenerate" in m for m in rep.messages)


def test_measured_delta_b_positive(grid, tree):
    for params in (
        ("constant", {"f0": 0.1, "sigma": [0.5]}),
        ("drift-random", {"kappa": 0.2, "sigma": [0.6, 0.8], "d": 1}),
        ("space-smooth", {"a": 0.2, "eps": 0.1, "sigma": [0.7, 0.7], "d": 1}),
    ):
        rep = validate(make_family(*params), grid, tree)
        assert rep.delta_b > 0


def test_make_family_rejects_bad_input():
    with pytest.raises(CoefficientError, match="unknown family"):
        make_family("periodic", {"sigma": [1.0]})
    with pytest.raises(CoefficientError, match="missing"):
        make_family("drift-random", {"sigma": [1.0]})
    with pytest.raises(CoefficientError, match="unknown parameters"):
        make_family("constant", {"f0": 0.0, "sigma": [1.0], "zeta": 2})
    with pytest.raises(CoefficientError, match="degenerate"):
        make_family("constant", {"f0": 0.0, "sigma": [1e-8]})
    with pytest.raises(CoefficientError):
        make_family("constant", {"f0": np.inf, "sigma": [1.0]})
    with pytest.raises(CoefficientError):
        make_family("drift-random", {"kappa": 0.1, "sigma": [1.0], "d": 2})
    with pytest.raises(CoefficientError, match=r"\|eps\| < 1"):
        make_family("space-smooth", {"a": 0.3, "eps": -1.0, "sigma": [1.0]})
    for sigma in ({}, {"sigma": []}):
        with pytest.raises(CoefficientError, match="non-empty sigma row"):
            make_family("constant", {"f0": 0.0, **sigma})
    # built directly, past make_family: the family is checked all the same
    with pytest.raises(CoefficientError, match="unknown family 'periodic'"):
        CoefficientSet("periodic", 1, np.ones(1))


def test_adaptedness_by_node_enumeration(grid, tree):
    # two nodes sharing the path prefix up to level t give identical values
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    level = 4
    vals = coeffs.drift_nodes(grid, tree, level)[tree.states(level)]  # each node's state's row
    vals = np.broadcast_to(vals, (tree.n_nodes(level), grid.ni))
    # descendants of node n at a deeper level evaluated AT level-t data:
    # adaptedness means the level-t value is a function of the level-t node only,
    # so each deeper node's w1 is summed over its first `level` branch digits
    deeper = 7
    nodes = np.arange(tree.n_nodes(deeper))
    w1 = np.zeros(nodes.size)
    for j in range(level):
        digit = (nodes >> (tree.d * (deeper - 1 - j))) % tree.branching
        w1 = w1 + tree.digit_signs[digit, 0] * tree.sqdt
    anc = nodes >> (tree.d * (deeper - level))  # each deeper node's level-`level` ancestor
    deep_vals = np.broadcast_to(
        coeffs.drift(grid.x_interior[None, :], level * tree.dt, w1[:, None]),
        (tree.n_nodes(deeper), grid.ni),
    )
    assert np.array_equal(deep_vals, vals[anc])


def test_drift_vectorizes_over_paths():
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    w1 = np.array([-1.0, 0.0, 2.0])
    out = coeffs.drift(np.zeros(3), 0.5, w1)
    assert np.allclose(out, 0.25 * np.tanh(w1))
