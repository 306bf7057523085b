"""Property tests of the banded core against dense linear algebra.

Each example draws its sizes and a numpy seed from hypothesis; the oracles
are numpy.linalg.solve and explicitly assembled dense matrices.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab import DomainSpec, build_grid
from spdelab.domain import generator_bands, thomas_rows

SEEDS = st.integers(0, 2**32 - 1)


def dense(lo, dg, up):
    """Tridiagonal matrix with sub-, main and super-diagonal taken from
    lo[1:], dg and up[:-1]."""
    return np.diag(dg) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    nb=st.integers(1, 5),
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


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(8, 40),
    n=st.integers(1, 6),
    x_dependent=st.booleans(),
    seed=SEEDS,
)
def test_dual_bands_are_the_transpose_of_the_primal(nx, n, x_dependent, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(DomainSpec("interval", -1.0, 2.0, 1.0), nx)
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
