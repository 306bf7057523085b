"""The tree engine at the north star's fine level: time, peak memory, a bound
and the lattice gather.

solve_density and op_L march the d = 1 scenario tree of 16 steps (2^16
leaves) on a grid of 201 nodes over (-8, 8), under drift-random.
Each call is run once; the script prints its wall time, its tracemalloc
peak and the bytes of what it returns, and exits 1 when op_L's peak exceeds
what it returns by more than 10% or solve_density's exceeds 1.55 times its
field.  A tree level factors its k + 1 lattice states and gathers their
factors by each node's state, so no factor set of a level's size is held
next to the solution; the density march peaks at its field's earlier
levels plus the last level's block and the level merged out of it.  It
also exits 1 unless the tree op_L's v, kernel and g have, level by level,
the bits of op_L on the 153-state w1 lattice gathered by each node's state
(one level is gathered at a time).  The run takes about 2.5 s and 0.66 GB of
resident memory:

    PYTHONPATH=src python tests/fine_tree_engine.py

`measure` serves the tier-1 test of the same bound on a smaller tree.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from spdelab import DomainSpec, build_grid, build_tree, make_family
from spdelab.backward import op_L
from spdelab.config import _gaussian_density
from spdelab.fields import SpaceTimeField
from spdelab.forward import solve_density

# op_L's peak over the bytes it returns, and solve_density's over its field
OP_L_BOUND = 1.10
DENSITY_BOUND = 1.55


def _levels_bytes(*fields) -> int:
    return sum(level.nbytes for field in fields for level in field.levels)


def _traced(call):
    """(result, seconds, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, seconds, peak


def first_mismatch(sol, lattice_sol, tree) -> str | None:
    """Where the tree op_L's v, kernel or g first differs in a bit from the
    lattice op_L's gathered by each node's state, or None; a level at a time."""
    pairs = zip("vXg", (sol.v, sol.kernels[0], sol.g),
                (lattice_sol.v, lattice_sol.kernels[0], lattice_sol.g))
    for name, on_tree, on_lattice in pairs:
        for k, (node, state) in enumerate(zip(on_tree.levels, on_lattice.levels)):
            gathered = np.take(state, tree.states(k), axis=1)
            if not np.array_equal(node.view(np.uint64), gathered.view(np.uint64)):
                return f"{name} at level {k}"
    return None


def measure(n_steps: int = 16, nx: int = 201) -> dict:
    """{name: (seconds, peak bytes, bytes returned)} of one solve_density
    and one op_L call on the d = 1 tree of n_steps steps, grid of nx nodes,
    and under "gather" first_mismatch of that op_L and the lattice's."""
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    grid = build_grid(DomainSpec(-8.0, 8.0, 1.0), nx)
    tree = build_tree(1, n_steps, 1.0)
    p0 = _gaussian_density(grid, 0.5)
    density, seconds, peak = _traced(lambda: solve_density(p0, coeffs, grid, tree))
    out = {"solve_density": (seconds, peak, _levels_bytes(density.p))}
    del density
    phi = SpaceTimeField.from_function(grid, tree.lattice,
                                       lambda x, t, w1: np.exp(-x * x) * np.cos(w1 + t))
    on_tree = phi.on(tree)
    sol, seconds, peak = _traced(lambda: op_L(on_tree, coeffs, grid, tree))
    del on_tree
    out["op_L"] = (seconds, peak, _levels_bytes(sol.v, *sol.kernels, sol.g))
    out["gather"] = first_mismatch(sol, op_L(phi, coeffs, grid, tree.lattice), tree)
    return out


def main() -> int:
    results = measure()
    status = 0
    for name, bound in (("solve_density", DENSITY_BOUND), ("op_L", OP_L_BOUND)):
        seconds, peak, held = results[name]
        print(f"{name}: {seconds:.3f} s, tracemalloc peak {peak / 1e6:.1f} MB, "
              f"returns {held / 1e6:.1f} MB")
        if peak > bound * held:
            print(f"{name}'s peak is {peak / held:.3f} times what it returns, "
                  f"past the bound of {bound}")
            status = 1
    if results["gather"] is None:
        print("op_L on the tree has the bits of op_L on the lattice gathered, at every level")
    else:
        print(f"op_L on the tree differs from op_L on the lattice gathered: {results['gather']}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
