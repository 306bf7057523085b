"""The tree engine at the north star's fine level: time, peak memory and a bound.

solve_density marches the d = 1 scenario tree of 16 steps (2^16 leaves) on
a grid of 201 nodes over (-8, 8), under drift-random; it is the one solver
that still marches a tree (every backward sweep and forward dual solves on
the 153-state w1 lattice, and a node reads its state's values gathered).
The call is run once; the script prints its wall time, its tracemalloc
peak and the bytes of the field it returns, and exits 1 when the peak
exceeds 1.55 times that field.  A tree level factors its k + 1 lattice
states and gathers their factors by each node's state, so no factor set of
a level's size is held next to the solution; the march peaks at its
field's earlier levels plus the last level's block and the level merged
out of it.  The run takes about 1.2 s and 0.37 GB of resident memory on a
2-vCPU Xeon KVM guest:

    PYTHONPATH=src python tests/fine_tree_engine.py

`measure` serves the tier-1 test of the same bound on a smaller tree.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

from spdelab import DomainSpec, build_grid, build_tree, make_family
from spdelab.config import _gaussian_density
from spdelab.forward import solve_density

# solve_density's peak over the field it returns
DENSITY_BOUND = 1.55


def measure(n_steps: int = 16, nx: int = 201) -> tuple:
    """(seconds, tracemalloc peak in bytes, bytes of the field) of one
    solve_density call on the d = 1 tree of n_steps steps, grid of nx nodes."""
    coeffs = make_family("drift-random", {"kappa": 0.25, "sigma": [0.6, 0.8], "d": 1})
    grid = build_grid(DomainSpec(-8.0, 8.0, 1.0), nx)
    tree = build_tree(1, n_steps, 1.0)
    p0 = _gaussian_density(grid, 0.5)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        density = solve_density(p0, coeffs, grid, tree)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak, sum(level.nbytes for level in density.p.levels)


def main() -> int:
    seconds, peak, held = measure()
    print(f"solve_density: {seconds:.3f} s, tracemalloc peak {peak / 1e6:.1f} MB, "
          f"returns {held / 1e6:.1f} MB")
    if peak > DENSITY_BOUND * held:
        print(f"solve_density's peak is {peak / held:.3f} times what it returns, "
              f"past the bound of {DENSITY_BOUND}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
