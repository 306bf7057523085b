"""spdelab: backward/forward stochastic parabolic solvers on the w1
lattice, cross-verified against first-exit-time Monte Carlo."""

import os

# numpy's bundled OpenBLAS starts a worker thread per extra CPU as it loads,
# and each busy-waits about 0.1 s before it sleeps; the package's largest
# BLAS call is a small matrix product.  On 2 vCPUs `import spdelab.harness`
# took 0.32 s of CPU with the worker and 0.16 s without.  This takes effect
# only when spdelab loads numpy first (`spdelab run`, `python -m spdelab`),
# and a value the caller has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .backward import BackwardSolution, ConvergenceError, op_L, solve_R
from .coefficients import CoefficientSet, ValidationReport, make_family, validate
from .domain import DomainSpec, Grid, GridError, build_grid, h0_inner
from .fields import (
    SpaceTimeField,
    inner_x0,
    norm_c0,
    norm_x0,
    norm_xk,
    pair_x0_dual,
    smooth_random_field,
)
from .forward import (
    DensitySolution,
    ForwardSolverError,
    solve_B_star,
    solve_density,
    solve_duals,
    solve_G_star,
    solve_L_star,
    solve_R_star,
    solve_T_star,
)
from .montecarlo import (
    EstimatorResult,
    TrajectorySet,
    conditional_functional,
    functional_estimate,
    simulate,
)
from .tree import (
    Lattice,
    MartingaleDecomposition,
    PathBundle,
    ScenarioTree,
    TreeError,
    bridge_paths,
    build_lattice,
    build_tree,
    clark_decompose,
    cond_expect,
    free_paths,
    ito_integral,
    sample_tree_paths,
)

__version__ = "0.1.0"
