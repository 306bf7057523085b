"""spdelab: backward/forward stochastic parabolic solvers on a scenario
tree, cross-verified against first-exit-time Monte Carlo."""

from .backward import (
    BackwardSolution,
    ConvergenceError,
    op_L,
    residual_bspde,
    solve_backward_pathwise,
    solve_R,
)
from .coefficients import CoefficientSet, ValidationReport, make_family, validate
from .domain import (
    DomainSpec,
    Grid,
    GridError,
    apply_A,
    apply_A_star,
    build_grid,
    h0_inner,
)
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
    ForwardState,
    solve_B_star,
    solve_density,
    solve_duals,
    solve_G_star,
    solve_L_star,
    solve_R_star,
    solve_T_star,
    step_forward,
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
    TreeNode,
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
