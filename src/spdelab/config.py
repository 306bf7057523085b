"""Config load layer: the key table and the cross-key rules a config must pass.

harness.ExperimentConfig.from_dict types every key a config holds by
CONFIG_KEYS, then applies RULES in order; the first fault raises
ConfigError.  Each rule is rule(cfg, exp), a function of the typed config
and the record (harness.Experiment) of the experiment it names, so this
module imports nothing from the harness.  The state-space helpers below
are shared with the experiments, which solve on the levels the rules check.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .coefficients import FAMILIES, CoefficientError
from .domain import GridError
from .tree import TreeError, build_lattice, fine_steps


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# the largest grid.nx or params.fine_nx: 50x the finest level any experiment
# runs (201), and a grid built at load of at most 80 kB
MAX_NX = 10_001

# the most cells, grid nodes times states, one level may hold: a float64 field
# of 268 MB.  The largest level a test loads, adjoint-suite's 510-step fine
# lattice at fine_nx 201, holds 26.3M cells; a default level at most 330k.
MAX_CELLS = 2**25

# the most fine Monte Carlo steps over the horizon: a times array of 8 MB per
# bundle, 2097x the finest default mesh's 500 steps (mc.dt_mc 2e-3)
MAX_FINE_STEPS = 2**20

# the most normals a run may draw, summed over its Monte Carlo estimates as
# mc.paths times each one's fine steps, one normal per path and step: about
# 90 s of draws; the largest default bound is 1e7, feynman-kac-nonrandom's
# one estimate over 100 steps (representation-random's ten and
# density-64-65's two march at the tree step: 2e6 each)
MAX_NORMALS = 2**32


def _is_real(v) -> bool:
    """A finite int or float; a bool is not a number here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _count(least, most=math.inf):
    """(check, what) of an integer in [least, most]; a bool is not one."""
    return (lambda v: isinstance(v, int) and not isinstance(v, bool) and least <= v <= most,
            f"be an integer >= {least}" if most == math.inf
            else f"be an integer in [{least}, {most}]")


_REAL = (_is_real, "be a finite real number")
_POSITIVE = (lambda v: _is_real(v) and v > 0, "be a positive finite real number")
_REALS = (lambda v: isinstance(v, list) and v != [] and all(map(_is_real, v)),
          "be a non-empty list of finite real numbers")
_INSIDE = ("hold real numbers strictly inside the domain ({domain[a]:g}, {domain[b]:g}), "
           "each nearest an interior grid node")

# (section, key) -> (check, what): a value the config holds for the key must
# pass check, else loading fails with "<section>.<key> must <what>"; what may
# name values of sections checked before it (points name the domain bounds).
# Section None is the top level; the coefficient parameters are those of
# coefficients.FAMILIES, and make_family decides which keys a family takes.
CONFIG_KEYS = {
    ("coefficients", "family"): (lambda v: isinstance(v, str), "be a family name"),
    ("coefficients", "sigma"): _REALS,
    ("coefficients", "d"): _count(1, 2),
    **{("coefficients", key): _REAL for family in FAMILIES.values() for key in family.keys},
    ("domain", "a"): _REAL,
    ("domain", "b"): _REAL,
    ("grid", "nx"): _count(1, MAX_NX),
    ("tree", "n_steps"): _count(1),
    ("tree", "horizon"): _POSITIVE,
    ("mc", "seed"): (lambda v: all(map(_count(0)[0], v if isinstance(v, (list, tuple)) else [v])),
                     "be an integer >= 0 or a list of them"),
    ("mc", "paths"): _count(2),
    ("mc", "dt_mc"): _POSITIVE,
    ("params", "x0"): (_is_real, _INSIDE),
    ("params", "x_points"): (_REALS[0], _INSIDE),
    ("params", "t_points"): _REALS,
    ("params", "fine_nx"): _count(1, MAX_NX),
    ("params", "fine_n_steps"): _count(1),
    ("params", "n_draws"): _count(1),
    ("params", "n_fields"): _count(1),
    ("params", "node_checks"): _count(1),
    ("params", "p0_width"): _POSITIVE,
    ("params", "leaf_bits"): (lambda v: isinstance(v, str) and v != "" and set(v) <= {"0", "1"},
                              "be a non-empty string of 0s and 1s"),
    (None, "output_dir"): (lambda v: isinstance(v, str) and v != "", "be a non-empty string"),
    (None, "workers"): (_count(1, 1)[0], "be the integer 1: Monte Carlo chunks run one after "
                        "another, and every march is one loop in the calling thread"),
}


# --- state spaces -------------------------------------------------------------

def _node(grid, x: float) -> int:
    """The grid node nearest x."""
    return int(np.argmin(np.abs(grid.x - x)))


def _state_space(cfg, diag, nx=None, n_steps=None, lattice=True):
    """(coeffs, grid, tree) at one level (nx or n_steps None: the configured
    one), on the w1 lattice at any d unless lattice is unset because the
    caller reads per-node or per-path values, on the scenario tree then; the
    level goes to diag["state_space"].  The lattice is exact: coefficients
    and test fields depend on the path only through w1.  ConfigError if a
    field on the level would pass MAX_CELLS, checked before any field is
    allocated."""
    coeffs, grid = cfg.build_coeffs(), cfg.build_grid(nx)
    n_steps = cfg.tree["n_steps"] if n_steps is None else n_steps
    tree = (build_lattice(n_steps, float(cfg.tree["horizon"])) if lattice
            else cfg.build_tree(n_steps))
    states = sum(tree.n_nodes(k) for k in range(tree.n_steps + 1))
    if grid.nx * states > MAX_CELLS:
        level = "the w1 lattice" if tree.kind == "lattice" else f"a d={tree.d} tree"
        raise ConfigError(
            f"nx={grid.nx} on {level} of n_steps={tree.n_steps} ({states:,} states) "
            f"would hold {grid.nx * states:,} cells per field, past the cell guard of "
            f"{MAX_CELLS:,} cells")
    diag.setdefault("state_space", []).append(
        {"nx": grid.nx, "n_steps": tree.n_steps, "kind": tree.kind, "states": states})
    return coeffs, grid, tree


def _gaussian_density(grid, width: float) -> np.ndarray:
    """exp(-x^2 / (2 width^2)) at the interior nodes, of unit mass;
    ConfigError if it has no finite, positive mass on the grid."""
    with np.errstate(all="ignore"):  # a width whose square underflows
        p0 = np.exp(-grid.x**2 / (2.0 * width**2))
        p0[0] = p0[-1] = 0.0
        p0 /= grid.dx * p0[1:-1].sum()
    if not np.isfinite(p0).all():
        raise ConfigError(f"params.p0_width={width!r} leaves the initial density no finite, "
                          f"positive mass on the grid of nx={grid.nx}")
    return p0


# --- cross-key rules, applied in RULES order once every key is typed ----------

def _oracle_family(cfg, exp):
    """feynman-kac-nonrandom's exit-time oracle is the closed form for a constant drift."""
    family = cfg.coefficients["family"]
    if cfg.experiment == "feynman-kac-nonrandom" and family != "constant":
        raise ConfigError(f"feynman-kac-nonrandom's oracle needs the constant family, "
                          f"got {family!r}")


def _levels_dominant(cfg, exp):
    """The coefficients (make_family checks the family's keys and d <= d0 =
    len(sigma)) and both (nx, n_steps) levels build on the state spaces that
    hold the run's fields, within the size guard (build_grid refuses a grid
    floating point cannot hold), and on each the band coefficients
    K1/(2dx) and b/(2dx^2) are finite and I - dt*A is diagonally dominant,
    as the tridiagonal solver (no pivoting) needs; it reads no Monte Carlo
    estimate."""
    try:
        levels = [_state_space(cfg, {}, lattice=not exp.fields_on_tree),
                  _state_space(cfg, {}, cfg.params.get("fine_nx"), cfg.params.get("fine_n_steps"))]
    except (CoefficientError, GridError, TreeError) as exc:
        raise ConfigError(str(exc)) from exc
    for coeffs, grid, tree in levels:
        k1, b = coeffs.drift_bound(), coeffs.b_total
        adv, dif = k1 / (2.0 * grid.dx), b / (2.0 * grid.dx**2)
        if not (math.isfinite(adv) and math.isfinite(dif)):
            raise ConfigError(f"nx={grid.nx} on [{grid.domain.a!r}, {grid.domain.b!r}] makes "
                              f"the band coefficients K1/(2dx) = {adv:g} and b/(2dx^2) = "
                              f"{dif:g}: they must be finite (K1={k1:g}, b={b:g})")
        value = 2.0 * tree.dt * (adv - dif)
        if value > 1.0:
            raise ConfigError(
                f"nx={grid.nx} with n_steps={tree.n_steps} breaks the diagonal dominance the "
                f"tridiagonal solver (no pivoting) needs: "
                f"2 dt (K1/(2dx) - b/(2dx^2)) = {value:.3g} > 1 "
                f"(K1={k1:g}, b={b:g}); take more tree steps or a smaller drift")


def _p0_has_mass(cfg, exp):
    """The initial density of p0_width has a finite, positive mass on the
    grid of each level."""
    if "p0_width" in cfg.params:
        for nx in (None, cfg.params.get("fine_nx")):
            _gaussian_density(cfg.build_grid(nx), cfg.params["p0_width"])


def _superparabolic_regime(cfg, exp):
    """R*, L* and the density equation need d < len(sigma), tail block nondegenerate."""
    coeffs = cfg.build_coeffs()
    if exp.superparabolic and not coeffs.superparabolic():
        raise ConfigError(f"{cfg.experiment} solves R*, L* or the density equation: it needs the "
                          f"superparabolic regime, d < len(sigma) with a nondegenerate tail "
                          f"block sigma[d:], got d={coeffs.d} and len(sigma)={coeffs.d0}")


def _fine_not_coarser(cfg, exp):
    """The refinement rows compare the fine level against the coarse one."""
    for fine, section, coarse in (("fine_nx", "grid", "nx"), ("fine_n_steps", "tree", "n_steps")):
        value, least = cfg.params.get(fine), getattr(cfg, section)[coarse]
        if value is not None and value < least:
            raise ConfigError(f"params.{fine}={value} is below {section}.{coarse}={least}: the "
                              f"fine level must be at least as fine as the coarse one")


def _points_inside_domain(cfg, exp):
    """The run reads each point at its nearest node of the configured grid; a
    point on, past or merely near the boundary snaps to a boundary node,
    where v and the oracle are 0 and the point's rows pass vacuously."""
    grid = cfg.build_grid()
    for key in ("x0", "x_points"):
        points = cfg.params.get(key, [])
        for x in points if isinstance(points, list) else [points]:
            ix = _node(grid, x)
            if not 0 < ix < grid.nx - 1:
                raise ConfigError(f"params.{key} must {_INSIDE.format(domain=cfg.domain)}, got "
                                  f"{points!r}: {x!r} is nearest node {ix} of nx={grid.nx}")


def _estimates_fit(cfg, exp):
    """The run's table of Monte Carlo estimates, read once: the tree its
    bridged paths follow is within the size guard (_levels_dominant builds
    it only where it holds fields), each estimate's step and mc.dt_mc
    divide the horizon, and the tree step when its paths are bridged, at
    least once each, their fine steps are within MAX_FINE_STEPS and the
    normals of all the estimates, each one's paths times its fine steps,
    within MAX_NORMALS, and each has its own name."""
    horizon = float(cfg.tree["horizon"])
    table, paths = exp.estimates(cfg), cfg.mc.get("paths", 0)
    bridged = any(est.bridged for est in table)
    if bridged and not exp.fields_on_tree:
        try:
            cfg.build_tree()
        except TreeError as exc:
            raise ConfigError(str(exc)) from exc
    # mc.dt_mc must make a mesh even where every row marches at the tree step
    # (a drift that does not read x): the family decides, not the knob
    meshes = [(est.name, est.dt, est.bridged) for est in table]
    meshes += [("mc.dt_mc", float(cfg.mc["dt_mc"]), bridged)] if table else []
    try:
        n_fine = [fine_steps(horizon, dt, horizon / cfg.tree["n_steps"] if on_tree
                             else None)[0] for _, dt, on_tree in meshes]
    except TreeError as exc:
        raise ConfigError(f"mc.dt_mc: {exc}") from exc
    for (name, dt, _), n in zip(meshes, n_fine):
        if n > MAX_FINE_STEPS:
            raise ConfigError(f"{name} at dt={dt:g} makes {n:.3g} fine steps over "
                              f"the horizon {horizon:g}, past the guard of {MAX_FINE_STEPS:,} "
                              f"fine steps")
    n_fine = n_fine[:len(table)]
    if paths * sum(n_fine) > MAX_NORMALS:
        each = ", ".join(f"{est.name}: {paths:,} paths over {n:,} fine steps"
                         for est, n in zip(table, n_fine))
        raise ConfigError(f"the run's {len(table)} Monte Carlo estimate(s) ({each}) would draw "
                          f"{paths * sum(n_fine):.3g} normals, past the work guard of "
                          f"{MAX_NORMALS:,} normals")
    names = [est.name for est in table]
    if len(set(names)) < len(names):
        raise ConfigError(f"the Monte Carlo estimates need distinct names, one summary.json "
                          f"record each, got {names}: points that snap to one grid node, or "
                          f"to nodes equal at 2 decimals, name one estimate")


def _t_points_on_tree_times(cfg, exp):
    """The density meets Monte Carlo at level-k nodes: distinct t = k*dt, 0 <= k <= n_steps."""
    horizon, n_steps = float(cfg.tree["horizon"]), cfg.tree["n_steps"]
    dt, t_points = horizon / n_steps, cfg.params.get("t_points", [])
    if not all(-1e-9 <= t <= horizon + 1e-9
               and abs(t - round(t / dt) * dt) <= 1e-9 for t in t_points):
        raise ConfigError(f"params.t_points must be tree times k*dt with dt={dt:g} and "
                          f"0 <= k <= {n_steps}, got {t_points!r}")
    if len({round(t / dt) for t in t_points}) < len(t_points):
        raise ConfigError(f"params.t_points must be distinct tree times, one report row each, "
                          f"got {t_points!r}")


def _node_checks_fit(cfg, exp):
    """duality-63 checks the first node_checks nodes of level n_steps // 2."""
    k = cfg.tree["n_steps"] // 2
    nodes = 2**(cfg.d * k)
    if cfg.params.get("node_checks", 1) > nodes:
        raise ConfigError(f"params.node_checks must be an integer in [1, {nodes}], "
                          f"the nodes at level {k}, got {cfg.params['node_checks']!r}")


def _leaf_bits_name_a_leaf(cfg, exp):
    """leaf_bits is a leaf index in binary, one bit per driving component and
    tree step: a longer string would wrap modulo the leaf count."""
    bits, n_bits = cfg.params.get("leaf_bits"), cfg.d * cfg.tree["n_steps"]
    if bits is not None and len(bits) != n_bits:
        raise ConfigError(f"params.leaf_bits must have d * tree.n_steps = {n_bits} bits, one "
                          f"per driving component and tree step, got {len(bits)}: {bits!r}")


RULES = (_oracle_family, _levels_dominant, _p0_has_mass, _superparabolic_regime,
         _fine_not_coarser, _points_inside_domain, _estimates_fit, _t_points_on_tree_times,
         _node_checks_fit, _leaf_bits_name_a_leaf)
