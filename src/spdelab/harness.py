"""Experiment runner: named verification experiments, reports, CLI backend.

Each experiment builds its objects from an ExperimentConfig (JSON on disk,
typed and checked by the load layer in config.py), runs a fixed set of
checks and emits one CheckRow per check.  Reports are a CSV body
(deterministic for a given config: no timestamps, fixed float formatting),
a JSON summary with the coefficient validation report and the solver
diagnostics an experiment records (also deterministic), and a separate
metadata file carrying the volatile environment stamp: wall time, the
process's peak RSS, CPU time, OS thread count and minor page faults, and
versions.

Row semantics: lhs and rhs are the two quantities a check compares,
abs_err = |lhs - rhs|, rel_err normalizes by the larger magnitude, and tol
is the bound the check's metric was held to; the pass flag is
abs_err <= tol with lhs, rhs and tol finite, unless the check gives its
own verdict (ratio checks bound rhs by a multiple of a finite, positive
lhs, such as tol = lhs / 1.7; the conditional identity |lhs - rhs| / |lhs|).
Each bound is fixed by its experiment; a config carries the experiment's
inputs, not its verdicts.
"""

from __future__ import annotations

import copy
import csv
import json
import platform
import resource
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .backward import backward_sweep, op_L, solve_R
from .coefficients import FAMILIES, make_family, validate
from .config import (CONFIG_KEYS, RULES, ConfigError, _gaussian_density, _leaf_bits_name_a_leaf,
                     _node, _state_space)
from .domain import DomainSpec, build_grid, h0_inner
from .fields import (
    SpaceTimeField,
    inner_x0,
    norm_c0,
    norm_x0,
    norm_xk,
    smooth_random_field,
)
from .forward import solve_density, solve_duals
from .montecarlo import conditional_functional, expected_exit_time, functional_estimate
from .tree import build_tree


@dataclass
class CheckRow:
    check: str
    paper_anchor: str
    lhs: float
    rhs: float
    tol: float
    passed: bool | None = None

    def __post_init__(self):
        if self.passed is None:
            self.passed = bool(self.abs_err <= self.tol < np.inf)  # and lhs, rhs finite

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.abs_err / scale


def _ratio_row(check: str, anchor: str, ref: float, value: float, tol: float) -> CheckRow:
    """A ratio check: value within tol, a multiple of ref, which must be
    finite and positive (a ref of 0 or inf would pass a value of 0 or any)."""
    return CheckRow(check, anchor, ref, value, tol, bool(0.0 < ref < np.inf and value <= tol))


@dataclass
class ExperimentReport:
    experiment: str
    rows: list
    config: dict
    elapsed: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


_CSV_COLUMNS = [
    "experiment", "check", "paper_anchor", "lhs", "rhs",
    "abs_err", "rel_err", "tol", "pass",
]


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def _process_status() -> tuple[float, int | None]:
    """Peak resident set of this process image in MB and its OS thread
    count, from one read of /proc/self/status.  Without that file the peak
    is ru_maxrss (KiB), which Linux carries across exec, so a run started by
    a larger process would read its peak, and the thread count is None."""
    fields = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("VmHWM", "Threads"):
                    fields[key] = int(value.split()[0])
    except OSError:
        pass
    if "VmHWM" in fields:
        peak = fields["VmHWM"] / 1024.0
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak, fields.get("Threads")


def write_report(report: ExperimentReport, out_dir) -> dict:
    """Write report.csv, summary.json and metadata.json; returns file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for r in report.rows:
            w.writerow([
                report.experiment, r.check, r.paper_anchor,
                _fmt(r.lhs), _fmt(r.rhs), _fmt(r.abs_err), _fmt(r.rel_err),
                _fmt(r.tol), str(r.passed).lower(),
            ])
    summary_path = out / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(
            {
                "experiment": report.experiment,
                "passed": report.passed,
                # report.csv's columns but the experiment, values unformatted
                "checks": [{key: getattr(r, "passed" if key == "pass" else key)
                            for key in _CSV_COLUMNS[1:]} for r in report.rows],
                "config": report.config,
                "diagnostics": report.diagnostics,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    meta_path = out / "metadata.json"
    peak_rss_mb, os_threads = _process_status()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(meta_path, "w") as fh:
        json.dump(
            {
                "elapsed_seconds": report.elapsed,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "spdelab_version": __version__,
                "numpy_version": np.__version__,
                "python_version": platform.python_version(),
                # peak resident set of this process image so far
                "peak_rss_mb": peak_rss_mb,
                # user + sys CPU time of this process so far, all its threads
                "cpu_s": usage.ru_utime + usage.ru_stime,
                # OS threads of this process now, None without /proc
                "os_threads": os_threads,
                # minor page faults of this process so far
                "minor_faults": usage.ru_minflt,
            },
            fh,
            indent=2,
        )
    return {"csv": csv_path, "summary": summary_path, "metadata": meta_path}


# --- configuration ----------------------------------------------------------

_SECTIONS = ("coefficients", "domain", "grid", "tree", "mc", "params")


@dataclass
class ExperimentConfig:
    experiment: str
    coefficients: dict
    domain: dict
    grid: dict
    tree: dict
    mc: dict
    params: dict = field(default_factory=dict)
    output_dir: str = "out"
    workers: int = 1  # always 1, kept so that summary.json keeps its bytes

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The experiment's defaults overlaid with raw, every key typed by
        CONFIG_KEYS, mc.dt_mc dropped (refused if given) where no estimate
        marches at it, then checked by RULES, each handed the config and the
        experiment's record; ConfigError names the first fault."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        name = raw.get("experiment")
        if not isinstance(name, str) or name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; known: {list_experiments()}")
        extra = set(raw) - {"experiment", "output_dir", "workers", *_SECTIONS}
        if extra:
            raise ConfigError(f"unknown config sections: {sorted(extra)}")
        merged = copy.deepcopy(EXPERIMENTS[name].defaults)
        for section in _SECTIONS:
            given, base = raw.get(section, {}), merged.setdefault(section, {})
            if not isinstance(given, dict):
                raise ConfigError(f"config section {section!r} must be a JSON object")
            if section == "coefficients":
                # naming another family replaces the default family wholesale
                if given.get("family", base["family"]) != base["family"]:
                    base.clear()
            elif set(given) - set(base):
                raise ConfigError(f"unknown {section} keys for {name}: "
                                  f"{sorted(set(given) - set(base))}; known: {sorted(base)}")
            base.update(given)
        cfg = cls(name, output_dir=raw.get("output_dir", "out"),
                  workers=raw.get("workers", 1), **merged)
        for (section, key), (check, what) in CONFIG_KEYS.items():
            values = vars(cfg) if section is None else getattr(cfg, section)
            if key in values and not check(values[key]):
                label = key if section is None else f"{section}.{key}"
                raise ConfigError(
                    f"{label} must {what.format(**vars(cfg))}, got {values[key]!r}")
        if "dt_mc" in cfg.mc and not EXPERIMENTS[name].marches_at_dt_mc(cfg):
            if "dt_mc" in raw.get("mc", {}):
                raise ConfigError(f"mc.dt_mc is no key of {name} under the "
                                  f"{cfg.coefficients['family']} family: its drift does not "
                                  f"read x, so every bridged estimate marches at the tree step")
            del cfg.mc["dt_mc"]
        default_leaf = "leaf_bits" in cfg.params and "leaf_bits" not in raw.get("params", {})
        for rule in RULES:
            if rule is _leaf_bits_name_a_leaf and default_leaf:
                # the default leaf on a tree of another depth, which the size
                # guard has bounded by now: its index modulo the leaf count
                n_bits = cfg.d * cfg.tree["n_steps"]
                cfg.params["leaf_bits"] = cfg.params["leaf_bits"][-n_bits:].zfill(n_bits)
            rule(cfg, EXPERIMENTS[name])
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_config(path))

    @property
    def d(self) -> int:
        """How many sigma columns ride on the scenario tree (the built
        coefficients' d); a level on the w1 lattice carries only the first,
        whatever d is."""
        return self.build_coeffs().d

    # object builders -----------------------------------------------------

    def build_coeffs(self):
        fam = dict(self.coefficients)
        return make_family(fam.pop("family"), fam)

    def build_grid(self, nx=None):
        dom, horizon = self.domain, float(self.tree["horizon"])
        domain = DomainSpec(float(dom["a"]), float(dom["b"]), horizon)
        return build_grid(domain, self.grid["nx"] if nx is None else nx)

    def build_tree(self, n_steps=None):
        n_steps = self.tree["n_steps"] if n_steps is None else n_steps
        return build_tree(self.d, n_steps, float(self.tree["horizon"]))


def read_config(path) -> dict:
    """The JSON object in a config file; ConfigError if it cannot be read or is not one."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def list_experiments() -> list:
    return sorted(EXPERIMENTS)


def set_seed(raw: dict, seed) -> None:
    """Set mc.seed in a raw config unless seed is None; an mc that is not an
    object is left for from_dict to reject."""
    if seed is not None and isinstance(raw.setdefault("mc", {}), dict):
        raw["mc"]["seed"] = seed


def default_config(name: str, seed=None, **overrides) -> ExperimentConfig:
    raw = {"experiment": name, **overrides}
    set_seed(raw, seed)
    return ExperimentConfig.from_dict(raw)


# --- shared helpers ---------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """One Monte Carlo estimate of a run, of mc.paths paths: its name in
    summary.json, the step dt they march at (mc.dt_mc or the tree step) and
    whether they are bridged through the scenario tree of the configured
    level."""

    name: str
    dt: float
    bridged: bool


def _coefficient_diagnostics(cfg) -> dict:
    """The coefficient ValidationReport at the configured level, for
    summary.json; validation solves nothing, so the level is not recorded."""
    level = _state_space(cfg, {})
    report = validate(*level, require_superparabolic=EXPERIMENTS[cfg.experiment].superparabolic)
    return dict(asdict(report), passed=report.passed)


def _dirichlet_profile(grid, tree, fn) -> SpaceTimeField:
    fld = SpaceTimeField.from_function(grid, tree, fn)
    for lev in fld.levels:
        lev[[0, -1]] = 0.0
    return fld


def _record_density(diag, dens, grid, tree):
    """Positivity audit of one density solve, for summary.json: per node under
    "density" on the tree, of the conditional means under "lattice_density"
    on the w1 lattice."""
    key = "density" if tree.kind == "tree" else "lattice_density"
    diag.setdefault(key, []).append(
        {"nx": grid.nx, "n_steps": tree.n_steps, "kind": tree.kind,
         "flagged": bool(dens.flagged), "min_density": list(dens.min_density)})


def _unit(x, t, w1, var=0.0):
    """The integrand 1: its functional is the expected exit time.  Like every
    integrand it returns E phi(Y) for Y ~ N(x, var), which is 1 at any var."""
    return np.ones_like(x)


def _gaussian(x, t, w1, var=0.0):
    """The integrand exp(-x^2), or with var its mean over Y ~ N(x, var),
    exp(-x^2 / (1 + 2 var)) / sqrt(1 + 2 var): at var = 0 the bits of
    exp(-x^2), which the PDE side and the conditional rows read.  x is an
    array; the value is worked in one new array, so a march's step maps no
    temporaries afresh."""
    spread = 1.0 + 2.0 * var
    out = np.square(x)
    np.negative(out, out=out)
    out /= spread
    np.exp(out, out=out)
    out /= np.sqrt(spread)
    return out


def _drift_reads_x(cfg) -> bool:
    """Whether the family's drift reads x: only then do the bridged estimates
    of representation-random and density-64-65 march at mc.dt_mc, and only
    then does their config hold it (Experiment.marches_at_dt_mc)."""
    return FAMILIES[cfg.coefficients["family"]].reads_x


def _bridged_dt(cfg, reads_x: bool) -> float:
    """The step a bridged estimate marches at: mc.dt_mc for a drift that
    reads x, frozen on each step at an O(dt_mc) error (Gobet, 2000); else the
    tree step, between whose times each path is a Brownian bridge that
    montecarlo integrates over and weighs by its survival."""
    return float(cfg.mc["dt_mc"]) if reads_x else float(cfg.tree["horizon"]) / cfg.tree["n_steps"]


# --- experiments -------------------------------------------------------------


def _feynman_kac_estimates(cfg) -> list:
    """The exit-time functional, on free paths at mc.dt_mc."""
    return [Estimate("v-vs-monte-carlo", float(cfg.mc["dt_mc"]), False)]


def _exp_feynman_kac_nonrandom(cfg: ExperimentConfig, diag: dict) -> list:
    coeffs, grid, tree = _state_space(cfg, diag)
    phi = _dirichlet_profile(grid, tree, _unit)
    sol = op_L(phi, coeffs, grid, tree)
    ix = _node(grid, cfg.params["x0"])
    v_mid = float(sol.v.levels[0][ix, 0])
    oracle = float(expected_exit_time(float(grid.x[ix]), grid.domain.a, grid.domain.b,
                                      cfg.coefficients["f0"], coeffs.b_total))
    rows = [CheckRow("v-mid-vs-exit-time-oracle", "5.1c", v_mid, oracle, 0.02)]
    kernel_ratio = norm_x0(sol.kernels[0]) / max(norm_x0(phi), 1e-300)
    rows.append(CheckRow("kernels-vanish-nonrandom", "2.1", kernel_ratio, 0.0, 1e-12))
    (mc,) = _feynman_kac_estimates(cfg)
    est = functional_estimate(coeffs, _unit, float(grid.x[ix]), cfg.mc["paths"], cfg.mc["seed"],
                              grid=grid, dt_mc=mc.dt)
    diag["monte_carlo"] = {mc.name: dict(asdict(est), exact=oracle)}
    tol = 3.0 * est.stderr + 0.02
    rows.append(CheckRow("v-vs-monte-carlo", "1.3", v_mid, est.value, tol))
    return rows


def _representation_estimates(cfg, nodes=False) -> list:
    """Two estimates per x point, the control family's (seed tag 0) at each
    point and then the configured family's (1), named at the grid node ix
    the point snaps to, bridged through the tree.  Their integrals march at
    the tree step, each block's bridge integrated in closed form, unless the
    family's drift reads x (the control's never does): then at mc.dt_mc.
    With nodes, (seed tag, ix, Estimate) triples."""
    grid = cfg.build_grid()
    steps = [_bridged_dt(cfg, reads_x) for reads_x in (False, _drift_reads_x(cfg))]
    table = [(tag, ix, Estimate(f"{name}-at-x={grid.x[ix]:+.2f}", steps[tag], True))
             for tag, name in enumerate(("control", "v-vs-mc"))
             for ix in [_node(grid, x) for x in cfg.params["x_points"]]]
    return table if nodes else [est for _, _, est in table]


def _exp_representation_random(cfg: ExperimentConfig, diag: dict) -> list:
    coeffs, grid, tree = _state_space(cfg, diag)
    # the Monte Carlo paths are bridged through the tree of this shape
    shape = (cfg.d, cfg.tree["n_steps"], float(cfg.tree["horizon"]))
    table = _representation_estimates(cfg, nodes=True)
    dt_dx2 = tree.dt + grid.dx**2
    phi = _dirichlet_profile(grid, tree, _gaussian)
    diag["monte_carlo"] = {}

    def one_family(family, seed_tag):
        sol = op_L(phi, family, grid, tree)
        out = []
        for tag, ix, mc in table:
            if tag == seed_tag:
                est = functional_estimate(
                    family, _gaussian, float(grid.x[ix]), cfg.mc["paths"],
                    (cfg.mc["seed"], seed_tag, ix), grid=grid,
                    dt_mc=mc.dt, shape=shape)
                diag["monte_carlo"][mc.name] = asdict(est)
                out.append((mc.name, float(sol.v.levels[0][ix, 0]), est))
        return out

    control = make_family("constant", {"f0": 0.0, "sigma": cfg.coefficients["sigma"],
                                       "d": cfg.d})
    ctrl = one_family(control, 0)
    excess = [max(abs(v - est.value) - 3.0 * est.stderr, 0.0) for _, v, est in ctrl]
    C = max(2.0 * max(excess) / dt_dx2, 0.05)
    rows = []
    for name, v, est in one_family(coeffs, 1):
        tol = 3.0 * est.stderr + C * dt_dx2
        rows.append(CheckRow(name, "5.1a", v, est.value, tol))
    return rows


def _adjoint_pairings(coeffs, grid, tree, seed_pair):
    """{operator: (primal, dual) pairing} for one draw of the test fields
    g and h, and the scale ||g|| ||h|| of their mismatches.  The five duals
    march in lockstep and each is dropped once paired, before the five
    primals march in lockstep too."""
    g = smooth_random_field(grid, tree, seed=seed_pair[0])
    h = smooth_random_field(grid, tree, seed=seed_pair[1])
    scale = norm_x0(g) * norm_x0(h)
    duals = solve_duals(h, coeffs, grid, tree)
    dual = {k: inner_x0(g, duals.pop(k)) for k in "TGBRL"}
    v, kernels, bg, sol = backward_sweep(g, coeffs, grid, tree, phi=g)
    primal = {"T": inner_x0(v, h), "G": inner_x0(kernels[0], h), "B": inner_x0(bg, h),
              "R": inner_x0(sol.g, h), "L": inner_x0(sol.v, h)}
    return {k: (primal[k], dual[k]) for k in "TGBRL"}, scale


_PAIR_ANCHORS = {"T": "2.8", "G": "3.1", "B": "3.3", "R": "3.5", "L": "3.7"}


def _exp_adjoint_suite(cfg: ExperimentConfig, diag: dict) -> list:
    p = cfg.params
    n_draws = p["n_draws"]
    seed = cfg.mc["seed"]
    # field-draw seed pairs derive deterministically from the config seed
    seed_pairs = [((seed, 2 * i), (seed, 2 * i + 1)) for i in range(n_draws)]
    levels = [_state_space(cfg, diag), _state_space(cfg, diag, p["fine_nx"], p["fine_n_steps"])]
    coarse, fine = ({k: 0.0 for k in "TGBRL"} for _ in range(2))
    # a fine-level mismatch checks nothing where the pairings underflow to 0
    # (or overflow): each must be finite and nonzero
    fine_ok = dict.fromkeys("TGBRL", True)
    for pair in seed_pairs:
        for level, mean in zip(levels, (coarse, fine)):
            pairs, scale = _adjoint_pairings(*level, pair)
            for k, (primal, dual) in pairs.items():
                mean[k] += abs(primal - dual) / scale / n_draws
                if mean is fine:
                    fine_ok[k] &= all(0.0 < abs(v) < np.inf for v in (primal, dual))
    rows = []
    for k in "TGBRL":
        anchor = _PAIR_ANCHORS[k]
        rows.append(_ratio_row(f"pair-{k}-refinement-decrease", anchor,
                               coarse[k], fine[k], coarse[k] / 1.7))
        rows.append(CheckRow(f"pair-{k}-fine-level-mismatch", anchor, fine[k], 0.0, 5.0e-2,
                             bool(fine_ok[k] and fine[k] <= 5.0e-2)))
    return rows


# solvability-R's residual bound: solve_R iterates down to it, and the
# residual rows check it
_RESIDUAL_TOL = 1.0e-8


def _exp_solvability_R(cfg: ExperimentConfig, diag: dict) -> list:
    coeffs, grid, tree = _state_space(cfg, diag)
    phi = smooth_random_field(grid, tree, seed=cfg.mc["seed"])
    g_a, info_a = solve_R(phi, coeffs, grid, tree, tol=_RESIDUAL_TOL,
                          x0=SpaceTimeField.zeros(grid, tree))
    # a start independent of phi: undamped, the zero start's first iterate is
    # phi, so a phi start would retrace it and the agreement would read 0
    start = smooth_random_field(grid, tree, seed=(cfg.mc["seed"], 1))
    g_b, info_b = solve_R(phi, coeffs, grid, tree, tol=_RESIDUAL_TOL, x0=start)
    tol = _RESIDUAL_TOL * norm_x0(phi)
    rows = [CheckRow(f"residual-from-{name}-start", "4.1", info["residual"], 0.0, tol)
            for name, info in (("zero", info_a), ("random", info_b))]
    agreement = norm_x0(g_a - g_b) / max(norm_x0(g_a), 1e-300)
    rows.append(CheckRow("iterate-agreement", "4.1", agreement, 0.0, 1.0e-7))
    g_direct = op_L(phi, coeffs, grid, tree).g
    direct = norm_x0(g_a - g_direct) / max(norm_x0(g_direct), 1e-300)
    rows.append(CheckRow("iterate-vs-direct", "4.1", direct, 0.0, 1.0e-7))
    # constructive range-density probe: a fresh random target is approximated
    # by images (I+B)g_k with strictly improving residuals down to tol
    target = smooth_random_field(grid, tree, seed=(cfg.mc["seed"], 99))
    _, info_c = solve_R(target, coeffs, grid, tree, tol=_RESIDUAL_TOL)
    diag["solve_R"] = {
        name: {"iterations": info["iterations"], "residual_history": info["residual_history"]}
        for name, info in (("zero-start", info_a), ("random-start", info_b),
                           ("range-density-probe", info_c))
    }
    hist = info_c["residual_history"]
    shrinking = all(b < a for a, b in zip(hist, hist[1:]))
    rows.append(CheckRow("range-density-probe", "4.2",
                         hist[-1], 0.0, _RESIDUAL_TOL * norm_x0(target),
                         shrinking and hist[-1] <= _RESIDUAL_TOL * norm_x0(target)))
    return rows


def _duality_gap(cfg, coeffs, grid, tree):
    """(lhs, rhs, sol, dens, phi) of the duality identity at one level; on
    the w1 lattice both sides are exact, since phi and p0 read the path only
    through w1."""
    p0 = _gaussian_density(grid, cfg.params["p0_width"])
    phi = smooth_random_field(grid, tree, seed=cfg.mc["seed"])
    sol = op_L(phi, coeffs, grid, tree)
    dens = solve_density(p0, coeffs, grid, tree)
    lhs = h0_inner(p0, sol.v.levels[0][:, 0], grid)
    rhs = inner_x0(dens.p, phi)
    return lhs, rhs, sol, dens, phi


def _exp_duality_63(cfg: ExperimentConfig, diag: dict) -> list:
    p = cfg.params
    # the coarse level's node checks read per-node densities: the tree
    coeffs, grid, tree = _state_space(cfg, diag, lattice=False)
    lhs_c, rhs_c, sol, dens, phi = _duality_gap(cfg, coeffs, grid, tree)
    _record_density(diag, dens, grid, tree)
    gap_c = abs(lhs_c - rhs_c)
    scale = max(norm_x0(phi), 1e-300)
    budget = 0.5 * (tree.dt + grid.dx**2) * scale
    rows = [CheckRow("gap-at-s0-coarse", "6.3", lhs_c, rhs_c, budget)]
    # node-conditioned identity at mid-horizon nodes
    k = tree.n_steps // 2
    cond = [np.zeros(tree.n_nodes(m)) for m in range(tree.n_steps + 1)]
    for m in range(tree.n_steps - 1, k - 1, -1):
        per_node = tree.dt * grid.dx * np.einsum(
            "xn,xn->n", dens.p.levels[m], phi.levels[m]
        )
        child_mean = cond[m + 1].reshape(tree.n_nodes(m), -1).mean(axis=1)
        cond[m] = per_node + child_mean
    node_budget = 2.0 * budget
    for node in range(p["node_checks"]):
        lhs_n = h0_inner(dens.p.levels[k][:, node], sol.v.levels[k][:, node], grid)
        rhs_n = float(cond[k][node])
        rows.append(CheckRow(f"gap-at-node-{k}:{node}", "6.3", lhs_n, rhs_n, node_budget))
    del sol, dens, phi
    coeffs, grid, tree = _state_space(cfg, diag, p["fine_nx"], p["fine_n_steps"])
    lhs_f, rhs_f, _, dens, _ = _duality_gap(cfg, coeffs, grid, tree)
    _record_density(diag, dens, grid, tree)
    gap_f = abs(lhs_f - rhs_f)
    rows.append(_ratio_row("gap-halving-under-refinement", "6.3", gap_c, gap_f, 0.62 * gap_c))
    return rows


def _density_estimates(cfg) -> list:
    """6.4's conditional estimate and 6.5's unconditional one, both bridged.
    For a drift that does not read x both march at the tree step (README):
    the conditional rows read tree times only, each path weighed by its
    bridges' survival (montecarlo.conditional_functional), and 6.5's
    integral takes each block's bridge in closed form, weighed the same way
    (montecarlo.functional_estimate).  A drift that reads x marches both at
    mc.dt_mc."""
    dt = _bridged_dt(cfg, _drift_reads_x(cfg))
    return [Estimate("conditional-identity", dt, True),
            Estimate("unconditional-identity", dt, True)]


def _exp_density_64_65(cfg: ExperimentConfig, diag: dict) -> list:
    p = cfg.params
    # the leaf-path density, its mass trace and per-node audit: the tree
    coeffs, grid, tree = _state_space(cfg, diag, lattice=False)
    p0 = _gaussian_density(grid, p["p0_width"])
    leaf = int(p["leaf_bits"], 2)
    dens = solve_density(p0, coeffs, grid, tree)
    _record_density(diag, dens, grid, tree)
    anc = tree.leaf_path(leaf)
    levels = [int(round(t / tree.dt)) for t in p["t_points"]]
    pdes = [h0_inner(dens.p.levels[k][:, anc[k]], _gaussian(grid.x, t, None), grid)
            for t, k in zip(p["t_points"], levels)]
    worst_mass = np.array([dens.mass[k].max() for k in range(tree.n_steps + 1)])
    _, _, lattice = _state_space(cfg, diag)
    sol = op_L(_dirichlet_profile(grid, lattice, _gaussian), coeffs, grid, lattice)
    lhs = h0_inner(p0, sol.v.levels[0][:, 0], grid)
    del dens, sol  # neither Monte Carlo estimate reads the solves
    cond_mc, uncond_mc = _density_estimates(cfg)
    cond = conditional_functional(
        coeffs, _gaussian, leaf, p["t_points"], cfg.mc["paths"], cfg.mc["seed"],
        shape=tree.shape, grid=grid, p0=p0, dt_mc=cond_mc.dt)
    # one march, one estimate per t_point
    diag["monte_carlo"] = {cond_mc.name: dict(asdict(cond[0]), value=[e.value for e in cond],
                                              stderr=[e.stderr for e in cond])}
    rows = [CheckRow(f"conditional-identity-t={t:g}", "6.4", pde, est.value,
                     0.05, abs(pde - est.value) / max(abs(pde), 1e-300) <= 0.05)
            for est, t, pde in zip(cond, p["t_points"], pdes)]
    est = functional_estimate(coeffs, _gaussian, p0, cfg.mc["paths"], (cfg.mc["seed"], 65),
                              grid=grid, dt_mc=uncond_mc.dt, shape=tree.shape)
    diag["monte_carlo"][uncond_mc.name] = asdict(est)
    tol = 3.0 * est.stderr + 0.02
    rows.append(CheckRow("unconditional-identity", "6.5", lhs, est.value, tol))
    mass_ok = bool(np.all(np.diff(worst_mass) < 1e-8))
    rows.append(CheckRow("mass-trace-monotone", "6.1",
                         float(worst_mass[-1]), float(worst_mass[0]),
                         1e-8, mass_ok))
    return rows


def _exp_norm_bounds(cfg: ExperimentConfig, diag: dict) -> list:
    p = cfg.params

    def ratios(nx, n_steps):
        coeffs, grid, tree = _state_space(cfg, diag, nx, n_steps)
        rc, rx = 0.0, 0.0
        for i in range(p["n_fields"]):
            phi = smooth_random_field(grid, tree, seed=(cfg.mc["seed"], i))
            sol = op_L(phi, coeffs, grid, tree)
            nphi = max(norm_x0(phi), 1e-300)
            rc = max(rc, norm_c0(sol.v) / nphi)
            rx = max(rx, norm_xk(sol.v, 1) / nphi)
        return rc, rx

    rc_c, rx_c = ratios(cfg.grid["nx"], cfg.tree["n_steps"])
    rc_f, rx_f = ratios(p["fine_nx"], p["fine_n_steps"])
    return [_ratio_row("c0-over-x0-ratio-growth", "C5.1", rc_c, rc_f, 1.5 * rc_c),
            _ratio_row("x1-over-x0-ratio-growth", "2.2", rx_c, rx_f, 1.5 * rx_c)]


@dataclass(frozen=True)
class Experiment:
    """checks(config, diagnostics) returns the rows, recording solver diagnostics;
    defaults are the acceptance settings; fields_on_tree: it names a node or a
    path's density of the configured level, whose fields it then holds on the
    scenario tree; superparabolic: it solves R*, L* or the density equation;
    estimates(config): the run's Monte Carlo estimates in the order it makes
    them, one Estimate each, of mc.paths paths.  That table alone decides
    each estimate's mesh and bridge: the run passes them to the estimators,
    one load rule (config._estimates_fit) reads it, once per load, and
    summary.json takes its names; marches_at_dt_mc(config): whether an
    estimate marches at mc.dt_mc, which the config holds only then (where
    the defaults do)."""

    checks: Callable
    defaults: dict
    fields_on_tree: bool = False
    superparabolic: bool = False
    estimates: Callable = lambda config: []
    marches_at_dt_mc: Callable = lambda config: True


_DRIFT_RANDOM = {"family": "drift-random", "kappa": 0.25, "sigma": [0.6, 0.8], "d": 1}

EXPERIMENTS = {
    "feynman-kac-nonrandom": Experiment(_exp_feynman_kac_nonrandom, {
        "coefficients": {"family": "constant", "f0": 0.0, "sigma": [1.0], "d": 1},
        "domain": {"a": 0.0, "b": 1.0},
        "grid": {"nx": 201}, "tree": {"n_steps": 8, "horizon": 4.0},
        "mc": {"paths": 100000, "dt_mc": 0.04, "seed": 424242},
        "params": {"x0": 0.5},
    }, estimates=_feynman_kac_estimates),
    "representation-random": Experiment(_exp_representation_random, {
        "coefficients": _DRIFT_RANDOM,
        "domain": {"a": -8.0, "b": 8.0},
        "grid": {"nx": 161}, "tree": {"n_steps": 10, "horizon": 1.0},
        "mc": {"paths": 20000, "dt_mc": 2.0e-3, "seed": 1357},
        "params": {"x_points": [-1.0, -0.5, 0.0, 0.5, 1.0]},
    }, estimates=_representation_estimates, marches_at_dt_mc=_drift_reads_x),
    "adjoint-suite": Experiment(_exp_adjoint_suite, {
        "coefficients": _DRIFT_RANDOM,
        "domain": {"a": 0.0, "b": 8.0},
        "grid": {"nx": 101}, "tree": {"n_steps": 8, "horizon": 1.0},
        "mc": {"seed": 11},
        "params": {"fine_nx": 201, "fine_n_steps": 16, "n_draws": 3},
    }, superparabolic=True),
    "solvability-R": Experiment(_exp_solvability_R, {
        "coefficients": _DRIFT_RANDOM,
        "domain": {"a": 0.0, "b": 8.0},
        "grid": {"nx": 101}, "tree": {"n_steps": 10, "horizon": 1.0},
        "mc": {"seed": 2468},
    }),
    "duality-63": Experiment(_exp_duality_63, {
        "coefficients": _DRIFT_RANDOM,
        "domain": {"a": -8.0, "b": 8.0},
        "grid": {"nx": 101}, "tree": {"n_steps": 8, "horizon": 1.0},
        "mc": {"seed": 6},
        "params": {"fine_nx": 201, "fine_n_steps": 16, "p0_width": 0.5, "node_checks": 2},
    }, fields_on_tree=True, superparabolic=True),
    "density-64-65": Experiment(_exp_density_64_65, {
        "coefficients": _DRIFT_RANDOM,
        "domain": {"a": -8.0, "b": 8.0},
        "grid": {"nx": 161}, "tree": {"n_steps": 10, "horizon": 1.0},
        "mc": {"paths": 100000, "dt_mc": 2.0e-3, "seed": 97531},
        "params": {"p0_width": 0.5, "t_points": [0.4, 0.6, 0.8, 1.0], "leaf_bits": "1010101010"},
    }, fields_on_tree=True, superparabolic=True, estimates=_density_estimates,
        marches_at_dt_mc=_drift_reads_x),
    "norm-bounds": Experiment(_exp_norm_bounds, {
        "coefficients": _DRIFT_RANDOM,
        "domain": {"a": -8.0, "b": 8.0},
        "grid": {"nx": 101}, "tree": {"n_steps": 8, "horizon": 1.0},
        "mc": {"seed": 100},
        "params": {"fine_nx": 201, "fine_n_steps": 12, "n_fields": 10},
    }),
}


def run(config: ExperimentConfig, write: bool = True) -> ExperimentReport:
    """Execute the named experiment and (optionally) write its report files."""
    start = time.perf_counter()
    if write:  # an output_dir that cannot be a directory fails before any solve
        Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    diagnostics = {"coefficients": _coefficient_diagnostics(config)}
    rows = EXPERIMENTS[config.experiment].checks(config, diagnostics)
    report = ExperimentReport(
        experiment=config.experiment,
        rows=rows,
        config=asdict(config),
        elapsed=time.perf_counter() - start,
        diagnostics=diagnostics,
    )
    if write:
        write_report(report, config.output_dir)
    return report
