import json
import math
from pathlib import Path

import pytest

from spdelab import harness, montecarlo
from spdelab.cli import main
from spdelab.harness import (
    CONFIG_KEYS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    default_config,
    list_experiments,
    run,
)
from spdelab.tree import draw_threads


def small_solvability(seed=2468, **over):
    raw = {
        "experiment": "solvability-R",
        "grid": {"nx": 41},
        "tree": {"n_steps": 5, "horizon": 1.0},
        "mc": {"seed": seed},
    }
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


def test_list_experiments_complete():
    assert list_experiments() == sorted([
        "feynman-kac-nonrandom", "representation-random", "adjoint-suite",
        "solvability-R", "duality-63", "density-64-65", "norm-bounds",
    ])


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig.from_dict({"experiment": "spectral-gap"})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict({
            "experiment": "solvability-R", "mc": {"seed": None},
        })
    with pytest.raises(ConfigError, match="section 'mc'"):
        default_config("solvability-R", seed=3, mc=5)
    with pytest.raises(ConfigError, match="d <= d0"):
        ExperimentConfig.from_dict({
            "experiment": "solvability-R",
            "coefficients": {"family": "drift-random", "kappa": 0.1,
                             "sigma": [1.0], "d": 2},
            "mc": {"seed": 1},
        })
    with pytest.raises(ConfigError, match="unknown config sections"):
        ExperimentConfig.from_dict({"experiment": "solvability-R", "mesh": {}})
    with pytest.raises(ConfigError, match="workers"):
        ExperimentConfig.from_dict({
            "experiment": "solvability-R", "mc": {"seed": 1}, "workers": 0,
        })
    with pytest.raises(ConfigError, match="workers"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "workers": None})
    with pytest.raises(ConfigError, match="mc.seed"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "mc": {"seed": "abc"}})
    with pytest.raises(ConfigError, match="unknown grid keys"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "grid": {"nxx": 5}})
    # check bounds are fixed by their experiments, not set in a config
    with pytest.raises(ConfigError, match="unknown config sections"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "solver": {"tol": 1e-9}})
    with pytest.raises(ConfigError, match="unknown config sections"):
        ExperimentConfig.from_dict({"experiment": "solvability-R", "solver": {"theta": 0.5}})
    with pytest.raises(ConfigError, match="unknown params keys"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "params": {"growth_bound": 9.0}})
    # the tree-only experiments draw no paths, so they have no mc.paths to set
    with pytest.raises(ConfigError, match="unknown mc keys"):
        ExperimentConfig.from_dict({"experiment": "adjoint-suite", "mc": {"paths": 100000}})
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ExperimentConfig.from_dict({"experiment": "solvability-R", "grid": 5})
    with pytest.raises(ConfigError, match="nx too small"):
        ExperimentConfig.from_dict({"experiment": "adjoint-suite", "params": {"fine_nx": 4}})
    # the size guard, in states, on the state space the run builds: norm-bounds'
    # fine level is a w1 lattice, duality-63's configured level a tree
    with pytest.raises(ConfigError, match="lattice of n_steps=511 would hold 131,328 states"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "params": {"fine_n_steps": 511}})
    with pytest.raises(ConfigError, match="d=1 tree of n_steps=17 would hold 262,143 states"):
        ExperimentConfig.from_dict({"experiment": "duality-63", "tree": {"n_steps": 17}})
    with pytest.raises(ConfigError, match="d=2 tree of n_steps=9 would hold 349,525 states"):
        ExperimentConfig.from_dict({"experiment": "adjoint-suite", "tree": {"n_steps": 9},
                                    "coefficients": {"sigma": [0.6, 0.8], "d": 2}})
    for name, over in [("feynman-kac-nonrandom", {"tree": {"n_steps": 40}}),
                       ("solvability-R", {"tree": {"n_steps": 20}}),
                       ("adjoint-suite", {"params": {"fine_n_steps": 510}})]:
        ExperimentConfig.from_dict({"experiment": name, **over})
    for bad in BAD_AT_LOAD:
        with pytest.raises(ConfigError, match=bad["match"]):
            ExperimentConfig.from_dict(bad["config"])


# settings that used to pass validation and fail only after the solver work,
# or, for the tridiagonal solver's dominance check, solve without pivoting on a matrix
# that is not diagonally dominant
BAD_AT_LOAD = [
    {"match": "diagonal dominance", "config": {
        "experiment": "norm-bounds",
        "coefficients": {"family": "drift-random", "kappa": 50.0, "sigma": [0.06, 0.08], "d": 1},
        "grid": {"nx": 21}}},
    {"match": "mc.paths", "config": {
        "experiment": "feynman-kac-nonrandom", "mc": {"paths": 0},
        "grid": {"nx": 21}, "tree": {"n_steps": 3}}},
    {"match": "mc.paths", "config": {"experiment": "representation-random", "mc": {"paths": 2.5}}},
    {"match": "mc.dt_mc", "config": {"experiment": "density-64-65", "mc": {"dt_mc": 0}}},
    {"match": "divide the horizon", "config": {
        "experiment": "density-64-65", "mc": {"dt_mc": 0.003},
        "grid": {"nx": 21}, "tree": {"n_steps": 3}}},
    {"match": "divide the tree step", "config": {
        "experiment": "representation-random", "mc": {"dt_mc": 0.01}, "tree": {"n_steps": 3}}},
    # 0.45 is not a tree time (dt = 0.1), 1.5 is past the horizon
    {"match": "t_points", "config": {"experiment": "density-64-65", "params": {"t_points": [0.4, 0.45]}}},
    {"match": "t_points", "config": {"experiment": "density-64-65", "params": {"t_points": [0.4, 1.5]}}},
    # no conditional-identity rows at all
    {"match": "t_points", "config": {"experiment": "density-64-65", "params": {"t_points": []}}},
    {"match": "x_points", "config": {"experiment": "representation-random", "params": {"x_points": []}}},
    # zero draws or fields pass every row vacuously
    {"match": "n_draws", "config": {"experiment": "adjoint-suite", "params": {"n_draws": 0}}},
    {"match": "n_fields", "config": {"experiment": "norm-bounds", "params": {"n_fields": 0}}},
    # level 4 of the default duality-63 tree has 16 nodes
    {"match": "node_checks", "config": {"experiment": "duality-63", "params": {"node_checks": 17}}},
    {"match": "node_checks", "config": {"experiment": "duality-63", "params": {"node_checks": 0}}},
    # a point on or past the boundary snaps to a boundary node, where the
    # solution and the exit-time oracle are both 0
    {"match": "params.x0", "config": {"experiment": "feynman-kac-nonrandom", "params": {"x0": 5.0}}},
    {"match": "params.x0", "config": {"experiment": "feynman-kac-nonrandom", "params": {"x0": 0.0}}},
    {"match": "params.x0", "config": {"experiment": "feynman-kac-nonrandom", "params": {"x0": 1}}},
    {"match": "params.x0", "config": {"experiment": "feynman-kac-nonrandom", "params": {"x0": "0.5"}}},
    {"match": "params.x_points", "config": {
        "experiment": "representation-random", "params": {"x_points": [0.0, "a"]}}},
    {"match": "params.x_points", "config": {
        "experiment": "representation-random", "params": {"x_points": [-8.0, 0.0]}}},
    {"match": "params.x_points", "config": {
        "experiment": "representation-random", "params": {"x_points": [0.0, float("nan")]}}},
    # the exit-time oracle is the closed form for a constant drift
    {"match": "constant family", "config": {
        "experiment": "feynman-kac-nonrandom",
        "coefficients": {"family": "drift-random", "kappa": 0.25, "sigma": [0.6, 0.8], "d": 1}}},
]


# each of these used to say "config ok" and then run, fail late or run
# something other than what was asked
@pytest.mark.parametrize("config, message", [
    ({"experiment": "density-64-65", "params": {"p0_width": 0}}, "params.p0_width"),
    ({"experiment": "duality-63", "params": {"p0_width": -1}}, "params.p0_width"),
    ({"experiment": "density-64-65", "params": {"p0_width": "x"}}, "params.p0_width"),
    ({"experiment": "density-64-65", "params": {"leaf_bits": "abc"}}, "params.leaf_bits"),
    # int() would truncate it and run at nx = 101
    ({"experiment": "density-64-65", "grid": {"nx": 101.9}}, "grid.nx must be an integer"),
    ({"experiment": "duality-63", "params": {"fine_nx": 81}}, "params.fine_nx=81 is below"),
    # strings and bools are not numbers: they used to be echoed or coerced
    ({"experiment": "solvability-R", "tree": {"horizon": "1"}}, "tree.horizon must be"),
    ({"experiment": "solvability-R", "tree": {"horizon": True}}, "tree.horizon must be"),
    ({"experiment": "adjoint-suite", "domain": {"a": "0"}}, "domain.a must be"),
    ({"experiment": "solvability-R", "domain": {"b": "8"}}, "domain.b must be"),
    ({"experiment": "duality-63", "coefficients": {"kappa": "0.25"}}, "coefficients.kappa must be"),
    ({"experiment": "duality-63", "coefficients": {"kappa": True}}, "coefficients.kappa must be"),
    # make_family would truncate it to d = 1
    ({"experiment": "norm-bounds", "coefficients": {"d": 1.5}}, "coefficients.d must be"),
    # make_family's family lookup would raise TypeError (exit 1)
    ({"experiment": "norm-bounds", "coefficients": {"family": ["space-smooth"], "sigma": [1.0]}},
     "coefficients.family must be"),
    # one bit per tree step: these used to wrap modulo the 2**10 leaves
    ({"experiment": "density-64-65", "params": {"leaf_bits": "11010101010"}},
     "params.leaf_bits must have d * tree.n_steps = 10 bits"),
    ({"experiment": "density-64-65", "params": {"leaf_bits": "1"}},
     "params.leaf_bits must have d * tree.n_steps = 10 bits"),
    # used to fail in write_report, after the whole solve
    ({"experiment": "solvability-R", "output_dir": 5}, "output_dir must be a non-empty string"),
    # used to raise numpy's memory error (exit 1) or build an 8 GB grid at load
    ({"experiment": "solvability-R", "grid": {"nx": 10**13}}, "grid.nx must be an integer in"),
    ({"experiment": "density-64-65", "grid": {"nx": 10**9}}, "grid.nx must be an integer in"),
    # refused by the size guard before the default leaf is padded to 10**12 bits
    ({"experiment": "density-64-65", "tree": {"n_steps": 10**12}},
     "a d=1 tree of n_steps=1000000000000 would hold more than 2**63 states"),
], ids=["p0_width=0", "p0_width=-1", "p0_width=x", "leaf_bits=abc", "nx=101.9",
        "fine_nx<nx", "horizon=str", "horizon=true", "a=str", "b=str", "kappa=str",
        "kappa=true", "d=1.5", "family=list", "leaf_bits=11bits", "leaf_bits=1bit", "output_dir=5",
        "nx=1e13", "nx=1e9", "n_steps=1e12"])
def test_bad_inputs_exit_2_at_load(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["validate-config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_default_leaf_follows_the_tree_depth():
    # the default leaf 1010101010 (682) keeps its index modulo the leaf count
    # on a shallower tree; a given leaf_bits must fit the tree exactly
    assert default_config("density-64-65").params["leaf_bits"] == "1010101010"
    cfg = default_config("density-64-65", tree={"n_steps": 5})
    assert cfg.params["leaf_bits"] == format(682 % 2**5, "05b") == "01010"
    cfg = default_config("density-64-65", tree={"n_steps": 5}, params={"leaf_bits": "10101"})
    assert cfg.params["leaf_bits"] == "10101"
    with pytest.raises(ConfigError, match="params.leaf_bits must have d . tree.n_steps = 5"):
        default_config("density-64-65", tree={"n_steps": 5}, params={"leaf_bits": "1010101010"})


def test_config_keys_type_every_default_and_are_documented():
    # every key an experiment's defaults hold is typed by the key table, and
    # the README's config paragraph names each key of the table
    typed = {f"{section}.{key}" for section, key in CONFIG_KEYS if section is not None}
    for name, record in EXPERIMENTS.items():
        for section, values in record.defaults.items():
            assert {f"{section}.{key}" for key in values} <= typed, name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("A config file names the experiment")[1].split("\n## ")[0]
    for section, key in CONFIG_KEYS:
        assert f"`{key if section is None else f'{section}.{key}'}`" in paragraph, key


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_load_builds_a_tree_only_where_a_path_is_named(monkeypatch, name):
    # loading builds each level on the state space its run solves it on: a
    # tree only at the configured level of the three experiments that name a
    # path or a node on it, the w1 lattice everywhere else
    built, build_tree = [], harness.build_tree

    def counted(d, n_steps, horizon):
        built.append(n_steps)
        return build_tree(d, n_steps, horizon)

    monkeypatch.setattr(harness, "build_tree", counted)
    cfg = ExperimentConfig.from_dict({"experiment": name})
    on_tree = name in ("representation-random", "duality-63", "density-64-65")
    assert EXPERIMENTS[name].on_tree == on_tree
    assert built == ([cfg.tree["n_steps"]] if on_tree else [])


def test_fine_levels_may_not_be_coarser():
    with pytest.raises(ConfigError, match="params.fine_n_steps=6 is below tree.n_steps=8"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "params": {"fine_n_steps": 6}})
    with pytest.raises(ConfigError, match="tree.n_steps must be an integer"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "tree": {"n_steps": 8.5}})
    # equal levels are allowed: a refinement in time alone
    cfg = ExperimentConfig.from_dict({"experiment": "duality-63", "params": {"fine_nx": 101}})
    assert cfg.params["fine_nx"] == cfg.grid["nx"]


@pytest.mark.parametrize("name, key, a, b, inside, outside", [
    ("feynman-kac-nonrandom", "x0", 0.0, 1.0, [1e-9, 0.999], [0.0, 1.0, -0.2, True, [0.5]]),
    # the bounds follow the configured domain
    ("feynman-kac-nonrandom", "x0", 1.0, 3.0, [2.5], [0.5, 3.0]),
    ("representation-random", "x_points", -8.0, 8.0, [[-7.9, 0, 7.9]],
     [[-8.0], [8.0], [0.0, 9.0], [0.0, None], [0.0, False]]),
])
def test_points_must_lie_strictly_inside_the_domain(name, key, a, b, inside, outside):
    raw = {"experiment": name, "domain": {"a": a, "b": b}}
    for points in inside:
        cfg = ExperimentConfig.from_dict({**raw, "params": {key: points}})
        assert cfg.params[key] == points
    for points in outside:
        with pytest.raises(ConfigError, match=rf"params\.{key} must hold real numbers strictly "
                                              rf"inside the domain \({a:g}, {b:g}\)"):
            ExperimentConfig.from_dict({**raw, "params": {key: points}})


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A config file names the experiment")[1].split("```json\n")[1]
    raw = json.loads(block.split("```")[0])
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.experiment == raw["experiment"] and cfg.mc == raw["mc"]


def test_dominance_is_checked_on_the_fine_pair_too():
    # 2 dt (K1/(2dx) - b/(2dx^2)) is 0.889 at the coarse pair (nx=101, 8
    # steps) and 1.12 at the fine one (nx=201, 12 steps)
    coefficients = {"family": "drift-random", "kappa": 1.2, "sigma": [0.06, 0.08], "d": 1}
    with pytest.raises(ConfigError, match="nx=201 with n_steps=12"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "coefficients": coefficients})
    ExperimentConfig.from_dict({"experiment": "norm-bounds", "coefficients": coefficients,
                                "params": {"fine_n_steps": 16}})


def test_free_paths_need_only_the_horizon_divided():
    # feynman-kac-nonrandom marches free paths: a tree step of 4/3 is fine
    cfg = ExperimentConfig.from_dict({
        "experiment": "feynman-kac-nonrandom", "mc": {"dt_mc": 0.01}, "tree": {"n_steps": 3},
    })
    assert cfg.mc["dt_mc"] == 0.01


def test_config_switches_coefficient_family():
    cfg = ExperimentConfig.from_dict({
        "experiment": "norm-bounds",
        "coefficients": {"family": "space-smooth", "a": 0.3, "eps": 0.5,
                         "sigma": [0.6, 0.8], "d": 1},
    })
    assert cfg.coefficients == {"family": "space-smooth", "a": 0.3, "eps": 0.5,
                                "sigma": [0.6, 0.8], "d": 1}
    assert cfg.build_coeffs().d0 == 2


def test_defaults_fill_in():
    cfg = default_config("solvability-R")
    assert cfg.mc["seed"] == 2468
    assert cfg.coefficients["family"] == "drift-random"


def test_run_writes_deterministic_reports(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = small_solvability(output_dir=str(out_a))
    rep = run(cfg)
    assert rep.passed
    cfg2 = small_solvability(output_dir=str(out_b))
    run(cfg2)
    body_a = (out_a / "report.csv").read_bytes()
    body_b = (out_b / "report.csv").read_bytes()
    assert body_a == body_b
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["experiment"] == "solvability-R"
    header = body_a.decode().splitlines()[0]
    assert header == "experiment,check,paper_anchor,lhs,rhs,abs_err,rel_err,tol,pass"
    meta = json.loads((out_a / "metadata.json").read_text())
    assert "timestamp" in meta and "numpy_version" in meta
    assert meta["peak_rss_mb"] > 0
    # the draw threads vary with the machine, so only metadata.json names them
    assert meta["draw_threads"] == draw_threads() >= 1
    assert "draw_threads" not in (out_a / "summary.json").read_text()


@pytest.mark.parametrize("over, x", [
    ({"params": {"x0": 0.3}}, 0.3),
    ({"coefficients": {"sigma": [2.0]}}, 0.5),
    ({"coefficients": {"f0": -2.0, "sigma": [0.6, 0.8]}, "params": {"x0": 0.3}}, 0.3),
    ({"coefficients": {"f0": 1.5}}, 0.5),
])
def test_exit_time_oracle_follows_the_config(over, x):
    # the oracle solves (b/2) u'' + f0 u' = -1, u(0) = u(1) = 0, at grid node x
    cfg = ExperimentConfig.from_dict({
        "experiment": "feynman-kac-nonrandom", "grid": {"nx": 41}, "tree": {"n_steps": 4},
        "mc": {"paths": 200, "dt_mc": 1.0e-2}, **over,
    })
    row = run(cfg, write=False).rows[0]
    assert row.check == "v-mid-vs-exit-time-oracle" and row.passed
    f0, b = cfg.coefficients["f0"], sum(s * s for s in cfg.coefficients["sigma"])
    if f0 == 0.0:
        assert row.rhs == pytest.approx(x * (1.0 - x) / b, rel=1e-12)
    else:
        k = 2.0 * f0 / b
        assert row.rhs == pytest.approx((1.0 - math.exp(-k * x)) / (1.0 - math.exp(-k)) / f0
                                        - x / f0, rel=1e-12)
    # the tree solver is an independent check of the formula
    assert abs(row.lhs - row.rhs) < 1e-3


def test_summary_config_loads_back(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "duality-63", "grid": {"nx": 41}, "tree": {"n_steps": 4},
        "params": {"fine_nx": 61, "fine_n_steps": 6, "node_checks": 3},
        "output_dir": str(tmp_path),
    })
    run(cfg)
    echo = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert ExperimentConfig.from_dict(echo) == cfg


def test_summary_diagnostics(tmp_path):
    # solver diagnostics land in summary.json, and a rerun of the same
    # config writes the same bytes
    runs = [
        (small_solvability(output_dir=str(tmp_path / "r")), ["solve_R", "state_space"]),
        (ExperimentConfig.from_dict({
            "experiment": "duality-63", "grid": {"nx": 41}, "tree": {"n_steps": 4},
            "params": {"fine_nx": 61, "fine_n_steps": 6}, "output_dir": str(tmp_path / "d"),
        }), ["density", "lattice_density", "state_space"]),
    ]
    for cfg, keys in runs:
        run(cfg)
        first = (Path(cfg.output_dir) / "summary.json").read_bytes()
        run(cfg)
        assert (Path(cfg.output_dir) / "summary.json").read_bytes() == first
        diagnostics = json.loads(first)["diagnostics"]
        assert list(diagnostics) == ["coefficients", *keys]
    solves = json.loads((tmp_path / "r" / "summary.json").read_text())["diagnostics"]["solve_R"]
    assert sorted(solves) == ["random-start", "range-density-probe", "zero-start"]
    for info in solves.values():
        assert info["iterations"] == len(info["residual_history"]) >= 1
    diagnostics = json.loads((tmp_path / "d" / "summary.json").read_text())["diagnostics"]
    audits = diagnostics["density"] + diagnostics["lattice_density"]
    assert [(a["nx"], a["n_steps"], a["kind"]) for a in audits] == [(41, 4, "tree"),
                                                                    (61, 6, "lattice")]
    # the coarse density dips below -1e-3 of its peak; the fine level's
    # conditional means do not
    assert [a["flagged"] for a in audits] == [True, False]
    for audit in audits:
        assert len(audit["min_density"]) == audit["n_steps"] + 1


MC_SMALL = {"grid": {"nx": 41}, "tree": {"n_steps": 5}, "mc": {"paths": 2000, "dt_mc": 1.0e-2}}


@pytest.mark.parametrize("name, over, estimates", [
    ("density-64-65", MC_SMALL, ["conditional-identity", "unconditional-identity"]),
    ("representation-random", {**MC_SMALL, "params": {"x_points": [0.0]}},
     ["control-at-x=+0.00", "v-vs-mc-at-x=+0.00"]),
    ("feynman-kac-nonrandom", {"grid": {"nx": 41}, "tree": {"n_steps": 4},
                               "mc": {"paths": 30000, "dt_mc": 1.0e-2}}, ["v-vs-monte-carlo"]),
])
def test_monte_carlo_diagnostics(tmp_path, name, over, estimates):
    # each estimator call records its chunk layout, the normals its marches
    # drew and its exit fraction; a rerun writes the same summary.json bytes
    cfg = ExperimentConfig.from_dict({"experiment": name, "output_dir": str(tmp_path), **over})
    run(cfg)
    first = (tmp_path / "summary.json").read_bytes()
    run(cfg)
    assert (tmp_path / "summary.json").read_bytes() == first
    marches = json.loads(first)["diagnostics"]["monte_carlo"]
    assert sorted(marches) == estimates
    paths, n_fine = cfg.mc["paths"], round(cfg.tree["horizon"] / cfg.mc["dt_mc"])
    for record in marches.values():
        assert sorted(record) == ["chunks", "exit_frac", "normals_drawn"]
        # chunks of montecarlo.CHUNK paths in chunk order
        full, rest = divmod(paths, montecarlo.CHUNK)
        assert record["chunks"] == [montecarlo.CHUNK] * full + [rest] * (rest > 0)
        if name == "feynman-kac-nonrandom":
            # every path leaves (0, 1) well before t = 4: the march stops early
            assert record["exit_frac"] == 1.0 and record["normals_drawn"] < paths * n_fine / 10
        else:
            # nothing leaves [-8, 8]: one normal per path and fine step
            assert record["exit_frac"] == 0.0 and record["normals_drawn"] == paths * n_fine


@pytest.mark.parametrize("name, over, superparabolic", [
    ("solvability-R", {"grid": {"nx": 41}, "tree": {"n_steps": 5}}, None),
    ("adjoint-suite", {"grid": {"nx": 21}, "tree": {"n_steps": 3},
                       "params": {"fine_nx": 41, "fine_n_steps": 6, "n_draws": 1}}, True),
    ("feynman-kac-nonrandom", {"grid": {"nx": 41}, "tree": {"n_steps": 4},
                               "mc": {"paths": 200, "dt_mc": 1.0e-2}}, None),
])
def test_coefficient_validation_report(tmp_path, name, over, superparabolic):
    # coefficients.validate runs at the configured level and its report goes
    # to summary.json, the same bytes on a rerun
    cfg = ExperimentConfig.from_dict({"experiment": name, "output_dir": str(tmp_path), **over})
    run(cfg)
    first = (tmp_path / "summary.json").read_bytes()
    run(cfg)
    assert (tmp_path / "summary.json").read_bytes() == first
    report = json.loads(first)["diagnostics"]["coefficients"]
    assert sorted(report) == ["delta", "delta_b", "flags", "k1", "k2", "k3", "lipschitz_f",
                              "messages", "passed"]
    assert report["passed"] is True and report["messages"] == []
    assert report["flags"].get("superparabolic") is superparabolic
    sigma = cfg.coefficients["sigma"]
    assert report["delta_b"] == pytest.approx(sum(s * s for s in sigma), rel=1e-12)
    # drift-random's sup bound is kappa tanh of the largest sampled w1
    kappa = cfg.coefficients.get("kappa", 0.0)
    w1 = cfg.tree["n_steps"] * math.sqrt(cfg.tree["horizon"] / cfg.tree["n_steps"])
    assert report["k1"] == pytest.approx(kappa * math.tanh(w1), rel=1e-12)


DUALITY_SMALL = {"grid": {"nx": 41}, "tree": {"n_steps": 4},
                 "params": {"fine_nx": 61, "fine_n_steps": 6}}


@pytest.mark.parametrize("name, over, kind, states", [
    ("adjoint-suite", {"grid": {"nx": 21}, "tree": {"n_steps": 3},
                       "params": {"fine_nx": 41, "fine_n_steps": 6, "n_draws": 1}},
     "lattice", [10, 28]),
    ("norm-bounds", {"grid": {"nx": 31}, "tree": {"n_steps": 4},
                     "params": {"fine_nx": 61, "fine_n_steps": 8, "n_fields": 2}},
     "lattice", [15, 45]),
    # d = 2 stays on the tree: (4**(N+1) - 1) / 3 nodes
    ("adjoint-suite", {"coefficients": {"sigma": [0.5, 0.5, 0.6], "d": 2},
                       "grid": {"nx": 21}, "tree": {"n_steps": 2},
                       "params": {"fine_nx": 41, "fine_n_steps": 4, "n_draws": 1}},
     "tree", [21, 341]),
    # duality-63's coarse node checks keep the tree (2**(N+1) - 1 nodes); its
    # fine pairing runs on the lattice when d = 1
    ("duality-63", DUALITY_SMALL, "lattice", [31, 28]),
    ("duality-63", {**DUALITY_SMALL, "coefficients": {"sigma": [0.5, 0.5, 0.6], "d": 2}},
     "tree", [341, 5461]),
    ("feynman-kac-nonrandom", {"grid": {"nx": 41}, "tree": {"n_steps": 4},
                               "mc": {"paths": 200, "dt_mc": 1.0e-2}}, "lattice", [15]),
    ("representation-random", {**MC_SMALL, "params": {"x_points": [0.0]}}, "lattice", [21]),
    ("solvability-R", {"grid": {"nx": 41}, "tree": {"n_steps": 5}}, "lattice", [21]),
    # density-64-65's leaf-path density keeps the tree; its unconditional
    # row's op_L runs on the lattice, at the same (nx, n_steps)
    ("density-64-65", MC_SMALL, "lattice", [63, 21]),
])
def test_state_space_diagnostics(tmp_path, name, over, kind, states):
    # the state space of each level a run solves goes to summary.json, and a
    # rerun writes the same bytes
    cfg = ExperimentConfig.from_dict({"experiment": name, "output_dir": str(tmp_path), **over})
    run(cfg)
    first = (tmp_path / "summary.json").read_bytes()
    run(cfg)
    assert (tmp_path / "summary.json").read_bytes() == first
    diagnostics = json.loads(first)["diagnostics"]
    # the configured level, then the fine one (the configured one again in
    # density-64-65); the first stays on the tree where a path is named
    coarse = (cfg.grid["nx"], cfg.tree["n_steps"])
    fine = (cfg.params.get("fine_nx", coarse[0]), cfg.params.get("fine_n_steps", coarse[1]))
    kinds = ["tree" if name in ("duality-63", "density-64-65") else kind, kind]
    levels = [{"nx": nx, "n_steps": n, "kind": k, "states": s}
              for (nx, n), k, s in zip((coarse, fine), kinds, states)]
    assert diagnostics["state_space"] == levels
    if name == "duality-63":
        # a density audit per level: per node on the tree under "density",
        # of the conditional means on the lattice under "lattice_density"
        where = {"tree": "density", "lattice": "lattice_density"}
        audits = [(a["nx"], a["n_steps"], a["kind"], key)
                  for key in where.values() for a in diagnostics.get(key, [])]
        assert audits == [(lv["nx"], lv["n_steps"], lv["kind"], where[lv["kind"]])
                          for lv in levels]


def test_solvability_R_runs_a_lattice_past_the_tree_guard():
    # 24 steps would be a 33.5M-node tree; the run's one level is the w1
    # lattice, and every start stops by sweep N + 1
    cfg = default_config("solvability-R", grid={"nx": 41}, tree={"n_steps": 24})
    report = run(cfg, write=False)
    assert report.diagnostics["state_space"] == [
        {"nx": 41, "n_steps": 24, "kind": "lattice", "states": 325}]
    solves = report.diagnostics["solve_R"]
    assert sorted(solves) == ["random-start", "range-density-probe", "zero-start"]
    assert all(info["iterations"] <= 25 for info in solves.values())


def test_cli_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "solvability-R",
        "grid": {"nx": 41},
        "tree": {"n_steps": 5, "horizon": 1.0},
        "mc": {"seed": 77},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["validate-config", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert main(["list-experiments"]) == 0


def test_cli_error_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"experiment": "warp-drive", "mc": {"seed": 1}}))
    assert main(["run", str(unknown)]) == 2
    assert main(["validate-config", str(unknown)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text(json.dumps([1, 2]))
    assert main(["run", str(not_object), "--seed", "3"]) == 2
    mc_not_object = tmp_path / "mc-number.json"
    mc_not_object.write_text(json.dumps({"experiment": "solvability-R", "mc": 5}))
    assert main(["run", str(mc_not_object), "--seed", "3"]) == 2
    bad_section = tmp_path / "section.json"
    bad_section.write_text(json.dumps({"experiment": "solvability-R", "grid": 5}))
    assert main(["validate-config", str(bad_section)]) == 2
    for i, bad_value in enumerate([{"workers": None}, {"mc": {"seed": "abc"}}]):
        path = tmp_path / f"value{i}.json"
        path.write_text(json.dumps({"experiment": "norm-bounds", **bad_value}))
        assert main(["validate-config", str(path)]) == 2
    for i, bad in enumerate(BAD_AT_LOAD):
        path = tmp_path / f"mc{i}.json"
        path.write_text(json.dumps({**bad["config"], "output_dir": str(tmp_path / "out")}))
        assert main(["validate-config", str(path)]) == 2
        assert main(["run", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "solvability-R",
        "grid": {"nx": 41},
        "tree": {"n_steps": 4, "horizon": 1.0},
        "mc": {"seed": 1},
    }))
    out = tmp_path / "cli-out"
    code = main([
        "run", str(cfg_path), "--seed", "99", "--out-dir", str(out), "--workers", "2",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["mc"]["seed"] == 99
    assert summary["config"]["workers"] == 2
