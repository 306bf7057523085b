import dataclasses
import json
import math
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdelab import backward, config, harness, montecarlo, tree
from spdelab.cli import main
from spdelab.harness import (
    CONFIG_KEYS,
    EXPERIMENTS,
    CheckRow,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    default_config,
    list_experiments,
    run,
    write_report,
)


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
    # fine level is a w1 lattice, duality-63's configured level a tree at any d
    with pytest.raises(ConfigError, match="lattice of n_steps=511 would hold 131,328 states"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "params": {"fine_n_steps": 511}})
    with pytest.raises(ConfigError, match="d=1 tree of n_steps=17 would hold 262,143 states"):
        ExperimentConfig.from_dict({"experiment": "duality-63", "tree": {"n_steps": 17}})
    d2 = {"coefficients": {"sigma": [0.6, 0.8, 0.5], "d": 2}}
    with pytest.raises(ConfigError, match="d=2 tree of n_steps=9 would hold 349,525 states"):
        ExperimentConfig.from_dict({"experiment": "duality-63", "tree": {"n_steps": 9}, **d2})
    # a level that names no path is a lattice at d = 2 too
    for name, over in [("feynman-kac-nonrandom", {"tree": {"n_steps": 40}}),
                       ("solvability-R", {"tree": {"n_steps": 20}}),
                       ("adjoint-suite", {"params": {"fine_n_steps": 510}}),
                       ("adjoint-suite", {"params": {"fine_n_steps": 510}, **d2}),
                       ("adjoint-suite", {"tree": {"n_steps": 9},
                                          "params": {"fine_n_steps": 510}, **d2})]:
        ExperimentConfig.from_dict({"experiment": name, **over})
    for bad in BAD_AT_LOAD:
        with pytest.raises(ConfigError, match=bad["match"]):
            ExperimentConfig.from_dict(bad["config"])


# a family whose drift reads x: representation-random and density-64-65
# march their bridged estimates at mc.dt_mc under it
SMOOTH = {"family": "space-smooth", "a": 0.5, "eps": 0.5, "sigma": [0.6, 0.8], "d": 1}

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
    # a bridged estimate marches at mc.dt_mc only where the drift reads x
    {"match": "divide the horizon", "config": {
        "experiment": "density-64-65", "mc": {"dt_mc": 0.003}, "coefficients": SMOOTH,
        "grid": {"nx": 21}, "tree": {"n_steps": 3}}},
    {"match": "divide the tree step", "config": {
        "experiment": "representation-random", "mc": {"dt_mc": 0.01}, "coefficients": SMOOTH,
        "tree": {"n_steps": 3}}},
    # elsewhere every bridged estimate marches at the tree step, and the key
    # moved no byte
    *({"match": f"mc.dt_mc is no key of {name} under the drift-random family: its drift does "
                "not read x, so every bridged estimate marches at the tree step",
       "config": {"experiment": name, "mc": {"dt_mc": 0.002}}}
      for name in ("representation-random", "density-64-65")),
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
    # d = len(sigma) leaves no tail block: R*, L* and the density equation
    # used to refuse it only once the run reached them (5 tree steps keep
    # density-64-65's d = 2 tree within the size guard)
    *({"match": "superparabolic regime, d < len[(]sigma[)].*got d=2 and len[(]sigma[)]=2",
       "config": {"experiment": name, "tree": {"n_steps": 5},
                  "coefficients": {"family": "drift-random", "kappa": 0.25,
                                   "sigma": [0.6, 0.8], "d": 2}}}
      for name in ("adjoint-suite", "duality-63", "density-64-65")),
    # at the default 8 tree steps too
    {"match": "superparabolic regime", "config": {
        "experiment": "adjoint-suite", "coefficients": {"sigma": [0.6, 0.8], "d": 2}}},
]


# each of these used to say "config ok" and then run, fail late or run
# something other than what was asked
@pytest.mark.parametrize("config, message", [
    ({"experiment": "density-64-65", "params": {"p0_width": 0}}, "params.p0_width"),
    ({"experiment": "duality-63", "params": {"p0_width": -1}}, "params.p0_width"),
    ({"experiment": "density-64-65", "params": {"p0_width": "x"}}, "params.p0_width"),
    # a width whose square underflows leaves p0 no mass (0/0 at x = 0): the
    # load printed numpy warnings and said "config ok", and the run failed
    # after its PDE phase with "forward march lost finiteness at level 1"
    ({"experiment": "density-64-65", "params": {"p0_width": 1e-300}},
     "params.p0_width=1e-300 leaves the initial density no finite, positive mass"),
    ({"experiment": "duality-63", "params": {"p0_width": 1e-300}}, "params.p0_width=1e-300"),
    # each level's grid is checked: fine_nx 200 has no node within 0.04 of 0
    ({"experiment": "duality-63", "params": {"p0_width": 1e-3, "fine_nx": 200}},
     "no finite, positive mass on the grid of nx=200"),
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
    # each level within the size guards, 10.5 GB per field: nx times states
    ({"experiment": "duality-63", "grid": {"nx": 10001}, "tree": {"n_steps": 16},
      "params": {"fine_nx": 10001}}, "would hold 1,310,841,071 cells per field"),
    ({"experiment": "adjoint-suite", "params": {"fine_nx": 10001, "fine_n_steps": 510}},
     "would hold 1,308,290,816 cells per field"),
    # the Monte Carlo work guard: 1e8 fine steps of mc.dt_mc (an 800 MB
    # times array per bundle) and 2e13 normals (1e12 paths over 10 tree
    # steps, twice); the last raised OverflowError (exit 1)
    ({"experiment": "representation-random", "mc": {"dt_mc": 1e-8}, "coefficients": SMOOTH},
     "v-vs-mc-at-x=-1.00 at dt=1e-08 makes 1e+08 fine steps over the horizon 1, past the guard "
     "of 1,048,576 fine steps"),
    ({"experiment": "density-64-65", "mc": {"paths": 10**12}},
     "would draw 2e+13 normals, past the work guard of 4,294,967,296 normals"),
    ({"experiment": "feynman-kac-nonrandom", "mc": {"dt_mc": 5e-324}},
     "mc.dt_mc: dt_mc=5e-324 is too small"),
    # horizon / dt_mc = 5e-10 rounded to 0 fine steps: each estimate drew
    # nothing, read 0.0 and passed against v of about 1e-12
    ({"experiment": "representation-random", "tree": {"horizon": 1e-12, "n_steps": 5},
      "grid": {"nx": 41}, "mc": {"paths": 2000}, "coefficients": SMOOTH},
     "mc.dt_mc: dt_mc=0.002 is longer than the horizon 1e-12"),
    # was checked and written to summary.json, but no solver read it
    ({"experiment": "density-64-65", "domain": {"kind": "interval"}},
     "unknown domain keys for density-64-65: ['kind']"),
    # domains floating point cannot grid: dx^2 overflowed (OverflowError,
    # exit 1) or underflowed to 0 (ZeroDivisionError, exit 1); b - a
    # overflowed (nodes nan, inf, ...) or the 101 nodes fell on 2 values,
    # and the run passed; b/(2dx^2) overflowed, and norm-bounds passed on
    # zeros while duality-63 lost finiteness after its solves
    ({"experiment": "norm-bounds", "domain": {"a": 0, "b": 1e300}},
     "nx=101 on [0.0, 1e+300] is no grid in floating point"),
    ({"experiment": "norm-bounds", "domain": {"a": 0, "b": 1e-300}},
     "nx=101 on [0.0, 1e-300] is no grid in floating point"),
    ({"experiment": "norm-bounds", "domain": {"a": -1e308, "b": 1e308}},
     "nx=101 on [-1e+308, 1e+308] is no grid in floating point"),
    ({"experiment": "norm-bounds", "domain": {"a": 1e16, "b": 1e16 + 2}},
     "nx=101 on [1e+16, 1.0000000000000002e+16] is no grid in floating point"),
    ({"experiment": "norm-bounds", "domain": {"a": 0, "b": 1e-158}},
     "b/(2dx^2) = inf: they must be finite"),
    # chunks run one after another: 1 is the one value the key keeps
    ({"experiment": "solvability-R", "workers": 2}, "workers must be the integer 1"),
    ({"experiment": "solvability-R", "workers": True}, "workers must be the integer 1"),
    ({"experiment": "solvability-R", "workers": 1.0}, "workers must be the integer 1"),
    # two points at one grid node (nodes 0.1 apart at nx 161), or at two nodes that
    # print alike (nodes 5000 and 5001 at nx 10001): two estimates and two
    # report rows of one name, of which summary.json kept one
    ({"experiment": "representation-random", "params": {"x_points": [0.0, 0.01]}},
     "the Monte Carlo estimates need distinct names"),
    ({"experiment": "representation-random", "grid": {"nx": 10001},
      "params": {"x_points": [0.0, 0.002]}}, "got ['control-at-x=+0.00', 'control-at-x=+0.00'"),
    # two conditional-identity-t=0.4 rows
    ({"experiment": "density-64-65", "params": {"t_points": [0.4, 0.4]}},
     "params.t_points must be distinct tree times"),
    # points inside the domain whose nearest node is a boundary node, where v
    # and the oracle are 0: each point's rows passed vacuously
    ({"experiment": "feynman-kac-nonrandom", "params": {"x0": 0.002}},
     "0.002 is nearest node 0 of nx=201"),
    ({"experiment": "representation-random", "grid": {"nx": 41}, "params": {"x_points": [-7.96]}},
     "-7.96 is nearest node 0 of nx=41"),
    # one path has no sample variance: it reported a standard error of 0
    ({"experiment": "representation-random", "mc": {"paths": 1}},
     "mc.paths must be an integer >= 2, got 1"),
    # make_family's |eps| < 1 rule, at load
    ({"experiment": "norm-bounds", "coefficients": {"family": "space-smooth", "a": 0.3, "eps": 1.0,
                                                    "sigma": [0.6, 0.8], "d": 1}},
     "space-smooth needs |eps| < 1"),
], ids=["p0_width=0", "p0_width=-1", "p0_width=x", "p0_width=1e-300", "p0_width=1e-300-duality",
        "p0_width=1e-3-fine", "leaf_bits=abc", "nx=101.9",
        "fine_nx<nx", "horizon=str", "horizon=true", "a=str", "b=str", "kappa=str",
        "kappa=true", "d=1.5", "family=list", "leaf_bits=11bits", "leaf_bits=1bit", "output_dir=5",
        "nx=1e13", "nx=1e9", "n_steps=1e12", "cells-tree", "cells-lattice", "fine-steps",
        "normals", "dt_mc=5e-324", "dt_mc>horizon", "domain.kind", "dx^2-overflows",
        "dx^2-underflows", "b-a-overflows", "nodes-collapse", "bands-overflow", "workers=2", "workers=true",
        "workers=1.0", "x_points-one-node", "x_points-one-name", "t_points-twice",
        "x0-boundary-node", "x_points-boundary-node", "paths=1", "eps=1"])
def test_bad_inputs_exit_2_at_load(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["validate-config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_p0_without_mass_is_refused_without_numpy_warnings():
    # the check runs with numpy's floating-point warnings silenced, before
    # density-64-65's estimate table reads p0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="params.p0_width=1e-300"):
            ExperimentConfig.from_dict({"experiment": "density-64-65",
                                        "params": {"p0_width": 1e-300}})
        # a subnormal width squared is still a spike of finite mass at x = 0
        assert ExperimentConfig.from_dict({"experiment": "duality-63",
                                           "params": {"p0_width": 1e-160}})


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
    # tree only at the configured level of the two experiments that hold
    # fields on it, the w1 lattice everywhere else, at d = 1 (the defaults)
    # and at d = 2 (5 steps: the defaults' t_points fit it).
    # Bridged paths carry no tree, so representation-random's builds none
    built, build_tree = [], harness.build_tree

    def counted(d, n_steps, horizon):
        built.append((d, n_steps))
        return build_tree(d, n_steps, horizon)

    monkeypatch.setattr(harness, "build_tree", counted)
    assert EXPERIMENTS[name].fields_on_tree == (name in ("duality-63", "density-64-65"))
    on_tree = EXPERIMENTS[name].fields_on_tree
    for over in ({}, {"coefficients": {"sigma": [0.6, 0.8, 0.5], "d": 2},
                      "tree": {"n_steps": 5}}):
        built.clear()
        cfg = ExperimentConfig.from_dict({"experiment": name, **over})
        assert built == ([(cfg.d, cfg.tree["n_steps"])] if on_tree else [])
        bridged = any(est.bridged for est in EXPERIMENTS[name].estimates(cfg))
        assert bridged == (name in ("representation-random", "density-64-65"))


def test_cell_guard_reads_the_state_space_that_holds_the_fields():
    # representation-random holds its fields on the w1 lattice (91 states at
    # 12 steps, 910,091 cells at nx 10001); only its paths follow the tree,
    # which the cell guard used to count (81,918,191 cells)
    over = {"grid": {"nx": 10001}}
    cfg = ExperimentConfig.from_dict({"experiment": "representation-random",
                                      "tree": {"n_steps": 12}, **over})
    assert cfg.tree["n_steps"] == 12
    # the paths carry no tree, so no size guard bounds them: at 20 steps
    # (a 2,097,151-node tree) the 231-state lattice loads
    cfg = ExperimentConfig.from_dict({"experiment": "representation-random",
                                      "tree": {"n_steps": 20}, **over})
    assert cfg.tree["n_steps"] == 20


@pytest.mark.parametrize("name, estimates, n_fine", [
    ("feynman-kac-nonrandom", 1, 100), ("representation-random", 10, 10),
    ("density-64-65", 2, 10)])
def test_work_guard_counts_every_estimate(name, estimates, n_fine):
    # the most paths whose normals, summed over the run's estimates, fit the
    # guard load; one more path does not.  Each estimate marches n_fine
    # steps: feynman-kac-nonrandom's free one the 100 of mc.dt_mc, the
    # bridged ones under drift-random the 10 tree steps
    most = config.MAX_NORMALS // (estimates * n_fine)
    assert ExperimentConfig.from_dict({"experiment": name, "mc": {"paths": most}})
    with pytest.raises(ConfigError, match=f"the run's {estimates} Monte Carlo estimate"):
        ExperimentConfig.from_dict({"experiment": name, "mc": {"paths": most + 1}})


def test_one_rule_reads_the_estimate_table_once(monkeypatch):
    # a load reads each run's table of Monte Carlo estimates in one rule, once
    readers = []
    for name, exp in EXPERIMENTS.items():
        def estimates(config, table=exp.estimates):
            readers.append(sys._getframe(1).f_code.co_name)
            return table(config)
        monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(exp, estimates=estimates))
    for name in EXPERIMENTS:
        readers.clear()
        ExperimentConfig.from_dict({"experiment": name})
        assert readers == ["_estimates_fit"], name
    assert config._estimates_fit in config.RULES


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_dominance_rule_reads_no_estimate(monkeypatch, name):
    cfg = ExperimentConfig.from_dict({"experiment": name})

    def estimates(config):
        raise AssertionError("_levels_dominant read the estimate table")
    monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(EXPERIMENTS[name],
                                                               estimates=estimates))
    config._levels_dominant(cfg, EXPERIMENTS[name])


def test_fine_levels_may_not_be_coarser():
    with pytest.raises(ConfigError, match="params.fine_n_steps=6 is below tree.n_steps=8"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "params": {"fine_n_steps": 6}})
    with pytest.raises(ConfigError, match="tree.n_steps must be an integer"):
        ExperimentConfig.from_dict({"experiment": "norm-bounds", "tree": {"n_steps": 8.5}})
    # equal levels are allowed: a refinement in time alone
    cfg = ExperimentConfig.from_dict({"experiment": "duality-63", "params": {"fine_nx": 101}})
    assert cfg.params["fine_nx"] == cfg.grid["nx"]


@pytest.mark.parametrize("name, key, a, b, inside, outside", [
    # 1e-9 and 0.999 lie inside (0, 1) but snap to nodes 0 and 200 of nx 201
    ("feynman-kac-nonrandom", "x0", 0.0, 1.0, [0.003, 0.997],
     [0.0, 1.0, -0.2, True, [0.5], 1e-9, 0.999]),
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


@pytest.mark.parametrize("name", ["representation-random", "density-64-65"])
def test_mc_dt_mc_is_a_key_only_where_an_estimate_marches_at_it(tmp_path, name):
    # every bridged estimate marches at the tree step unless the family's
    # drift reads x: under drift-random (the defaults) and constant the
    # loaded config and its summary.json echo hold no mc.dt_mc, and giving
    # one exits 2 at load; space-smooth keeps the key and its default 2e-3
    constant = {"family": "constant", "f0": 0.1, "sigma": [0.6, 0.8], "d": 1}
    for coefficients in ({}, constant):
        cfg = default_config(name, coefficients=coefficients)
        assert "dt_mc" not in cfg.mc and not EXPERIMENTS[name].marches_at_dt_mc(cfg)
        family = cfg.coefficients["family"]
        with pytest.raises(ConfigError, match=f"mc.dt_mc is no key of {name} under the {family}"):
            default_config(name, coefficients=coefficients, mc={"dt_mc": 0.1})
    for given, dt_mc in (({}, 2e-3), ({"dt_mc": 0.01}, 0.01)):
        cfg = default_config(name, coefficients=SMOOTH, mc=given)
        assert cfg.mc["dt_mc"] == dt_mc and EXPERIMENTS[name].marches_at_dt_mc(cfg)
        assert {est.dt for est in EXPERIMENTS[name].estimates(cfg)} == (
            {0.1, dt_mc} if name == "representation-random" else {dt_mc})
    points = {"x_points": [0.0]} if name == "representation-random" else {}
    cfg = ExperimentConfig.from_dict({"experiment": name, "output_dir": str(tmp_path), **MC_SMALL,
                                      "params": points})
    run(cfg)
    echo = json.loads((tmp_path / "summary.json").read_text())["config"]
    assert echo["mc"] == {"paths": 2000, "seed": cfg.mc["seed"]}
    assert ExperimentConfig.from_dict(echo) == cfg


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
    assert set(meta) == {"elapsed_seconds", "timestamp", "spdelab_version", "numpy_version",
                         "python_version", "peak_rss_mb", "cpu_s", "os_threads", "minor_faults"}
    assert meta["peak_rss_mb"] > 0 and meta["cpu_s"] > 0 and meta["minor_faults"] > 0


@pytest.mark.parametrize("coefficients", [{}, {"sigma": [0.6, 0.8, 0.5], "d": 2}],
                         ids=["d1", "d2"])
@pytest.mark.parametrize("name", ["density-64-65", "representation-random"])
def test_tree_bridged_reports_are_deterministic(tmp_path, name, coefficients):
    # the same tree-bridged run of 2000 paths, twice, at d = 1 and on a d = 2
    # tree: report.csv and summary.json are the same bytes.  The test
    # compares bits, not verdicts: at this size density-64-65 fails five
    # rows at d = 2.  Both runs write to one output_dir, which summary.json
    # records
    reports, out = [], tmp_path / "out"
    for _ in range(2):
        run(default_config(name, output_dir=str(out), coefficients=coefficients,
                           grid={"nx": 41}, tree={"n_steps": 5}, mc={"paths": 2000}))
        reports.append([(out / file).read_bytes() for file in ("report.csv", "summary.json")])
    assert reports[0] == reports[1]


def test_a_row_passes_at_its_bound_unless_it_gives_its_own_verdict(tmp_path):
    at, past = CheckRow("at", "0", 1.25, 1.0, 0.25), CheckRow("past", "0", 1.25, 1.0, 0.125)
    assert at.abs_err == at.tol and at.passed is True and past.passed is False
    # a row whose sides or bound are not finite fails
    inf, nan = math.inf, math.nan
    assert not any(CheckRow("x", "0", *values).passed
                   for values in ((0.0, 0.0, inf), (inf, inf, inf), (nan, 0.0, 1.0)))
    # an explicit verdict stands whatever abs_err reads: a ratio row bounds rhs
    ratio = CheckRow("ratio", "0", 4.0, 0.5, 4.0 / 1.7, 0.5 <= 4.0 / 1.7)
    assert ratio.passed is True and ratio.abs_err > ratio.tol
    assert CheckRow("verdict", "0", 1.0, 1.0, 0.5, False).passed is False
    # the report, not the row, names the experiment in report.csv
    write_report(ExperimentReport("norm-bounds", [at, ratio], {}, 0.0), tmp_path)
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[::8] for row in rows] == [["norm-bounds", "true"]] * 2


# at horizon 1e-300 every refinement ratio is 0 over 0, and every fine-level
# pairing but R's, 2.5e-300 on both sides, underflows to 0
PAIRS = [row for k in "TGBRL"
         for row in (f"pair-{k}-refinement-decrease", f"pair-{k}-fine-level-mismatch")
         if row != "pair-R-fine-level-mismatch"]


@pytest.mark.parametrize("name, over, failing", [
    ("adjoint-suite", {"grid": {"nx": 21}, "tree": {"n_steps": 3, "horizon": 1e-300},
                       "params": {"fine_nx": 41, "fine_n_steps": 6, "n_draws": 1}}, PAIRS),
    ("norm-bounds", {"grid": {"nx": 31}, "tree": {"n_steps": 4, "horizon": 1e-300},
                     "params": {"fine_nx": 61, "fine_n_steps": 8, "n_fields": 3}},
     ["c0-over-x0-ratio-growth", "x1-over-x0-ratio-growth"]),
    ("duality-63", {"tree": {"horizon": 1e-300}}, ["gap-halving-under-refinement"]),
    ("duality-63", {"grid": {"nx": 41}, "tree": {"n_steps": 4, "horizon": 1e300},
                    "params": {"fine_nx": 81, "fine_n_steps": 8}},
     ["gap-at-s0-coarse", "gap-at-node-2:0", "gap-at-node-2:1"]),
])
def test_rows_fail_on_zeros_and_infinities(name, over, failing):
    # at horizon 1e-300 both sides of a ratio row underflow to 0, and 0 is
    # not within a multiple of 0, nor is the mismatch of two pairings that are
    # 0 a check; at 1e300 the duality budgets are inf.  Each of these rows
    # passed before
    rows = run(ExperimentConfig.from_dict({"experiment": name, **over}), write=False).rows
    assert [row.check for row in rows if not row.passed] == failing


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


@pytest.mark.parametrize("over, oracle", [
    ({"coefficients": {"f0": -20.0}, "domain": {"a": 0.0, "b": 100.0},
      "tree": {"n_steps": 200, "horizon": 4.0}, "params": {"x0": 50.0},
      "mc": {"paths": 2000, "dt_mc": 4.0e-3}}, 2.5),
    ({"coefficients": {"f0": 1e-16}, "grid": {"nx": 41}, "tree": {"n_steps": 4},
      "mc": {"paths": 2000, "dt_mc": 1.0e-2}}, 0.25),
])
def test_exit_time_oracle_holds_where_its_closed_form_overflows_or_cancels(over, oracle):
    # the closed form's expm1 overflowed at f0 = -20 on (0, 100) (rhs nan)
    # and cancelled at f0 = 1e-16 (rhs 1.11), where the PDE and Monte Carlo
    # agree on 2.5 and 0.25
    rows = run(ExperimentConfig.from_dict({"experiment": "feynman-kac-nonrandom", **over}),
               write=False).rows
    assert rows[0].check == "v-mid-vs-exit-time-oracle" and rows[0].passed
    assert rows[0].rhs == pytest.approx(oracle, rel=1e-12)


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


MC_SMALL = {"grid": {"nx": 41}, "tree": {"n_steps": 5}, "mc": {"paths": 2000}}


@pytest.mark.parametrize("name, over, estimates", [
    ("density-64-65", MC_SMALL, ["conditional-identity", "unconditional-identity"]),
    ("representation-random", {**MC_SMALL, "params": {"x_points": [0.0]}},
     ["control-at-x=+0.00", "v-vs-mc-at-x=+0.00"]),
    ("feynman-kac-nonrandom", {"grid": {"nx": 41}, "tree": {"n_steps": 4},
                               "mc": {"paths": 30000, "dt_mc": 1.0e-2}}, ["v-vs-monte-carlo"]),
])
def test_monte_carlo_diagnostics(tmp_path, name, over, estimates):
    # each estimator call records its value and standard error (one per
    # row of the conditional estimate), its chunk layout, the normals its
    # marches drew, its exit fraction, its step and its fine steps; a rerun
    # writes the same summary.json bytes
    cfg = ExperimentConfig.from_dict({"experiment": name, "output_dir": str(tmp_path), **over})
    rows = {row.check: row for row in run(cfg).rows}
    first = (tmp_path / "summary.json").read_bytes()
    run(cfg)
    assert (tmp_path / "summary.json").read_bytes() == first
    marches = json.loads(first)["diagnostics"]["monte_carlo"]
    assert sorted(marches) == estimates
    paths, horizon = cfg.mc["paths"], cfg.tree["horizon"]
    # a bridged estimate under drift-random marches at the tree step; the
    # free one at mc.dt_mc
    tree_dt = horizon / cfg.tree["n_steps"]
    keys = ["chunks", "dt", "exit_frac", "fine_steps", "normals_drawn", "stderr", "value"]
    for est, record in marches.items():
        # feynman-kac-nonrandom's record also holds the exact E[tau] at the start
        assert sorted(record) == sorted(keys + ["exact"] * (name == "feynman-kac-nonrandom"))
        if est == "conditional-identity":
            assert record["value"] == [rows[f"{est}-t={t:g}"].rhs for t in cfg.params["t_points"]]
            assert len(record["stderr"]) == len(record["value"])
        elif est in rows:  # a control estimate has no row of its own
            assert record["value"] == rows[est].rhs
        if name == "feynman-kac-nonrandom":
            assert record["exact"] == rows["v-mid-vs-exit-time-oracle"].rhs
        assert record["dt"] == (cfg.mc["dt_mc"] if name == "feynman-kac-nonrandom" else tree_dt)
        assert record["fine_steps"] == round(horizon / record["dt"])
        # chunks of montecarlo.CHUNK paths in chunk order
        full, rest = divmod(paths, montecarlo.CHUNK)
        assert record["chunks"] == [montecarlo.CHUNK] * full + [rest] * (rest > 0)
        if name == "feynman-kac-nonrandom":
            # every path leaves (0, 1) well before t = 4: the march stops early
            assert record["exit_frac"] == 1.0
            assert record["normals_drawn"] < paths * record["fine_steps"] / 10
        else:
            # nothing leaves [-8, 8]: one normal per path and fine step
            assert record["exit_frac"] == 0.0
            assert record["normals_drawn"] == paths * record["fine_steps"]


def test_conditional_estimate_marches_at_the_tree_step_unless_the_drift_reads_x(tmp_path):
    # under drift-random density-64-65's paths march at the tree step, the
    # conditional rows reading tree times only and the unconditional one
    # integrating each block's bridge: 1,000,000 normals each at the defaults
    # instead of 50,000,000, and its config holds no mc.dt_mc; a drift that
    # reads x keeps mc.dt_mc
    cfg = ExperimentConfig.from_dict({"experiment": "density-64-65"})
    assert "dt_mc" not in cfg.mc
    horizon, tree_dt = cfg.tree["horizon"], cfg.tree["horizon"] / cfg.tree["n_steps"]
    table = [(est.name, est.dt, cfg.mc["paths"] * tree.fine_steps(horizon, est.dt, tree_dt)[0])
             for est in EXPERIMENTS["density-64-65"].estimates(cfg)]
    assert table == [("conditional-identity", 0.1, 1_000_000),
                     ("unconditional-identity", 0.1, 1_000_000)]
    cfg = ExperimentConfig.from_dict({"experiment": "density-64-65", "output_dir": str(tmp_path),
                                      "coefficients": SMOOTH, **MC_SMALL,
                                      "mc": {"paths": 2000, "dt_mc": 1.0e-2}})
    run(cfg)
    marches = json.loads((tmp_path / "summary.json").read_text())["diagnostics"]["monte_carlo"]
    assert sorted(marches) == ["conditional-identity", "unconditional-identity"]
    for record in marches.values():
        assert (record["dt"], record["fine_steps"]) == (cfg.mc["dt_mc"], 100)
        assert record["normals_drawn"] == cfg.mc["paths"] * 100


def test_conditional_estimate_weighs_its_bridges_where_paths_may_exit(tmp_path):
    # on [-2, 2] a path bridged to the leaf may exit between tree times, which
    # a march at the tree step does not see.  The conditional estimate still
    # marches at the tree step, and its rows are that march's, each path
    # weighed by its bridges' survival; with the weights it agrees with a
    # dt_mc 2.5e-4 march, and its unweighted survival (0.945 against 0.918)
    # would not
    narrow = {"experiment": "density-64-65", "domain": {"a": -2.0, "b": 2.0}}
    cfg = ExperimentConfig.from_dict({**narrow, "output_dir": str(tmp_path), **MC_SMALL})
    assert [est.dt for est in EXPERIMENTS["density-64-65"].estimates(cfg)] == [0.2, 0.2]
    rows = [row for row in run(cfg).rows if row.check.startswith("conditional-identity")]
    record = json.loads((tmp_path / "summary.json").read_text())["diagnostics"]["monte_carlo"]
    assert (record["conditional-identity"]["dt"], record["conditional-identity"]["fine_steps"]) \
        == (0.2, 5)

    def estimate(cfg, phi, t_points, M, dt):
        grid = cfg.build_grid()
        return montecarlo.conditional_functional(
            cfg.build_coeffs(), phi, int(cfg.params["leaf_bits"], 2), t_points, M,
            cfg.mc["seed"], shape=cfg.build_tree().shape, grid=grid,
            p0=harness._gaussian_density(grid, cfg.params["p0_width"]), dt_mc=dt)

    at_tree_step = estimate(cfg, harness._gaussian, cfg.params["t_points"], cfg.mc["paths"], 0.2)
    assert [row.rhs for row in rows] == [est.value for est in at_tree_step]
    assert record["conditional-identity"]["exit_frac"] == at_tree_step[0].exit_frac > 0.02
    cfg = ExperimentConfig.from_dict({**narrow, "grid": {"nx": 41}})
    (weighted,), (fine,) = (estimate(cfg, harness._unit, [1.0], M, dt)
                            for M, dt in ((200_000, 0.1), (20_000, 2.5e-4)))
    spread = 4.0 * math.hypot(weighted.stderr, fine.stderr)
    assert abs(weighted.value - fine.value) < spread
    assert 1.0 - weighted.exit_frac - fine.value > spread
    wide = ExperimentConfig.from_dict({"experiment": "density-64-65", **MC_SMALL})
    assert [est.dt for est in EXPERIMENTS["density-64-65"].estimates(wide)] == [0.2, 0.2]


def test_bridge_integral_agrees_with_a_fine_march_where_paths_exit():
    # on (-2, 2) 12% of density-64-65's paths exit by t = 1 (16% seen by a
    # fine march).  The unconditional estimate at the tree step weighs each
    # block's bridge integral by its survival and agrees with a dt_mc 2.5e-4
    # march, whose steps are weighed by the same rule
    cfg = ExperimentConfig.from_dict({"experiment": "density-64-65", "grid": {"nx": 81},
                                      "domain": {"a": -2.0, "b": 2.0}})
    grid = cfg.build_grid()
    p0 = harness._gaussian_density(grid, cfg.params["p0_width"])
    at_tree_step, fine = (
        montecarlo.functional_estimate(cfg.build_coeffs(), harness._gaussian, p0, M,
                                       (cfg.mc["seed"], 65), grid=grid, dt_mc=dt,
                                       shape=cfg.build_tree().shape)
        for M, dt in ((200_000, 0.1), (40_000, 2.5e-4)))
    assert (at_tree_step.dt, at_tree_step.fine_steps) == (0.1, 10)
    assert at_tree_step.exit_frac > 0.1
    assert abs(at_tree_step.value - fine.value) < 4.0 * math.hypot(at_tree_step.stderr,
                                                                   fine.stderr)


@pytest.mark.parametrize("name, over", [
    ("representation-random", {**MC_SMALL, "params": {"x_points": [0.0]}}),
    ("density-64-65", MC_SMALL),
    ("feynman-kac-nonrandom", {"grid": {"nx": 41}, "tree": {"n_steps": 4},
                               "mc": {"paths": 2000, "dt_mc": 1.0e-2}}),
])
def test_a_list_seed_runs_every_monte_carlo_experiment(name, over):
    # the chunk seeds nest mc.seed at any depth ((seed, tag, ix), then the
    # chunk's tags): a list seed used to stop representation-random and
    # density-64-65 with a TypeError after their PDE phase.  [3, 4] and
    # (3, 4) name the same streams.
    rows = [run(ExperimentConfig.from_dict({"experiment": name, **over,
                                            "mc": {**over["mc"], "seed": seed}}),
                write=False).rows
            for seed in ([3, 4], (3, 4))]
    assert rows[0] == rows[1]


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
    # d = 2 runs on the same lattice
    ("adjoint-suite", {"coefficients": {"sigma": [0.5, 0.5, 0.6], "d": 2},
                       "grid": {"nx": 21}, "tree": {"n_steps": 2},
                       "params": {"fine_nx": 41, "fine_n_steps": 4, "n_draws": 1}},
     "lattice", [6, 15]),
    # duality-63's coarse node checks keep the tree, 2**(N+1) - 1 nodes at
    # d = 1 and (4**(N+1) - 1) / 3 at d = 2; its fine pairing runs on the
    # lattice at both
    ("duality-63", DUALITY_SMALL, "lattice", [31, 28]),
    ("duality-63", {**DUALITY_SMALL, "coefficients": {"sigma": [0.5, 0.5, 0.6], "d": 2}},
     "lattice", [341, 28]),
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


def test_representation_random_loads_and_runs_past_the_tree_guard(tmp_path):
    # at 20 tree steps its paths used to follow a 2,097,151-node tree, past
    # the size guard; they carry their w1 now, and the fields sit on the
    # 231-state lattice
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "representation-random", "tree": {"n_steps": 20}}))
    assert main(["validate-config", str(path)]) == 0
    report = run(default_config("representation-random", tree={"n_steps": 20},
                                mc={"paths": 2000}), write=False)
    assert report.diagnostics["state_space"] == [
        {"nx": 161, "n_steps": 20, "kind": "lattice", "states": 231}]
    assert [row.check for row in report.rows] == [
        f"v-vs-mc-at-x={x:+.2f}" for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert report.passed
    for record in report.diagnostics["monte_carlo"].values():
        assert (record["fine_steps"], record["normals_drawn"]) == (20, 2000 * 20)


@pytest.mark.parametrize("over", [
    {"tree": {"n_steps": 64}},
    {"coefficients": {"sigma": [0.6, 0.8, 0.5], "d": 2}, "tree": {"n_steps": 32}},
], ids=["d=1", "d=2"])
def test_bridged_leaves_past_int64_exit_2_at_load(tmp_path, capsys, over):
    # a bridged path names its leaf by d bits per tree step in an int64: 64
    # bits are refused at load, whatever the lattice that holds the fields
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "representation-random", **over}))
    assert main(["validate-config", str(path)]) == 2
    assert "names its leaves by 64 bits, past the int64 leaf bound of 63 bits" in (
        capsys.readouterr().err)


def test_representation_random_builds_no_tree(monkeypatch):
    # its fields sit on the w1 lattice and its bridged paths carry no tree:
    # neither its load nor its run builds a scenario tree
    calls, build_tree = [], tree.build_tree

    def counted(*args):
        calls.append(args)
        return build_tree(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spdelab" and vars(module).get("build_tree") is build_tree:
            monkeypatch.setattr(module, "build_tree", counted)
    cfg = ExperimentConfig.from_dict({"experiment": "representation-random", **MC_SMALL})
    report = run(cfg, write=False)
    assert calls == [] and len(report.rows) == 5
    # the counter sees the trees a run does build
    run(ExperimentConfig.from_dict({"experiment": "density-64-65", **MC_SMALL}), write=False)
    assert calls


def test_duality_63_solves_op_L_on_the_lattice_only(monkeypatch):
    # phi and op_L read the path only through w1: both levels sweep the w1
    # lattice (45 states at the coarse level, not the tree's 511 nodes), and
    # only the coarse density marches the tree its node checks read
    kinds, sweep = [], backward.backward_sweep

    def spy(g, coeffs, grid, space, phi=None):
        kinds.append(space.kind)
        return sweep(g, coeffs, grid, space, phi)

    monkeypatch.setattr(backward, "backward_sweep", spy)
    report = run(default_config("duality-63"), write=False)
    assert report.passed and kinds == ["lattice", "lattice"]
    assert [level["kind"] for level in report.diagnostics["state_space"]] == ["tree", "lattice"]


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
    code = main(["run", str(cfg_path), "--seed", "99", "--out-dir", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["mc"]["seed"] == 99
    assert summary["config"]["workers"] == 1
    # there is no worker count to override: argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg_path), "--out-dir", str(tmp_path / "w2"), "--workers", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "w2").exists()


def test_an_output_dir_that_is_a_file_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    # a run that does not write creates nothing
    run(small_solvability(output_dir=str(tmp_path / "unwritten")), write=False)
    assert not (tmp_path / "unwritten").exists()

    # a file as output_dir used to pass validate-config and fail in
    # write_report, after the run
    def checks(cfg, diag):
        raise AssertionError("the experiment ran")

    name = "solvability-R"
    monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(EXPERIMENTS[name], checks=checks))
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": name, "output_dir": str(taken)}))
    assert main(["validate-config", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: [Errno 17] File exists"), err


# load-or-run: a default config with one to three keys perturbed from fixed
# menus is refused at load with ConfigError within LOAD_BOUND seconds, or it
# runs and returns its rows without raising (a failing row is allowed).  Size
# keys only shrink, so no run outgrows its default (0.05-0.22 s on a 2-vCPU
# Xeon KVM guest); every other menu mixes valid values with invalid ones of
# the kinds the loader refuses: wrong types, out-of-range, non-finite,
# unknown names.  About one perturbed config in five loads and runs.
LOAD_BOUND = 0.25
PERTURBATIONS = {
    ("grid", "nx"): [21, 41, 2, 0, 41.5, "41"],
    ("tree", "n_steps"): [2, 5, 0, -2, 4.0],
    ("tree", "horizon"): [0.5, 0.0, -1.0, math.inf, math.nan],
    ("mc", "paths"): [500, 2000, 0, -5, 2.5],
    ("mc", "seed"): [0, 7, [3, 4], -1, "seed", None],
    ("mc", "dt_mc"): [0.08, 0.5, 0.03, 0.0, 8.0],
    ("coefficients", "family"): ["constant", "space-smooth", "spectral"],
    ("coefficients", "kappa"): [0.0, 0.5, -0.25, 1e3],
    ("coefficients", "f0"): [0.5, -1.0, 1e6],
    ("coefficients", "sigma"): [[1.0], [0.6, 0.8], [0.3, 0.4, 1.0], [], [0.0, 0.0]],
    ("coefficients", "d"): [1, 2, 0, 3],
    ("domain", "a"): [-1.0, 0.0, 0.5, 9.0],
    ("domain", "b"): [1.0, 2.0, -9.0],
    ("params", "fine_nx"): [41, 81, 2],
    ("params", "fine_n_steps"): [6, 10, 0],
    ("params", "n_draws"): [1, 0],
    ("params", "n_fields"): [1, 2, 0],
    ("params", "node_checks"): [1, 0, 10**6],
    ("params", "p0_width"): [0.25, 0.0, -0.5],
    ("params", "x0"): [0.25, 0.0, 2.0],
    ("params", "x_points"): [[0.0], [], [-100.0]],
    ("params", "t_points"): [[0.4], [2.0]],
    ("params", "leaf_bits"): ["0", "10"],
    ("params", "unknown"): [1],
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(EXPERIMENTS)), data=st.data())
def test_a_perturbed_default_is_refused_at_load_or_runs(name, data):
    default = dataclasses.asdict(default_config(name))
    keys = [(section, key) for section, key in PERTURBATIONS
            if key in default[section] or key == "unknown"]
    raw = {"experiment": name}
    for section, key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                           unique=True), label="keys"):
        raw.setdefault(section, {})[key] = data.draw(st.sampled_from(PERTURBATIONS[section, key]),
                                                     label=f"{section}.{key}")
    start = time.perf_counter()
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        assert time.perf_counter() - start < LOAD_BOUND
        return
    assert run(cfg, write=False).rows
