"""Golden report rows: every experiment at a reduced, sub-second config.

The determinism test in test_harness.py compares two runs of one build;
these goldens pin the values across changes to the solvers.  lhs, rhs and
tol must agree to 1e-9 relative and the pass flags exactly.  An intended
change of a report value regenerates the entries of the experiments it
moves,

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

(every experiment without a name; every other entry keeps its bytes) and
lists the old and new values in CHANGES.md.
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from spdelab.harness import default_config, list_experiments, run

GOLDEN = Path(__file__).with_name("golden_reports.json")

# the bridged estimates of representation-random and density-64-65 march at
# the tree step under drift-random, so their configs hold no mc.dt_mc
MC = {"paths": 2000}
REDUCED = {
    "feynman-kac-nonrandom": {"grid": {"nx": 41}, "tree": {"n_steps": 4},
                              "mc": {**MC, "dt_mc": 1.0e-2}},
    "representation-random": {"grid": {"nx": 41}, "tree": {"n_steps": 5}, "mc": MC},
    "adjoint-suite": {
        "grid": {"nx": 21}, "tree": {"n_steps": 3},
        "params": {"fine_nx": 41, "fine_n_steps": 6, "n_draws": 1},
    },
    # N 10, not 5: every start stops on the residual bound (test below)
    "solvability-R": {"grid": {"nx": 41}, "tree": {"n_steps": 10}},
    "duality-63": {
        "grid": {"nx": 41}, "tree": {"n_steps": 4},
        "params": {"fine_nx": 81, "fine_n_steps": 8},
    },
    "density-64-65": {"grid": {"nx": 41}, "tree": {"n_steps": 5}, "mc": MC},
    "norm-bounds": {
        "grid": {"nx": 31}, "tree": {"n_steps": 4},
        "params": {"fine_nx": 61, "fine_n_steps": 8, "n_fields": 3},
    },
}

REL = 1e-9


def report_rows(name):
    report = run(default_config(name, **REDUCED[name]), write=False)
    return [
        {"check": r.check, "lhs": r.lhs, "rhs": r.rhs, "tol": r.tol, "pass": r.passed}
        for r in report.rows
    ]


def test_reduced_configs_cover_every_experiment():
    assert sorted(REDUCED) == list_experiments()
    assert sorted(json.loads(GOLDEN.read_text())) == list_experiments()


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_report_rows_match_goldens(name):
    golden = json.loads(GOLDEN.read_text())[name]
    rows = report_rows(name)
    assert [r["check"] for r in rows] == [g["check"] for g in golden]
    for row, gold in zip(rows, golden):
        assert row["pass"] is gold["pass"], row["check"]
        for key in ("lhs", "rhs", "tol"):
            assert row[key] == pytest.approx(gold[key], rel=REL, abs=0.0), (row["check"], key)


def test_solvability_R_golden_sees_the_stopping_rule():
    # before the N + 1 sweeps that land every start on the exact
    # back-substitution, where its residual rows would pin round-off
    cfg = default_config("solvability-R", **REDUCED["solvability-R"])
    solves = run(cfg, write=False).diagnostics["solve_R"]
    assert sorted(solves) == ["random-start", "range-density-probe", "zero-start"]
    assert all(info["iterations"] <= cfg.tree["n_steps"] for info in solves.values())


class ReadLog(dict):
    """A config section that records which keys a run reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_every_param_and_mc_key_is_read(name):
    # no config knob the runner ignores: the run reads every key the loaded
    # config holds
    cfg = default_config(name, **REDUCED[name])
    sections = ("domain", "grid", "tree", "mc", "params")
    for section in sections:
        setattr(cfg, section, ReadLog(getattr(cfg, section)))
    run(cfg, write=False)
    for section in sections:
        log = getattr(cfg, section)
        unread = set(log) - log.read
        assert not unread, (section, sorted(unread))


SMOOTH = {"family": "space-smooth", "a": 0.5, "eps": 0.5}

# key -> the raw overrides that change it from the loaded config's value to
# another that loads, with the keys the load ties to it
VARIED = {
    "coefficients.family": lambda c: {"coefficients": {
        **SMOOTH, "sigma": c.coefficients["sigma"], "d": c.coefficients["d"]}},
    "coefficients.sigma": lambda c: {"coefficients": {
        "sigma": [1.25 * s for s in c.coefficients["sigma"]]}},
    "coefficients.d": lambda c: {"coefficients": {"d": 2}},
    **{f"coefficients.{key}": lambda c, key=key: {"coefficients": {key: c.coefficients[key] + 0.25}}
       for key in ("f0", "kappa", "a", "eps")},
    "domain.a": lambda c: {"domain": {"a": c.domain["a"] - 1.0}},
    "domain.b": lambda c: {"domain": {"b": c.domain["b"] + 1.0}},
    "grid.nx": lambda c: {"grid": {"nx": c.grid["nx"] + 10}},
    "tree.n_steps": lambda c: {"tree": {"n_steps": 2 * c.tree["n_steps"]}},
    # density-64-65's t_points must stay tree times
    "tree.horizon": lambda c: {"tree": {"horizon": 2 * c.tree["horizon"]}, "params": {
        "t_points": [2 * t for t in c.params["t_points"]]} if "t_points" in c.params else {}},
    "mc.seed": lambda c: {"mc": {"seed": c.mc["seed"] + 1}},
    "mc.paths": lambda c: {"mc": {"paths": c.mc["paths"] + 1}},
    "mc.dt_mc": lambda c: {"mc": {"dt_mc": c.mc["dt_mc"] / 2}},
    "params.x0": lambda c: {"params": {"x0": c.params["x0"] + 0.1}},
    "params.x_points": lambda c: {"params": {"x_points": [x + 0.3 for x in c.params["x_points"]]}},
    "params.t_points": lambda c: {"params": {"t_points": c.params["t_points"][1:]}},
    "params.fine_nx": lambda c: {"params": {"fine_nx": c.params["fine_nx"] + 10}},
    "params.fine_n_steps": lambda c: {"params": {"fine_n_steps": 2 * c.params["fine_n_steps"]}},
    "params.n_draws": lambda c: {"params": {"n_draws": c.params["n_draws"] + 1}},
    "params.n_fields": lambda c: {"params": {"n_fields": c.params["n_fields"] + 1}},
    "params.node_checks": lambda c: {"params": {"node_checks": c.params["node_checks"] + 1}},
    "params.p0_width": lambda c: {"params": {"p0_width": 1.5 * c.params["p0_width"]}},
    "params.leaf_bits": lambda c: {"params": {
        "leaf_bits": {"0": "1", "1": "0"}[c.params["leaf_bits"][0]] + c.params["leaf_bits"][1:]}},
}

# (experiment or None for all, key) -> why a change of the key need not move
# a report byte
EXEMPT = {
    (None, "output_dir"): "it names the directory the files go to",
    (None, "workers"): "1 is its only value",
    ("feynman-kac-nonrandom", "coefficients.family"):
        "the exit-time oracle needs the constant family",
    ("feynman-kac-nonrandom", "coefficients.d"):
        "d = 2 needs a second sigma column, which moves the rows by itself",
    **{(name, "coefficients.d"): "the superparabolic regime needs d < len(sigma): d = 2 needs "
       "a third sigma column, which moves the rows by itself"
       for name in ("adjoint-suite", "duality-63", "density-64-65")},
}


def rows_and_diagnostics(cfg):
    """The report rows and the summary.json diagnostics of a run, without
    the config echo."""
    report = run(cfg, write=False)
    rows = [(r.check, r.lhs, r.rhs, r.tol, r.passed) for r in report.rows]
    return rows, json.dumps(report.diagnostics, sort_keys=True)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_every_config_key_moves_a_report_byte(name):
    # no config knob the runner ignores: changing any key of the loaded
    # config to another value that loads changes a report row or a
    # diagnostic, unless it is exempted above with its reason
    cfg = default_config(name, **REDUCED[name])
    base = rows_and_diagnostics(cfg)
    echo = asdict(cfg)
    del echo["experiment"]
    keys = [f"{section}.{key}" for section, values in echo.items()
            if isinstance(values, dict) for key in values]
    keys += [key for key, value in echo.items() if not isinstance(value, dict)]
    unmoved = []
    for key in keys:
        if (None, key) in EXEMPT or (name, key) in EXEMPT:
            continue
        raw = {section: dict(values) for section, values in REDUCED[name].items()}
        for section, values in VARIED[key](cfg).items():
            raw.setdefault(section, {}).update(values)
        if rows_and_diagnostics(default_config(name, **raw)) == base:
            unmoved.append(key)
    assert unmoved == []


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(REDUCED)
    if set(names) - set(REDUCED):
        sys.exit(f"unknown experiments {sorted(set(names) - set(REDUCED))}; "
                 f"known: {sorted(REDUCED)}")
    # a float read back from the file prints as it was written
    rows = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    rows.update((name, report_rows(name)) for name in names)
    GOLDEN.write_text(json.dumps(dict(sorted(rows.items())), indent=1) + "\n")
    print(f"wrote {', '.join(names)} to {GOLDEN}", file=sys.stderr)
