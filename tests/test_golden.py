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
from pathlib import Path

import pytest

from spdelab.harness import EXPERIMENTS, default_config, list_experiments, run

GOLDEN = Path(__file__).with_name("golden_reports.json")

MC = {"paths": 2000, "dt_mc": 1.0e-2}
REDUCED = {
    "feynman-kac-nonrandom": {"grid": {"nx": 41}, "tree": {"n_steps": 4}, "mc": MC},
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
    # no config knob the runner ignores
    cfg = default_config(name, **REDUCED[name])
    sections = ("domain", "grid", "tree", "mc", "params")
    for section in sections:
        setattr(cfg, section, ReadLog(getattr(cfg, section)))
    run(cfg, write=False)
    for section in sections:
        unread = set(EXPERIMENTS[name].defaults.get(section, {})) - getattr(cfg, section).read
        assert not unread, (section, sorted(unread))


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
