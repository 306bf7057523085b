"""Self-test of the benchmark on seconds-scale versions of its workloads.

    python -m pytest benchmarks/

The full-size check of the deterministic work counts against their pinned
values takes about three minutes and runs only with SPDELAB_BENCH_FULL=1.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import run
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))

SMALL = {
    "operators-fine": {
        "grid": {"nx": 51}, "tree": {"n_steps": 4},
        "params": {"fine_nx": 101, "fine_n_steps": 8},
    },
    "mc-bridged": {"grid": {"nx": 41}, "tree": {"n_steps": 5}, "mc": {"paths": 2000}},
    "mc-exit": {"grid": {"nx": 41}, "mc": {"paths": 2000}},
}

# At this scale the adjoint suite's G, B and R pairings shrink by about 1.5
# per refinement, short of the required 1.7: these rows exercise the gate.
SMALL_FAILING = {
    "operators-fine": {
        "pair-G-refinement-decrease", "pair-B-refinement-decrease", "pair-R-refinement-decrease",
    },
}

# deterministic counts at the default seeds, full size
PINNED = {
    "operators-fine": {
        "backward.solve_R.iterations": 27,
        "domain.thomas.unknowns": 535_684_620,
    },
    "mc-bridged": {"montecarlo.exit_frac": 0.0, "tree.bundle.normals": 200_000_000},
    "mc-exit": {"montecarlo.alive_step_frac": 26_861_520 / 4e8, "montecarlo.exit_frac": 1.0},
}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of each small workload (each with one untraced repetition)."""
    return {
        name: [run.measure(WORKLOADS[name], seconds=0, trace=True, overrides=SMALL[name])
               for _ in range(2)]
        for name in WORKLOADS
    }


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (n, u, b) for n, u, b in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_and_the_gate_passes(traced, name, capsys):
    for res in traced[name]:
        assert res["attempted"] == 2
        expected = SMALL_FAILING.get(name)
        if expected:
            assert res["failed"] == 2
            for failure in res["failures"]:
                assert set(failure.split("checks failed: ")[1].split(", ")) == expected
        else:
            assert res["failures"] == [] and res["failed"] == 0
        assert list(res["metrics"]) == [n for n, _, _ in run.END_TO_END]
        assert set(res["layers"]) == {n for n, _, _ in PER_LAYER}
        assert all(v > 0 for v in res["metrics"].values())
    run._print_block(traced[name][0], {"nproc": 2})
    printed = capsys.readouterr().out
    for metric, unit, _ in run.END_TO_END + [("failed_frac", "ratio", "")] + PER_LAYER:
        assert any(line.split()[:1] == [metric] and unit in line.split()[2:3]
                   for line in printed.splitlines()), metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_nest_and_self_times_sum_to_the_traced_wall(traced, name):
    res = traced[name][-1]  # the run whose spans are still on disk
    trace = json.loads((run.OUT / name / "seed-default" / "traced" / "spans.json").read_text())
    spans = {sid: (parent, span, start, end) for sid, parent, span, start, end in trace["spans"]}
    roots = [s for s in spans.values() if s[0] is None]
    assert len(roots) == 1 and roots[0][1] == "harness"
    for parent, _, start, end in spans.values():
        if parent is not None:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
    root_s = roots[0][3] - roots[0][2]
    self_s = sum(v for k, v in res["layers"].items() if k.endswith("self_s"))
    assert self_s == pytest.approx(root_s, rel=1e-9, abs=1e-9)
    assert root_s <= trace["wall_s"] < root_s + 0.05


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_counts_repeat_exactly(traced, name):
    first, second = (r["counts"] for r in traced[name])
    assert first == second
    assert first["harness.calls"] == 1


def test_failed_gate_is_reported(traced):
    name = "mc-exit"
    raw = WORKLOADS[name].config(None, "unused", SMALL[name])
    ref = run._reference(raw)
    body = ref.read_bytes()
    try:
        ref.write_bytes(body.replace(b"true", b"TRUE"))
        res = run.measure(WORKLOADS[name], seconds=0, overrides=SMALL[name])
    finally:
        ref.write_bytes(body)
    assert res["failed"] == 1 and "report.csv differs" in res["failures"][0]


def _namespace_snapshot():
    from spdelab.coefficients import CoefficientSet

    mods = {k: m for k, m in sys.modules.items() if k == "spdelab" or k.startswith("spdelab.")}
    snap = {(k, a): v for k, m in mods.items() for a, v in vars(m).items() if callable(v)}
    snap.update({("CoefficientSet", a): v for a, v in vars(CoefficientSet).items()})
    return snap


def test_wrappers_restore_the_original_functions():
    from spdelab import backward, forward, harness, montecarlo
    from spdelab.coefficients import CoefficientSet

    before = _namespace_snapshot()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            for fn in (harness.backward_sweep, backward.backward_sweep, backward.thomas_rows,
                       forward.solve_tridiag, montecarlo.bridge_paths, harness.run,
                       CoefficientSet.__dict__["drift"]):
                assert fn.__wrapped__ is not None
            1 / 0
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


@pytest.mark.skipif(os.environ.get("SPDELAB_BENCH_FULL") != "1",
                    reason="full-size runs; set SPDELAB_BENCH_FULL=1")
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pinned_counts_at_default_seeds(name, tmp_path):
    counts = []
    for i in range(2):
        raw = WORKLOADS[name].config(None, tmp_path / f"out{i}")
        cfg = tmp_path / f"config{i}.json"
        cfg.write_text(json.dumps(raw))
        result, error = run.spawn(cfg, ["--trace", str(tmp_path / f"spans{i}.json")], timeout=170)
        assert error is None
        for metric, value in PINNED[name].items():
            assert result["layers"][metric] == value, metric
        counts.append(result["counts"])
    assert counts[0] == counts[1]
