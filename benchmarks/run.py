"""spdelab benchmark: end-to-end and per-layer costs of three acceptance runs.

    python3 benchmarks/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the program is imported from
``src``; nothing is installed).  Each repetition is one call into
``spdelab.harness.run`` in a fresh process, one at a time, so peak RSS and
CPU time are that process's own.  A run makes ``S // nominal`` repetitions
of the workload (at least one), plus two processes that only set up, and
reports medians:

    wall_s       wall time of the call into harness.run, untraced
    cpu_s        user + sys CPU time of the repetition's process
    peak_rss_mb  peak resident set of the repetition's process
    setup_s      process start to the call into harness.run (interpreter,
                 import spdelab, config parse and validation)
    failed_frac  repetitions failed / attempted (printed; the JSON line
                 carries it as "failed" and "attempted")

A repetition fails when its process exits non-zero, raises or times out,
when a check row fails, when the row count is not the workload's, or when
its report.csv differs from the first run of the same config on the same
source tree (references live in .bench_out/reference/).

With ``--trace 1`` the run makes one untraced repetition and one under
``tracer.Tracer``, and the JSON line carries the per-layer metrics instead,
including the tracing overhead against the untraced repetition.  Every run
prints a machine stamp; results with different stamps are not comparable.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUPS = 2  # set-up-only processes per run, besides the repetitions' own set-up
DEADLINE_S = 170.0  # every repetition of one workload ends within this
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# end-to-end metrics: name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


def _read(path, default=None):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def source_hash() -> str:
    """Hash of the program's sources: the identity of the code measured."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    # git must not look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_stamp() -> dict:
    """The machine a result was measured on; the caller adds the code's
    identity, library versions and load average."""
    cpuinfo = _read("/proc/cpuinfo", "")
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.machine())
    meminfo = _read("/proc/meminfo", "")
    mem_kb = next((int(ln.split()[1]) for ln in meminfo.splitlines()
                   if ln.startswith("MemTotal:")), None)
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": l3.strip() if l3 else None,
        "ram_gb": round(mem_kb / 2**20, 1) if mem_kb else None,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def spawn(config_path: Path, flags=(), timeout=60.0):
    """Run benchmarks/child.py on a config file; returns (result, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(config_path),
             "--start", repr(start), *flags],
            capture_output=True, text=True, env=env, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit code {proc.returncode}: {tail}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def _write_config(raw: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    return path


def _reference(raw: dict) -> Path:
    """Where the first report.csv of this config on this source tree is kept."""
    key = {k: v for k, v in raw.items() if k != "output_dir"}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]
    return OUT / "reference" / source_hash() / f"{raw['experiment']}-{digest}.csv"


def _gate(workload, result: dict, raw: dict) -> list:
    """Reasons this repetition counts as failed (empty when it passed)."""
    problems = []
    if result["rows"] != workload.rows:
        problems.append(f"{result['rows']} check rows, expected {workload.rows}")
    if result["failed_checks"]:
        problems.append("checks failed: " + ", ".join(result["failed_checks"]))
    try:
        body = (Path(raw["output_dir"]) / "report.csv").read_bytes()
    except OSError as exc:
        return problems + [f"no report.csv: {exc}"]
    ref = _reference(raw)
    if not ref.exists():
        ref.parent.mkdir(parents=True, exist_ok=True)
        ref.write_bytes(body)
    elif ref.read_bytes() != body:
        problems.append(f"report.csv differs from the first run of this config ({ref.name})")
    return problems


def measure(workload, seed=None, seconds=30, trace=False, overrides=None) -> dict:
    """Run one workload; returns timings, failures and metrics."""
    run_dir = OUT / workload.name / f"seed-{'default' if seed is None else seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + DEADLINE_S
    # a traced run needs only one untraced repetition, for the tracing overhead
    reps = 1 if trace else max(1, int(seconds // workload.nominal_s))
    setups, walls, cpus, rss = [], [], [], []
    failures, attempted, failed, layers, versions = [], 0, 0, None, None

    setup_cfg = _write_config(workload.config(seed, run_dir / "setup", overrides),
                              run_dir / "setup.json")
    for i in range(SETUPS):
        r, error = spawn(setup_cfg, ["--setup-only"])
        if error:
            failures.append(f"set-up {i}: {error}")
        else:
            setups.append(r["setup_s"])

    for i in range(reps + bool(trace)):
        traced = i == reps
        label = "traced" if traced else f"rep{i}"
        raw = workload.config(seed, run_dir / label, overrides)
        flags = ["--trace", str(run_dir / label / "spans.json")] if traced else []
        r, error = spawn(_write_config(raw, run_dir / f"{label}.json"), flags,
                         timeout=deadline - time.monotonic())
        attempted += 1
        problems = [error] if error else _gate(workload, r, raw)
        if problems:
            failed += 1
            failures.append(f"{label}: " + "; ".join(problems))
        if r is None:
            continue
        setups.append(r["setup_s"])
        versions = r["versions"]
        if traced:
            layers = dict(r["layers"], **{"trace.wall_s": r["wall_s"]})
            counts = r["counts"]
        else:
            walls.append(r["wall_s"])
            cpus.append(r["cpu_s"])
            rss.append(r["peak_rss_mb"])

    out = {
        "workload": workload.name,
        "seed": seed,
        "repetitions": reps,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "versions": versions,
        "samples": {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss, "setup_s": setups},
        "metrics": None,
    }
    if not walls or not setups or (trace and layers is None):
        return out
    out["metrics"] = {
        "wall_s": median(walls),
        "cpu_s": median(cpus),
        "peak_rss_mb": median(rss),
        "setup_s": median(setups),
    }
    if trace:
        layers["trace.overhead_frac"] = layers.pop("trace.wall_s") / median(walls) - 1.0
        out["layers"] = layers
        out["counts"] = counts
    return out


def _print_block(res: dict, stamp: dict):
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print(f"== {res['workload']} (seed {res['seed'] if res['seed'] is not None else 'default'}):"
          f" {res['repetitions']} repetition(s), {len(res['samples']['setup_s'])} set-up(s)")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    metrics = res["metrics"] or {}
    for name, _, _ in END_TO_END:
        if name in metrics:
            n = len(res["samples"][name])
            print(f"  {name:<32} {metrics[name]:>14.6g} {units[name]:<6} median of {n}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':<32} {frac:>14.6g} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} failed")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    layers = res.get("layers") or {}
    for name, unit, _ in PER_LAYER if layers else []:
        value = layers[name]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<32} {shown} {unit}")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="mc.seed of the experiment (default: its acceptance seed)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spdelab" / "__init__.py").is_file():
        print(f"no spdelab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    stamp = machine_stamp()
    stamp.update(commit=_git_commit(), source=source_hash())
    results = []
    for name in names:
        stamp["loadavg_before"] = os.getloadavg()
        res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        stamp["loadavg_after"] = os.getloadavg()
        stamp["libs"] = res["versions"]
        _print_block(res, stamp)
        OUT.mkdir(exist_ok=True)
        with open(OUT / "results.jsonl", "a") as fh:
            fh.write(json.dumps({"stamp": stamp, **res}) + "\n")
        if res["metrics"] is None:
            print(f"{name}: no repetition completed", file=sys.stderr)
            return 1
        results.append(res)

    table = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for res in results:
        values = res["layers"] if args.trace else res["metrics"]
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for name, unit, _ in table:
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(not r["failures"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
