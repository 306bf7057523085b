"""Per-layer spans and work counts for spdelab, taken from outside the package.

``Tracer`` replaces each traced function by a wrapper in every ``spdelab``
module namespace that holds it (``harness`` imports names with ``from .x
import y``, and the solver modules call each other through their own
globals), and patches ``CoefficientSet.drift`` on the class.  A wrapper opens
a span on entry and closes it on return; a span's self time is its duration
minus the time its child spans cover, so the self times of all spans add up
to the duration of the root ``harness`` span.  A call directly nested in a
span of the same name (``norm_x0`` calling ``inner_x0``, ``sample_tree_paths``
calling ``bridge_paths``) is folded into the outer span.

Work counts are computed from argument and result array sizes, not measured
by the program, and are named ``unknowns``, ``normals``, ``path_steps`` and
``bytes_computed``.  Tracing assumes a single thread (the workloads run with
``workers=1``); a traced call from another thread raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from statistics import median

import numpy as np

# (nx, n_steps) of the adjoint suite's fine and coarse levels
FINE = (201, 16)
COARSE = (101, 8)

# span name -> functions it covers, as "module:attribute" under spdelab
SPANS = {
    "harness": ["harness:run"],
    "backward.sweep": ["backward:backward_sweep"],
    "backward.solve_R": ["backward:solve_R"],
    "domain.thomas": ["domain:thomas_rows", "domain:solve_tridiag"],
    "forward.march": [
        "forward:solve_T_star", "forward:solve_G_star", "forward:solve_B_star",
        "forward:solve_R_star", "forward:solve_L_star", "forward:solve_density",
    ],
    "fields.norms": [
        "fields:inner_x0", "fields:pair_x0_dual", "fields:norm_x0",
        "fields:norm_xk", "fields:norm_c0",
    ],
    "fields.random_field": ["fields:smooth_random_field"],
    "tree.bundle": ["tree:bridge_paths", "tree:sample_tree_paths", "tree:free_paths"],
    "montecarlo.simulate": ["montecarlo:simulate"],
    "montecarlo.estimate": [
        "montecarlo:functional_estimate", "montecarlo:conditional_functional",
    ],
    "coefficients.drift": [
        "coefficients:CoefficientSet.drift", "coefficients:CoefficientSet.drift_nodes",
    ],
}

# spans whose per-call durations are kept by (grid.nx, tree.n_steps)
SIZED = {"backward.sweep", "forward.march"}


def _thomas_rows(a, out):
    X = a["X"]
    bands = X.shape[0] * X.shape[1]
    return {"unknowns": X.size, "bytes": X.itemsize * (2 * X.size + 3 * bands)}


def _solve_tridiag(a, out):
    bands = np.prod(np.broadcast_shapes(*(np.shape(a[k]) for k in ("lower", "diag", "upper"))))
    return {"unknowns": out.size, "bytes": out.itemsize * (2 * out.size + 3 * int(bands))}


def _bundle(a, out):
    return {"normals": out.increments.size, "bytes": out.increments.nbytes}


def _simulate(a, out):
    paths, s = a["paths"], a["s"]
    dt = paths.dt_mc
    return {
        "paths": paths.n_paths,
        "path_steps": paths.n_paths * (paths.n_fine - round(s / dt)),
        "alive_steps": int(np.rint((out.tau - s) / dt).sum()),
        "exited": int((out.tau < paths.times[-1]).sum()),
    }


def _solve_R(a, out):
    return {"iterations": out[1]["iterations"]}


# work counters per traced function: (bound arguments, result) -> increments
COUNTERS = {
    "domain:thomas_rows": _thomas_rows,
    "domain:solve_tridiag": _solve_tridiag,
    "tree:bridge_paths": _bundle,
    "tree:sample_tree_paths": _bundle,
    "tree:free_paths": _bundle,
    "montecarlo:simulate": _simulate,
    "backward:solve_R": _solve_R,
}

# per-layer metrics: name, unit, better
PER_LAYER = [
    ("backward.sweep.calls", "count", "lower"),
    ("backward.sweep.self_s", "s", "lower"),
    ("backward.sweep.fine_ms", "ms", "lower"),
    ("backward.sweep.coarse_ms", "ms", "lower"),
    ("backward.solve_R.calls", "count", "lower"),
    ("backward.solve_R.iterations", "count", "lower"),
    ("backward.solve_R.self_s", "s", "lower"),
    ("domain.thomas.calls", "count", "lower"),
    ("domain.thomas.self_s", "s", "lower"),
    ("domain.thomas.unknowns", "count", "lower"),
    ("domain.thomas.ns_per_unknown", "ns", "lower"),
    ("domain.thomas.bytes_computed", "bytes", "lower"),
    ("forward.march.calls", "count", "lower"),
    ("forward.march.self_s", "s", "lower"),
    ("forward.march.fine_ms", "ms", "lower"),
    ("fields.norms.calls", "count", "lower"),
    ("fields.norms.self_s", "s", "lower"),
    ("fields.random_field.self_s", "s", "lower"),
    ("tree.bundle.calls", "count", "lower"),
    ("tree.bundle.self_s", "s", "lower"),
    ("tree.bundle.normals", "count", "lower"),
    ("tree.bundle.ns_per_normal", "ns", "lower"),
    ("tree.bundle.bytes_computed", "bytes", "lower"),
    ("montecarlo.simulate.calls", "count", "lower"),
    ("montecarlo.simulate.self_s", "s", "lower"),
    ("montecarlo.path_steps", "count", "lower"),
    ("montecarlo.ns_per_path_step", "ns", "lower"),
    ("montecarlo.alive_step_frac", "ratio", "higher"),
    ("montecarlo.exit_frac", "ratio", "higher"),
    ("montecarlo.estimate.self_s", "s", "lower"),
    ("coefficients.drift.calls", "count", "lower"),
    ("coefficients.drift.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.sys_s", "s", "lower"),
    ("harness.minor_faults", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _resolve(target):
    """(holder, attribute, function) for a "module:attribute" target."""
    module, attr = target.split(":")
    holder = importlib.import_module("spdelab." + module)
    if "." in attr:
        cls, attr = attr.split(".")
        holder = getattr(holder, cls)
        return holder, attr, holder.__dict__[attr]
    return holder, attr, getattr(holder, attr)


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit.

    After the traced call, ``spans`` holds (id, parent id, name, start, end)
    tuples in closing order, and ``metrics()`` the per-layer metrics that
    the trace itself yields.
    """

    def __init__(self):
        self.spans = []
        self._stack = []  # open spans: [id, name, start, child time]
        self._thread = threading.get_ident()
        self._self_s = defaultdict(float)
        self._calls = defaultdict(int)
        self._counts = defaultdict(lambda: defaultdict(int))
        self._sized = defaultdict(list)  # (span, nx, n_steps) -> durations
        self._patched = []  # (holder, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        resolved = [(name, t, *_resolve(t)) for name, targets in SPANS.items() for t in targets]
        modules = [m for k, m in sys.modules.items() if k == "spdelab" or k.startswith("spdelab.")]
        for name, target, holder, attr, fn in resolved:
            wrapper = self._wrap(name, fn, COUNTERS.get(target))
            holders = [(holder, attr)]
            if inspect.ismodule(holder):
                holders = [(m, k) for m in modules for k, v in list(vars(m).items()) if v is fn]
            for h, k in holders:
                self._patched.append((h, k, fn))
                setattr(h, k, wrapper)

    def restore(self):
        while self._patched:
            holder, attr, fn = self._patched.pop()
            setattr(holder, attr, fn)

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter or name in SIZED else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"{name} traced from a second thread; trace with workers=1")
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span = [len(self.spans) + len(stack), name, time.perf_counter(), 0.0]
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = self._close(span)
            if sig is not None:
                a = sig.bind(*args, **kwargs).arguments
                if counter:
                    for key, n in counter(a, out).items():
                        self._counts[name][key] += n
                if name in SIZED:
                    self._sized[name, a["grid"].nx, a["tree"].n_steps].append(duration)
            return out

        return wrapper

    def _close(self, span):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = span
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self._self_s[name] += duration - child
        self._calls[name] += 1
        self.spans.append((sid, parent[0] if parent else None, name, start, end))
        return duration

    def metrics(self) -> dict:
        """Per-layer metrics from the trace (all of PER_LAYER except the
        harness rusage figures and trace.overhead_frac)."""
        s, n, c = self._self_s, self._calls, self._counts

        def per_ms(name, level):
            d = self._sized.get((name, *level))
            return 1e3 * median(d) if d else 0.0

        def ns_per(seconds, count):
            return 1e9 * seconds / count if count else 0.0

        def frac(a, b):
            return a / b if b else 0.0

        mc = c["montecarlo.simulate"]
        out = {
            "backward.sweep.fine_ms": per_ms("backward.sweep", FINE),
            "backward.sweep.coarse_ms": per_ms("backward.sweep", COARSE),
            "backward.solve_R.iterations": c["backward.solve_R"]["iterations"],
            "domain.thomas.unknowns": c["domain.thomas"]["unknowns"],
            "domain.thomas.ns_per_unknown": ns_per(s["domain.thomas"], c["domain.thomas"]["unknowns"]),
            "domain.thomas.bytes_computed": c["domain.thomas"]["bytes"],
            "forward.march.fine_ms": per_ms("forward.march", FINE),
            "tree.bundle.normals": c["tree.bundle"]["normals"],
            "tree.bundle.ns_per_normal": ns_per(s["tree.bundle"], c["tree.bundle"]["normals"]),
            "tree.bundle.bytes_computed": c["tree.bundle"]["bytes"],
            "montecarlo.path_steps": mc["path_steps"],
            "montecarlo.ns_per_path_step": ns_per(s["montecarlo.simulate"], mc["path_steps"]),
            "montecarlo.alive_step_frac": frac(mc["alive_steps"], mc["path_steps"]),
            "montecarlo.exit_frac": frac(mc["exited"], mc["paths"]),
            "montecarlo.estimate.self_s": s["montecarlo.estimate"],
            "harness.self_s": s["harness"],
        }
        for name in ("backward.sweep", "backward.solve_R", "domain.thomas", "forward.march",
                     "fields.norms", "tree.bundle", "montecarlo.simulate", "coefficients.drift"):
            out[name + ".calls"] = n[name]
            out[name + ".self_s"] = s[name]
        out["fields.random_field.self_s"] = s["fields.random_field"]
        return out

    def counts(self) -> dict:
        """The raw work counts and call counts: deterministic for a config."""
        out = {f"{name}.calls": k for name, k in self._calls.items()}
        for name, counts in self._counts.items():
            out.update({f"{name}.{key}": v for key, v in counts.items()})
        return out
