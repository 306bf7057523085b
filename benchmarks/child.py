"""Run one spdelab experiment in this process and print what it cost.

    python3 benchmarks/child.py CONFIG --start T [--setup-only] [--trace SPANS]

T is the parent's ``time.monotonic()`` taken just before it started this
process, so ``setup_s`` covers interpreter start, ``import spdelab`` and the
config parse and validation, up to the call into ``harness.run``.  With
``--trace`` the call runs under ``tracer.Tracer`` and the spans go to SPANS.
The last line of standard output is one JSON object.  ``spdelab`` must be
importable (the parent puts ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    from spdelab import harness

    config = harness.ExperimentConfig.from_json(args.config)
    out = {"setup_s": time.monotonic() - args.start}
    if not args.setup_only:
        before = resource.getrusage(resource.RUSAGE_SELF)
        if args.trace:
            from tracer import Tracer

            with Tracer() as tracer:
                start = time.monotonic()
                report = harness.run(config)
                out["wall_s"] = time.monotonic() - start
        else:
            start = time.monotonic()
            report = harness.run(config)
            out["wall_s"] = time.monotonic() - start
        ru = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = ru.ru_utime + ru.ru_stime
        out["peak_rss_mb"] = ru.ru_maxrss / 1024.0
        out["rows"] = len(report.rows)
        out["failed_checks"] = [r.check for r in report.rows if not r.passed]
        if args.trace:
            out["layers"] = tracer.metrics()
            out["layers"]["harness.sys_s"] = ru.ru_stime - before.ru_stime
            out["layers"]["harness.minor_faults"] = ru.ru_minflt - before.ru_minflt
            out["counts"] = tracer.counts()
            with open(args.trace, "w") as fh:
                json.dump({"wall_s": out["wall_s"], "spans": tracer.spans}, fh)

    import numpy
    import scipy

    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
