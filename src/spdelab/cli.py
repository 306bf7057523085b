"""Command line interface for the experiment harness.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 for
configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, ExperimentConfig, list_experiments, read_config, run, set_seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="Run the verification experiments of the stochastic "
        "parabolic laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override mc.seed")
    p_run.add_argument("--out-dir", default=None, help="override the output directory")

    sub.add_parser("list-experiments", help="list the known experiment names")

    p_val = sub.add_parser("validate-config", help="parse and validate a config file")
    p_val.add_argument("config", help="path to the JSON config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name in list_experiments():
            print(name)
        return 0
    try:
        raw = read_config(args.config)
        if args.command == "run":
            set_seed(raw, args.seed)
            if args.out_dir is not None:
                raw["output_dir"] = args.out_dir
        config = ExperimentConfig.from_dict(raw)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate-config":
        print(f"config ok: experiment {config.experiment!r}")
        return 0
    try:
        report = run(config)
    except Exception as exc:  # solver failures, degenerate regimes, ...
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    for row in report.rows:
        status = "pass" if row.passed else "FAIL"
        print(f"[{status}] {row.check} (anchor {row.paper_anchor}): "
              f"lhs={row.lhs:.6g} rhs={row.rhs:.6g} tol={row.tol:.3g}")
    print(f"{'PASS' if report.passed else 'FAIL'}: {config.experiment} "
          f"({len(report.rows)} checks, {report.elapsed:.1f} s)")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
