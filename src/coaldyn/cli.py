"""Command-line entry point: ``coaldyn run <config> [overrides]``.

Exit codes: 0 success, 2 configuration problems (a ``mu`` that leaves the
chain reducible, an output directory that cannot be made), 3 capacity limits,
4 solver non-convergence, 5 a child process (a sweep panel or simulator
segment) that failed to start or to send a result, 6 an output file or the
manifest that cannot be written once the output directory exists (a full
disk, a directory in the file's place).  Each failure prints a single
machine-parsable line ``error: <category>: <reason>`` to stderr.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coaldyn",
        description="Coalition-structured public-goods dynamics experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one configured experiment")
    run_parser.add_argument("config", help="path to an INI experiment config file")
    run_parser.add_argument("--out", metavar="DIR", help="output directory override")
    run_parser.add_argument("--seed", type=int, metavar="N", help="seed override")
    run_parser.add_argument(
        "--format", metavar="LIST",
        help="comma-separated output formats from {csv, json, svg}",
    )
    run_parser.add_argument(
        "--experiment", metavar="NAME",
        help="experiment name override (field, stationary, sweep-alpha, "
             "informed-map, k-profile, s1-compare, montecarlo)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from .config import load_config
    from .errors import (CapacityError, ConfigError, NonConvergenceError, OutputError, ReducibleChainError,
                         WorkerError)
    from .experiments import run_experiment

    formats = None
    if args.format is not None:
        formats = tuple(p for p in args.format.replace(",", " ").split() if p)
    try:
        cfg = load_config(
            args.config,
            out_dir=args.out,
            seed=args.seed,
            formats=formats,
            experiment=args.experiment,
        )
        manifest = run_experiment(cfg)
    except (ConfigError, ReducibleChainError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"error: nonconvergence: {exc}", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"error: worker: {exc}", file=sys.stderr)
        return 5
    except OutputError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return 6
    print(f"wrote {len(manifest.outputs)} outputs and manifest.json to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
