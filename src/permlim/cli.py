"""Command-line entry point: `permlim <subcommand> --config <path>`.

Subcommands: validate-cost, solve-bridge, converge, balance-study.
Exit codes: 0 success, 1 config error, unreadable/unwritable file or
out of memory, 2 validation failure, 3 bridge failure, 4 balance failure, 5 spectral
hypothesis failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import PermlimError
from .lab import (load_config, run_balance_study, run_converge,
                  run_solve_bridge, run_validate_cost)

_SUBCOMMANDS = ("validate-cost", "solve-bridge", "converge", "balance-study")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlim",
        description="Numerical studies of permanent limits for doubly "
                    "stochastic kernels")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to an INI study configuration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.subcommand == "validate-cost":
            _, code = run_validate_cost(config)
            return code
        if args.subcommand == "solve-bridge":
            run_solve_bridge(config)
        elif args.subcommand == "converge":
            run_converge(config)
        else:
            run_balance_study(config)
        return 0
    except PermlimError as exc:
        print(f"permlim: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        # bad numerical input discovered mid-stage (asymmetry, negativity, ...)
        print(f"permlim: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. an output path in a missing directory
        print(f"permlim: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. an n_list entry whose n x n kernel does not fit in memory
        detail = f": {exc}" if str(exc) else ""
        print(f"permlim: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
