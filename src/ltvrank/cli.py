"""Command-line entry point: one subcommand per pipeline stage.

    ltvrank <stage> --config <path> [--set k=v ...] [--threads n] [--seed s]

Exit codes: 0 success, 1 validation error (bad config, missing or stale
stage inputs, corrupt artifact), 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    from .pipeline import STAGES

    parser = argparse.ArgumentParser(
        prog="ltvrank",
        description="Long-term-value labeling, training, and evaluation pipeline.")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES + ("all",):
        p = sub.add_parser(stage, help=f"run the {stage} stage"
                           if stage != "all" else "run every stage in order")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="key = value config file (defaults used if omitted)")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       dest="overrides", help="override one config key")
        p.add_argument("--threads", type=int, default=None,
                       help="cap worker threads (also caps BLAS threads)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--workdir", default=".", metavar="DIR",
                       help="artifact directory (default: current directory)")
    return parser


def _apply_thread_cap(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    # a --threads cap must land in the environment before numpy spins up
    # its thread pools, hence the argv peek ahead of heavy imports
    raw = list(sys.argv[1:] if argv is None else argv)
    for i, a in enumerate(raw):
        if a == "--threads" and i + 1 < len(raw) and raw[i + 1].isdigit():
            _apply_thread_cap(int(raw[i + 1]))
        elif a.startswith("--threads="):
            value = a.split("=", 1)[1]
            if value.isdigit():
                _apply_thread_cap(int(value))

    from .config import ConfigError, load_config
    from .pipeline import STAGES, StageInputError, run_stage

    args = build_parser().parse_args(raw)
    try:
        overrides: dict[str, str] = {}
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = load_config(args.config, overrides)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"ltvrank: validation error: {exc}", file=sys.stderr)
        return 1

    stages = STAGES if args.stage == "all" else (args.stage,)
    loaded: dict = {}  # artifacts handed from stage to stage in memory
    try:
        for stage in stages:
            status = run_stage(stage, config, args.workdir, loaded)
            print(f"ltvrank {stage}: {status}")
    except (StageInputError, ConfigError, ValueError) as exc:
        print(f"ltvrank: validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"ltvrank: runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
