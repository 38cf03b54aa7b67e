"""Command-line entry point.

    qtraj run <config> [--out DIR] [--validate-only] [--threads N]

Exit codes: 0 success, 2 config error (including unreadable files),
3 one or more tasks faulted.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .runner import execute


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtraj")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a run configuration")
    run.add_argument("config", help="path to the config file")
    run.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    run.add_argument(
        "--validate-only",
        action="store_true",
        help="parse and validate the config, run nothing",
    )
    run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1); no effect on work or results",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    if args.validate_only:
        print(f"config OK: tasks = {', '.join(config.tasks) or '(none)'}")
        return 0
    manifest = execute(config, out_dir=args.out)
    for name in manifest.artifacts:
        print(f"wrote {name}")
    if not manifest.ok:
        for task, msg in manifest.failures.items():
            print(f"task {task} failed: {msg}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
