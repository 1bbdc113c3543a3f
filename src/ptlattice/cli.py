"""Command-line front end.

    ptlattice <bands|evolve|sweep|multicross|twomode> --config FILE
              [--svg] [--jobs N] [--out PREFIX]

--config accepts a path or the name of a bundled preset (fig1a, fig4b, ...),
and the config describes the computation alone.  Each run writes PREFIX.csv
(CSV with a '#'-prefixed JSON metadata line) and, with --svg, PREFIX.svg;
PREFIX is --out, else the stem of --config (fig4b for runs/fig4b.json).
No flag changes the CSV bytes; --jobs defaults to 1.  Exit codes:
0 success, 2 configuration error or operating-system error (such as an
output location that cannot be created or written), 3 numerical-accuracy
failure (a run recorded accuracy warnings).  The output directory is
created, and the output files are checked to be writable, before the run.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from pathlib import Path

from .config import KINDS, load_config
from .errors import ConfigError, DegenerateBandError, ParameterError, PhaseError
from .experiments import RUNNERS, render_chart


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="ptlattice",
        description="Complex-lattice band structures, driven interband transitions, "
        "and two-level sweep theory.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="JSON config file or preset name")
        p.add_argument("--svg", action="store_true", help="also write an SVG chart")
        p.add_argument("--jobs", type=int, default=1,
                       help="processes for sweep points, this one included")
        p.add_argument("--out", help="output path prefix (default: the config's file stem)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"
            )
        if args.jobs < 1:
            raise ConfigError("jobs: expected a positive integer")
        prefix = Path(args.config).stem if args.out is None else args.out
        # "sub/", ".", "..", "sub/." and "sub/.." would write hidden files
        if os.path.basename(prefix) in ("", ".", ".."):
            raise ConfigError(f"--out {prefix!r} names a directory, not an output path prefix")
        # an output directory that cannot be created, or an output file that
        # cannot be written there, fails before the run
        csv_path, svg_path = Path(f"{prefix}.csv"), Path(f"{prefix}.svg")
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        for path in (csv_path, svg_path) if args.svg else (csv_path,):
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
            if not os.access(path if path.exists() else path.parent, os.W_OK):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
        runner = RUNNERS[cfg.kind]
        table = runner(cfg, jobs=args.jobs) if cfg.kind == "sweep" else runner(cfg)
        table.write_csv(csv_path)
        print(f"wrote {csv_path}")
        if args.svg:
            render_chart(cfg, table, svg_path)
            print(f"wrote {svg_path}")
    except (ConfigError, ParameterError, PhaseError, DegenerateBandError, OSError) as exc:
        print(f"ptlattice: error: {exc}", file=sys.stderr)
        return 2

    warnings = table.metadata.get("warnings", [])
    if warnings:
        for message in warnings:
            print(f"ptlattice: accuracy: {message}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
