"""Command-line front end.

    ptlattice <bands|evolve|sweep|multicross|twomode> --config FILE
              [--svg] [--jobs N] [--out PREFIX]

--config accepts a path or the name of a bundled preset (fig1a, fig4b, ...).
Each run writes PREFIX.csv (CSV with a '#'-prefixed JSON metadata line) and,
with --svg, PREFIX.svg.  Exit codes: 0 success, 2 configuration error or
operating-system error (such as an output location that cannot be created
or written), 3 numerical-accuracy failure (a run recorded accuracy
warnings).  The output directory is created before the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import KINDS, load_config, parse_config
from .errors import ConfigError, DegenerateBandError, ParameterError, PhaseError
from .experiments import RUNNERS, render_chart


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--jobs", type=int, default=None, help="worker processes for sweeps")
        p.add_argument("--out", default=None, help="output path prefix")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"
            )
        # the flags given go through the config's own checks, as if in the file
        flags = {"jobs": args.jobs, "svg": args.svg or None, "out": args.out or None}
        cfg = parse_config(cfg.doc | {k: v for k, v in flags.items() if v is not None})
        # an output directory that cannot be created fails before the run
        prefix = cfg.doc["out"]
        csv_path = Path(f"{prefix}.csv")
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        table = RUNNERS[cfg.kind](cfg)
        table.write_csv(csv_path)
        print(f"wrote {csv_path}")
        if cfg.doc["svg"]:
            svg_path = Path(f"{prefix}.svg")
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
