"""Command-line front end: one subcommand per scenario.

    fracflow <scenario> [--config PATH] [--out DIR] [--seed S]

Without --config a built-in constant-exponent configuration is used.
--out overrides the config's output directory ``out``, and --seed its
``seed``.  The numpy kernels used here are fixed-order reductions, so
artifacts are byte-identical for a fixed config and seed.

Exit status: 0 when every scenario verdict passed, 1 on failed verdicts (a
violated exponent assumption is the failed verdict ``assumptions``), 2 on
configuration or I/O errors.
"""

import argparse
import sys

from .config import default_config, load_config
from .errors import ConfigError, InvalidResolution
from .scenarios import SCENARIOS, run_scenario

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracflow",
        description="numerical laboratory for a nonlocal variable-exponent flow",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in sorted(SCENARIOS):
        sp = sub.add_parser(name, help="run the %s scenario" % name)
        sp.add_argument("--config", default=None, help="path to a key = value config file")
        sp.add_argument("--out", default=None, help="output directory for artifacts")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config(args.scenario)
        cfg.scenario = args.scenario
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        return run_scenario(cfg)
    except (ConfigError, InvalidResolution) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
