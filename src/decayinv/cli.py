"""Command line front end: argument parsing, the grids of a run without a
config, and printing.

The runner decides the gate: its result carries `violations`, one line
per failed gate (a bound failure, an identity error above tolerance, or
a slope/ratio outside its band), which are printed to stderr.  Exit
codes: 0 when there are none, 1 when there are, 2 on a configuration
error or on a typed library error that a config value raises.  Bracket
diagnostics are recorded in the output but never gate the exit code.
"""

import argparse
import sys

from .errors import (ConfigError, NumericalError, ParameterError, RangeError,
                     SingularityError)
from .experiments import RUNNERS, ExperimentConfig, write_rows

_DEFAULTS = {
    "toeplitz-sharpness": {"gamma_grid": [0.4, 0.2, 0.1, 0.05, 0.025],
                           "r_list": [1.0, 2.0]},
    "dd-sharpness": {"gamma_grid": [0.5, 0.4, 0.3, 0.2, 0.1],
                     "r_list": [2.0]},
    "jaffard-check": {"gamma_grid": [], "r_list": [2.0]},
    "quotient-verify": {"gamma_grid": [], "r_list": []},
    "besov-report": {"gamma_grid": [0.5, 0.3, 0.2], "r_list": [0.5, 1.5]},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="decayinv",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Sharpness sweeps and bound checks for inverses of "
                    "matrices with\noff-diagonal decay.",
        epilog="""commands:
  toeplitz-sharpness  inverse-norm growth of the resolvent family
  dd-sharpness        iterated-derivation norm growth of the resolvent
  jaffard-check       random polynomial-decay instances vs. J_r bounds
  quotient-verify     relative errors of the smoothness identities
  besov-report        Besov/hypersingular seminorm tables and checks""")
    parser.add_argument("command", choices=RUNNERS, metavar="command",
                        help="the experiment to run, one of those below")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment config")
    parser.add_argument("--out", metavar="PATH", help="row table destination")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="row table format (default csv)")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--window", type=int, metavar="N",
                        help="override window_N")
    return parser


def resolve_config(args):
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
        if cfg.experiment and cfg.experiment != args.command:
            raise ConfigError(
                f"config is for {cfg.experiment!r}, not {args.command!r}")
    else:
        cfg = ExperimentConfig(experiment=args.command,
                               **_DEFAULTS[args.command])
    cfg.experiment = args.command
    if args.seed is not None:
        cfg.seed = args.seed
    if args.window is not None:
        cfg.window_N = args.window
    if args.format is not None:
        cfg.format = args.format
    if args.out is not None:
        cfg.output = args.out
    if not cfg.output:
        cfg.output = f"{args.command}.{cfg.format}"
    cfg.validate()
    return cfg


def _print_summary(command, result, out):
    for r, fit in result.get("fits", {}).items():
        if fit is not None:
            print(f"  fit r={r}: slope {fit.slope:.6f} "
                  f"(residual {fit.residual:.2e})")
    for name, err in sorted(result.get("worst", {}).items()):
        print(f"  {name}: max rel err {err:.3e}")
    for r, entry in result.get("calibrations", {}).items():
        parts = ", ".join(f"{k} drift {v['drift']:.3f}"
                          for k, v in entry.items() if v["ratios"])
        if parts:
            print(f"  r={r}: {parts}")
    print(f"{command}: {len(result['rows'])} rows -> {out}")


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        cfg = resolve_config(args)
        result = RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, NumericalError, RangeError,
            SingularityError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    write_rows(result["rows"], cfg.output, cfg.format)
    _print_summary(args.command, result, cfg.output)
    for line in result["violations"]:
        print(f"violation: {line}", file=sys.stderr)
    return 1 if result["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
