"""Command line front end.

Each subcommand sets its spec class as the `spec` default and names its
argparse dests after that spec's fields, so one line builds the spec from
the parsed arguments.  All configuration problems, including argparse-level
ones, exit with status 1; partial results (some track points not found)
exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError
from .runs import (
    FORMAT_VERSION,
    BesselEvalSpec,
    ClassifySpec,
    Delta1dSpec,
    LambertEvalSpec,
    PhaseSpec,
    TrackSpec,
    neg_eps_grid,
    quad_eps_grid,
    run,
    run_figure,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; config errors are exit 1 here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_eps_grid(text: str) -> tuple[float, ...]:
    """Grid forms: comma list, quad:N:delta, or neg:kmin:kmax:delta."""
    try:
        if text.startswith("quad:"):
            _, n_s, delta_s = text.split(":")
            return quad_eps_grid(int(n_s), float(delta_s))
        if text.startswith("neg:"):
            _, kmin_s, kmax_s, delta_s = text.split(":")
            return neg_eps_grid(int(kmin_s), int(kmax_s), float(delta_s))
        return tuple(float(tok) for tok in text.split(","))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse eps grid {text!r}: {exc}") from exc


def parse_eps_offsets(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse eps offsets {text!r}: {exc}") from exc


def build_parser() -> _Parser:
    # the parse_eps_* types raise ConfigError, which main() reports
    parser = _Parser(prog="resonance-lab")
    parser.add_argument("--output", default=".", help="directory for CSV output")
    parser.add_argument(
        "--format-version",
        default=FORMAT_VERSION,
        choices=[FORMAT_VERSION],
        help="CSV format version tag",
    )
    parser.add_argument(
        "--figure", type=int, default=None, help="run a numbered figure preset (1..6)"
    )
    parser.add_argument(
        "--panel", default=None, help="restrict a figure preset to one panel"
    )

    # re-declared on each subcommand (SUPPRESS keeps the global defaults)
    # so `resonance-lab track ... --output dir` works in either position
    common = _Parser(add_help=False)
    common.add_argument("--output", default=argparse.SUPPRESS)
    common.add_argument(
        "--format-version", choices=[FORMAT_VERSION], default=argparse.SUPPRESS
    )
    common.add_argument("--name", default=None)

    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    def add(name: str, spec, summary: str) -> _Parser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(spec=spec)
        return p

    p_track = add("track", TrackSpec, "follow a resonance along a depth family")
    p_track.add_argument("--l", dest="ell", type=int, required=True, help="angular mode")
    p_track.add_argument("--a0sq-from-zero", dest="l0", type=int, required=True, metavar="L0",
                         help="base depth a0 = j_{L0,1}/rho (first zero of J_L0)")
    p_track.add_argument("--rho", type=float, default=1.0)
    p_track.add_argument("--eps-grid", type=parse_eps_grid, required=True)
    p_track.add_argument("--branch", type=int, default=None)

    p_phase = add("phase", PhaseSpec, "total scattering phase derivative table")
    p_phase.add_argument("--a0sq-from-zero", dest="l0", type=int, required=True, metavar="L0")
    p_phase.add_argument("--rho", type=float, default=1.0)
    p_phase.add_argument(
        "--eps", type=parse_eps_offsets, required=True, help="offset e or list 0,e,-e"
    )
    p_phase.add_argument("--lambda-min", type=float, default=0.0)
    p_phase.add_argument("--lambda-max", type=float, required=True)
    p_phase.add_argument("--steps", type=int, required=True)
    p_phase.add_argument("--per-mode", action="store_true")

    p_cls = add("classify", ClassifySpec, "zero-energy behaviour per mode")
    p_cls.add_argument("--a", type=float, required=True)
    p_cls.add_argument("--rho", type=float, default=1.0)
    p_cls.add_argument("--lmax", dest="l_max", type=int, required=True)

    p_delta = add("delta1d", Delta1dSpec, "1d delta-well benchmark")
    p_delta.add_argument("--a", type=float, required=True)
    p_delta.add_argument("--k-max", type=int, required=True)
    p_delta.add_argument("--lambda-min", type=float, default=0.0)
    p_delta.add_argument("--lambda-max", type=float, required=True)
    p_delta.add_argument("--steps", type=int, required=True)

    p_bessel = add("bessel-eval", BesselEvalSpec, "evaluate one cylinder function")
    p_bessel.add_argument("kind", choices=["j", "y", "h1", "h2"])
    p_bessel.add_argument("ell", type=int)
    p_bessel.add_argument("abs_z", type=float)
    p_bessel.add_argument("arg_z", type=float)

    p_lambert = add("lambert-eval", LambertEvalSpec, "evaluate one Lambert W branch")
    p_lambert.add_argument("n", type=int)
    p_lambert.add_argument("re", type=float)
    p_lambert.add_argument("im", type=float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.figure is not None:
            if args.subcommand is not None:
                raise ConfigError("--figure and a subcommand are mutually exclusive")
            result = run_figure(args.figure, panel=args.panel, output_dir=args.output)
        elif args.panel is not None:
            raise ConfigError("--panel only applies to --figure runs")
        elif args.subcommand is None:
            raise ConfigError("one of the subcommands or --figure is required")
        else:
            fields = dataclasses.fields(args.spec)
            spec = args.spec(**{f.name: getattr(args, f.name) for f in fields})
            # outputs are named after the subcommand unless --name is given
            result = run(spec, args.output, args.name or args.subcommand.replace("-", "_"))
    except ConfigError as exc:
        print(f"resonance-lab: error: {exc}", file=sys.stderr)
        return 1
    for path in result.paths:
        print(path)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
