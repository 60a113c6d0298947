"""Command line entry point.

Subcommands: evolve, vlasov, scaling-study, chaos-check, verify-bounds.
Global flags --config PATH, --out DIR, --seed N.  Failures print a
machine-readable `error: <code>: <message>` line on stderr and exit with
the documented status: 2 radius-exceeded, 3 ruelle-violated,
4 nonfinite-state, 5 parse-error, 1 anything else.  Usage errors are
invalid-argument (status 1); -h prints help and exits 0.
"""

import argparse
import os
import sys
from dataclasses import replace

from .config import ExperimentConfig, parse_config
from .errors import GlauberLabError, InvalidArgumentError
from .harness import (
    cmd_chaos_check,
    cmd_evolve,
    cmd_scaling_study,
    cmd_verify_bounds,
    cmd_vlasov,
)

EXIT_CODES = {
    "radius-exceeded": 2,
    "ruelle-violated": 3,
    "nonfinite-state": 4,
    "parse-error": 5,
}

DEFAULT_EPSILONS = "0.4,0.2,0.1,0.05"


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid-argument instead of argparse's usage text and status 2."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _build_parser():
    parser = _Parser(
        prog="glauberlab",
        description="Birth-and-death hierarchy evolution and mean-field scaling runs.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", default="out", help="output directory for CSV files")
    parser.add_argument("--seed", type=int, help="override rng.seed from the config")
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="evolve the configured product state")
    evolve.add_argument(
        "--mode",
        choices=("auto", "local", "global"),
        default="auto",
        help="force one guarded local solve or envelope continuation",
    )
    sub.add_parser("vlasov", help="integrate the mean-field kinetic equation")
    scaling = sub.add_parser(
        "scaling-study", help="rescaled-vs-limit evolution gaps over an epsilon sweep"
    )
    scaling.add_argument(
        "--epsilons",
        default=DEFAULT_EPSILONS,
        help="comma-separated positive epsilon values (default %s)" % DEFAULT_EPSILONS,
    )
    sub.add_parser("chaos-check", help="product-form preservation under the limit flow")
    verify = sub.add_parser("verify-bounds", help="sampled inequality suites")
    verify.add_argument("--cases", type=int, default=100, help="number of sampled cases")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            if args.seed < 0:
                raise InvalidArgumentError("--seed must be non-negative, got %d" % args.seed)
            cfg = replace(cfg, seed=args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            msg = "cannot create output directory %s: %s" % (args.out, exc.strerror)
            raise InvalidArgumentError(msg) from None

        if args.command == "evolve":
            report = cmd_evolve(cfg, args.out, mode=args.mode)
            print(
                "evolve: t_final=%s restarts=%d tail=%.3g"
                % (cfg.t_final, report.restarts, report.tail_estimate)
            )
        elif args.command == "vlasov":
            residual, bound_ok, closed_err = cmd_vlasov(cfg, args.out)
            line = "vlasov: residual=%.6g bound=%s" % (
                residual,
                "pass" if bound_ok else "fail",
            )
            if closed_err is not None:
                line += " closed_form_error=%.3g" % closed_err
            print(line)
        elif args.command == "scaling-study":
            try:
                epsilons = [float(piece) for piece in args.epsilons.split(",") if piece]
            except ValueError:
                raise InvalidArgumentError(
                    "--epsilons must be comma-separated numbers, got %r" % args.epsilons
                ) from None
            result = cmd_scaling_study(cfg, args.out, epsilons)
            print("scaling-study: fitted_order=%.4f" % result.fitted_order)
        elif args.command == "chaos-check":
            dev1, dev2, passed = cmd_chaos_check(cfg, args.out)
            print(
                "chaos-check: dev1=%.3g dev2=%.3g verdict=%s"
                % (dev1, dev2, "pass" if passed else "fail")
            )
        else:
            violations = cmd_verify_bounds(cfg, args.out, n_cases=args.cases)
            total = sum(violations.values())
            print("verify-bounds: violations=%d" % total)
    except GlauberLabError as exc:
        sys.stderr.write("error: %s: %s\n" % (exc.code, exc))
        return EXIT_CODES.get(exc.code, 1)
    except OSError as exc:  # inputs are read behind their own errors, so this is an output file
        msg = "cannot write %s: %s" % (exc.filename, exc.strerror)
        sys.stderr.write("error: invalid-argument: %s\n" % msg)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
