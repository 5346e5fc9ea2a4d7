"""Command-line entry point.

    beauville-lab verify [SUITE ...] [options]
    beauville-lab eval --context {llv,k3,taut} "EXPR" [options]

Suites: llv, triple, k3-motive, theta-obstruction, all.  Exit code 0 when
every requested check verifies, 1 when any check is refuted or unsupported,
2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from importlib import import_module
from typing import Optional, Sequence

from .errors import OutsideModelError
from .taut import LOCI


def _module(name: str):
    """The package's module of that name, imported on first use."""
    return import_module(f".{name}", __package__)


# each suite's runner, read from its module when the suite runs and called
# with the parsed verify arguments; --genus, --c0 and --c1 each narrow one
# sweep of the triple suite to one value
SUITES = {
    "llv": lambda args: _module("llv").run_llv_suite(args.hdim, args.t, args.trials,
                                                     args.seed, args.space_obj),
    "triple": lambda args: _module("llv").run_triple_suite(**{
        key: [value] for key, value in (("genera", args.genus),
                                        ("c0_values", args.c0),
                                        ("c1_values", args.c1)) if value}),
    "k3-motive": lambda args: _module("k3_mult").run_k3_suite(),
    "theta-obstruction": lambda args: _module("obstruction").run_theta_suite(args.genus),
}
# the module of each runner that cli offers as its own attribute
_RUNNERS = {"run_llv_suite": "llv", "run_triple_suite": "llv",
            "run_k3_suite": "k3_mult", "run_theta_suite": "obstruction"}


def __getattr__(name: str):   # cli.run_llv_suite and the others (PEP 562)
    if name not in _RUNNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_module(_RUNNERS[name]), name)


HDIMS = range(6, 11)
# the theta suite's extra genus costs a few ms (g = 16: about 6 ms)
MAX_GENUS = 16
# each trial adds one random quadruple to every llv report, so the cost is
# linear in the trials (--hdim 10, 100 trials: about 0.5 s wall)
MAX_TRIALS = 100


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from err


# built on first use and shared by every later main() call: keep it stateless
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beauville-lab",
        description="Exact verification engine for Beauville decompositions")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suites", nargs="*",
                        help=f"suites to run: {', '.join(SUITES)}, all "
                             "(default: none)")
    verify.add_argument("--hdim", type=int, choices=HDIMS, default=6,
                        help="middle dimension of the model space (6..10)")
    verify.add_argument("--t", type=_fraction_arg, default=Fraction(2),
                        help="middle-basis norm parameter (rational)")
    verify.add_argument("--trials", type=int, default=3,
                        help=f"number of random quadruples (0..{MAX_TRIALS})")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the first random quadruple")
    verify.add_argument("--genus", type=int, default=None,
                        help="restrict the genus sweep (triple suite) or add "
                             f"a genus (theta suite); 2..{MAX_GENUS}")
    verify.add_argument("--c0", type=int, choices=(1, -1), default=None)
    verify.add_argument("--c1", type=int, choices=(1, -1), default=None)
    verify.add_argument("--space", default=None,
                        help="JSON file with a custom class-space")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--timings", action="store_true",
                        help="include elapsed milliseconds in the output")

    evaluate = sub.add_parser("eval", help="evaluate a single expression")
    evaluate.add_argument("expr", help="expression to evaluate")
    evaluate.add_argument("--context", choices=("llv", "k3", "taut"),
                          required=True)
    evaluate.add_argument("--push", type=int, default=None,
                          help="taut context: push along an n-dimensional "
                               "abelian fibration")
    evaluate.add_argument("--locus", choices=LOCI, default="total",
                          help="taut context: locus of the generators")
    evaluate.add_argument("--hdim", type=int, choices=HDIMS, default=6,
                          help="llv context: middle dimension (6..10)")
    evaluate.add_argument("--t", type=_fraction_arg, default=Fraction(2))
    evaluate.add_argument("--format", choices=("json", "text"), default="text")
    # each command's own parser, to which _parse hands the command's arguments
    parser.commands = {"verify": verify, "eval": evaluate}
    return parser


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    from .report import exit_code, render_json, render_text
    if not 0 <= args.trials <= MAX_TRIALS:
        parser.error(f"--trials must be between 0 and {MAX_TRIALS}")
    if args.genus is not None and not 2 <= args.genus <= MAX_GENUS:
        parser.error(f"--genus must be between 2 and {MAX_GENUS}")
    if not args.t:
        parser.error("--t must be nonzero")
    args.space_obj = None
    if args.space:
        from . import llv, mukai
        try:
            with open(args.space, "r", encoding="utf-8") as handle:
                args.space_obj = mukai.MukaiSpace.from_json(handle.read())
            llv.standard_quadruple(args.space_obj)
            if args.trials:
                llv.random_quadruple(args.space_obj, args.seed)
        except (OSError, ValueError, KeyError, TypeError, RecursionError,
                OverflowError) as err:
            parser.error(f"cannot load space from {args.space}: {err}")

    requested = list(args.suites)
    unknown = [s for s in requested if s not in (*SUITES, "all")]
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)}")
    reports = [report for name, run in SUITES.items()
               if name in requested or "all" in requested for report in run(args)]
    render = render_text if args.format == "text" else render_json
    output = render(reports, args.timings)
    if output:
        print(output)
    return exit_code(reports)


def _cmd_eval(args) -> int:
    from . import dsl
    try:
        tree = dsl.parse(args.expr)
        context = dsl.make_context(args.context, locus=args.locus,
                                   hdim=args.hdim, t=args.t)
        value = dsl.evaluate(tree, context)
        if args.context == "taut" and args.push is not None:
            value = dsl.push(value, args.push)
        # str() is where a number past Python's digit limit would raise
        text = str(value)
    except dsl.DslError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (dsl.EvalError, OutsideModelError, ValueError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return 1
    if args.format == "json":
        body = {
            "schema_version": 1,
            "context": args.context,
            "expr": dsl.print_expr(tree),
            "kind": dsl.kind(value),
            "value": text,
        }
        print(json.dumps(body, sort_keys=True, indent=2))
    else:
        print(text)
    return 0


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """parser.parse_args(argv), with a command's arguments read once, by its
    own parser; what that leaves is refused as parse_args refuses it."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = _parse(parser, sys.argv[1:] if argv is None else argv)
    try:
        code = _cmd_verify(args, parser) if args.command == "verify" else _cmd_eval(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): point it at devnull,
        # so that the flush at exit does not fail again, and exit 1 (the
        # SIGPIPE note of the signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
