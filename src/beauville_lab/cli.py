"""Command-line entry point.

    beauville-lab verify [SUITE ...] [options]
    beauville-lab eval --context {llv,k3,taut} "EXPR" [options]

Suites: llv, triple, k3-motive, theta-obstruction, all.  Exit code 0 when
every requested check verifies, 1 when any check is refuted or unsupported,
2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import dsl, k3, k3_mult, llv, mukai, obstruction
from .dr import corollary_theta_push
from .errors import OutsideModelError
from .lincomb import add_into
from .report import Report, exit_code, render_json, render_text

SUITES = ("llv", "triple", "k3-motive", "theta-obstruction")
HDIMS = range(6, 11)


def _failures(checks) -> List[str]:
    return [f"{name}: {witness}" if witness else name
            for name, holds, witness in checks if not holds]


def _check_report(check: str, checks, params: Dict[str, object],
                  assumptions: Optional[List[str]] = None,
                  elapsed_ms: Optional[float] = None) -> Report:
    bad = _failures(checks)
    if bad:
        return Report(check=check, status="refuted", params=params,
                      assumptions=assumptions or [],
                      witness="; ".join(bad[:4]), elapsed_ms=elapsed_ms)
    return Report(check=check, status="verified", params=params,
                  assumptions=assumptions or [],
                  witness=f"{len(checks)} identities hold",
                  elapsed_ms=elapsed_ms)


def run_llv_suite(hdim: int = 6, t: Fraction = Fraction(2), trials: int = 3,
                  seed: int = 0,
                  space: Optional[mukai.MukaiSpace] = None) -> List[Report]:
    params: Dict[str, object] = {"hdim": hdim, "t": t, "trials": trials,
                                 "seed": seed}
    if space is None:
        space = mukai.llv_model_space(hdim, t)
    else:
        params["space"] = "custom"
    quads = [llv.standard_quadruple(space)]
    quads += [llv.random_quadruple(space, seed + k) for k in range(trials)]

    reports = []
    suites = (
        ("llv-verbitsky", llv.verify_verbitsky),
        ("llv-isotropic-pairs", llv.verify_isotropic_sl2_pairs),
        ("llv-cross-triple", llv.verify_cross_triple),
        ("llv-double-bracket-recovery", llv.verify_double_bracket_recovery),
    )
    for check, func in suites:
        start = time.perf_counter()
        checks = []
        for quad in quads:
            checks.extend(func(space, quad))
        elapsed = (time.perf_counter() - start) * 1000.0
        reports.append(_check_report(check, checks, params, elapsed_ms=elapsed))
    return reports


def _tagged(checks, tag: str):
    return [(f"{name} {tag}", holds, witness) for name, holds, witness in checks]


def run_triple_suite(genera: Sequence[int] = tuple(range(2, 13)),
                     c0_values: Sequence[int] = (1, -1),
                     c1_values: Sequence[int] = (1, -1)) -> List[Report]:
    space = mukai.llv_model_space(6, Fraction(2))
    quad = llv.standard_quadruple(space)
    params: Dict[str, object] = {"genus": list(genera),
                                 "c0": list(c0_values),
                                 "c1": list(c1_values)}

    sl2_checks, conj_checks, compat_checks, isom_checks = [], [], [], []
    start = time.perf_counter()
    # the triple depends only on the signs; the genus enters only the
    # theta replay, the isometry and the lattice compatibility
    triples = {(c0, c1): llv.build_triple(space, quad, c0, c1)
               for c0 in c0_values for c1 in c1_values}
    conjugacy = {key: llv.verify_fourier_conjugacy(data)
                 for key, data in triples.items()}
    for g in genera:
        class_space = mukai.mukai_class_space(g)
        for c0 in c0_values:
            matrix = mukai.fourier_matrix(class_space, c0, 1)
            isom_checks.append((
                f"isometry g={g} c0={c0}",
                mukai.is_isometry(class_space, matrix),
                "",
            ))
            for c1 in c1_values:
                data = triples[(c0, c1)]
                tag = f"g={g} c0={c0} c1={c1}"
                sl2_checks.extend(_tagged(
                    llv.verify_theta_replay(data, g) + data.checks, tag))
                conj_checks.extend(_tagged(conjugacy[(c0, c1)], tag))
                compat_checks.extend(_tagged(
                    llv.verify_fourier_compatibility(data, g), tag))
    elapsed = (time.perf_counter() - start) * 1000.0
    return [
        _check_report("triple-replay-sl2", sl2_checks, params,
                      elapsed_ms=elapsed),
        _check_report("triple-fourier-conjugacy", conj_checks, params),
        _check_report("triple-fourier-isometry", isom_checks, params),
        _check_report("triple-fourier-compatibility", compat_checks, params),
    ]


def run_k3_suite() -> List[Report]:
    reports = []
    start = time.perf_counter()

    p = k3.projectors()
    checks = []
    for i in range(3):
        for j in range(3):
            want = p[i] if i == j else {}
            got = k3.rel_compose(p[i], p[j])
            checks.append((f"p{i} o p{j}", got == want, ""))
    delta_sum = add_into({}, (term for cycle in p for term in cycle.items()))
    checks.append(("p0 + p1 + p2 = diagonal",
                   delta_sum == dict(k3.rel("delta")), ""))
    reports.append(_check_report("k3-projectors", checks, {}))

    e0, f0, h0 = k3.sl2_cycles()
    checks = [("[e0, f0] = h0", k3.rel_bracket(e0, f0) == h0, "")]
    checks.append(("h0 = p2 - p0 in cycles",
                   h0 == {"p2s": Fraction(1), "p1s": Fraction(-1)}, ""))
    reports.append(_check_report("k3-sl2", checks, {}))

    checks = []
    for i, proj in enumerate(p):
        got = k3.rel_compose(h0, proj)
        want = {lab: (i - 1) * c for lab, c in proj.items() if (i - 1) * c}
        checks.append((f"h0 o p{i} = {i - 1} p{i}", got == want, ""))
    reports.append(_check_report("k3-weight-operator", checks, {}))

    checks = []
    for name, cycle, want in (("h0", h0, {lab: -c for lab, c in h0.items()}),
                              ("e0", e0, {lab: -c for lab, c in f0.items()}),
                              ("f0", f0, {lab: -c for lab, c in e0.items()})):
        got = k3.fourier_conjugate(cycle)
        checks.append((f"Finv o {name} o F = -{name}-partner", got == want, ""))
    reports.append(_check_report("k3-fourier-stability", checks, {}))

    diff, lam, residual, flags = k3_mult.multiplicativity_difference()
    checks = [
        ("difference is a multiple of the relative expression",
         not residual, f"lambda={lam}"),
        ("lambda = 1", lam == Fraction(1), f"lambda={lam}"),
    ]
    assumptions = sorted(set(flags) | {"relbv-axiom"})
    reports.append(_check_report("k3-multiplicativity", checks, {},
                                 assumptions=assumptions))

    pushed = k3_mult.abs_tri_push(k3_mult.relbv_expression())
    target = k3_mult.bv_absolute_expression()
    pair_push = k3_mult.abs_pair_push(k3.rel_mul(k3.rel("delta"), k3.rel("F")))
    coherence = pair_push == {("t", ("c", "f")): Fraction(1),
                              ("t", ("f", "c")): Fraction(1)}
    checks = [
        ("pushforward matches the absolute expression", pushed == target, ""),
        ("diagonal-fiber pushforward coherence", coherence, ""),
    ]
    reports.append(_check_report("k3-absolute-push", checks, {},
                                 assumptions=["bv-absolute-relation"]))

    elapsed = (time.perf_counter() - start) * 1000.0
    reports[0].elapsed_ms = elapsed
    return reports


def run_theta_suite(extra_genus: Optional[int] = None) -> List[Report]:
    reports = []

    def from_result(check: str, result) -> Report:
        params = {"name": result.name}
        bad = _failures(result.checks)
        witness = str(result.constant) if result.constant is not None else ""
        if result.theta_class:
            witness = result.theta_class
        if result.contradiction:
            witness = (f"b = {result.contradiction[0]} vs "
                       f"b = {result.contradiction[1]}")
        if bad:
            return Report(check=check, status="refuted", params=params,
                          assumptions=result.assumptions,
                          witness="; ".join(bad[:4]))
        return Report(check=check, status="verified", params=params,
                      assumptions=result.assumptions, witness=witness)

    try:
        reports.append(from_result("theta-genus3",
                                   obstruction.genus3_obstruction()))
        reports.append(from_result("theta-genus2-integral",
                                   obstruction.genus2_obstruction()))
        reports.append(from_result("theta-single-node",
                                   obstruction.single_node_theta()))
        high = [4, 5]
        if extra_genus is not None and extra_genus >= 6:
            high.append(extra_genus)
        for g in high:
            reports.append(from_result(
                f"theta-high-genus-g{g}",
                obstruction.high_genus_obstruction(g)))
        kappa = [2, 3]
        if extra_genus is not None and extra_genus not in kappa:
            kappa.append(extra_genus)
        for g in kappa:
            reports.append(from_result(
                f"theta-kappa-exclusion-g{g}",
                obstruction.kappa_exclusion_check(g)))
    except OutsideModelError as err:
        reports.append(Report(check="theta-pipeline", status="unsupported",
                              params={}, witness=str(err)))
        return reports

    cor = corollary_theta_push()
    checks = [
        ("coefficient = 1/48", cor.coefficient == Fraction(1, 48),
         str(cor.coefficient)),
        ("weight-deficit certificates",
         all(cert.holds() for cert in cor.certificates), ""),
        ("concrete genera", all(ok for _, ok in cor.concrete_checks),
         str(cor.concrete_checks)),
    ]
    reports.append(_check_report(
        "theta-power-push", checks,
        {"genera": [g for g, _ in cor.concrete_checks]}))
    return reports


def _run_suites(names: Sequence[str], args) -> List[Report]:
    reports: List[Report] = []
    for name in names:
        if name == "llv":
            reports.extend(run_llv_suite(args.hdim, args.t, args.trials,
                                         args.seed, args.space_obj))
        elif name == "triple":
            genera = [args.genus] if args.genus else list(range(2, 13))
            c0s = [args.c0] if args.c0 else [1, -1]
            c1s = [args.c1] if args.c1 else [1, -1]
            reports.extend(run_triple_suite(genera, c0s, c1s))
        elif name == "k3-motive":
            reports.extend(run_k3_suite())
        elif name == "theta-obstruction":
            reports.extend(run_theta_suite(args.genus))
    return reports


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from err


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
                        help="number of random quadruples")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the first random quadruple")
    verify.add_argument("--genus", type=int, default=None,
                        help="restrict the genus sweep (triple suite) or add "
                             "a genus (theta suite)")
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
    evaluate.add_argument("--locus", choices=dsl.LOCI, default="total",
                          help="taut context: locus of the generators")
    evaluate.add_argument("--hdim", type=int, choices=HDIMS, default=6,
                          help="llv context: middle dimension (6..10)")
    evaluate.add_argument("--t", type=_fraction_arg, default=Fraction(2))
    evaluate.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.trials < 0:
        parser.error("--trials must be nonnegative")
    if args.genus is not None and args.genus < 2:
        parser.error("--genus must be at least 2")
    if not args.t:
        parser.error("--t must be nonzero")
    args.space_obj = None
    if args.space:
        try:
            with open(args.space, "r", encoding="utf-8") as handle:
                args.space_obj = mukai.MukaiSpace.from_json(handle.read())
            if len(args.space_obj.middles) < 4:
                raise ValueError("need at least four middle vectors")
        except (OSError, ValueError, KeyError, TypeError) as err:
            parser.error(f"cannot load space from {args.space}: {err}")

    names: List[str] = []
    requested = list(args.suites)
    unknown = [s for s in requested if s not in (*SUITES, "all")]
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)}")
    if "all" in requested:
        requested = list(SUITES)
    for name in SUITES:
        if name in requested and name not in names:
            names.append(name)
    reports = _run_suites(names, args)
    if args.format == "text":
        output = render_text(reports, args.timings)
    else:
        output = render_json(reports, args.timings)
    if output:
        print(output)
    return exit_code(reports)


def _cmd_eval(args) -> int:
    try:
        tree = dsl.parse(args.expr)
        context = dsl.make_context(args.context, locus=args.locus,
                                   hdim=args.hdim, t=args.t)
        value = dsl.evaluate(tree, context)
        if args.context == "taut" and args.push is not None:
            kind, inner = value
            if kind != "taut":
                raise dsl.EvalError("--push needs a tautological class")
            value = ("taut", dsl.abelian_push(inner, args.push))
        kind, text = context.render(value)
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
            "kind": kind,
            "value": text,
        }
        print(json.dumps(body, sort_keys=True, indent=2))
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    return _cmd_eval(args)


if __name__ == "__main__":
    sys.exit(main())
