"""The benchmark's four workloads and the correctness gate.

Every workload turns the seed into a fixed list of operations, and one pass
runs that list once through the engine's public API.  The client is closed
loop and single threaded: each call starts when the previous verdict is back.

A wrong verdict or output raises ``GateError`` and the run stops without
numbers.  The one outcome that is counted instead of stopping the run is an
uncaught exception on a malformed ``cli-mix`` request: those are known
defects (``eval "1/0"``, ``verify llv --t 0``, ``verify --space`` on a
``MukaiSpace.to_json()`` file) that a later fix should turn into clean
rejections, which shows as a drop in ``failed_frac``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from beauville_lab import cli, obstruction
from beauville_lab.mukai import llv_model_space

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all_seed0.json"
WORKLOADS = ("verify-all", "theta-sweep", "llv-wide", "cli-mix")


class GateError(Exception):
    """The engine gave a wrong verdict or output."""


@dataclass
class Outcome:
    reports: int = 1      # operations this call accounts for
    failed: int = 0       # of which failed (counted, not fatal)


@dataclass
class Op:
    """One call into the engine: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


# -- shared checks ---------------------------------------------------------------


def _all_verified(reports, what: str, expect: Optional[int] = None) -> Outcome:
    bad = [r.check for r in reports if r.status != "verified"]
    if bad:
        raise GateError(f"{what}: not verified: {', '.join(bad)}")
    if not reports or (expect is not None and len(reports) != expect):
        raise GateError(f"{what}: {len(reports)} reports, expected {expect}")
    return Outcome(reports=len(reports))


def _result_holds(result, what: str) -> Outcome:
    bad = [name for name, holds, _ in result.checks if not holds]
    if bad or not result.checks:
        raise GateError(f"{what}: checks fail: {', '.join(bad) or 'none run'}")
    return Outcome()


@dataclass
class CliResult:
    code: object            # return value or SystemExit code
    out: str
    err: str
    crash: Optional[str]    # exception type of an uncaught exception


def call_cli(argv: Sequence[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback for the user: counted
            crash = type(exc).__name__
    return CliResult(code, out.getvalue(), err.getvalue(), crash)


# -- verify-all --------------------------------------------------------------------


def expected_verify_all(seed: int, golden: str) -> str:
    """The golden output (seed 0) with the llv suite's seed parameter set."""
    if seed == 0:
        return golden
    marker = '"seed": 0,'
    if golden.count(marker) != 4:
        raise GateError("golden output does not hold the four llv seed fields")
    return golden.replace(marker, f'"seed": {seed},')


def verify_all_ops(seed: int, golden: str) -> List[Op]:
    argv = ["verify", "all", "--seed", str(seed)]
    want = expected_verify_all(seed, golden)

    def check(res: CliResult) -> Outcome:
        if res.crash or res.code != 0:
            raise GateError(f"verify all: exit {res.code} crash {res.crash}")
        if res.out != want:
            raise GateError("verify all: output differs from the golden copy")
        return Outcome(reports=len(json.loads(res.out)["reports"]))

    return [Op("verify-all", lambda: call_cli(argv), check)]


# -- theta-sweep ---------------------------------------------------------------------

THETA_GENERA = tuple(range(4, 13))


def theta_sweep_ops(seed: int) -> List[Op]:
    """The theta suite, then the high-genus obstruction and the kappa
    exclusion at g = 4..12.  Every seed runs the same genera, so that the
    work is the same; the seed fixes the order of the genus calls."""
    calls = [(kind, g) for g in THETA_GENERA for kind in ("high", "kappa")]
    random.Random(seed).shuffle(calls)
    # functions are looked up at call time, so that a traced run sees them
    ops = [Op("theta-suite", lambda: cli.run_theta_suite(),
              lambda reports: _all_verified(reports, "theta suite"))]
    for kind, g in calls:
        name = ("high_genus_obstruction" if kind == "high"
                else "kappa_exclusion_check")
        ops.append(Op(f"theta-{kind}-g{g}",
                      lambda name=name, g=g: getattr(obstruction, name)(g),
                      lambda result, what=f"{kind} g={g}":
                      _result_holds(result, what)))
    return ops


# -- llv-wide --------------------------------------------------------------------------

LLV_HDIM = 10
LLV_TRIALS = 24
LLV_T_CHOICES = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2),
                 Fraction(2, 3), Fraction(5, 2))
LLV_QUAD_POOL = 4


def llv_wide_inputs(seed: int):
    """t is a nonzero rational drawn from the seed, with a random sign.

    The random quadruples start at ``seed % LLV_QUAD_POOL``: the cost of one
    quadruple varies 30x with its rotation heights, so windows of 24
    consecutive quadruple seeds that overlap in at least 21 of them keep the
    work comparable between seeds."""
    rng = random.Random(seed)
    t = rng.choice(LLV_T_CHOICES) * rng.choice((1, -1))
    return t, seed % LLV_QUAD_POOL


def llv_wide_ops(seed: int) -> List[Op]:
    t, quad_seed = llv_wide_inputs(seed)
    return [Op("llv-wide",
               lambda: cli.run_llv_suite(hdim=LLV_HDIM, t=t, trials=LLV_TRIALS,
                                         seed=quad_seed),
               lambda reports: _all_verified(reports, "llv suite", 4))]


# -- cli-mix ------------------------------------------------------------------------------

_ZERO_ROW = re.compile(r"\[0(?:, 0)*\]")
_PUSH = re.compile(r"\((\d+)\)\*(psi[12])(?:\^(\d+))? \[(base|boundary-base)\]")


@dataclass
class Request:
    argv: List[str]
    kind: str                # zero, scalar, push, value, verify, reject
    expect: object = None    # for reject: the exit codes that are correct


def _check_request(req: Request, res: CliResult) -> Outcome:
    what = " ".join(req.argv)
    if req.kind == "reject":
        if res.crash:
            return Outcome(failed=1)
        if res.code not in req.expect or (res.code and not res.err):
            raise GateError(f"{what}: exit {res.code}, expected {req.expect}")
        return Outcome()
    if res.crash or res.code != 0:
        raise GateError(f"{what}: exit {res.code} crash {res.crash} {res.err}")
    text = res.out.rstrip("\n")
    if req.kind == "zero":
        rows = text.split("\n")
        if isinstance(req.expect, int):   # an llv operator of that dimension
            ok = len(rows) == req.expect and all(_ZERO_ROW.fullmatch(r) for r in rows)
        else:
            ok = text == req.expect
    elif req.kind == "scalar":
        ok = _parse_scalar(text) == req.expect
    elif req.kind == "push":
        m = _PUSH.fullmatch(text)
        ok = m is not None and (int(m.group(1)), m.group(2),
                                int(m.group(3) or 1), m.group(4)) == req.expect
    elif req.kind == "verify":
        reports = json.loads(res.out)["reports"]
        ok = (len(reports) == req.expect
              and all(r["status"] == "verified" for r in reports))
    else:
        ok = bool(text)
    if not ok:
        raise GateError(f"{what}: wrong output {text[:200]!r}")
    return Outcome()


def _parse_scalar(text: str):
    """(re, im) of a printed Gaussian rational such as 7/2+2i, -i or 3."""
    try:
        if not text.endswith("i"):
            return Fraction(text), Fraction(0)
        body = text[:-1]
        cut = max(body.rfind("+"), body.rfind("-"))
        re_text, im_text = (body[:cut], body[cut:]) if cut > 0 else ("", body)
        im = {"": 1, "+": 1, "-": -1}.get(im_text)
        return Fraction(re_text or 0), Fraction(im if im is not None else im_text)
    except ValueError:
        return None


# Every template is used the same number of times in a pass and the seed
# only picks arguments within a narrow cost range, so that the work of a
# pass, and its latency mix, are the same for every seed.

LLV_TEMPLATES = ("comm", "kej", "kfj", "kek", "nil", "sig", "value", "scalar")
K3_TEMPLATES = ("delta", "finv", "nil", "prod", "surface")
TAUT_TEMPLATES = ("comm", "push", "poly")


def _llv_request(rng: random.Random, kind: str, hdim: int) -> Request:
    t = rng.choice(("2", "3", "1/2", "-5/3"))
    i, j, k, l = rng.sample(range(1, 5), 4)
    req = Request([], "zero", hdim)
    if kind == "comm":
        expr = f"[e({i}),f({i})] - h"
    elif kind == "kej":
        expr = f"[K({i},{j}),e({j})] - 2*e({i})"
    elif kind == "kfj":
        expr = f"[K({i},{j}),f({j})] - 2*f({i})"
    elif kind == "kek":
        expr = f"[K({i},{j}),e({k})]"
    elif kind == "nil":
        expr = f"e({i})^{rng.randint(15, 17)}"
    elif kind == "sig":
        expr = f"[esig({i},{j}),fsig({i},{j})] - 1/2*h + 1/2*i*K({i},{j})"
    elif kind == "value":
        expr = f"K({i},{j}) + {rng.randint(1, 9)}*esigbar({k},{l})"
        req.kind = "value"
    else:
        a, b = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-5, 5)
        c, d = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-5, 5)
        expr = f"({a}+{b}*i)*({c}+{d}*i)"
        req.kind = "scalar"
        req.expect = (a * c - b * d, a * d + b * c)
    req.argv = ["eval", "--context", "llv", expr, "--hdim", str(hdim), f"--t={t}"]
    return req


def _k3_request(rng: random.Random, kind: str) -> Request:
    x, y = rng.choice("sf"), rng.choice("sfc")
    if kind == "delta":
        req = Request([], "zero", "0")
        expr = "Delta o Delta - Delta"
    elif kind == "finv":
        req = Request([], "zero", "0")
        expr = rng.choice(("F o Finv - Delta", "Finv o F - Delta"))
    elif kind == "nil":
        # four or more classes of positive codimension on a threefold
        req = Request([], "zero", "0")
        expr = f"(p1({x})+p2({y}))^{rng.randint(7, 9)}"
    elif kind == "prod":
        req = Request([], "value")
        expr = f"p1({x})*p2({y}) + Delta({x})"
    else:
        req = Request([], "value")
        expr = f"{x}*{y} + {rng.randint(1, 9)}*Theta"
    req.argv = ["eval", "--context", "k3", expr]
    return req


def _taut_request(rng: random.Random, kind: str) -> Request:
    if kind == "comm":
        g1, g2 = rng.sample(("theta", "psi1", "psi2", "xi2", "kappa1", "delta"), 2)
        return Request(["eval", "--context", "taut", f"{g1}*{g2} - {g2}*{g1}"],
                       "zero", "0 [total]")
    if kind == "push":
        psi = rng.choice(("psi1", "psi2"))
        locus = rng.choice(("total", "boundary"))
        target = "base" if locus == "total" else "boundary-base"
        coeff = math.comb(6, 3) * math.factorial(3)
        return Request(["eval", "--context", "taut", f"(theta+{psi})^6",
                        "--push", "3", "--locus", locus],
                       "push", (coeff, psi, 3, target))
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    return Request(["eval", "--context", "taut",
                    f"({p}*a*theta + {q}*b*kappa1 + delta)^4"], "value")


def _malformed_requests(rng: random.Random, space_file: str) -> List[Request]:
    """A fixed share of bad input: three known crashes, twice each, and
    requests the engine rejects cleanly with exit 1 or 2.  A space file in
    the documented format is valid input, so once it loads, ``verify
    --space`` (with no suite) may also succeed."""
    ctx = lambda: rng.choice(("llv", "k3", "taut"))
    loads = [Request(["verify", "--space", space_file], "reject", (0, 1, 2))
             for _ in range(2)]
    argvs = [
        ["eval", "--context", ctx(), "1/0"],
        ["eval", "--context", ctx(), "1/0"],
        ["verify", "llv", "--t", "0"],
        ["verify", "llv", "--t", "0"],
        # parse errors
        ["eval", "--context", "llv", "e(1"],
        ["eval", "--context", "llv", "[h, e(1)"],
        ["eval", "--context", "taut", "theta^^3"],
        ["eval", "--context", "k3", "Delta)"],
        ["eval", "--context", "llv", "*h"],
        ["eval", "--context", "taut", "theta +"],
        # evaluation errors
        ["eval", "--context", "llv", "e(9)"],
        ["eval", "--context", "llv", "nosuch"],
        ["eval", "--context", "llv", "h + 2"],
        ["eval", "--context", "k3", "i"],
        ["eval", "--context", "k3", "F^2"],
        ["eval", "--context", "taut", "theta o psi1"],
        ["eval", "--context", "taut", "(theta+xi2)^6", "--push", "3"],
        ["eval", "--context", "llv", "K(1)"],
        # usage errors
        ["verify", "nosuch"],
        ["verify", "triple", "--genus", "1"],
        ["verify", "--hdim", "3"],
        ["verify", "--trials", "-1"],
        ["verify", "--t", "x/y"],
        ["eval", "--context", "nope", "h"],
        ["eval", "h"],
        ["eval", "--context", "llv", "h", "--push", "x"],
    ]
    return loads + [Request(argv, "reject", (1, 2)) for argv in argvs]


MIX_REPEATS = {"llv": 8, "k3": 10, "taut": 16, "k3-motive": 6, "triple": 4}


def cli_mix_requests(seed: int, space_file: str) -> List[Request]:
    rng = random.Random(seed)
    reqs = []
    for n in range(MIX_REPEATS["llv"]):
        reqs += [_llv_request(rng, kind, (6, 8, 10)[(n + k) % 3])
                 for k, kind in enumerate(LLV_TEMPLATES)]
    for _ in range(MIX_REPEATS["k3"]):
        reqs += [_k3_request(rng, kind) for kind in K3_TEMPLATES]
    for _ in range(MIX_REPEATS["taut"]):
        reqs += [_taut_request(rng, kind) for kind in TAUT_TEMPLATES]
    reqs += [Request(["verify", "k3-motive"], "verify", 6)
             for _ in range(MIX_REPEATS["k3-motive"])]
    for _ in range(MIX_REPEATS["triple"]):
        reqs.append(Request(["verify", "triple",
                             "--genus", str(rng.randint(2, 12)),
                             "--c0", rng.choice(("1", "-1")),
                             "--c1", rng.choice(("1", "-1"))], "verify", 4))
    reqs += _malformed_requests(rng, space_file)
    rng.shuffle(reqs)
    return reqs


def write_space_file(path: Path) -> str:
    """A class-space file in the documented ``MukaiSpace.to_json()`` form."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(llv_model_space(6).to_json(), encoding="utf-8")
    return str(path)


def cli_mix_ops(seed: int, space_file: str) -> List[Op]:
    return [Op(" ".join(req.argv), lambda argv=req.argv: call_cli(argv),
               lambda res, req=req: _check_request(req, res))
            for req in cli_mix_requests(seed, space_file)]


def build_ops(workload: str, seed: int, out_dir: Path) -> List[Op]:
    if workload == "verify-all":
        return verify_all_ops(seed, GOLDEN.read_text(encoding="utf-8"))
    if workload == "theta-sweep":
        return theta_sweep_ops(seed)
    if workload == "llv-wide":
        return llv_wide_ops(seed)
    if workload == "cli-mix":
        return cli_mix_ops(seed, write_space_file(out_dir / f"space-{seed}.json"))
    raise ValueError(f"unknown workload {workload!r}")
