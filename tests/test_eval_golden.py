"""The behaviour contract of `eval`: exit codes and stdout of a fixed corpus
of expressions, in every context and output form, against
tests/golden/eval_corpus.json.

The golden file records what the engine printed when it was written; a
change that alters it changes what `eval` prints.  To rewrite it after an
intended change of output, run from the root of the repository

    PYTHONPATH=src python tests/test_eval_golden.py
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from beauville_lab import dsl
from beauville_lab.cli import main
from test_dsl import CORPUS

GOLDEN = Path(__file__).resolve().parent / "golden" / "eval_corpus.json"

# edge and error cases, each evaluated in all three contexts
EDGES = (
    "F*F", "2*F", "F^2", "-F", "F + Finv", "F - Delta", "F*s", "Finv o F",
    "F o Finv", "Delta o F", "Finv o p1(s)", "[F, Delta]", "s + Delta",
    "2 o Delta", "2 o 3", "Delta(c-c)", "Delta(s, s)", "p1(2)", "p2(Delta)",
    "Theta^0", "one^3", "c*c", "s*Delta", "p1(s)*Delta", "Delta*Delta",
    "[Delta(s), p1(f)]", "2*one - one*2", "(s+f)^2", "3/2*s - 1/2*f",
    "-(s - f)", "e(1)^0", "h^0", "0*h", "h - h", "h o 2", "[h, 2]", "[1, 2]",
    "1 + h", "e(5)", "e(3/2)", "i*i", "(1+i)^3", "1/2 + 1/3", "2 + theta",
    "theta o a", "theta^0", "0*theta", "a^0", "i*theta", "xi2^2",
    "psi1*psi2 - psi2*psi1", "a*theta - theta*a", "(theta + a)^2", "q",
    "e(", "1/0", "h^1/2", "(2*one)^20000", "(2*h)^20000",
    "(theta+delta+psi1)^32",
)

CONTEXTS = ("llv", "k3", "taut")


def _forms(context):
    """The option lists each expression of a context runs with."""
    forms = [["--format", "json"], ["--format", "text"]]
    if context == "llv":
        forms.append(["--hdim", "8", "--t=-5/3"])
    if context == "taut":
        forms += [["--push", "3"], ["--locus", "boundary"],
                  ["--push", "3", "--locus", "boundary", "--format", "json"]]
    return forms


def cases():
    """Every argv of the corpus, in a fixed order; '--' lets an expression
    start with a minus sign."""
    pairs = list(CORPUS) + [(expr, context) for expr in EDGES for context in CONTEXTS]
    return [["eval", "--context", context, *form, "--", expr]
            for expr, context in pairs for form in _forms(context)]


def run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record():
    return [{"argv": argv, "code": code, "stdout": out}
            for argv in cases() for code, out, _ in [run(argv)]]


def test_eval_corpus_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == cases()
    for entry in golden:
        code, out, err = run(entry["argv"])
        assert (code, out) == (entry["code"], entry["stdout"]), entry["argv"]
        if code:
            assert err.startswith(("parse error:", "evaluation error:")), (entry["argv"], err)


def test_a_kept_llv_context_changes_no_output():
    """Every llv call of the corpus, twice in shuffled order in one process
    and mixed with failing calls on the same (hdim, t), prints its golden
    bytes whether its context is built or kept."""
    dsl._llv_context.cache_clear()
    golden = [(entry["argv"], entry["code"], entry["stdout"])
              for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))
              if entry["argv"][2] == "llv"]
    failing = [(["eval", "--context", "llv", *form, "--", expr], 1, "")
               for expr in ("e(9)", "K(1)", "h + 2") for form in _forms("llv")]
    calls = (golden + failing) * 2
    random.Random(0).shuffle(calls)
    errors = {}
    for argv, code, stdout in calls:
        got_code, out, err = run(argv)
        assert (got_code, out) == (code, stdout), argv
        assert errors.setdefault(tuple(argv), err) == err, argv
    assert dsl._llv_context.cache_info().hits
    # a build that fails keeps nothing, and fails the same way again
    t_zero = [run(["eval", "--context", "llv", "h", "--t=0"]) for _ in range(3)]
    assert t_zero[0][0] == 1 and t_zero[0][2].startswith("evaluation error:")
    assert t_zero == [t_zero[0]] * 3


def test_the_kept_llv_contexts_are_bounded():
    """More distinct t than the cache keeps: the least recently used
    (hdim, t) is evicted, and its rebuilt context prints the same bytes."""
    dsl._llv_context.cache_clear()
    ts = [f"--t={n}/7" for n in range(1, dsl.LLV_CONTEXTS_KEPT + 4)]
    first = [run(["eval", "--context", "llv", expr, ts[0]]) for expr in ("h", "f(1)")]
    evicted = dsl.make_context("llv", t=Fraction(1, 7))
    for t in ts:
        assert run(["eval", "--context", "llv", "h", t])[0] == 0
        assert dsl._llv_context.cache_info().currsize <= dsl.LLV_CONTEXTS_KEPT
    assert dsl._llv_context.cache_info().currsize == dsl.LLV_CONTEXTS_KEPT
    last = Fraction(dsl.LLV_CONTEXTS_KEPT + 3, 7)
    assert dsl.make_context("llv", t=last) is dsl.make_context("llv", t=last)
    assert dsl.make_context("llv", t=Fraction(1, 7)) is not evicted
    assert [run(["eval", "--context", "llv", expr, ts[0]]) for expr in ("h", "f(1)")] == first


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
