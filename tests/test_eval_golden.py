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
import sys
from pathlib import Path

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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
