"""Expression language: lexer, parser, printer, and the three contexts."""

import json
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from test_llv import op_K
from test_taut import coefficient_of

from beauville_lab import taut as taut_module
from beauville_lab.cli import main
from beauville_lab.dsl import (Add, CommBracket, DslError, EvalError, Mul, Neg,
                               Num, Pow, Sym, evaluate, kind, make_context, parse,
                               print_expr, push, tokenize)
from beauville_lab.errors import OutsideModelError
from beauville_lab.k3 import FINV, K3Context, RelativeCycle, SurfaceClass
from beauville_lab.llv import LlvContext, op_h
from beauville_lab.mukai import llv_model_space
from beauville_lab.poly import Poly
from beauville_lab.scalars import GaussianRational, I
from beauville_lab.sparse import bracket
from beauville_lab.taut import GENS as TAUT_GENS
from beauville_lab.taut import TautExpr, abelian_push, gen

HALF = GaussianRational(Fraction(1, 2))

# canonical strings: printing the parse reproduces the input byte for byte
CORPUS = [
    ("h", "llv"),
    ("i", "llv"),
    ("0", "llv"),
    ("42", "llv"),
    ("3/2", "llv"),
    ("e(1)", "llv"),
    ("f(2)", "llv"),
    ("K(1,2)", "llv"),
    ("esig(1,2)", "llv"),
    ("fsigbar(3,4)", "llv"),
    ("-e(1)", "llv"),
    ("-i", "llv"),
    ("e(1) + f(2)", "llv"),
    ("e(1) - f(2)", "llv"),
    ("e(1)*f(2)", "llv"),
    ("e(1) o f(2)", "llv"),
    ("e(1)*f(2) o h", "llv"),
    ("[e(1), f(1)]", "llv"),
    ("[e(1), f(1)] - h", "llv"),
    ("[h, [e(1), f(2)]]", "llv"),
    ("K(1,2)^2", "llv"),
    ("(e(1) + f(1))^2", "llv"),
    ("(e(1) + f(1))*h", "llv"),
    ("e(1)*(f(1) + h)", "llv"),
    ("-(e(1) + f(2))", "llv"),
    ("-(e(1)*f(2))", "llv"),
    ("2*e(1) + 3*f(2)", "llv"),
    ("1/2*esig(1,2)", "llv"),
    ("i*K(1,2)", "llv"),
    ("e(1)*-f(2)", "llv"),
    ("-h^2", "llv"),
    ("[esig(1,2), fsig(1,2)]", "llv"),
    ("one", "k3"),
    ("Theta", "k3"),
    ("p1(s)", "k3"),
    ("p2(Theta)", "k3"),
    ("Delta", "k3"),
    ("Delta(s)", "k3"),
    ("F", "k3"),
    ("Finv", "k3"),
    ("s*s + 2*c", "k3"),
    ("Delta o Delta", "k3"),
    ("Finv o Delta(Theta) o F", "k3"),
    ("2*Delta - p1(Theta) - p2(Theta)", "k3"),
    ("Delta(s + f)", "k3"),
    ("theta + b*delta", "taut"),
    ("(theta + b*delta)^3", "taut"),
    ("theta*xi2^2", "taut"),
    ("a*kappa1 - 1/48*delta", "taut"),
    ("N^2*theta", "taut"),
]


def test_corpus_has_fifty_expressions():
    assert len(CORPUS) == 50


def test_corpus_round_trips_and_evaluates():
    contexts = {name: make_context(name) for name in ("llv", "k3", "taut")}
    for text, ctx_name in CORPUS:
        ast = parse(text)
        printed = print_expr(ast)
        assert printed == text, text
        assert parse(printed) == ast, text
        evaluate(ast, contexts[ctx_name])


def test_printing_normalizes_stably():
    for text in ("( e(1) )", "1  +  2", "Finv o (Delta(Theta) o F)",
                 "((h))", "- ( h )"):
        normalized = print_expr(parse(text))
        assert print_expr(parse(normalized)) == normalized


# -- lexer and parser ------------------------------------------------------------------


def test_tokenize_positions():
    tokens = tokenize("e(1) +\n 3/2")
    kinds = [(t.kind, t.text, t.line, t.col) for t in tokens]
    assert kinds == [
        ("name", "e", 1, 1), ("(", "(", 1, 2), ("number", "1", 1, 3),
        (")", ")", 1, 4), ("+", "+", 1, 6),
        ("number", "3/2", 2, 2), ("end", "", 2, 5),
    ]


def test_parse_error_positions():
    with pytest.raises(DslError) as err:
        parse("e(")
    assert err.value.line == 1 and err.value.col == 3
    assert str(err.value).startswith("line 1, column 3:")
    assert "expected an expression" in err.value.message

    with pytest.raises(DslError) as err:
        tokenize("2 + $")
    assert (err.value.line, err.value.col) == (1, 5)

    with pytest.raises(DslError) as err:
        parse("(h")
    assert (err.value.line, err.value.col) == (1, 3)

    with pytest.raises(DslError) as err:
        parse("h )")
    assert "trailing" in err.value.message

    with pytest.raises(DslError) as err:
        parse("[h,\nf(2)")
    assert (err.value.line, err.value.col) == (2, 5)

    with pytest.raises(DslError) as err:
        parse("h^1/2")
    assert "exponent must be an integer" in err.value.message

    with pytest.raises(DslError) as err:
        parse("h^x")
    assert "expected 'number'" in err.value.message

    with pytest.raises(DslError) as err:
        parse("o")
    assert "composition operator" in err.value.message


def test_ast_shapes_and_precedence():
    assert parse("1 - 2 + 3") == Add(
        (Num(Fraction(1)), Num(Fraction(2)), Num(Fraction(3))), ("-", "+"))
    assert parse("1 + 2*3") == Add(
        (Num(Fraction(1)), Mul((Num(Fraction(2)), Num(Fraction(3))), ("*",))),
        ("+",))
    assert parse("-h^2") == Neg(Pow(Sym("h"), 2))
    assert parse("[i, h]") == CommBracket(Num(I), Sym("h"))
    assert parse("K(1,2)") == Sym("K", (Num(Fraction(1)), Num(Fraction(2))))


def char_loop_tokens(src):
    """The character-loop tokenizer the one-pattern tokenizer replaced, kept
    as its oracle: (kind, text, line, col) tuples, or DslError."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            start_col = col
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            if j < n and src[j] == "/" and j + 1 < n and src[j + 1].isdecimal():
                j += 1
                while j < n and src[j].isdecimal():
                    j += 1
            tokens.append(("number", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()[],":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


# the grammar's alphabet, whitespace, '/' with and without digits after it,
# and characters that str.isalpha() and the regex classes may tell apart:
# '²' and '½' may continue a name but not start one, '٣' is a decimal digit
TOKEN_PIECES = [*"0123456789abehioxzKF_+-*^()[], \n\t\r/²½٣$",
                "3/2", "12/345", "7/", "/5", "e(1)", "K(1,2)", "x²", "٣/٣"]


def token_tuples(src):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]


def tokens_or_error(tokenizer, src):
    try:
        return tokenizer(src)
    except DslError as err:
        return ("error", err.message, err.line, err.col)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=24).map("".join))
def test_tokenize_matches_the_character_loop(src):
    assert tokens_or_error(token_tuples, src) == tokens_or_error(char_loop_tokens, src)


def test_tokenize_matches_the_character_loop_at_its_edges():
    for src in ("", "\n", "²", "½a", "a²½_٣", "٣٣/٣x", "1/", "1/x", "/2", "x\r\n\t$",
                "a\u00a0b", "\x0b", "é1", "3/2/4", "_"):
        assert tokens_or_error(token_tuples, src) == tokens_or_error(char_loop_tokens, src), src


def test_tree_nodes_equal_only_their_own_class_and_are_frozen():
    h, two = Sym("h"), Num(GaussianRational(2))
    # nodes of different classes with the same fields are unequal
    assert Neg(h) != Num(h) and Num(h) != Neg(h)
    assert CommBracket(h, two) != Pow(h, two) and Mul((h,), ()) != Add((h,), ())
    # no node equals a plain tuple, either way round
    for node in (h, two, Neg(h), Pow(h, 2), CommBracket(h, two),
                 Mul((h, two), ("*",)), Add((h, two), ("+",)), tokenize("h")[0]):
        fields = tuple(getattr(node, name) for name in node._fields)
        assert node != fields and fields != node and not node == fields
        assert node == type(node)(*fields) and hash(node) == hash(type(node)(*fields))
    # hash agrees with ==
    assert parse("K(1,2) + h") == parse("K(1, 2)+h")
    assert hash(parse("K(1,2) + h")) == hash(parse("K(1, 2)+h"))
    assert len({parse("h"), parse("(h)"), Sym("h", None), parse("-h")}) == 2
    assert repr(parse("K(1,2)")) == ("Sym(name='K', args=(Num(value=GaussianRational(1)), "
                                     "Num(value=GaussianRational(2))))")
    assert repr(tokenize("3/2")[0]) == "Token(kind='number', text='3/2', line=1, col=1)"
    for node, name in ((h, "name"), (two, "value"), (Pow(h, 2), "exponent"),
                       (tokenize("h")[0], "kind"), (Add((h, two), ("+",)), "extra")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert h.name == "h" and h.args is None


# -- llv context ------------------------------------------------------------------------


def test_llv_eval_identities():
    ctx = LlvContext()
    assert evaluate(parse("[e(1), f(1)] - h"), ctx).is_zero()
    space = llv_model_space(6, Fraction(2))
    quad_sigma = evaluate(parse("[esig(1,2), fsig(1,2)]"), ctx)
    v1, v2 = ctx.ops.quad[0], ctx.ops.quad[1]
    expected = (op_h(space) - op_K(space, v1, v2).scale(I)).scale(HALF)
    assert quad_sigma == expected
    assert evaluate(parse("h^2"), ctx) == op_h(space) @ op_h(space)
    assert evaluate(parse("2*e(1)"), ctx) == evaluate(parse("e(1)*2"), ctx)


def test_llv_eval_errors():
    ctx = LlvContext()
    with pytest.raises(EvalError, match="between 1 and 4"):
        evaluate(parse("e(5)"), ctx)
    with pytest.raises(EvalError, match="takes 1 index"):
        evaluate(parse("e(1,2)"), ctx)
    with pytest.raises(EvalError, match="unknown symbol"):
        evaluate(parse("q(1)"), ctx)
    with pytest.raises(EvalError, match="no arguments"):
        evaluate(parse("h(1)"), ctx)
    with pytest.raises(EvalError, match="cannot add"):
        evaluate(parse("h + 2"), ctx)
    with pytest.raises(EvalError, match="needs two operators"):
        evaluate(parse("[1, 2]"), ctx)
    with pytest.raises(EvalError, match="must be an integer"):
        evaluate(parse("e(3/2)"), ctx)


def test_llv_render():
    ctx = LlvContext()
    value = evaluate(parse("3/2"), ctx)
    assert (kind(value), str(value)) == ("scalar", "3/2")
    assert kind(evaluate(parse("h"), ctx)) == "operator"


# -- k3 context ---------------------------------------------------------------------------


def test_k3_eval_fourier_conjugation():
    ctx = make_context("k3")
    value = evaluate(parse("Finv o (Delta(Theta) o F)"), ctx)
    assert value == RelativeCycle({"one": Fraction(-1)})
    assert (kind(value), str(value)) == ("relative-cycle", "-one")


def test_k3_eval_products_and_powers():
    ctx = make_context("k3")
    assert evaluate(parse("Theta^2"), ctx) == SurfaceClass({})
    assert evaluate(parse("s*s"), ctx) == SurfaceClass({"c": Fraction(-2)})
    assert evaluate(parse("p1(s)*p2(s)"), ctx) == RelativeCycle({"s12": Fraction(1)})
    assert evaluate(parse("Delta o Delta"), ctx) == RelativeCycle({"delta": Fraction(1)})
    assert evaluate(parse("Finv o Delta"), ctx) is FINV
    assert evaluate(parse("[Delta(s), Delta]"), ctx) == RelativeCycle({})
    value = evaluate(parse("s*s"), ctx)
    assert (kind(value), str(value)) == ("surface-class", "-2*c")


def test_power_by_squaring_matches_sequential_products():
    for name, texts in (("llv", ("h", "e(1) + f(1)", "K(1,2) + esig(1,2)",
                                 "h + 2*e(2) - f(3)")),
                        ("k3", ("Theta", "s + f + one", "Delta(s) + p1(f)",
                                "Delta(s) + p1(f) + p1(one)")),
                        ("taut", ("a + b", "theta + b*delta", "2 + theta"))):
        ctx = make_context(name)
        for text in texts:
            x = evaluate(parse(text), ctx)
            sequential = x
            for n in range(1, 10):
                assert ctx.power(x, n) == sequential, (name, text, n)
                sequential = ctx.mul(sequential, x, "*")


def test_huge_powers_of_nilpotents_return_at_once():
    start = time.perf_counter()
    assert evaluate(parse("e(1)^1000000000"), make_context("llv")).is_zero()
    assert evaluate(parse("Theta^1000000000"), make_context("k3")) == SurfaceClass({})
    assert time.perf_counter() - start < 1.0


def test_huge_powers_stop_at_the_digit_limit(capsys):
    start = time.perf_counter()
    for text, context in (("h^200000000", "llv"), ("(2*e(1) + h)^200000000", "llv"),
                          ("(2*one)^200000000", "k3"), ("(p1(s) + 2*p1(one))^200000000", "k3"),
                          ("(2*a)^100000000", "taut"), ("(2*theta)^100000000", "taut")):
        with pytest.raises(EvalError, match=r"the power \^\d+ would pass 4300 digits"):
            evaluate(parse(text), make_context(context))
        assert main(["eval", text, "--context", context]) == 1, (text, context)
        assert capsys.readouterr().err.startswith("evaluation error: the power ^")
    # a power of a sum grows in its number of terms, not digits
    text = "(theta+delta+psi1+psi2+xi2+kappa1)^30"
    with pytest.raises(EvalError, match=r"the power \^30 would pair more than 20000 terms"):
        evaluate(parse(text), make_context("taut"))
    assert main(["eval", text, "--context", "taut"]) == 1
    assert capsys.readouterr().err.startswith("evaluation error: the power ^30")
    assert time.perf_counter() - start < 1.0


def test_digit_limit_is_exact():
    # 10^4299 has 4300 digits, the most Python prints; 10^4300 has one more
    for context, text in (("llv", "10"), ("k3", "10*one"), ("taut", "10*a")):
        ctx = make_context(context)
        value = evaluate(parse(f"({text})^4299"), ctx)
        assert str(10 ** 4299) in str(value)
        with pytest.raises(EvalError, match="would pass 4300 digits"):
            evaluate(parse(f"({text})^4300"), ctx)
    # an imaginary numerator counts as a real one does: (10i)^4299 = -10^4299 i
    taut = make_context("taut")
    assert str(10 ** 4299) in str(evaluate(parse("(10*i*a)^4299"), taut))
    with pytest.raises(EvalError, match="would pass 4300 digits"):
        evaluate(parse("(10*i*a)^4301"), taut)
    # each coefficient counts on its own, not over the polynomial's shared
    # denominator: 77^2300 and 77^3000 pass 4300 digits, 11^2300 and
    # 11^3000 do not
    for text, n, den in (("(1/7)^2300*a + (1/11)^2300*b", 1, 11 ** 2300),
                         ("(1/7)^1500*a + (1/11)^1500*b", 2, 11 ** 3000)):
        assert f"1/{den}" in str(evaluate(parse(f"({text})^{n}"), taut))
        with pytest.raises(EvalError, match="would pass 4300 digits"):
            evaluate(parse(f"({text})^{n + 1}"), taut)
    assert evaluate(parse("(1/10)^4299"), make_context("llv")) == \
        GaussianRational(Fraction(1, 10 ** 4299))
    with pytest.raises(EvalError, match="would pass 4300 digits"):
        evaluate(parse("(1/10)^4300"), make_context("llv"))


def test_term_pair_limit_is_exact():
    # a cube squares a 100-term polynomial (10000 pairs), then multiplies it
    # by the square: 100 x 200 = 20000 pairs for exponents 0..98 and 100,
    # whose square has exponents 0..198 and 200; 100 x 201 pairs when the
    # last exponent is 101
    taut = make_context("taut")
    base = " + ".join(f"a^{k}" for k in range(99))
    assert len(evaluate(parse(f"({base} + a^100)^3"), taut).terms) == 300
    with pytest.raises(EvalError, match=r"the power \^3 would pair more than 20000 terms"):
        evaluate(parse(f"({base} + a^101)^3"), taut)


def test_push_digit_limit_is_exact(monkeypatch):
    taut = make_context("taut")

    def pushed(text: str, n: int):
        return push(evaluate(parse(text), taut), n)

    # 1558! has 4300 digits, the most Python prints; 1559! has more
    assert str(pushed("theta^1558", 1558)) == f"({factorial(1558)})*1 [base]"
    with pytest.raises(EvalError, match="the push along 1559 dimensions would pass 4300 digits"):
        pushed("theta^1559", 1559)
    # a denominator keeps a push printable past 1558
    value = evaluate(parse("(1/10)^4299*theta^1700"), taut)
    assert push(value, 1700) == abelian_push(value, 1700)

    # n! is refused before it is computed once the lower bound on it passes
    # the limit over the class's denominator: at n = 2858 for theta^n, and at
    # n = 5194 for (1/10)^4299*theta^n; one step below, n! is computed
    def small_factorial(n: int) -> int:
        assert n < 1000, f"computed {n}!"
        return factorial(n)

    monkeypatch.setattr(taut_module, "factorial", small_factorial)
    for text, edge in (("theta^{n}", 2858), ("(1/10)^4299*theta^{n}", 5194)):
        with pytest.raises(EvalError, match=f"the push along {edge} dimensions would pass"):
            pushed(text.format(n=edge), edge)
        with pytest.raises(AssertionError, match=f"computed {edge - 1}!"):
            pushed(text.format(n=edge - 1), edge - 1)
    # the bound is read off the push over n!/(n - s)!, so a push that
    # cancels to zero prints at any n, and so does one outside the weight
    zero = "-2*theta^5000*xi2^2 - theta^5001*psi1 - theta^5001*psi2"
    assert str(pushed(zero, 5001)) == "0 [base]"
    assert str(pushed("theta^5001 + delta", 5000)) == "0 [base]"
    with pytest.raises(EvalError, match="the push along 5001 dimensions"):
        pushed("-2*theta^5000*xi2^2 + theta^5001*psi1", 5001)


def test_k3_eval_model_boundaries():
    ctx = make_context("k3")
    with pytest.raises(OutsideModelError):
        evaluate(parse("Delta(c)"), ctx)
    with pytest.raises(OutsideModelError):
        evaluate(parse("F o F"), ctx)
    with pytest.raises(OutsideModelError):
        evaluate(parse("F + Finv"), ctx)
    with pytest.raises(EvalError, match="imaginary"):
        evaluate(parse("i"), ctx)
    with pytest.raises(EvalError, match="surface class"):
        evaluate(parse("p1(Delta)"), ctx)
    with pytest.raises(EvalError, match="no arguments"):
        evaluate(parse("Theta(1)"), ctx)
    with pytest.raises(EvalError, match="powers of correspondences"):
        evaluate(parse("F^2"), ctx)
    with pytest.raises(EvalError, match="composition needs"):
        evaluate(parse("2 o Delta"), ctx)


# -- taut context ----------------------------------------------------------------------------


def test_taut_eval():
    ctx = make_context("taut")
    value = evaluate(parse("(theta + b*delta)^3"), ctx)
    assert isinstance(value, TautExpr)
    direct = (gen("theta") + gen("delta").scale(Poly.var("b"))) ** 3
    assert value == direct
    poly = evaluate(parse("b^2 - 1/48"), ctx)
    assert isinstance(poly, Poly)
    assert poly == Poly.var("b") ** 2 - Poly.const(Fraction(1, 48))
    promoted = evaluate(parse("2 + theta"), ctx)
    assert isinstance(promoted, TautExpr) and coefficient_of(promoted) == Poly.const(2)


def test_taut_locus_and_errors():
    ctx = make_context("taut", locus="boundary")
    value = evaluate(parse("theta"), ctx)
    assert isinstance(value, TautExpr) and value.locus == "boundary"
    with pytest.raises(EvalError, match="unknown locus"):
        make_context("taut", locus="projective")
    ctx = make_context("taut")
    with pytest.raises(EvalError, match="composition"):
        evaluate(parse("theta o delta"), ctx)
    with pytest.raises(EvalError, match="commutators"):
        evaluate(parse("[theta, delta]"), ctx)
    with pytest.raises(EvalError, match="unknown symbol"):
        evaluate(parse("zeta"), ctx)
    with pytest.raises(EvalError, match="no arguments"):
        evaluate(parse("theta(1)"), ctx)


# symbols and scalars of each context, and values of each kind that products,
# compositions and commutators make
KIND_SAMPLES = {
    "llv": ["2", "3/2", "i", "[e(1), f(1)]", "h*e(1)",
            *(f"{name}({','.join(str(k + 1) for k in range(arity))})" if arity else name
              for name, (_, arity) in LlvContext.SYMBOLS.items())],
    "k3": ["2", "3/2", *K3Context.CONSTANTS, *(f"{name}(s)" for name in K3Context.PUSHES),
           "s*s", "Delta o Delta", "Finv o Delta", "[Delta(s), Delta]", "2*Theta"],
    "taut": ["2", "3/2", "i", *TAUT_GENS, "a", "b", "N", "d", "theta*a", "2 + theta"],
}


def test_every_value_has_a_kind_and_json_prints_it(capsys):
    seen = set()
    for context, texts in KIND_SAMPLES.items():
        ctx = make_context(context)
        for text in texts:
            value = evaluate(parse(text), ctx)
            # a number has no kind of its own; every other value names its kind
            assert isinstance(value, (Fraction, GaussianRational)) \
                or "kind" in vars(type(value)), (context, text)
            seen.add(kind(value))
            assert main(["eval", "--context", context, "--format", "json", "--", text]) == 0
            assert json.loads(capsys.readouterr().out)["kind"] == kind(value), (context, text)
    assert seen == {
        "scalar", "operator", "surface-class", "relative-cycle", "correspondence",
        "tautological-class"}


def test_make_context_rejects_unknown():
    with pytest.raises(ValueError, match="unknown context"):
        make_context("galois")
