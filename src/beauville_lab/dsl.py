"""A small expression language for the three verification contexts.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | 'o') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := NUMBER | 'i' | NAME ['(' args ')'] | '[' expr ',' expr ']'
            | '(' expr ')'
    args   := expr (',' expr)*

NUMBER is a nonnegative integer or a fraction like 3/2; '*' is the product
of the ambient ring and 'o' is composition; '[x, y]' is the commutator.
Parse errors carry a line and column.  Parentheses, brackets, arguments and
prefix minus signs nest at most MAX_DEPTH levels deep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import EvalError
from .lincomb import _DIGIT_LIMIT, MAX_DIGITS, Context, _passes_digits, kind
from .scalars import GaussianRational, I


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- lexer ---------------------------------------------------------------------------------

_PUNCT = set("+-*^()[],")
# nesting levels of the recursive-descent parser; each costs a few frames of
# Python's stack (1000 by default) in the parser, evaluator and printer
MAX_DEPTH = 100


@dataclass(frozen=True)
class Token:
    kind: str  # 'number', 'name', punctuation itself, 'end'
    text: str
    line: int
    col: int


def tokenize(src: str) -> List[Token]:
    tokens: List[Token] = []
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
            tokens.append(Token("number", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


# -- syntax tree ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: GaussianRational


@dataclass(frozen=True)
class Sym:
    name: str
    args: Optional[Tuple["Expr", ...]] = None


@dataclass(frozen=True)
class Neg:
    body: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class CommBracket:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    factors: Tuple["Expr", ...]
    ops: Tuple[str, ...]  # '*' or 'o', one per adjacent pair


@dataclass(frozen=True)
class Add:
    terms: Tuple["Expr", ...]
    signs: Tuple[str, ...]  # '+' or '-', one per term after the first


Expr = object


def _integer(tok: Token, digits: str) -> int:
    """The value of the digits of a number token, refused past MAX_DIGITS
    digits, where int() would raise with its own advice."""
    if len(digits) > MAX_DIGITS:
        raise EvalError(f"number at line {tok.line}, column {tok.col} has more "
                        f"than {MAX_DIGITS} digits")
    return int(digits)


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        """parse() one nesting level deeper, within MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            tok = self.peek()
            raise DslError(f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise DslError(f"expected {kind!r}, found {what!r}", tok.line, tok.col)
        return self.advance()

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        signs: List[str] = []
        while self.peek().kind in ("+", "-"):
            signs.append(self.advance().kind)
            terms.append(self.parse_term())
        if len(terms) == 1:
            return terms[0]
        return Add(tuple(terms), tuple(signs))

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        ops: List[str] = []
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                ops.append("*")
            elif tok.kind == "name" and tok.text == "o":
                self.advance()
                ops.append("o")
            else:
                break
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors), tuple(ops))

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.nested(self.parse_factor))
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            num = self.expect("number")
            if "/" in num.text:
                raise DslError("exponent must be an integer", num.line, num.col)
            return Pow(atom, _integer(num, num.text))
        return atom

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            num, _, den = tok.text.partition("/")
            numerator, denominator = _integer(tok, num), _integer(tok, den or "1")
            if not denominator:
                raise EvalError(f"division by zero in {tok.text}")
            return Num(GaussianRational(Fraction(numerator, denominator)))
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return Num(I)
            if tok.text == "o":
                raise DslError("'o' is the composition operator", tok.line, tok.col)
            if self.peek().kind == "(":
                self.advance()
                args = [self.nested(self.parse_expr)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.nested(self.parse_expr))
                self.expect(")")
                return Sym(tok.text, tuple(args))
            return Sym(tok.text)
        if tok.kind == "[":
            self.advance()
            left = self.nested(self.parse_expr)
            self.expect(",")
            right = self.nested(self.parse_expr)
            self.expect("]")
            return CommBracket(left, right)
        if tok.kind == "(":
            self.advance()
            inner = self.nested(self.parse_expr)
            self.expect(")")
            return inner
        what = tok.text or "end of input"
        raise DslError(f"expected an expression, found {what!r}", tok.line, tok.col)


def parse(src: str) -> Expr:
    parser = _Parser(tokenize(src))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise DslError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
    return expr


# -- printer -------------------------------------------------------------------------------


def _print_atomlike(expr: Expr) -> str:
    text = print_expr(expr)
    if isinstance(expr, (Num, Sym, CommBracket)):
        return text
    return f"({text})"


def print_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Sym):
        if expr.args is None:
            return expr.name
        inner = ",".join(print_expr(a) for a in expr.args)
        return f"{expr.name}({inner})"
    if isinstance(expr, CommBracket):
        return f"[{print_expr(expr.left)}, {print_expr(expr.right)}]"
    if isinstance(expr, Neg):
        body = expr.body
        if isinstance(body, (Add, Mul)):
            return f"-({print_expr(body)})"
        return f"-{print_expr(body)}"
    if isinstance(expr, Pow):
        return f"{_print_atomlike(expr.base)}^{expr.exponent}"
    if isinstance(expr, Mul):
        parts = []
        for k, factor in enumerate(expr.factors):
            text = print_expr(factor)
            if isinstance(factor, Add):
                text = f"({text})"
            if k:
                op = expr.ops[k - 1]
                parts.append("*" if op == "*" else " o ")
            parts.append(text)
        return "".join(parts)
    if isinstance(expr, Add):
        out = print_expr(expr.terms[0])
        for sign, term in zip(expr.signs, expr.terms[1:]):
            out += f" {sign} {print_expr(term)}"
        return out
    raise TypeError(f"not an expression: {expr!r}")


# -- evaluation ----------------------------------------------------------------------------


def push(value, n: int):
    """The abelian pushforward of a tautological class along an
    n-dimensional fibration, refused as a power is once a number of it
    passes MAX_DIGITS digits.  The push multiplies by n!, and a bound
    refuses it before n! is computed: with s fewer thetas, the monomials
    that survive push along n - s dimensions to the push over n!/(n - s)!,
    which is at least (n - c + 1)^c for c = ceil(s/2)."""
    if kind(value) != "tautological-class":
        raise EvalError("--push needs a tautological class")
    from .taut import GENS, TautExpr, abelian_push, weight_part
    refused = f"the push along {n} dimensions would pass {MAX_DIGITS} digits"
    theta, live = GENS.index("theta"), weight_part(value, 2 * n).terms
    # one theta stays, for the xi2 pairs to trade against
    s = min((mono[theta] for mono in live), default=0) - 1
    c = (s + 1) // 2
    bits = c * ((n - c + 1).bit_length() - 1)   # n!/(n - s)! >= 2^bits
    if bits > _DIGIT_LIMIT.bit_length():
        part = abelian_push(TautExpr({mono[:theta] + (mono[theta] - s,) + mono[theta + 1:]: coeff
                                      for mono, coeff in live.items()}, value.locus), n - s)
        if not part:
            return part
        # a numerator of the push is at least 2^bits over a denominator of part
        if bits >= min(coeff.den for coeff in part.terms.values()).bit_length() \
                + _DIGIT_LIMIT.bit_length():
            raise EvalError(refused)
    out = abelian_push(value, n)
    if _passes_digits(out):
        raise EvalError(refused)
    return out


def evaluate(expr: Expr, context: Context):
    if isinstance(expr, Num):
        return context.scalar(expr.value)
    if isinstance(expr, Sym):
        args = None
        if expr.args is not None:
            args = [evaluate(a, context) for a in expr.args]
        return context.symbol(expr.name, args)
    if isinstance(expr, Neg):
        return -evaluate(expr.body, context)
    if isinstance(expr, Pow):
        return context.power(evaluate(expr.base, context), expr.exponent)
    if isinstance(expr, CommBracket):
        return context.commutator(evaluate(expr.left, context),
                                  evaluate(expr.right, context))
    if isinstance(expr, Mul):
        value = evaluate(expr.factors[0], context)
        for op, factor in zip(expr.ops, expr.factors[1:]):
            value = context.mul(value, evaluate(factor, context), op)
        return value
    if isinstance(expr, Add):
        value = evaluate(expr.terms[0], context)
        for sign, term in zip(expr.signs, expr.terms[1:]):
            value = context.add(value, evaluate(term, context),
                                1 if sign == "+" else -1)
        return value
    raise TypeError(f"not an expression: {expr!r}")


# make_context keeps the llv contexts of the LLV_CONTEXTS_KEPT most recently
# used (hdim, t) pairs.  A context is an immutable model space and a table
# of operators built on request: with all 73 operators of an hdim-10 table
# built it holds about 55 KB (tracemalloc), and about 100 KB once each has
# kept its row index, so the cache stays under 2 MB.  The cli-mix benchmark
# stream cycles through 12 pairs, which all stay kept.  The cache is typed,
# so that hdim=6.0, which the model space rejects, never reads hdim=6's.
LLV_CONTEXTS_KEPT = 16


@functools.lru_cache(maxsize=LLV_CONTEXTS_KEPT, typed=True)
def _llv_context(hdim: int, t: Fraction) -> Context:
    from .llv import LlvContext
    return LlvContext(hdim, t)


def make_context(name: str, locus: str = "total", hdim: int = 6, t=2) -> Context:
    """The evaluation context of that name.  An llv context is built once
    per (hdim, t) in a process and kept, with every operator its table has
    built, for up to LLV_CONTEXTS_KEPT pairs, the least recently used going
    first; a build that raises keeps nothing.  The k3 and taut contexts
    hold no state and are built on each call.  Only the modules of the
    context built are imported."""
    if name == "llv":
        return _llv_context(hdim, Fraction(t))
    if name == "k3":
        from .k3 import K3Context
        return K3Context()
    if name == "taut":
        from .taut import TautContext
        return TautContext(locus)
    raise ValueError(f"unknown context {name!r}")
