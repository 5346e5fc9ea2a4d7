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

from .k3 import (BV_LABELS, DELTA, F, FINV, THETA, Fourier, RelativeCycle,
                 SurfaceClass, bv, compose, diag_push, pair_to_rel, rel_bracket)
from .lincomb import power
from .llv import OperatorTable, standard_quadruple
from .mukai import llv_model_space
from .poly import Poly
from .scalars import ONE, GaussianRational, I
from .sparse import SparseMat, bracket
from .taut import GENS as TAUT_GENS
from .taut import LOCI, TautExpr, abelian_push, gen


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


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


# Python's default limit on the digits of an integer it converts to text
MAX_DIGITS = 4300
# A product in a power pairs each term of one factor with each term of the
# other (a matrix entry, polynomial term or cycle label counts as one term, a
# scalar too, and a tautological class counts one term per monomial and term
# of its polynomial coefficient), so this bounds the work of one product as
# MAX_DIGITS bounds the size of its numbers.  The largest product that
# tests/golden/eval_corpus.json computes pairs 2025 terms (a square of
# (theta+delta+psi1)^16), that of the cli-mix benchmark requests 36, and a
# product of two hdim-10 matrices at most 100 x 100.
MAX_TERM_PAIRS = 20_000


_DIGIT_LIMIT = 10 ** MAX_DIGITS

# the kind eval prints for each type of value, in every context
KINDS = {
    Fraction: "scalar", GaussianRational: "scalar", Poly: Poly.kind,
    SparseMat: "operator", SurfaceClass: SurfaceClass.kind,
    RelativeCycle: RelativeCycle.kind, Fourier: Fourier.kind,
    TautExpr: TautExpr.kind,
}


def kind(value) -> str:
    return KINDS[type(value)]


def _terms(value):
    """The {key: coefficient} dict of a value of any context, or None for a
    Fraction or GaussianRational."""
    if isinstance(value, SparseMat):
        return value.entries
    return getattr(value, "terms", None)


def _passes_digits(value) -> bool:
    """Whether a numerator or denominator in value, a value of any context,
    has more than MAX_DIGITS digits.  A polynomial is read first as its
    integer numerators over its one denominator; only when one of those
    passes the limit are its coefficients reduced one by one, since the
    shared denominator (the lcm of theirs) can pass it when none of theirs
    does."""
    if isinstance(value, GaussianRational):
        return _passes_digits(value.re) or _passes_digits(value.im)
    if isinstance(value, Poly):
        den = value.den
        if den < _DIGIT_LIMIT and all(abs(re) < _DIGIT_LIMIT and abs(im) < _DIGIT_LIMIT
                                      for re, im in value.terms.values()):
            return False
        return any(_passes_digits(Fraction(re, den)) or _passes_digits(Fraction(im, den))
                   for re, im in value.terms.values())
    terms = _terms(value)
    if terms is None:
        return value.denominator >= _DIGIT_LIMIT or abs(value.numerator) >= _DIGIT_LIMIT
    return any(map(_passes_digits, terms.values()))


def _term_count(value) -> int:
    """The number of terms of a value of any context, as MAX_TERM_PAIRS
    counts them."""
    if isinstance(value, TautExpr):
        return sum(len(coeff.terms) for coeff in value.terms.values())
    terms = _terms(value)
    return 1 if terms is None else len(terms)


def push(value, n: int) -> TautExpr:
    """The abelian pushforward of a tautological class along an
    n-dimensional fibration, refused as a power is once a number of it
    passes MAX_DIGITS digits (the push multiplies by n!)."""
    if not isinstance(value, TautExpr):
        raise EvalError("--push needs a tautological class")
    out = abelian_push(value, n)
    if _passes_digits(out):
        raise EvalError(f"the push along {n} dimensions would pass {MAX_DIGITS} digits")
    return out


class Context:
    """The arithmetic of every context.  Values carry their own sums,
    negatives, scalings (value.scale(scalar)) and '*' products, so sums,
    scalar multiples, products and bounded powers are written here once.
    A context gives its symbols (symbol) and its scalars (scalar, from the
    GaussianRational value of a number or i), and says what composition
    'o', the commutator [x, y] and the unit of a kind that is not a scalar
    mean there (compose, commutator, unit)."""

    name = ""
    # whether a scalar plus another value is that multiple of its unit, or
    # an error
    adds_scalars = False

    def add(self, x, y, sign: int):
        kx, ky = kind(x), kind(y)
        if kx != ky:
            if not self.adds_scalars or "scalar" not in (kx, ky):
                raise EvalError(f"cannot add {kx} and {ky}")
            if kx == "scalar":
                x = self.unit(y).scale(x)
            else:
                y = self.unit(x).scale(y)
        return x + (y if sign > 0 else -y)

    def mul(self, x, y, op: str):
        if op == "o":
            return self.compose(x, y)
        kx, ky = kind(x), kind(y)
        if kx == ky:
            return x * y
        if kx == "scalar":
            return y.scale(x)
        if ky == "scalar":
            return x.scale(y)
        raise EvalError(f"cannot multiply {kx} and {ky}")

    def power(self, x, n: int):
        """x^n by repeated squaring that stops before a product would pair
        more than MAX_TERM_PAIRS terms and as soon as a product has a
        numerator or denominator past MAX_DIGITS digits, so that the work
        stays bounded whatever n is."""
        def checked(a, b):
            if _term_count(a) * _term_count(b) > MAX_TERM_PAIRS:
                raise EvalError(f"the power ^{n} would pair more than "
                                f"{MAX_TERM_PAIRS} terms in one product")
            out = a * b
            if _passes_digits(out):
                raise EvalError(f"the power ^{n} would pass {MAX_DIGITS} digits")
            return out
        one = self.scalar(ONE) if kind(x) == "scalar" else self.unit(x)
        return power(x, n, one, checked)

    def compose(self, x, y):
        raise EvalError(f"composition is not part of the {self.name} context")

    def commutator(self, x, y):
        raise EvalError(f"commutators are not part of the {self.name} context")


class LlvContext(Context):
    """Operators of the standard middle-dimension model."""

    name = "llv"
    # symbol -> (OperatorTable method, number of vector indices)
    SYMBOLS = {
        "h": ("h", 0), "e": ("e", 1), "f": ("f", 1), "K": ("K", 2),
        "esig": ("e_sigma", 2), "fsig": ("f_sigma", 2),
        "esigbar": ("e_sigmabar", 2), "fsigbar": ("f_sigmabar", 2),
    }

    def __init__(self, hdim: int = 6, t=2):
        space = llv_model_space(hdim, Fraction(t))
        self.ops = OperatorTable(space, standard_quadruple(space))

    def _index(self, value, what: str) -> int:
        if kind(value) != "scalar" or value.im or value.re.denominator != 1:
            raise EvalError(f"{what} must be an integer")
        if not 1 <= value.re <= len(self.ops.quad):
            raise EvalError(f"{what} must be between 1 and {len(self.ops.quad)}")
        return int(value.re)

    def symbol(self, name: str, args):
        if name not in self.SYMBOLS:
            raise EvalError(f"unknown symbol {name!r} in the llv context")
        method, arity = self.SYMBOLS[name]
        if len(args or ()) != arity:
            raise EvalError(f"{name} takes {arity} index argument(s)" if arity
                            else f"{name} takes no arguments")
        indices = [self._index(a, f"argument of {name}") for a in args or ()]
        return getattr(self.ops, method)(*indices)

    def scalar(self, value: GaussianRational):
        return value

    def unit(self, x):
        return SparseMat.identity(x.dim)

    def compose(self, x, y):
        if kind(x) == kind(y) == "scalar":
            raise EvalError("composition needs operators")
        return self.mul(x, y, "*")

    def commutator(self, x, y):
        if kind(x) != "operator" or kind(y) != "operator":
            raise EvalError("commutator needs two operators")
        return bracket(x, y)


class K3Context(Context):
    """Fiber-square cycles and correspondences of an elliptic surface."""

    name = "k3"
    CONSTANTS = {**{label: bv(label) for label in BV_LABELS},
                 "Theta": THETA, "Delta": DELTA, "F": F, "Finv": FINV}
    # the pushes of a surface class to a relative cycle
    PUSHES = {
        "p1": lambda x: pair_to_rel(x, bv("one")),
        "p2": lambda x: pair_to_rel(bv("one"), x),
        "Delta": diag_push,
    }

    def symbol(self, name: str, args):
        if name in self.CONSTANTS and args is None:
            return self.CONSTANTS[name]
        if name in self.PUSHES:
            if args is None or len(args) != 1:
                raise EvalError(f"{name} takes one surface-class argument")
            if kind(args[0]) != SurfaceClass.kind:
                raise EvalError(f"{name} needs a surface class")
            return self.PUSHES[name](args[0])
        if name in self.CONSTANTS:
            raise EvalError(f"{name} takes no arguments")
        raise EvalError(f"unknown symbol {name!r} in the k3 context")

    def scalar(self, value: GaussianRational):
        if value.im:
            raise EvalError("imaginary scalars are not part of the k3 context")
        return value.re

    def unit(self, x):
        if kind(x) == Fourier.kind:
            raise EvalError("powers of correspondences are not supported")
        return type(x)({"one": 1})

    def compose(self, x, y):
        if not {kind(x), kind(y)} <= {RelativeCycle.kind, Fourier.kind}:
            raise EvalError("composition needs relative cycles or correspondences")
        return compose(x, y)

    def commutator(self, x, y):
        if kind(x) != RelativeCycle.kind or kind(y) != RelativeCycle.kind:
            raise EvalError("commutator needs relative cycles")
        return rel_bracket(x, y)


class TautContext(Context):
    """Tautological expressions on a nodal Jacobian family."""

    name = "taut"
    adds_scalars = True

    def __init__(self, locus: str = "total"):
        if locus not in LOCI:
            raise EvalError(f"unknown locus {locus!r}")
        self.locus = locus

    def symbol(self, name: str, args):
        if args is not None:
            raise EvalError(f"{name} takes no arguments")
        if name in TAUT_GENS:
            return gen(name, locus=self.locus)
        if name in ("a", "b", "N", "d"):
            return Poly.var(name)
        raise EvalError(f"unknown symbol {name!r} in the taut context")

    def scalar(self, value: GaussianRational):
        return Poly.const(value)

    def unit(self, x):
        return TautExpr.const(1, self.locus)


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
def _llv_context(hdim: int, t: Fraction) -> LlvContext:
    return LlvContext(hdim, t)


def make_context(name: str, locus: str = "total", hdim: int = 6, t=2) -> Context:
    """The evaluation context of that name.  An llv context is built once
    per (hdim, t) in a process and kept, with every operator its table has
    built, for up to LLV_CONTEXTS_KEPT pairs, the least recently used going
    first; a build that raises keeps nothing.  The k3 and taut contexts
    hold no state and are built on each call."""
    if name == "llv":
        return _llv_context(hdim, Fraction(t))
    if name == "k3":
        return K3Context()
    if name == "taut":
        return TautContext(locus)
    raise ValueError(f"unknown context {name!r}")
