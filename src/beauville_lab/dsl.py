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

from dataclasses import dataclass
from fractions import Fraction
from operator import matmul, mul
from typing import Dict, List, Optional, Tuple

from .k3 import (Corr, bv, bv_mul, bv_theta, diag_push, pair_to_rel, rel,
                 rel_bracket, rel_mul, BV_LABELS, REL_LABELS)
from .lincomb import add_into, power
from .llv import (op_e, op_e_sigma, op_e_sigmabar, op_f, op_f_sigma,
                  op_f_sigmabar, op_h, op_K, standard_quadruple)
from .mukai import llv_model_space
from .poly import Poly
from .scalars import GaussianRational
from .sparse import SparseMat, bracket
from .taut import GENS as TAUT_GENS
from .taut import LOCI, TautExpr, gen


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
        if ch.isdigit():
            start_col = col
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == "/" and j + 1 < n and src[j + 1].isdigit():
                j += 1
                while j < n and src[j].isdigit():
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
    value: Fraction


@dataclass(frozen=True)
class Imag:
    pass


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
            return Pow(atom, int(num.text))
        return atom

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            num, _, den = tok.text.partition("/")
            if den and not int(den):
                raise EvalError(f"division by zero in {tok.text}")
            return Num(Fraction(int(num), int(den or 1)))
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return Imag()
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
    if isinstance(expr, (Num, Imag, Sym, CommBracket)):
        return text
    return f"({text})"


def print_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Imag):
        return "i"
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
# other (a matrix entry, polynomial or tautological monomial, or cycle label
# counts as one term, a scalar too), so this bounds the work of one product
# as MAX_DIGITS bounds the size of its numbers.  The largest product of the
# tests and the benchmark requests pairs 144 terms, and a product of two
# hdim-10 matrices at most 100 x 100.
MAX_TERM_PAIRS = 20_000


_DIGIT_LIMIT = 10 ** MAX_DIGITS


def _passes_digits(value) -> bool:
    """Whether a numerator or denominator in value, a scalar or a container
    of any context, has more than MAX_DIGITS digits."""
    if isinstance(value, Fraction):
        return value.denominator >= _DIGIT_LIMIT or abs(value.numerator) >= _DIGIT_LIMIT
    if isinstance(value, GaussianRational):
        return _passes_digits(value.re) or _passes_digits(value.im)
    if isinstance(value, tuple):    # a tagged value of the k3 or taut context
        return _passes_digits(value[1])
    if isinstance(value, SparseMat):
        value = value.entries
    elif isinstance(value, (Poly, TautExpr)):
        value = value.terms
    return any(map(_passes_digits, value.values()))


def _term_count(value) -> int:
    """The number of terms of a value of any context, as MAX_TERM_PAIRS
    counts them."""
    if isinstance(value, tuple):    # a tagged value of the k3 or taut context
        value = value[1]
    if isinstance(value, SparseMat):
        return len(value.num)
    if isinstance(value, (Poly, TautExpr)):
        return len(value.terms)
    return len(value) if isinstance(value, dict) else 1


def _bounded_power(x, n: int, one, product):
    """x^n by repeated squaring that stops before a product would pair more
    than MAX_TERM_PAIRS terms and as soon as a product has a numerator or
    denominator past MAX_DIGITS digits, so that the work stays bounded
    whatever n is."""
    def checked(a, b):
        if _term_count(a) * _term_count(b) > MAX_TERM_PAIRS:
            raise EvalError(f"the power ^{n} would pair more than "
                            f"{MAX_TERM_PAIRS} terms in one product")
        out = product(a, b)
        if _passes_digits(out):
            raise EvalError(f"the power ^{n} would pass {MAX_DIGITS} digits")
        return out
    return power(x, n, one, checked)


def _as_index(value, what: str) -> int:
    if isinstance(value, GaussianRational):
        if not value.is_rational() or value.rational().denominator != 1:
            raise EvalError(f"{what} must be an integer")
        return int(value.rational())
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise EvalError(f"{what} must be an integer")
        return int(value)
    raise EvalError(f"{what} must be an integer")


class LlvContext:
    """Operators of the standard middle-dimension model."""

    name = "llv"

    def __init__(self, hdim: int = 6, t=2):
        self.space = llv_model_space(hdim, Fraction(t))
        self.quad = standard_quadruple(self.space)

    def _vector(self, value, what: str):
        idx = _as_index(value, what)
        if not 1 <= idx <= len(self.quad):
            raise EvalError(f"{what} must be between 1 and {len(self.quad)}")
        return self.quad[idx - 1]

    def symbol(self, name: str, args):
        if name == "h":
            if args is not None:
                raise EvalError("h takes no arguments")
            return op_h(self.space)
        table = {
            "e": (op_e, 1), "f": (op_f, 1),
            "K": (op_K, 2),
            "esig": (op_e_sigma, 2), "fsig": (op_f_sigma, 2),
            "esigbar": (op_e_sigmabar, 2), "fsigbar": (op_f_sigmabar, 2),
        }
        if name not in table:
            raise EvalError(f"unknown symbol {name!r} in the llv context")
        func, arity = table[name]
        if args is None or len(args) != arity:
            raise EvalError(f"{name} takes {arity} index argument(s)")
        vectors = [self._vector(a, f"argument of {name}") for a in args]
        return func(self.space, *vectors)

    def scalar(self, value: Fraction):
        return GaussianRational(value)

    def imaginary(self):
        return GaussianRational(0, 1)

    def add(self, x, y, sign: int):
        if isinstance(x, SparseMat) and isinstance(y, SparseMat):
            return x + y.scale(GaussianRational(sign))
        if isinstance(x, GaussianRational) and isinstance(y, GaussianRational):
            return x + y * GaussianRational(sign)
        raise EvalError("cannot add a scalar to an operator")

    def mul(self, x, y, op: str):
        if isinstance(x, GaussianRational) and isinstance(y, GaussianRational):
            if op == "o":
                raise EvalError("composition needs operators")
            return x * y
        if isinstance(x, GaussianRational):
            return y.scale(x)
        if isinstance(y, GaussianRational):
            return x.scale(y)
        return x @ y

    def neg(self, x):
        if isinstance(x, GaussianRational):
            return -x
        return x.scale(GaussianRational(-1))

    def power(self, x, n: int):
        if isinstance(x, GaussianRational):
            return _bounded_power(x, n, GaussianRational(1), mul)
        return _bounded_power(x, n, SparseMat.identity(x.dim), matmul)

    def commutator(self, x, y):
        if isinstance(x, SparseMat) and isinstance(y, SparseMat):
            return bracket(x, y)
        raise EvalError("commutator needs two operators")

    def render(self, value) -> Tuple[str, str]:
        if isinstance(value, GaussianRational):
            return "scalar", str(value)
        return "operator", str(value)


def _fmt_labelled(cycle: Dict[str, Fraction], order) -> str:
    if not cycle:
        return "0"
    parts = []
    for label in order:
        if label not in cycle:
            continue
        c = cycle[label]
        if c == 1:
            text = label
        elif c == -1:
            text = f"-{label}"
        else:
            text = f"{c}*{label}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
    return out


class K3Context:
    """Fiber-square cycles and correspondences of an elliptic surface."""

    name = "k3"

    def symbol(self, name: str, args):
        if name in BV_LABELS:
            if args is not None:
                raise EvalError(f"{name} takes no arguments")
            return ("bv", bv(name))
        if name == "Theta":
            if args is not None:
                raise EvalError("Theta takes no arguments")
            return ("bv", bv_theta())
        if name in ("p1", "p2"):
            if args is None or len(args) != 1:
                raise EvalError(f"{name} takes one surface-class argument")
            kind, value = args[0]
            if kind != "bv":
                raise EvalError(f"{name} needs a surface class")
            if name == "p1":
                return ("rel", pair_to_rel(value, bv("one")))
            return ("rel", pair_to_rel(bv("one"), value))
        if name == "Delta":
            if args is None:
                return ("rel", rel("delta"))
            if len(args) != 1:
                raise EvalError("Delta takes at most one argument")
            kind, value = args[0]
            if kind != "bv":
                raise EvalError("Delta needs a surface class")
            return ("rel", diag_push(value))
        if name == "F":
            if args is not None:
                raise EvalError("F takes no arguments")
            return ("corr", Corr.fourier())
        if name == "Finv":
            if args is not None:
                raise EvalError("Finv takes no arguments")
            return ("corr", Corr.fourier_inverse())
        raise EvalError(f"unknown symbol {name!r} in the k3 context")

    def scalar(self, value: Fraction):
        return ("scalar", value)

    def imaginary(self):
        raise EvalError("imaginary scalars are not part of the k3 context")

    def _scale(self, tagged, factor: Fraction):
        kind, value = tagged
        if kind == "scalar":
            return ("scalar", value * factor)
        if kind == "corr":
            value = ("rel", value.as_cycle())
            kind, value = value
        scaled = {lab: c * factor for lab, c in value.items() if c * factor}
        return (kind, scaled)

    def add(self, x, y, sign: int):
        if x[0] == "scalar" and y[0] == "scalar":
            return ("scalar", x[1] + sign * y[1])
        if x[0] == "corr":
            x = ("rel", x[1].as_cycle())
        if y[0] == "corr":
            y = ("rel", y[1].as_cycle())
        if x[0] != y[0] or x[0] == "scalar":
            raise EvalError(f"cannot add {x[0]} and {y[0]}")
        return (x[0], add_into(dict(x[1]),
                               ((lab, sign * c) for lab, c in y[1].items())))

    def mul(self, x, y, op: str):
        if op == "o":
            if x[0] == "scalar" or y[0] == "scalar":
                raise EvalError("composition needs cycles or correspondences")
            cx = x[1] if x[0] == "corr" else Corr.of(x[1]) if x[0] == "rel" else None
            cy = y[1] if y[0] == "corr" else Corr.of(y[1]) if y[0] == "rel" else None
            if cx is None or cy is None:
                raise EvalError("composition needs relative cycles")
            out = cx.compose(cy)
            if out.kind == "cycle":
                return ("rel", out.as_cycle())
            return ("corr", out)
        if x[0] == "scalar" and y[0] == "scalar":
            return ("scalar", x[1] * y[1])
        if x[0] == "scalar":
            return self._scale(y, x[1])
        if y[0] == "scalar":
            return self._scale(x, y[1])
        if x[0] == "bv" and y[0] == "bv":
            return ("bv", bv_mul(x[1], y[1]))
        if x[0] == "rel" and y[0] == "rel":
            return ("rel", rel_mul(x[1], y[1]))
        raise EvalError(f"cannot multiply {x[0]} and {y[0]}")

    def neg(self, x):
        return self._scale(x, Fraction(-1)) if x[0] != "scalar" else ("scalar", -x[1])

    def power(self, x, n: int):
        if x[0] == "scalar":
            one = ("scalar", Fraction(1))
        elif x[0] == "bv":
            one = ("bv", bv("one"))
        elif x[0] == "rel":
            one = ("rel", rel("one"))
        else:
            raise EvalError("powers of correspondences are not supported")
        return _bounded_power(x, n, one, lambda a, b: self.mul(a, b, "*"))

    def commutator(self, x, y):
        if x[0] == "corr":
            x = ("rel", x[1].as_cycle())
        if y[0] == "corr":
            y = ("rel", y[1].as_cycle())
        if x[0] != "rel" or y[0] != "rel":
            raise EvalError("commutator needs relative cycles")
        return ("rel", rel_bracket(x[1], y[1]))

    def render(self, tagged) -> Tuple[str, str]:
        kind, value = tagged
        if kind == "scalar":
            return "scalar", str(value)
        if kind == "bv":
            return "surface-class", _fmt_labelled(value, BV_LABELS)
        if kind == "rel":
            return "relative-cycle", _fmt_labelled(value, REL_LABELS)
        return "correspondence", value.kind


class TautContext:
    """Tautological expressions on a nodal Jacobian family."""

    name = "taut"

    def __init__(self, locus: str = "total"):
        if locus not in LOCI:
            raise EvalError(f"unknown locus {locus!r}")
        self.locus = locus

    def symbol(self, name: str, args):
        if args is not None:
            raise EvalError(f"{name} takes no arguments")
        if name in TAUT_GENS:
            return ("taut", gen(name, locus=self.locus))
        if name in ("a", "b", "N", "d"):
            return ("poly", Poly.var(name))
        raise EvalError(f"unknown symbol {name!r} in the taut context")

    def scalar(self, value: Fraction):
        return ("poly", Poly.const(value))

    def imaginary(self):
        return ("poly", Poly.const(GaussianRational(0, 1)))

    def add(self, x, y, sign: int):
        if x[0] == y[0] == "poly":
            return ("poly", x[1] + y[1].scale(sign))
        x = self._promote(x)
        y = self._promote(y)
        return ("taut", x[1] + y[1].scale(sign))

    def _promote(self, tagged):
        if tagged[0] == "taut":
            return tagged
        return ("taut", TautExpr.const(tagged[1], self.locus))

    def mul(self, x, y, op: str):
        if op == "o":
            raise EvalError("composition is not part of the taut context")
        if x[0] == y[0] == "poly":
            return ("poly", x[1] * y[1])
        x = self._promote(x)
        y = self._promote(y)
        return ("taut", x[1] * y[1])

    def neg(self, x):
        if x[0] == "poly":
            return ("poly", -x[1])
        return ("taut", -x[1])

    def power(self, x, n: int):
        one = Poly.const(1) if x[0] == "poly" else TautExpr.const(1, self.locus)
        return _bounded_power(x, n, (x[0], one), lambda a, b: self.mul(a, b, "*"))

    def commutator(self, x, y):
        raise EvalError("commutators are not part of the taut context")

    def render(self, tagged) -> Tuple[str, str]:
        kind, value = tagged
        if kind == "poly":
            return "scalar", str(value)
        return "tautological-class", str(value)


def evaluate(expr: Expr, context):
    if isinstance(expr, Num):
        return context.scalar(expr.value)
    if isinstance(expr, Imag):
        return context.imaginary()
    if isinstance(expr, Sym):
        args = None
        if expr.args is not None:
            args = [evaluate(a, context) for a in expr.args]
        return context.symbol(expr.name, args)
    if isinstance(expr, Neg):
        return context.neg(evaluate(expr.body, context))
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


def make_context(name: str, locus: str = "total", hdim: int = 6, t=2):
    if name == "llv":
        return LlvContext(hdim, t)
    if name == "k3":
        return K3Context()
    if name == "taut":
        return TautContext(locus)
    raise ValueError(f"unknown context {name!r}")
