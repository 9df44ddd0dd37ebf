"""Small arithmetic expression language for metric components and scalar fields.

The grammar (see docs/expression-grammar.md for the EBNF) covers decimal
literals, declared coordinate names, the unary functions exp/log/sin/cos/
sinh/cosh/sqrt, unary minus, and the binary operators ``+ - * / ^`` with
the usual precedence (``^`` binds tightest and is right-associative, then
unary minus, then ``* /``, then ``+ -``, all left-associative).

Expression trees are immutable; evaluation and differentiation never
mutate shared state, so values built here can be used concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ParseError",
    "EvalDomainError",
    "FUNCTIONS",
    "parse",
    "coerce_expr",
    "evaluate",
    "differentiate",
    "to_source",
    "compile_expr",
    "variables",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")

_MATH_FN = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "sqrt": math.sqrt,
}


class ParseError(ValueError):
    """Raised for malformed expression text or unknown identifiers."""

    def __init__(self, message: str, offset: int, token: str = ""):
        super().__init__(f"{message} (offset {offset}, token {token!r})")
        self.message = message
        self.offset = offset
        self.token = token


class EvalDomainError(ArithmeticError):
    """Raised when evaluation leaves a function's real domain.

    Division by zero, log of a non-positive value, sqrt or fractional
    powers of a negative value all raise this instead of returning NaN.
    """

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        where = "" if span is None else f" at offsets {span[0]}..{span[1]}"
        super().__init__(message + where)
        self.message = message
        self.span = span


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes; ``span`` is the source range."""

    span: tuple[int, int] | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a name from FUNCTIONS
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # 'add' | 'sub' | 'mul' | 'div' | 'pow'
    left: Expr
    right: Expr


_BINOP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}

# -- lexer --------------------------------------------------------------


def _lex(text: str) -> list[tuple[str, str, int]]:
    """Tokenise into (kind, text, offset); kinds: num, ident, op, lparen, rparen."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif c.isalpha() and c.isascii():
            j = i + 1
            while j < n and text[j].isalnum() and text[j].isascii():
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif c in "+-*/^":
            tokens.append(("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        else:
            raise ParseError("unexpected character", i, c)
    return tokens


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.text = text
        self.coords = tuple(coords)
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {text!r}, found end of input", len(self.text))
        if tok[0] != kind or tok[1] != text:
            raise ParseError(f"expected {text!r}", tok[2], tok[1])
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError("trailing input", tok[2], tok[1])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.next()
            rhs = self.term()
            op = "add" if tok[1] == "+" else "sub"
            e = Binary(op, e, rhs, span=self._span(e, rhs))
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.next()
            rhs = self.unary()
            op = "mul" if tok[1] == "*" else "div"
            e = Binary(op, e, rhs, span=self._span(e, rhs))
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            inner = self.unary()
            # fold a minus applied directly to a literal into the constant
            if isinstance(inner, Const):
                return Const(-inner.value, span=(tok[2], inner.span[1] if inner.span else tok[2] + 1))
            return Unary("neg", inner, span=(tok[2], inner.span[1] if inner.span else tok[2] + 1))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            exponent = self.unary()  # right-assoc; allows t^-2
            return Binary("pow", base, exponent, span=self._span(base, exponent))
        return base

    def atom(self) -> Expr:
        tok = self.next()
        kind, text, offset = tok
        if kind == "num":
            return Const(float(text), span=(offset, offset + len(text)))
        if kind == "ident":
            nxt = self.peek()
            if nxt and nxt[0] == "lparen":
                self.next()
                arg = self.expr()
                close = self.expect("rparen", ")")
                if text not in _MATH_FN:
                    raise ParseError("unknown function", offset, text)
                return Unary(text, arg, span=(offset, close[2] + 1))
            if text not in self.coords:
                raise ParseError("unknown identifier", offset, text)
            return Var(text, span=(offset, offset + len(text)))
        if kind == "lparen":
            e = self.expr()
            self.expect("rparen", ")")
            return e
        raise ParseError("unexpected token", offset, text)

    @staticmethod
    def _span(a: Expr, b: Expr) -> tuple[int, int] | None:
        if a.span and b.span:
            return (a.span[0], b.span[1])
        return None


def parse(text: str, coords: Sequence[str]) -> Expr:
    """Parse ``text`` against the declared coordinate names.

    Raises ParseError (with byte offset and offending token) on malformed
    syntax or identifiers that are neither coordinates nor known functions.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, coords).parse()


def coerce_expr(value: Expr | str | float, coords: Sequence[str]) -> Expr:
    """An expression as given, parsed from text, or a constant from a number."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse(value, coords)
    return Const(float(value))


# -- evaluation ---------------------------------------------------------


def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a coordinate assignment in IEEE double precision.

    Domain violations raise EvalDomainError carrying the node's source span
    rather than producing NaN or infinity.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(point[e.name])
        except KeyError:
            raise EvalDomainError(f"no value supplied for coordinate {e.name!r}", e.span) from None
    if isinstance(e, Unary):
        v = evaluate(e.arg, point)
        if e.op == "neg":
            return -v
        try:
            return _MATH_FN[e.op](v)
        except (ValueError, OverflowError):
            raise EvalDomainError(f"{e.op}({v!r}) outside real domain", e.span) from None
    if isinstance(e, Binary):
        a = evaluate(e.left, point)
        b = evaluate(e.right, point)
        try:
            if e.op == "add":
                return a + b
            if e.op == "sub":
                return a - b
            if e.op == "mul":
                return a * b
            if e.op == "div":
                return a / b
            return math.pow(a, b)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalDomainError(f"{e.op} of ({a!r}, {b!r}): {exc}", e.span) from None
    raise TypeError(f"not an expression node: {e!r}")


def variables(e: Expr) -> set[str]:
    """Names of all coordinates appearing in the tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return variables(e.arg)
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    return set()


# -- symbolic differentiation -------------------------------------------
#
# Used as an exact cross-check oracle for the finite-difference machinery;
# the smart constructors below fold only the identities the chain rule
# produces constantly (0 + u, 0 * u, 1 * u, constant folding) so derivative
# trees stay readable.


def _const(v: float) -> Const:
    return Const(float(v))


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    return Binary("add", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return Binary("sub", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return _const(-a.value)
    return Unary("neg", a)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0.0:
            return _const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return _const(0.0)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    return Binary("mul", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0.0:
        return _const(0.0)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Binary("div", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _const(1.0)
    return Binary("pow", a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``var``."""
    if isinstance(e, Const):
        return _const(0.0)
    if isinstance(e, Var):
        return _const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        du = differentiate(e.arg, var)
        u = e.arg
        if e.op == "neg":
            return _neg(du)
        if e.op == "exp":
            return _mul(du, Unary("exp", u))
        if e.op == "log":
            return _div(du, u)
        if e.op == "sin":
            return _mul(du, Unary("cos", u))
        if e.op == "cos":
            return _neg(_mul(du, Unary("sin", u)))
        if e.op == "sinh":
            return _mul(du, Unary("cosh", u))
        if e.op == "cosh":
            return _mul(du, Unary("sinh", u))
        if e.op == "sqrt":
            return _div(du, _mul(_const(2.0), Unary("sqrt", u)))
        raise ValueError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        u, v = e.left, e.right
        du = differentiate(u, var)
        dv = differentiate(v, var)
        if e.op == "add":
            return _add(du, dv)
        if e.op == "sub":
            return _sub(du, dv)
        if e.op == "mul":
            return _add(_mul(du, v), _mul(u, dv))
        if e.op == "div":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, _const(2.0)))
        if e.op == "pow":
            if var not in variables(v):
                # exponent constant along var: power rule
                return _mul(_mul(v, _pow(u, _sub(v, _const(1.0)))), du)
            # general case d(u^v) = u^v (v' log u + v u'/u)
            return _mul(
                _pow(u, v),
                _add(_mul(dv, Unary("log", u)), _mul(v, _div(du, u))),
            )
        raise ValueError(f"unknown binary op {e.op!r}")
    raise TypeError(f"not an expression node: {e!r}")


# -- printing and compilation -------------------------------------------

_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PRECEDENCE[e.op]
    if isinstance(e, Unary) and e.op == "neg":
        return _PRECEDENCE["neg"]
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:
        return _PRECEDENCE["neg"]
    return 5


def to_source(e: Expr) -> str:
    """Render with minimal parentheses; parse(to_source(e)) == e structurally."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_source(e.arg)
            if _prec(e.arg) <= _PRECEDENCE["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_source(e.arg)})"
    if isinstance(e, Binary):
        sym = _BINOP_SYMBOL[e.op]
        lhs, rhs = to_source(e.left), to_source(e.right)
        p = _PRECEDENCE[e.op]
        # left-assoc except pow (right-assoc, right operand parsed at unary level)
        if e.op == "pow":
            if _prec(e.left) <= p:
                lhs = f"({lhs})"
            if _prec(e.right) < _PRECEDENCE["neg"]:
                rhs = f"({rhs})"
        else:
            if _prec(e.left) < p:
                lhs = f"({lhs})"
            if _prec(e.right) <= p:
                rhs = f"({rhs})"
        return f"{lhs}{sym}{rhs}"
    raise TypeError(f"not an expression node: {e!r}")


def _py_source(e: Expr, names: Mapping[str, str]) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return names[e.name]
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{_py_source(e.arg, names)})"
        return f"_m.{e.op}({_py_source(e.arg, names)})"
    if isinstance(e, Binary):
        a = _py_source(e.left, names)
        b = _py_source(e.right, names)
        if e.op == "pow":
            # math.pow rejects negative bases with fractional exponents
            # instead of returning complex values
            return f"_m.pow({a}, {b})"
        return f"({a} {_BINOP_SYMBOL[e.op]} {b})"
    raise TypeError(f"not an expression node: {e!r}")


def compile_expr(e: Expr, coords: Sequence[str]) -> Callable[..., float]:
    """Compile to a positional-argument callable, one argument per coordinate.

    The compiled function raises EvalDomainError on domain violations, same
    contract as evaluate(); coordinate names are mapped to fresh parameter
    names so they cannot shadow anything in the generated code.
    """
    names = {c: f"c{i}" for i, c in enumerate(coords)}
    for v in variables(e):
        if v not in names:
            raise EvalDomainError(f"expression references undeclared coordinate {v!r}")
    body = _py_source(e, names)
    src = f"lambda {', '.join(names.values())}: {body}"
    raw = eval(src, {"_m": math})  # noqa: S307 - source generated above from a closed grammar

    def fn(*args: float) -> float:
        try:
            return raw(*args)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalDomainError(f"{to_source(e)}: {exc}") from None

    return fn
