"""Scalar expressions over declared variables: parsing, evaluation, exact
symbolic differentiation, and light algebraic simplification.

Grammar (whitespace-insensitive, case-sensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')? power
    power  := atom ('^' INT)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

IDENT is either a declared variable or one of the functions sin, cos, exp,
log.  NUMBER is an unsigned decimal literal (no exponent suffix) that reads
as a finite double; a longer one is a syntax error.  Pow exponents are
nonnegative integer literals, checked at parse time, which keeps every
derivative closed-form under the same grammar.

ASTs are immutable (frozen dataclasses); they can be shared and evaluated
concurrently without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Call",
    "Bin",
    "Pow",
    "ExprAst",
    "VarBinding",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "NonIntegerExponentError",
    "EvalDomainError",
    "FUNCTIONS",
    "control_variables",
    "parse",
    "parse_with_variables",
    "evaluate",
    "differentiate",
    "simplify",
    "DerivTable",
    "deriv_table",
    "to_source",
    "to_python",
    "compile_ast",
]

FUNCTIONS = ("sin", "cos", "exp", "log")


class ExprError(ValueError):
    """Base class for expression-level failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownVariableError(ExprSyntaxError):
    pass


class NonIntegerExponentError(ExprSyntaxError):
    pass


class EvalDomainError(ExprError):
    """Real-domain violation (division by zero, log of a non-positive value)."""

    def __init__(self, message: str, node: "ExprAst"):
        super().__init__(f"{message} in '{to_source(node)}'")
        self.node = node


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str  # one of FUNCTIONS
    arg: "ExprAst"


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int  # >= 0, enforced at parse time


ExprAst = Union[Const, Var, Neg, Call, Bin, Pow]


@dataclass(frozen=True)
class VarBinding:
    """Point (t, x, u) at which control-problem expressions are evaluated."""

    t: float
    x: Sequence[float]
    u: Sequence[float]

    def to_env(self) -> dict:
        env = {"t": self.t}
        for i, v in enumerate(self.x, start=1):
            env[f"x{i}"] = v
        for i, v in enumerate(self.u, start=1):
            env[f"u{i}"] = v
        return env


def control_variables(n: int, l: int) -> tuple[str, ...]:
    """Declared variable names for an n-state, l-control problem."""
    return ("t", *(f"x{i}" for i in range(1, n + 1)), *(f"u{i}" for i in range(1, l + 1)))


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_END = "end"


def _byte_offset(source: str, char_pos: int) -> int:
    return len(source[:char_pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            if text == ".":
                raise ExprSyntaxError("malformed number", _byte_offset(source, i))
            if math.isinf(float(text)):
                raise ExprSyntaxError("number too large for a double",
                                      _byte_offset(source, i))
            tokens.append((_TOK_NUM, text, i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and source[j].isalnum():
                j += 1
            tokens.append((_TOK_IDENT, source[i:j], i))
            i = j
        elif ch in "+-*/^":
            tokens.append((_TOK_OP, ch, i))
            i += 1
        elif ch == "(":
            tokens.append((_TOK_LPAREN, ch, i))
            i += 1
        elif ch == ")":
            tokens.append((_TOK_RPAREN, ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", _byte_offset(source, i))
    tokens.append((_TOK_END, "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: Sequence[str]):
        self.source = source
        self.variables = frozenset(variables)
        self.tokens = _tokenize(source)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _error(self, message: str, tok) -> None:
        raise ExprSyntaxError(message, _byte_offset(self.source, tok[2]))

    def parse(self) -> ExprAst:
        node = self._expr()
        tok = self._peek()
        if tok[0] != _TOK_END:
            self._error(f"unexpected trailing input {tok[1]!r}", tok)
        return node

    def _expr(self) -> ExprAst:
        node = self._term()
        while self._peek()[:2] in ((_TOK_OP, "+"), (_TOK_OP, "-")):
            op = self._next()[1]
            node = Bin(op, node, self._term())
        return node

    def _term(self) -> ExprAst:
        node = self._factor()
        while self._peek()[:2] in ((_TOK_OP, "*"), (_TOK_OP, "/")):
            op = self._next()[1]
            node = Bin(op, node, self._factor())
        return node

    def _factor(self) -> ExprAst:
        if self._peek()[:2] == (_TOK_OP, "-"):
            self._next()
            return Neg(self._power())
        return self._power()

    def _power(self) -> ExprAst:
        node = self._atom()
        if self._peek()[:2] == (_TOK_OP, "^"):
            self._next()
            tok = self._next()
            if tok[0] != _TOK_NUM:
                self._error("expected integer exponent after '^'", tok)
            if "." in tok[1]:
                raise NonIntegerExponentError(
                    f"exponent {tok[1]!r} is not an integer literal",
                    _byte_offset(self.source, tok[2]),
                )
            return Pow(node, int(tok[1]))
        return node

    def _atom(self) -> ExprAst:
        tok = self._next()
        kind, text, pos = tok
        if kind == _TOK_NUM:
            return Const(float(text))
        if kind == _TOK_LPAREN:
            node = self._expr()
            closing = self._next()
            if closing[0] != _TOK_RPAREN:
                self._error("expected ')'", closing)
            return node
        if kind == _TOK_IDENT:
            if self._peek()[0] == _TOK_LPAREN:
                if text in FUNCTIONS:
                    self._next()
                    arg = self._expr()
                    closing = self._next()
                    if closing[0] != _TOK_RPAREN:
                        self._error("expected ')'", closing)
                    return Call(text, arg)
                if text in self.variables:
                    self._error(f"variable {text!r} used as a function", tok)
                raise UnknownVariableError(
                    f"unknown identifier {text!r}", _byte_offset(self.source, pos)
                )
            if text in self.variables:
                return Var(text)
            if text in FUNCTIONS:
                self._error(f"function {text!r} requires an argument", tok)
            raise UnknownVariableError(
                f"unknown variable {text!r}", _byte_offset(self.source, pos)
            )
        self._error(f"unexpected token {text!r}", tok)


def parse_with_variables(source: str, variables: Sequence[str]) -> ExprAst:
    """Parse ``source`` against an explicit declared-variable set."""
    return _Parser(source, variables).parse()


def parse(source: str, dims: tuple[int, int]) -> ExprAst:
    """Parse a control-problem expression in variables (t, x1..xn, u1..ul)."""
    n, l = dims
    return parse_with_variables(source, control_variables(n, l))


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(ast: ExprAst, binding) -> float:
    """Evaluate at a ``VarBinding`` or a plain name->value mapping.

    Values may be scalars or numpy arrays (broadcast elementwise); domain
    errors report the offending subexpression.
    """
    env = binding.to_env() if isinstance(binding, VarBinding) else binding
    return _eval(ast, env)


def _eval(node: ExprAst, env: Mapping):
    match node:
        case Const(value):
            return value
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise ExprError(f"unbound variable {name!r}") from None
        case Neg(arg):
            return -_eval(arg, env)
        case Call(fn, arg):
            x = _eval(arg, env)
            if fn == "log":
                if np.any(np.asarray(x) <= 0.0):
                    raise EvalDomainError("log of non-positive value", node)
                return np.log(x)
            if fn == "sin":
                return np.sin(x)
            if fn == "cos":
                return np.cos(x)
            return np.exp(x)
        case Bin(op, left, right):
            a = _eval(left, env)
            if op == "/":
                b = _eval(right, env)
                if np.any(np.asarray(b) == 0.0):
                    raise EvalDomainError("division by zero", node)
                return a / b
            b = _eval(right, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            return a * b
        case Pow(base, exponent):
            return _eval(base, env) ** exponent
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(ast: ExprAst, var: str) -> ExprAst:
    """Exact symbolic partial derivative with respect to ``var``."""
    match ast:
        case Const():
            return Const(0.0)
        case Var(name):
            return Const(1.0 if name == var else 0.0)
        case Neg(arg):
            return Neg(differentiate(arg, var))
        case Call(fn, arg):
            inner = differentiate(arg, var)
            if fn == "sin":
                return Bin("*", Call("cos", arg), inner)
            if fn == "cos":
                return Neg(Bin("*", Call("sin", arg), inner))
            if fn == "exp":
                return Bin("*", Call("exp", arg), inner)
            return Bin("/", inner, arg)  # log
        case Bin(op, left, right):
            dl = differentiate(left, var)
            dr = differentiate(right, var)
            if op in "+-":
                return Bin(op, dl, dr)
            if op == "*":
                return Bin("+", Bin("*", dl, right), Bin("*", left, dr))
            # quotient rule
            num = Bin("-", Bin("*", dl, right), Bin("*", left, dr))
            return Bin("/", num, Pow(right, 2))
        case Pow(base, exponent):
            if exponent == 0:
                return Const(0.0)
            inner = differentiate(base, var)
            scaled = Bin("*", Const(float(exponent)), Pow(base, exponent - 1))
            return Bin("*", scaled, inner)
    raise TypeError(f"not an expression node: {ast!r}")


# ---------------------------------------------------------------------------
# Simplification


def _const(node: ExprAst, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


def _neg(node: ExprAst) -> ExprAst:
    if isinstance(node, Const) and math.isfinite(-node.value):
        return Const(-node.value)
    if isinstance(node, Neg):
        return node.arg
    return Neg(node)


def simplify(ast: ExprAst) -> ExprAst:
    """Evaluation-equivalent AST after constant folding and unit rules.

    Applies x+0 -> x, x*1 -> x, x*0 -> 0, x^0 -> 1, x^1 -> x, and folds
    all-constant subtrees; folding is skipped when it would hit a domain
    error or a non-finite value.
    """
    match ast:
        case Const() | Var():
            return ast
        case Neg(arg):
            return _neg(simplify(arg))
        case Call(fn, arg):
            a = simplify(arg)
            if isinstance(a, Const):
                try:
                    value = float(_eval(Call(fn, a), {}))
                except EvalDomainError:
                    return Call(fn, a)
                if math.isfinite(value):
                    return Const(value)
            return Call(fn, a)
        case Pow(base, exponent):
            b = simplify(base)
            if exponent == 0:
                return Const(1.0)
            if exponent == 1:
                return b
            if isinstance(b, Const):
                value = b.value**exponent
                if math.isfinite(value):
                    return Const(float(value))
            return Pow(b, exponent)
        case Bin(op, left, right):
            a = simplify(left)
            b = simplify(right)
            if isinstance(a, Const) and isinstance(b, Const):
                if not (op == "/" and b.value == 0.0):
                    value = float(_eval(Bin(op, a, b), {}))
                    if math.isfinite(value):
                        return Const(value)
            if op == "+":
                if _const(a, 0.0):
                    return b
                if _const(b, 0.0):
                    return a
            elif op == "-":
                if _const(b, 0.0):
                    return a
                if _const(a, 0.0):
                    return _neg(b)
            elif op == "*":
                if _const(a, 0.0) or _const(b, 0.0):
                    return Const(0.0)
                if _const(a, 1.0):
                    return b
                if _const(b, 1.0):
                    return a
            elif op == "/":
                if _const(b, 1.0):
                    return a
            return Bin(op, a, b)
    raise TypeError(f"not an expression node: {ast!r}")


@dataclass(frozen=True)
class DerivTable:
    """Simplified first and second derivative trees of one expression.

    ``grad[i]`` is d/dv_i expr and ``hess[i][j]`` is d/dv_j (d/dv_i expr)
    for i <= j; ``hess[j][i]`` holds the same tree.
    """

    variables: tuple[str, ...]
    grad: tuple[ExprAst, ...]
    hess: tuple[tuple[ExprAst, ...], ...]


def deriv_table(ast: ExprAst, variables: Sequence[str]) -> DerivTable:
    """Differentiate ``ast`` once and twice with respect to ``variables``;
    each unordered pair is differentiated once."""
    grad = tuple(simplify(differentiate(ast, v)) for v in variables)
    upper = [{j: simplify(differentiate(g, variables[j])) for j in range(i, len(variables))}
             for i, g in enumerate(grad)]
    hess = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(len(variables)))
                 for i in range(len(variables)))
    return DerivTable(tuple(variables), grad, hess)


# ---------------------------------------------------------------------------
# Printing

# Precedence levels used to decide parenthesisation; chosen so that printing
# then reparsing reproduces the AST (one normalisation round for negative
# constants, which the grammar spells as unary minus).
_PREC_ADD = 1.0
_PREC_MUL = 2.0
_PREC_NEG = 2.5
_PREC_POW = 3.0
_PREC_ATOM = 4.0


def _prec(node: ExprAst) -> float:
    match node:
        case Const(value):
            return _PREC_NEG if value < 0 else _PREC_ATOM
        case Var() | Call():
            return _PREC_ATOM
        case Pow():
            return _PREC_POW
        case Neg():
            return _PREC_NEG
        case Bin(op, _, _):
            return _PREC_ADD if op in "+-" else _PREC_MUL
    raise TypeError(f"not an expression node: {node!r}")


def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        text = np.format_float_positional(value, unique=True, trim="0")
    return text


def _wrap(text: str, needs_parens: bool) -> str:
    return f"({text})" if needs_parens else text


def to_source(ast: ExprAst) -> str:
    """Render an AST back to grammar-conformant source text."""
    match ast:
        case Const(value):
            return _fmt_const(value)
        case Var(name):
            return name
        case Call(fn, arg):
            return f"{fn}({to_source(arg)})"
        case Neg(arg):
            return "-" + _wrap(to_source(arg), _prec(arg) < _PREC_POW)
        case Pow(base, exponent):
            return _wrap(to_source(base), _prec(base) < _PREC_ATOM) + f"^{exponent}"
        case Bin(op, left, right):
            if op in "+-":
                own, right_min = _PREC_ADD, _PREC_MUL
            else:
                own, right_min = _PREC_MUL, _PREC_NEG
            lhs = _wrap(to_source(left), _prec(left) < own)
            rhs = _wrap(to_source(right), _prec(right) < right_min)
            return f"{lhs} {op} {rhs}"
    raise TypeError(f"not an expression node: {ast!r}")


# ---------------------------------------------------------------------------
# Compilation (hot-path evaluation)


def to_python(ast: ExprAst, names: Mapping[str, str], namespace: str) -> str:
    """Render an AST as one Python expression: variable ``v`` becomes
    ``names[v]`` and function ``f`` becomes ``{namespace}.f``.

    This is the only code emitter; :func:`compile_ast` and the generated
    integrator in :mod:`paretocert.trajectory` both use it, with different
    names and function namespaces.  Every grammar operator becomes the
    Python operator of the same meaning, with no domain checks.
    """

    def emit(node: ExprAst) -> str:
        match node:
            case Const(value):
                return repr(float(value))
            case Var(name):
                return names[name]
            case Neg(arg):
                return f"(-{emit(arg)})"
            case Call(fn, arg):
                return f"{namespace}.{fn}({emit(arg)})"
            case Bin(op, left, right):
                return f"({emit(left)} {op} {emit(right)})"
            case Pow(base, exponent):
                return f"({emit(base)} ** {exponent})"
        raise TypeError(f"not an expression node: {node!r}")

    return emit(ast)


def compile_ast(ast: ExprAst, variables: Sequence[str]) -> Callable:
    """Compile to ``f(values)`` where ``values`` aligns with ``variables``.

    The body is :func:`to_python` with ``values[i]`` for the i-th variable
    and numpy functions, so it broadcasts over arrays.  The compiled
    function skips the domain checks of :func:`evaluate`; numeric trouble
    surfaces as inf/nan, which integration and field evaluation guard with
    explicit finiteness checks.  The findim oracle instead runs it with
    division by zero, invalid operations and overflow raised, and falls
    back to :func:`evaluate` where they raise.
    """
    names = {name: f"v[{i}]" for i, name in enumerate(variables)}
    return eval(f"lambda v: {to_python(ast, names, '_np')}", {"_np": np})
