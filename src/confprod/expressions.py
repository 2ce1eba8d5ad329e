"""Closed expression language for metric entries and conformal factors.

Grammar (version 1):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          exponent must fold to a constant
    atom   := NUMBER | 'pi' | IDENT | FUNC '(' expr ')' | '(' expr ')'

    NUMBER := decimal literal, optional fraction and exponent part
    IDENT  := letter/underscore start, then letters/digits/underscores,
              dot-separated segments allowed (joint-chart coordinates)
    FUNC   := sin cos tan sinh cosh tanh exp log sqrt

'^' binds tighter than unary minus, so -x^2 parses as -(x^2).  Expressions
are immutable trees over a closed node set: constants, coordinates, the
unary operations above plus negation, the four arithmetic operations, and
powers with a constant real exponent.  Symbolic differentiation is closed
over this node set.  Simplification is deliberately light: constant folding
and 0/1 identities only, applied by the smart constructors.

The canonical printer (format_expr) emits text this parser accepts;
parsing the printed form reproduces an expression that evaluates
identically.  (A constant that overflowed prints as inf or nan, which no
tape accepts: compile_expr rejects it.)

compile_expr turns an expression, or a list of them, into one
straight-line tape of numpy calls over an array of points; a subtree that
several expressions share is computed once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError

GRAMMAR_VERSION = "1"


# --- nodes ------------------------------------------------------------------

def _node(cls):
    """Frozen dataclass that computes its structural hash once.

    Nodes are dict keys throughout (differentiation memos, tapes, jet-plan
    caches), and the generated hash recurses through the whole tree on every
    call.  Each node keeps its hash after the first call instead.  The kept
    hash is left out of the pickled state, because str hashes differ
    between processes.
    """
    cls = dataclass(frozen=True)(cls)
    fields = tuple(cls.__dataclass_fields__)

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(tuple(self.__dict__[f] for f in fields))
            return value

    def __getstate__(self):
        return {f: self.__dict__[f] for f in fields}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_node
class Const:
    value: float


@_node
class Coord:
    name: str


@_node
class Unary:
    op: str  # neg sin cos tan sinh cosh tanh exp log sqrt
    arg: "Expr"


@_node
class Binary:
    op: str  # add sub mul div
    left: "Expr"
    right: "Expr"


@_node
class Pow:
    base: "Expr"
    exponent: float  # constant real exponent, by construction


Expr = Union[Const, Coord, Unary, Binary, Pow]

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

_NUMPY_FUNCTIONS = {
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e: Expr, value: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


# --- smart constructors (light simplification lives here) -------------------

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b) and b.value != 0.0 and _is_const(a):
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def powc(base: Expr, exponent: float) -> Expr:
    if exponent == 0.0:
        return ONE
    if exponent == 1.0:
        return base
    if _is_const(base):
        folded = _scalar_pow(base.value, exponent, fold=True)
        if folded is not None:
            return Const(folded)
    return Pow(base, float(exponent))


def func(name: str, arg: Expr) -> Expr:
    if name == "neg":
        return neg(arg)
    if _is_const(arg):
        try:
            value = _FUNCTIONS[name](arg.value)
        except ValueError:
            value = None  # keep the node, evaluation reports the domain error
        if value is not None and math.isfinite(value):
            return Const(value)
    return Unary(name, arg)


def _scalar_pow(base: float, exponent: float, fold: bool = False):
    """Real power with domain checks. Returns None for constant-fold failures."""
    if base < 0.0 and exponent != int(exponent):
        if fold:
            return None
        raise DomainError("negative base with non-integer exponent", f"{base:g}^{exponent:g}")
    if base == 0.0 and exponent < 0.0:
        if fold:
            return None
        raise DomainError("zero base with negative exponent", f"{base:g}^{exponent:g}")
    value = base ** exponent
    if fold and not math.isfinite(value):
        return None
    return value


# --- traversal helpers ------------------------------------------------------

def free_coords(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Coord):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return free_coords(e.arg)
    if isinstance(e, Binary):
        return free_coords(e.left) | free_coords(e.right)
    return free_coords(e.base)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace coordinates by expressions, re-running the smart constructors
    (with an empty mapping this rebuilds the tree, idempotently)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Coord):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        return func(e.op, substitute(e.arg, mapping))
    if isinstance(e, Binary):
        op = {"add": add, "sub": sub, "mul": mul, "div": div}[e.op]
        return op(substitute(e.left, mapping), substitute(e.right, mapping))
    return powc(substitute(e.base, mapping), e.exponent)


def rename_coords(e: Expr, mapping: Mapping[str, str]) -> Expr:
    return substitute(e, {old: Coord(new) for old, new in mapping.items()})


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.text = text
        self.coords = set(coords)
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                tail = text[pos:].lstrip()
                if not tail:
                    break
                raise ExprSyntaxError(f"unexpected character '{tail[0]}'", pos)
            for kind in ("number", "ident", "op"):
                if m.group(kind) is not None:
                    self.tokens.append((kind, m.group(kind), m.start(kind)))
                    break
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.cursor = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.cursor]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect_op(self, op: str):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected '{op}'", position)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected '{value}'", position)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, position = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.unary()
            if not isinstance(exponent, Const):
                raise ExprSyntaxError("exponent must be a constant", position)
            return powc(base, exponent.value)
        return base

    def atom(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "number":
            return Const(float(value))
        if kind == "ident":
            next_kind, next_value, _ = self.peek()
            if next_kind == "op" and next_value == "(":
                if value not in _FUNCTIONS:
                    raise UnknownIdentifierError(value, position)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return func(value, arg)
            if value == "pi":
                return Const(math.pi)
            if value in self.coords:
                return Coord(value)
            raise UnknownIdentifierError(value, position)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected '{value}'" if value else "unexpected end of input", position)


def parse(text: str, coords: Sequence[str]) -> Expr:
    """Parse expression text against a chart's coordinate list."""
    return _Parser(text, coords).parse()


# --- printing ---------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in ("add", "sub") else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _format_number(value: float) -> str:
    if not math.isfinite(value):
        return repr(value)  # no grammar form; shows up in domain errors only
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _wrap(e: Expr, minimum: int) -> str:
    text = format_expr(e)
    return f"({text})" if _precedence(e) < minimum else text


def format_expr(e: Expr) -> str:
    """Canonical text form; parse(format_expr(e)) evaluates identically to e."""
    if isinstance(e, Const):
        return _format_number(e.value)
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.arg, _PREC_NEG)
        return f"{e.op}({format_expr(e.arg)})"
    if isinstance(e, Pow):
        exponent = _format_number(e.exponent)
        if e.exponent < 0:
            exponent = f"({exponent})"
        return f"{_wrap(e.base, _PREC_ATOM)}^{exponent}"
    if e.op == "add":
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if e.op == "sub":
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if e.op == "mul":
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
    return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"


# --- evaluation -------------------------------------------------------------

def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate at a point given as a coordinate -> value mapping.

    Domain violations raise DomainError naming the offending node.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        try:
            return float(env[e.name])
        except KeyError:
            raise DomainError(f"unbound coordinate '{e.name}'", e.name) from None
    if isinstance(e, Unary):
        value = evaluate(e.arg, env)
        if e.op == "neg":
            return -value
        if e.op == "log" and value <= 0.0:
            raise DomainError(f"log of non-positive value {value:.6g}", format_expr(e))
        if e.op == "sqrt" and value < 0.0:
            raise DomainError(f"sqrt of negative value {value:.6g}", format_expr(e))
        try:
            result = _FUNCTIONS[e.op](value)
        except (OverflowError, ValueError):
            raise DomainError("non-finite result", format_expr(e)) from None
        if not math.isfinite(result):
            raise DomainError("non-finite result", format_expr(e))
        return result
    if isinstance(e, Binary):
        left = evaluate(e.left, env)
        right = evaluate(e.right, env)
        if e.op == "add":
            return left + right
        if e.op == "sub":
            return left - right
        if e.op == "mul":
            return left * right
        if right == 0.0:
            raise DomainError("division by zero", format_expr(e))
        return left / right
    try:
        return _scalar_pow(evaluate(e.base, env), e.exponent)
    except DomainError:
        raise DomainError("power outside its domain", format_expr(e)) from None


# --- differentiation --------------------------------------------------------

def differentiate(e: Expr, coord: str, memo: dict | None = None) -> Expr:
    """Exact symbolic derivative, closed over the node set.

    Each distinct subtree is differentiated once and equal subtrees get the
    same derivative object.  A caller that differentiates related trees can
    pass its own memo (a dict keyed by (node, coord)) to share that work
    across calls; without one, each call starts a fresh memo.
    """
    if memo is None:
        memo = {}
    key = (e, coord)
    d = memo.get(key)
    if d is not None:
        return d
    if isinstance(e, Const):
        d = ZERO
    elif isinstance(e, Coord):
        d = ONE if e.name == coord else ZERO
    elif isinstance(e, Unary):
        inner = differentiate(e.arg, coord, memo)
        if e.op == "neg":
            d = neg(inner)
        elif _is_const(inner, 0.0):
            d = ZERO
        else:
            u = e.arg
            outer = {
                "sin": lambda: func("cos", u),
                "cos": lambda: neg(func("sin", u)),
                "tan": lambda: add(ONE, powc(func("tan", u), 2.0)),
                "sinh": lambda: func("cosh", u),
                "cosh": lambda: func("sinh", u),
                "tanh": lambda: sub(ONE, powc(func("tanh", u), 2.0)),
                "exp": lambda: func("exp", u),
                "log": lambda: div(ONE, u),
                "sqrt": lambda: div(ONE, mul(Const(2.0), func("sqrt", u))),
            }[e.op]()
            d = mul(outer, inner)
    elif isinstance(e, Binary):
        da = differentiate(e.left, coord, memo)
        db = differentiate(e.right, coord, memo)
        if e.op == "add":
            d = add(da, db)
        elif e.op == "sub":
            d = sub(da, db)
        elif e.op == "mul":
            d = add(mul(da, e.right), mul(e.left, db))
        else:
            d = div(sub(mul(da, e.right), mul(e.left, db)), powc(e.right, 2.0))
    else:
        dbase = differentiate(e.base, coord, memo)
        d = mul(mul(Const(e.exponent), powc(e.base, e.exponent - 1.0)), dbase)
    memo[key] = d
    return d


# --- vectorized evaluation over sample arrays -------------------------------

_BINARY_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


def _tape(exprs: Sequence[Expr], coords: Sequence[str]):
    """Straight-line program computing every expression in exprs.

    Registers 0..dim-1 hold the point columns; each distinct constant and
    each distinct operation node gets one more, so a subtree shared by
    several expressions is visited and computed once.  Returns (template,
    program, outputs): the register list before a run (constants filled
    in), steps (ufunc, argument registers, result register, registers read
    for the last time), and each expression's register.
    """
    registers: dict = {}
    template: list = [None] * len(coords)
    program: list = []
    column = {name: k for k, name in enumerate(coords)}

    def visit(node: Expr, parent: Expr) -> int:
        if isinstance(node, Coord):
            return column[node.name]
        reg = registers.get(node)
        if reg is not None:
            return reg
        if isinstance(node, Const):
            if not math.isfinite(node.value):
                raise DomainError(f"non-finite constant {node.value!r} (overflow)",
                                  format_expr(parent))
            step = None
        elif isinstance(node, Unary):
            step = [_NUMPY_FUNCTIONS[node.op], (visit(node.arg, node),)]
        elif isinstance(node, Binary):
            step = [_BINARY_UFUNCS[node.op], (visit(node.left, node), visit(node.right, node))]
        else:
            step = [np.power, (visit(node.base, node), visit(Const(node.exponent), node))]
        reg = registers[node] = len(template)
        template.append(node.value if step is None else None)
        if step is not None:
            program.append(step + [reg])
        return reg

    outputs = [visit(e, e) for e in exprs]
    # free each intermediate after its last reader; columns, constants and outputs stay
    read = set(outputs) | {r for r, v in enumerate(template) if r < len(coords) or v is not None}
    for step in reversed(program):
        step.append(tuple(a for a in dict.fromkeys(step[1]) if a not in read))
        read.update(step[1])
    return template, [tuple(step) for step in program], outputs


def compile_expr(e: Expr | Sequence[Expr], coords: Sequence[str]) -> Callable[[np.ndarray], np.ndarray]:
    """Compile to a callable over an (N, dim) point array.

    A single expression gives its (N,) values.  A sequence of expressions
    is compiled onto one shared tape and gives a (len(e), N) array whose
    rows are the expressions' values.  A non-finite constant is a
    DomainError at compile time.  When a computed value is non-finite, the
    first such row is re-evaluated by the scalar evaluator at its first bad
    point, to raise a DomainError naming the offending node.
    """
    single = isinstance(e, Expr)
    exprs = (e,) if single else tuple(e)
    template, program, outputs = _tape(exprs, coords)
    names = list(coords)

    def evaluate_batch(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        regs = template.copy()
        regs[:len(names)] = [points[:, k] for k in range(len(names))]
        out = np.empty((len(exprs), points.shape[0]))
        with np.errstate(all="ignore"):
            for op, args, reg, last in program:
                regs[reg] = op(*[regs[a] for a in args])
                for a in last:
                    regs[a] = None
            for row, reg in enumerate(outputs):
                out[row] = regs[reg]
        bad = ~np.isfinite(out)
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            where = int(np.argmax(bad[row]))
            evaluate(exprs[row], dict(zip(names, points[where])))  # raises with the node named
            raise DomainError("non-finite value", format_expr(exprs[row]))
        return out[0] if single else out

    return evaluate_batch
