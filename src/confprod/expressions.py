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
powers with a constant real exponent.  Simplification is deliberately
light: constant folding and 0/1 identities only, applied by the smart
constructors.

Nodes are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): each distinct expression is one object for the life
of the process, so equal expressions are identical and compare and hash by
identity.  Free coordinates are memoised per node for the life of the
process too.  These two tables hold expressions only, never arrays.

The canonical printer (format_expr) emits text this parser accepts;
parsing the printed form reproduces an expression that evaluates
identically.  (A constant that overflowed prints as inf or nan, which no
tape accepts: compile_expr rejects it.)

A Tape is a straight-line program of numpy calls over an array of points,
value-numbered so that a value several outputs share is computed once; it
propagates exact first and second derivatives forward with the values,
without building derivative expressions, and records for each register
the node whose value or derivative it is, so that a non-finite row is
named by the node the user wrote.  compile_expr compiles a built tape for
some of its registers, the same program whatever else the tape carries,
or an expression or a list of them onto a new one, for values alone
(geometry.metric_values compiles a metric's entries so).
"""

from __future__ import annotations

import math
import re
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError, _plain_point


# --- nodes ------------------------------------------------------------------

# process-lifetime tables, expressions only: every node built, by key
# (_Node); free coordinates by node
_INTERNED: dict = {}
_FREE_COORDS: dict = {}


class _Node:
    """Immutable, hash-consed expression node.

    A constructor returns the node already built with the same key, if there
    is one: the key is the class, the scalar fields and the children, and
    the children are interned nodes themselves, so two nodes are equal
    exactly when they are the same object.  Equality and hashing are
    therefore object's own (by identity, in C), and nodes are cheap keys
    for the tapes and jet-plan caches.  Pickling goes through the
    constructor, so an unpickled node is the interned one.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of an expression node")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of an expression node")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


def _intern(cls, key: tuple, *values) -> "Expr":
    """The node stored for `key`; a new one, built from `values` (in slot
    order), when there is none.  setdefault keeps the first node stored if
    another thread built one for the same key meanwhile."""
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(node, name, value)
    return _INTERNED.setdefault(key, node)


class Const(_Node):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        # 0.0 and -0.0 compare equal as floats but are different constants: a
        # metric entry keeps its own zero's sign, and so its own cache slots;
        # nan equals no float, so every nan shares one key
        key = (cls, "nan") if math.isnan(value) else (cls, value, math.copysign(1.0, value))
        return _INTERNED.get(key) or _intern(cls, key, value)


class Coord(_Node):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        return _INTERNED.get(key) or _intern(cls, key, name)


class Unary(_Node):
    __slots__ = ("op", "arg")  # op: neg sin cos tan sinh cosh tanh exp log sqrt

    def __new__(cls, op: str, arg: "Expr"):
        key = (cls, op, arg)
        return _INTERNED.get(key) or _intern(cls, key, op, arg)


class Binary(_Node):
    __slots__ = ("op", "left", "right")  # op: add sub mul div

    def __new__(cls, op: str, left: "Expr", right: "Expr"):
        key = (cls, op, left, right)
        return _INTERNED.get(key) or _intern(cls, key, op, left, right)


class Pow(_Node):
    __slots__ = ("base", "exponent")  # exponent: a constant real, by construction

    def __new__(cls, base: "Expr", exponent: float):
        exponent = float(exponent)
        key = (cls, base, exponent)
        return _INTERNED.get(key) or _intern(cls, key, base, exponent)


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
        except (ValueError, OverflowError):
            value = None  # keep the node, evaluation reports the domain error
        if value is not None and math.isfinite(value):
            return Const(value)
    return Unary(name, arg)


_CONSTRUCTORS = {"add": add, "sub": sub, "mul": mul, "div": div}


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
    try:
        value = base ** exponent
    except OverflowError:
        value = math.inf
    if fold and not math.isfinite(value):
        return None
    return value


# --- traversal helpers ------------------------------------------------------

def free_coords(e: Expr) -> frozenset[str]:
    """The coordinate names e uses, worked out once per node."""
    found = _FREE_COORDS.get(e)
    if found is None:
        if isinstance(e, Const):
            found = frozenset()
        elif isinstance(e, Coord):
            found = frozenset((e.name,))
        elif isinstance(e, Unary):
            found = free_coords(e.arg)
        elif isinstance(e, Binary):
            found = free_coords(e.left) | free_coords(e.right)
        else:
            found = free_coords(e.base)
        _FREE_COORDS[e] = found
    return found


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace coordinates by expressions, re-running the smart constructors
    (with an empty mapping this rebuilds the tree, idempotently).  Each
    distinct subtree is rebuilt once."""
    done: dict = {}

    def visit(node: Expr) -> Expr:
        out = done.get(node)
        if out is None:
            if isinstance(node, Const):
                out = node
            elif isinstance(node, Coord):
                out = mapping.get(node.name, node)
            elif isinstance(node, Unary):
                out = func(node.op, visit(node.arg))
            elif isinstance(node, Binary):
                out = _CONSTRUCTORS[node.op](visit(node.left), visit(node.right))
            else:
                out = powc(visit(node.base), node.exponent)
            done[node] = out
        return out

    return visit(e)


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
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _format_number(value: float) -> str:
    if not math.isfinite(value):
        return repr(value)  # no grammar form; shows up in domain errors only
    if value == int(value) and abs(value) < 1e16:
        # int() drops the sign of -0.0; the parser reads "-0" back as -0.0
        return "-0" if math.copysign(1.0, value) < 0 and value == 0 else str(int(value))
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


# --- tapes: vectorized values and forward-propagated derivatives ------------

_BINARY_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


class Tape:
    """A straight-line program of numpy calls over an (N, dim) point array,
    built node by node.

    Registers 0..dim-1 hold the point columns, and each other register a
    constant or the result of one step.  A register is built once per key,
    its Const or its (ufunc, argument registers), so a value that several
    outputs share is computed once (value numbering); keys[r] is register
    r's key (the coordinate's name for a column), and each register past the
    columns whose template entry is None is a step.  One tape may carry the
    steps of many programs (the jet plans of one chart in an evaluation
    scope): compile_expr takes from it only what its outputs need.

    value(e) gives the register of e's value, one step per operation node.
    jets(e) also gives e's non-zero first derivatives {k: register} over
    its free coordinates and second derivatives {k dim + l: register},
    k <= l, for columns k and l.  They are propagated forward, each node's
    from its operands' by the chain rule (Griewank and Walther, "Evaluating
    Derivatives", 2nd ed., ch. 13), reusing the values already on the tape:
    d exp(u) = exp(u) du, d(a/b) = (da - (a/b) db) / b.  No derivative
    expression is built.  Derivative steps fold as the smart constructors
    do (constants, 0 and 1), and one that folds to a zero constant of either
    sign is left out: a structural +0.0, None below.

    origins[r] is the node whose value register r holds, or else the node
    whose derivative step built it, and derived[r] says which (a register
    that holds some node's value records that node); compile_expr names a
    non-finite row by them.  Both lists hold existing objects only.
    """

    def __init__(self, coords: Sequence[str]):
        self.dim = len(coords)
        self.column = {name: k for k, name in enumerate(coords)}
        self.keys: list = list(coords)
        self.template: list = [None] * self.dim     # the constants' values
        self.origins: list = [*map(Coord, coords)]
        self.derived: list = [False] * self.dim
        self.registers: dict = {}                   # key -> register
        self.constants: dict = {}                   # non-zero value -> register
        self.values: dict = {}                      # node -> register of its value
        self.derivatives: dict = {}                 # node -> (firsts, seconds)
        self.node: Expr | None = None               # the node being differentiated

    def _register(self, key, value: float | None = None) -> int:
        reg = self.registers.get(key)
        if reg is None:
            reg = self.registers[key] = len(self.keys)
            self.keys.append(key)
            self.template.append(value)
            self.origins.append(self.node)
            self.derived.append(True)
        return reg

    def value(self, node: Expr, parent: Expr | None = None) -> int:
        """The register of node's value; a non-finite constant is a
        DomainError naming its parent (node itself at the top), and a
        coordinate the tape has no column for one naming the coordinate."""
        reg = self.values.get(node)
        if reg is None:
            if isinstance(node, Coord):
                reg = self.column.get(node.name)
                if reg is None:
                    raise DomainError(f"unbound coordinate '{node.name}'", node.name)
            elif isinstance(node, Const):
                if not math.isfinite(node.value):
                    raise DomainError(f"non-finite constant {node.value!r} (overflow)",
                                      format_expr(parent or node))
                reg = self._register(node, node.value)
                if node.value != 0.0:
                    self.constants.setdefault(node.value, reg)
            elif isinstance(node, Unary):
                reg = self._register((_NUMPY_FUNCTIONS[node.op], self.value(node.arg, node)))
            elif isinstance(node, Binary):
                reg = self._register((_BINARY_UFUNCS[node.op], self.value(node.left, node),
                                      self.value(node.right, node)))
            else:
                reg = self._register((np.power, self.value(node.base, node),
                                      self.value(Const(node.exponent), node)))
            self.values[node] = reg
            self.origins[reg], self.derived[reg] = node, False
        return reg

    def _const(self, value: float) -> int | None:
        reg = self.constants.get(value)
        if reg is None and value != 0.0:
            if not math.isfinite(value):
                raise DomainError(f"non-finite constant {value!r} (overflow)",
                                  format_expr(self.node))
            reg = self.constants[value] = self._register(Const(value), value)
        return reg

    def _add(self, a, b):
        if a is None or b is None:
            return b if a is None else a
        ca, cb = self.template[a], self.template[b]
        if ca is not None and cb is not None:
            return self._const(ca + cb)
        if ca == 0.0 or cb == 0.0:
            return b if ca == 0.0 else a
        return self._register((np.add, a, b))

    def _sub(self, a, b):
        if a is None or b is None:
            return self._neg(b) if a is None else a
        ca, cb = self.template[a], self.template[b]
        if ca is not None and cb is not None:
            return self._const(ca - cb)
        if ca == 0.0 or cb == 0.0:
            return a if cb == 0.0 else self._neg(b)
        return self._register((np.subtract, a, b))

    def _mul(self, a, b):
        if a is None or b is None:
            return None
        ca, cb = self.template[a], self.template[b]
        if ca is not None and cb is not None:
            return self._const(ca * cb)
        if ca == 0.0 or cb == 0.0:
            return None
        if ca == 1.0 or cb == 1.0:
            return b if ca == 1.0 else a
        return self._register((np.multiply, a, b))

    def _div(self, a, b):
        if a is None:
            return None
        ca, cb = self.template[a], self.template[b]
        if ca is not None and cb is not None and cb != 0.0:
            return self._const(ca / cb)
        if ca == 0.0 or cb == 1.0:
            return None if ca == 0.0 else a
        return self._register((np.divide, a, b))

    def _neg(self, a):
        if a is None or self.template[a] is not None:
            return None if a is None else self._const(-self.template[a])
        key = self.keys[a]
        if type(key) is tuple and key[0] is np.negative:
            return key[1]
        return self._register((np.negative, a))

    def _pow(self, a: int, exponent: float):
        """a^exponent for a computed value a (never a constant's)."""
        if exponent == 0.0 or exponent == 1.0:
            return self._const(1.0) if exponent == 0.0 else a
        return self._register((np.power, a, self._const(exponent)))

    def jets(self, node: Expr) -> tuple[int, dict, dict]:
        """(value, first derivatives, second derivatives) of node, as registers."""
        return (self.value(node), *self._derivatives(node))

    def _derivatives(self, node: Expr) -> tuple[dict, dict]:
        found = self.derivatives.get(node)
        if found is None:
            if isinstance(node, Const):
                found = {}, {}
            elif isinstance(node, Coord):
                found = {self.column[node.name]: self._const(1.0)}, {}
            elif isinstance(node, Binary):
                found = self._binary(node, *self._derivatives(node.left),
                                     *self._derivatives(node.right))
            else:
                u1, u2 = self._derivatives(node.arg if isinstance(node, Unary) else node.base)
                self.node = node
                if not u1:
                    found = {}, {}
                elif isinstance(node, Unary) and node.op == "neg":
                    found = ({k: self._neg(r) for k, r in u1.items()},
                             {kl: self._neg(r) for kl, r in u2.items()})
                else:
                    found = self._chain(*self._outer(node), u1, u2)
            self.derivatives[node] = found
        return found

    def _outer(self, node: Unary | Pow) -> tuple:
        """f'(u) and f''(u) for node = f(u), from the registers of u and f(u)."""
        v = self.values[node]
        if isinstance(node, Pow):
            u, p, mul = self.values[node.base], node.exponent, self._mul
            return (mul(self._const(p), self._pow(u, p - 1.0)),
                    mul(self._const(p), mul(self._const(p - 1.0), self._pow(u, p - 2.0))))
        u, op = self.values[node.arg], node.op
        if op == "sin":
            return self._register((np.cos, u)), self._neg(v)
        if op == "cos":
            return self._neg(self._register((np.sin, u))), self._neg(v)
        if op in ("sinh", "cosh"):
            return self._register((np.cosh if op == "sinh" else np.sinh, u)), v
        if op == "exp":
            return v, v
        one, two = self._const(1.0), self._const(2.0)
        if op in ("tan", "tanh"):
            d = (self._add if op == "tan" else self._sub)(one, self._pow(v, 2.0))
            d2 = self._mul(self._mul(two, v), d)
            return d, d2 if op == "tan" else self._neg(d2)
        if op == "log":
            d = self._div(one, u)
            return d, self._neg(self._mul(d, d))
        d = self._div(one, self._mul(two, v))       # sqrt
        return d, self._neg(self._div(d, self._mul(two, u)))

    def _chain(self, outer, outer2, u1: dict, u2: dict) -> tuple[dict, dict]:
        """Derivatives of f(u) from f'(u), f''(u) and u's: d_k = f' d_k u and
        d_k d_l = (f'' d_l u) d_k u + f' d_k d_l u."""
        mul, n = self._mul, self.dim
        along = {l: mul(outer2, r) for l, r in u1.items()}
        order = sorted(u1)
        d2 = {k * n + l: mul(along[l], u1[k]) for i, k in enumerate(order) for l in order[i:]}
        self._scaled(d2, outer, u2, self._add)
        return ({k: d for k, r in u1.items() if (d := mul(outer, r)) is not None},
                {kl: d for kl, d in d2.items() if d is not None})

    def _scaled(self, acc: dict, c, terms: dict, f) -> None:
        """acc[key] = f(acc[key], c terms[key]) for each key of terms."""
        for key, r in terms.items():
            acc[key] = f(acc.get(key), self._mul(c, r))

    def _crossed(self, acc: dict, x1: dict, y1: dict, f) -> None:
        """acc[k dim + l] = f(f(acc[k dim + l], x1[k] y1[l]), x1[l] y1[k]), k <= l."""
        n = self.dim
        for k, r in x1.items():
            for l, s in y1.items():
                kl, t = (k * n + l if k <= l else l * n + k), self._mul(r, s)
                acc[kl] = f(acc.get(kl), t)
                if k == l:
                    acc[kl] = f(acc[kl], t)

    def _binary(self, node: Binary, a1: dict, a2: dict, b1: dict, b2: dict) -> tuple[dict, dict]:
        op, self.node = node.op, node
        add, sub, mul, div = self._add, self._sub, self._mul, self._div
        a, b = self.values[node.left], self.values[node.right]
        if op in ("add", "sub"):
            f = add if op == "add" else sub
            d1 = {k: f(a1.get(k), b1.get(k)) for k in {**a1, **b1}}
            d2 = {kl: f(a2.get(kl), b2.get(kl)) for kl in {**a2, **b2}}
        elif op == "mul":
            # d_k (ab) = d_k a b + a d_k b and
            # d_k d_l (ab) = d_k d_l a b + d_k a d_l b + d_l a d_k b + a d_k d_l b
            d1 = {k: mul(r, b) for k, r in a1.items()}
            d2 = {kl: mul(r, b) for kl, r in a2.items()}
            self._crossed(d2, a1, b1, add)
            self._scaled(d1, a, b1, add)
            self._scaled(d2, a, b2, add)
        else:
            # q = a / b: d_k q = (d_k a - q d_k b) / b and
            # d_k d_l q = (d_k d_l a - d_k q d_l b - d_l q d_k b - q d_k d_l b) / b
            q, d1, d2 = self.values[node], dict(a1), dict(a2)
            self._scaled(d1, q, b1, sub)
            d1 = {k: d for k, r in d1.items() if (d := div(r, b)) is not None}
            self._crossed(d2, d1, b1, sub)
            self._scaled(d2, q, b2, sub)
            d2 = {kl: div(r, b) for kl, r in d2.items()}
        return ({k: d for k, d in d1.items() if d is not None},
                {kl: d for kl, d in d2.items() if d is not None})


def compile_expr(e: Expr | Sequence[Expr] | Tape, coords: Sequence[str] = (), *,
                 outputs: Sequence[int] = ()) -> Callable[[np.ndarray], np.ndarray]:
    """Compile to a callable over an (N, dim) point array.

    A single expression gives its (N,) values.  A sequence of expressions
    is compiled onto one shared tape and gives a (len(e), N) array whose
    rows are the expressions' values; geometry.metric_values reads a
    metric's upper-triangle entries so, with no derivative formed.  A Tape already built gives the
    (len(outputs), N) array of its output registers' values.  The compile
    walks from the outputs to the steps they need and numbers those
    registers afresh, depth first, so the compiled program, its cost to
    compile included, depends on the outputs alone and not on what else the
    tape carries; the callable's `steps` are its (register, ufunc,
    arguments) on that numbering and its `keys` its rows' keys.  Each
    register is freed after its last reader.  A non-finite constant is a
    DomainError at compile time.

    When a computed value is non-finite, the first such row is named at its
    first bad point by the node the tape records for it: a value row's node
    is evaluated by the scalar evaluator, to raise its DomainError (else
    "non-finite value"); for a derivative row, the first non-finite step
    the row reads, run again at that point, names its node the same way
    (else "non-finite derivative at (point)").
    """
    if not isinstance(e, Tape):
        single = isinstance(e, Expr)
        exprs = (e,) if single else tuple(e)
        tape = Tape(coords)
        run = compile_expr(tape, outputs=[tape.value(x, x) for x in exprs])
        return (lambda points: run(points)[0]) if single else run
    dim, names = e.dim, list(e.column)
    # depth first, each register numbered once its arguments are (every step
    # has one or two); number[r] is tape register r's number, -1 before it
    # has one, and the columns keep theirs
    tape_keys, tape_template = e.keys, e.template
    number = [*range(dim), *[-1] * (len(tape_keys) - dim)]
    template, steps = [None] * dim, []
    origins, derived = e.origins[:dim], e.derived[:dim]     # copied: the tape is not held
    stack = outputs[::-1]
    while stack:
        reg = stack.pop()
        if number[reg] >= 0:
            continue
        key, value = tape_keys[reg], tape_template[reg]
        if value is None:
            if len(key) == 3:
                a, b = number[key[1]], number[key[2]]
                if a < 0 or b < 0:
                    stack += (reg, key[2], key[1])    # the first argument on top
                    continue
                args = (a, b)
            else:
                a = number[key[1]]
                if a < 0:
                    stack += (reg, key[1])
                    continue
                args = (a,)
            steps.append((len(template), key[0], args))
        number[reg] = len(template)
        template.append(value)
        origins.append(e.origins[reg])
        derived.append(e.derived[reg])
    keys = tuple(tape_keys[r] if tape_template[r] is not None or r < dim else
                 (tape_keys[r][0], *[number[a] for a in tape_keys[r][1:]]) for r in outputs)
    outputs = [number[r] for r in outputs]
    # backwards, live holds what an output or a later step reads: an argument
    # not yet live is freed after this step, its last reader
    live, frees = set(outputs), []
    for _, _, args in reversed(steps):
        free = ()
        for a in args:
            if a not in live:
                free += (a,)
                live.add(a)
        frees.append(free)
    frees.reverse()

    def run(points: np.ndarray, freed: Sequence[tuple]) -> list:
        regs = template.copy()
        regs[:dim] = [points[:, k] for k in range(dim)]
        with np.errstate(all="ignore"):
            for (reg, op, args), free in zip(steps, freed):
                regs[reg] = op(*[regs[a] for a in args])
                for a in free:
                    regs[a] = None
        return regs

    def evaluate_batch(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        regs = run(points, frees)
        out = np.empty((len(outputs), points.shape[0]))
        for row, reg in enumerate(outputs):
            out[row] = regs[reg]
        bad = ~np.isfinite(out)
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            at = int(np.argmax(bad[row]))
            reg = outputs[row]
            if derived[reg]:
                # the first bad step the row reads, run again at that point
                reads = {reg}
                for r, _, args in reversed(steps):
                    if r in reads:
                        reads.update(args)
                regs = run(points[at:at + 1], [()] * len(steps))
                reg = next((r for r, _, _ in steps
                            if r in reads and not np.isfinite(regs[r]).all()), reg)
            node = origins[reg]
            evaluate(node, dict(zip(names, points[at])))    # raises for a bad value of node
            raise DomainError(f"non-finite derivative at {_plain_point(points[at])}"
                              if derived[reg] else "non-finite value", format_expr(node))
        return out

    evaluate_batch.steps, evaluate_batch.keys = steps, keys
    return evaluate_batch
