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

Nodes are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): each distinct expression is one object for the life
of the process, so equal expressions are identical and compare and hash by
identity.  Derivatives and free coordinates are memoised per node for the
life of the process too.  These tables hold expressions only, never
arrays.

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
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError

GRAMMAR_VERSION = "1"


# --- nodes ------------------------------------------------------------------

# process-lifetime tables, expressions only: every node built, by key
# (_Node); derivatives by (node, coordinate); free coordinates by node
_INTERNED: dict = {}
_DERIVATIVES: dict = {}
_FREE_COORDS: dict = {}


class _Node:
    """Immutable, hash-consed expression node.

    A constructor returns the node already built with the same key, if there
    is one: the key is the class, the scalar fields and the children, and
    the children are interned nodes themselves, so two nodes are equal
    exactly when they are the same object.  Equality and hashing are
    therefore object's own (by identity, in C), and nodes are cheap keys
    for the derivative memo, tapes and jet-plan caches.  Pickling goes
    through the constructor, so an unpickled node is the interned one.
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
        except ValueError:
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
    value = base ** exponent
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


# --- differentiation --------------------------------------------------------

def differentiate(e: Expr, coord: str) -> Expr:
    """Exact symbolic derivative, closed over the node set.

    Derivatives are memoised for the life of the process, by (node,
    coordinate): each distinct subtree is differentiated once, and every
    later call for it returns the same node.
    """
    key = (e, coord)
    d = _DERIVATIVES.get(key)
    if d is not None:
        return d
    if isinstance(e, Const):
        d = ZERO
    elif isinstance(e, Coord):
        d = ONE if e.name == coord else ZERO
    elif isinstance(e, Unary):
        inner = differentiate(e.arg, coord)
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
        da = differentiate(e.left, coord)
        db = differentiate(e.right, coord)
        if e.op == "add":
            d = add(da, db)
        elif e.op == "sub":
            d = sub(da, db)
        elif e.op == "mul":
            d = add(mul(da, e.right), mul(e.left, db))
        else:
            d = div(sub(mul(da, e.right), mul(e.left, db)), powc(e.right, 2.0))
    else:
        dbase = differentiate(e.base, coord)
        d = mul(mul(Const(e.exponent), powc(e.base, e.exponent - 1.0)), dbase)
    _DERIVATIVES[key] = d
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
