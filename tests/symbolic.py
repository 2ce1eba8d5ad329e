"""Symbolic differentiation: the oracle the forward jets are checked against.

The product propagates every derivative forward on expressions.Tape and
builds no derivative expression.  The tests differentiate symbolically
here, closed over the expression node set, and compare the tape's values
with these expressions' (compiled or evaluated by the scalar evaluator).
"""

from confprod.expressions import (
    ONE, ZERO, Binary, Const, Coord, Expr, Unary, _is_const, add, div, func, mul, neg, powc,
    sub)

# derivatives by (node, coordinate), for the life of the process
_DERIVATIVES: dict = {}


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
