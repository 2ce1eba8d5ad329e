import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from confprod import expressions
from confprod.errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from confprod.expressions import (
    Binary,
    Const,
    Coord,
    Pow,
    Tape,
    Unary,
    add,
    compile_expr,
    div,
    evaluate,
    format_expr,
    free_coords,
    func,
    mul,
    neg,
    parse,
    powc,
    rename_coords,
    sub,
    substitute,
)
from confprod.geometry import _field_plan
from fd_reference import grad_fd
import symbolic
from symbolic import differentiate

XY = ("x", "y")


# --- parsing ----------------------------------------------------------------

def test_parse_precedence():
    assert parse("1 + 2 * x", XY) == add(Const(1.0), mul(Const(2.0), Coord("x")))
    assert parse("-x^2", XY) == neg(powc(Coord("x"), 2.0))
    assert parse("x - y - x", XY) == sub(sub(Coord("x"), Coord("y")), Coord("x"))
    assert parse("x / y / x", XY) == div(div(Coord("x"), Coord("y")), Coord("x"))


def test_parse_constants_fold():
    assert parse("2 + 3 * 4", XY) == Const(14.0)
    assert parse("pi", XY) == Const(math.pi)
    assert parse("2.5E+2", XY) == Const(250.0)
    assert parse("1e-3", XY) == Const(0.001)


def test_parse_pow_constant_exponent_only():
    assert parse("x^-2", XY) == Pow(Coord("x"), -2.0)
    with pytest.raises(ExprSyntaxError):
        parse("x^y", XY)


def test_parse_dotted_names():
    e = parse("f0.x1 + cosh(f1.a.u1)", ("f0.x1", "f1.a.u1"))
    assert free_coords(e) == {"f0.x1", "f1.a.u1"}


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2 +", XY)
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse(".5", XY)
    assert err.value.position == 0
    with pytest.raises(UnknownIdentifierError) as err:
        parse("bogus(x)", XY)
    assert err.value.name == "bogus"
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + z", XY)
    assert err.value.name == "z"
    with pytest.raises(UnknownIdentifierError) as err:
        parse("sin x", XY)  # bare 'sin' reads as an identifier
    assert err.value.name == "sin"
    with pytest.raises(ExprSyntaxError):
        parse("x @ y", XY)
    with pytest.raises(ExprSyntaxError):
        parse("(x + y", XY)


def test_format_minimal_parens():
    assert format_expr(parse("(x + y) * x", XY)) == "(x + y)*x"
    assert format_expr(parse("x - (y - x)", XY)) == "x - (y - x)"
    assert format_expr(parse("x + y * x", XY)) == "x + y*x"
    assert format_expr(parse("(x + y)^2", XY)) == "(x + y)^2"
    assert format_expr(parse("x^-2", XY)) == "x^(-2)"
    assert format_expr(parse("-(x + y)", XY)) == "-(x + y)"


# --- evaluation and calculus ------------------------------------------------

def test_evaluate_golden():
    env = {"x": 0.7, "y": -0.3}
    cases = {
        "x * y + 2": 0.7 * -0.3 + 2,
        "sin(x)^2 + cos(x)^2": 1.0,
        "exp(log(2 + x))": 2.7,
        "sqrt(x^2)": 0.7,
        "tanh(y)": math.tanh(-0.3),
    }
    for text, want in cases.items():
        assert evaluate(parse(text, XY), env) == pytest.approx(want, abs=1e-12)


def test_evaluate_domain_errors_name_the_node():
    with pytest.raises(DomainError) as err:
        evaluate(parse("log(x)", XY), {"x": -1.0, "y": 0.0})
    assert err.value.node_text == "log(x)"
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)", XY), {"x": -2.0, "y": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("1 / x", XY), {"x": 0.0, "y": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5", XY), {"x": -1.0, "y": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("exp(x)", XY), {"x": 1e9, "y": 0.0})


def test_differentiate_golden():
    x = Coord("x")
    cases = [
        ("x^3", "3 * x^2"),
        ("sin(x)", "cos(x)"),
        ("cos(x)", "-sin(x)"),
        ("exp(2 * x)", "exp(2 * x) * 2"),
        ("log(x)", "1 / x"),
    ]
    env = {"x": 0.83, "y": 0.0}
    for text, want in cases:
        got = differentiate(parse(text, XY), "x")
        assert evaluate(got, env) == pytest.approx(evaluate(parse(want, XY), env), rel=1e-12)
    assert differentiate(x, "x") == Const(1.0)
    assert differentiate(x, "y") == Const(0.0)
    # tan and tanh use the squared forms
    env = {"x": 0.4, "y": 0.0}
    t = evaluate(differentiate(parse("tan(x)", XY), "x"), env)
    assert t == pytest.approx(1 + math.tan(0.4) ** 2, rel=1e-12)
    th = evaluate(differentiate(parse("tanh(x)", XY), "x"), env)
    assert th == pytest.approx(1 - math.tanh(0.4) ** 2, rel=1e-12)


def test_substitute_and_rename():
    e = parse("x^2 + sin(y)", XY)
    at = substitute(e, {"x": Const(2.0)})
    assert free_coords(at) == {"y"}
    assert evaluate(at, {"y": 0.0}) == pytest.approx(4.0)
    renamed = rename_coords(e, {"x": "f0.x", "y": "f0.y"})
    assert free_coords(renamed) == {"f0.x", "f0.y"}


def test_jet2_matches_symbolic_derivatives():
    # the second-order jet of a field comes from its jet plan's shared tape
    e = parse("exp(x) * sin(y) + x^2 * y", XY)
    p = (0.4, -0.8)
    value, gradient, hessian = _field_plan(e, XY).jets(np.array([p]))
    hessian = hessian.dense(2)
    env = dict(zip(XY, p))
    assert value[0] == pytest.approx(evaluate(e, env), rel=1e-12)
    for k, c in enumerate(XY):
        assert gradient[0, k] == pytest.approx(
            evaluate(differentiate(e, c), env), rel=1e-12)
        for l, c2 in enumerate(XY):
            want = evaluate(differentiate(differentiate(e, c), c2), env)
            assert hessian[0, k, l] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_compile_matches_scalar_evaluator():
    e = parse("cosh(x) - cos(y) + 0.3 * x * y", XY)
    fn = compile_expr(e, XY)
    pts = np.array([[0.1, 0.2], [-1.0, 2.0], [0.5, -0.5]])
    got = fn(pts)
    for row, v in zip(pts, got):
        assert v == pytest.approx(evaluate(e, dict(zip(XY, row))), rel=1e-12)


def test_compile_reports_domain_error_at_offending_point():
    fn = compile_expr(parse("log(x)", XY), XY)
    with pytest.raises(DomainError):
        fn(np.array([[1.0, 0.0], [-3.0, 0.0]]))


# --- property tests ---------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(Const),
    st.sampled_from(XY).map(Coord),
)


def _extend(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda t: add(t[0], t[1])),
        binary.map(lambda t: sub(t[0], t[1])),
        binary.map(lambda t: mul(t[0], t[1])),
        children.map(neg),
        children.map(lambda e: func("sin", e)),
        children.map(lambda e: func("cos", e)),
        children.map(lambda e: func("tanh", e)),
        children.map(lambda e: powc(e, 2.0)),
    )


_trees = st.recursive(_leaf, _extend, max_leaves=10)
_points = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_trees)
def test_print_parse_round_trip(e):
    assert parse(format_expr(e), XY) == e


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees, _points)
def test_gradient_matches_finite_differences(e, p):
    env = dict(zip(XY, p))
    sym = np.array([evaluate(differentiate(e, c), env) for c in XY])
    fdg = grad_fd(e, XY, p)
    scale = 1.0 + float(np.abs(sym).max())
    assert float(np.abs(sym - fdg).max()) <= 1e-5 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees, _points)
def test_mixed_partials_commute(e, p):
    env = dict(zip(XY, p))
    xy = evaluate(differentiate(differentiate(e, "x"), "y"), env)
    yx = evaluate(differentiate(differentiate(e, "y"), "x"), env)
    assert abs(xy - yx) <= 1e-12 * (1.0 + abs(xy))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees)
def test_substitute_rebuild_is_idempotent_and_value_preserving(e):
    s = substitute(e, {})
    assert substitute(s, {}) == s
    env = {"x": 0.37, "y": -0.81}
    assert evaluate(s, env) == pytest.approx(evaluate(e, env), rel=1e-12, abs=1e-12)


_PTS = np.array([[0.3, -0.7], [-0.9, 0.1], [0.55, 0.45], [0.0, -0.2]])


def _finite_everywhere(exprs):
    try:
        values = [evaluate(e, dict(zip(XY, p))) for e in exprs for p in _PTS]
    except (DomainError, OverflowError):
        return False
    return all(math.isfinite(v) and abs(v) < 1e100 for v in values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees, _trees)
def test_shared_tape_matches_each_tree_alone(a, b):
    # several trees with shared subtrees on one tape: each row is bit-equal
    # to the tree compiled alone and matches the scalar evaluator
    exprs = [a, b, add(a, b), mul(a, func("sin", b)), powc(sub(a, b), 2.0), a,
             differentiate(mul(a, b), "x")]
    assume(_finite_everywhere(exprs))
    rows = compile_expr(exprs, XY)(_PTS)
    assert rows.shape == (len(exprs), len(_PTS))
    for e, row in zip(exprs, rows):
        assert np.array_equal(row, compile_expr(e, XY)(_PTS))
        want = np.array([evaluate(e, dict(zip(XY, p))) for p in _PTS])
        assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees)
def test_derivatives_are_the_same_nodes_after_the_memo_is_cleared(e):
    firsts = {c: differentiate(e, c) for c in XY}
    seconds = {(c, c2): differentiate(firsts[c], c2) for c in XY for c2 in XY}
    symbolic._DERIVATIVES.clear()
    for c in XY:
        assert differentiate(e, c) is firsts[c]
        for c2 in XY:
            assert differentiate(differentiate(e, c), c2) is seconds[c, c2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees)
def test_rebuilt_and_unpickled_trees_are_the_same_nodes(e):
    # a tree built by the smart constructors is already in the form they give
    assert substitute(e, {}) is e
    assert pickle.loads(pickle.dumps(e)) is e
    with pytest.raises(AttributeError):
        e.op = "add"


def test_a_built_tape_compiles_to_its_outputs_and_runs_only_their_steps():
    e = parse("exp(x*y) / (1 + x^2)", XY)
    tape = Tape(XY)
    value, firsts, _ = tape.jets(e)
    calls = []
    steps = [r for r in range(tape.dim, len(tape.keys)) if tape.template[r] is None]
    for r in steps:    # a step's key holds its ufunc: count the calls the program makes
        op, *args = tape.keys[r]
        tape.keys[r] = (lambda *a, op=op: calls.append(op) or op(*a), *args)
    outputs = [value, firsts[0], firsts[1]]
    rows = compile_expr(tape, outputs=outputs)(_PTS)
    assert rows[0].tobytes() == compile_expr(e, XY)(_PTS).tobytes()
    for k, c in enumerate(XY):
        want = compile_expr(differentiate(e, c), XY)(_PTS)
        assert np.allclose(rows[1 + k], want, rtol=1e-13, atol=1e-13)
    # the second derivatives' steps are on the tape but no output needs them
    assert 0 < len(calls) < len(steps)


def test_a_tape_carrying_unrelated_steps_compiles_the_same_program():
    e = parse("exp(x*y) / (1 + x^2) + sqrt(1 + y^2)", XY)
    fresh = Tape(XY)
    outputs = [fresh.value(e), *fresh.jets(e)[1].values(), *fresh.jets(e)[2].values()]
    # the same outputs on a tape that first took another expression's jets,
    # some of whose registers the outputs share and some they do not
    shared = Tape(XY)
    shared.jets(parse("cos(x*y) * (1 + x^2) - log(2 + y)", XY))
    assert len(shared.keys) > 2 * len(XY)
    again = [shared.value(e), *shared.jets(e)[1].values(), *shared.jets(e)[2].values()]
    assert again != outputs    # registers are numbered per tape
    want, got = compile_expr(fresh, outputs=outputs), compile_expr(shared, outputs=again)
    assert got.steps == want.steps and got.keys == want.keys
    assert got(_PTS).tobytes() == want(_PTS).tobytes()
    # the unrelated steps stay out: the program is no longer than on the fresh tape
    assert len(want.steps) == sum(1 for r in range(fresh.dim, len(fresh.keys))
                                  if fresh.template[r] is None)


def test_non_finite_constant_is_a_compile_time_domain_error():
    with pytest.raises(DomainError) as err:
        compile_expr(parse("1e400 * x + 1", XY), XY)
    assert err.value.node_text == "inf*x"
    assert "non-finite constant inf" in str(err.value)


def test_an_unbound_coordinate_is_a_compile_time_domain_error():
    # a coordinate the chart lacks is named as the scalar evaluator names it
    e = parse("x + y", XY)
    with pytest.raises(DomainError) as want:
        evaluate(e, {"x": 0.5})
    with pytest.raises(DomainError) as got:
        compile_expr(e, ("x",))
    assert str(got.value) == str(want.value) == "unbound coordinate 'y' in 'y'"


@pytest.mark.parametrize("text,node", [("exp(1000) + x", "exp(1000)"),
                                       ("1e200^2 * x + 1", "1e+200^2*x + 1")])
def test_a_constant_that_overflows_is_kept_and_named_when_evaluated(text, node):
    # math.exp and float ** raise OverflowError where numpy gives inf; the
    # parser keeps such a node unfolded, and evaluation names it
    assert parse("2 + 0 * exp(1000)", XY) is Const(2.0)
    with pytest.raises(DomainError) as err:
        compile_expr(parse(text, XY), XY)(_PTS)
    assert err.value.node_text == node


def test_equal_expressions_are_one_node():
    x, y = Coord("x"), Coord("y")
    e = parse("sin(x) * y + x^2", XY)
    assert e is add(mul(func("sin", x), y), powc(x, 2.0))
    assert e is Binary("add", Binary("mul", Unary("sin", Coord("x")), y), Pow(x, 2))
    assert substitute(parse("sin(u) * y + u^2", ("u", "y")), {"u": x}) is e
    assert rename_coords(parse("sin(a) * b + a^2", ("a", "b")), {"a": "x", "b": "y"}) is e
    assert differentiate(e, "y") is parse("sin(x)", XY)
    assert differentiate(parse("x^3 * y", XY), "x") is parse("3*x^2*y", XY)
    clone = pickle.loads(pickle.dumps([e, e.left]))
    assert clone[0] is e and clone[1] is e.left
    assert Const(2) is Const(2.0) and type(Const(2).value) is float


def test_threads_building_the_same_expressions_get_the_same_nodes():
    texts = [f"sin(x * {k}.125) * y^{k % 5 + 2} + exp(y - {k}.375)" for k in range(300)]
    built = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda out: out.extend(parse(t, XY) for t in texts),
                                    args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for nodes in zip(*built):
        assert all(node is nodes[0] for node in nodes)
    assert built[0] == [parse(t, XY) for t in texts]


def test_signed_zeros_are_different_constants():
    assert Const(0.0) is not Const(-0.0)
    assert Const(-0.0) is neg(Const(0.0)) is parse("-0", XY)
    assert np.signbit(Const(-0.0).value) and not np.signbit(Const(0.0).value)
    assert mul(Const(-0.0), Coord("x")) is Const(0.0)  # the folded zero keeps no sign


def test_every_nan_is_one_constant():
    table = len(expressions._INTERNED)
    assert Const(float("nan")) is Const(float("nan"))
    inf = float("inf")
    assert add(Const(inf), Const(-inf)) is add(Const(inf), Const(-inf)) is Const(float("nan"))
    assert math.isnan(Const(float("nan")).value)
    assert len(expressions._INTERNED) <= table + 3    # nan, inf and -inf at most
