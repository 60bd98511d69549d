import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesup.expressions import (
    Bin,
    Call,
    Expression,
    Neg,
    Num,
    ParseError,
    Var,
    is_zero,
    parse_expression,
)


def test_manufactured_forcing_value():
    e = parse_expression("sqrt(2)*sin(x)*cos(t-pi/4)")
    assert e(x=math.pi / 2, t=math.pi / 4) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_constant_zero():
    e = parse_expression("0")
    assert e(x=3.0, t=1.0) == 0.0
    assert is_zero(e)


def test_unbalanced_paren_offset():
    with pytest.raises(ParseError) as ei:
        parse_expression("sin(x")
    assert ei.value.offset == 5


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expression("sin(q)")


def test_arity_mismatch():
    with pytest.raises(ParseError):
        parse_expression("min(x)")
    with pytest.raises(ParseError):
        parse_expression("sin(x, t)")


def test_precedence():
    assert parse_expression("2+3*4")(x=0, t=0) == 14
    assert parse_expression("-2^2")(x=0, t=0) == -4  # unary binds looser than ^
    assert parse_expression("2^-2")(x=0, t=0) == 0.25
    assert parse_expression("2^3^2")(x=0, t=0) == 512  # right associative
    assert parse_expression("6/3/2")(x=0, t=0) == 1.0  # left associative


def test_vectorized_eval():
    e = parse_expression("sin(pi*x)*exp(-t)")
    xs = np.linspace(0, 1, 11)
    out = e(x=xs, t=0.5)
    assert out.shape == xs.shape
    np.testing.assert_allclose(out, np.sin(np.pi * xs) * np.exp(-0.5), rtol=1e-15)


def test_min_max_abs():
    e = parse_expression("min(max(t-1, 0), 1) + abs(x)")
    assert e(x=-2.0, t=0.5) == 2.0
    assert e(x=0.0, t=1.5) == 0.5
    assert e(x=0.0, t=9.0) == 1.0


# --- reference evaluator for cross-checking (scalar, math-module based) ---

def _ref_eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_ref_eval(node.arg, env)
    if isinstance(node, Bin):
        a, b = _ref_eval(node.lhs, env), _ref_eval(node.rhs, env)
        return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: a / b, "^": lambda: a ** b}[node.op]()
    fns = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
           "sqrt": math.sqrt, "abs": abs, "min": min, "max": max}
    return fns[node.func](*(_ref_eval(a, env) for a in node.args))


def _random_tree(rng, depth):
    # safe op set: avoid division blowups and domain errors by construction
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            # negative values arise via Neg nodes so print->parse is structural
            return Num(round(rng.uniform(0, 2), 6))
        return Var(rng.choice(["x", "t"]))
    r = rng.random()
    if r < 0.18:
        return Neg(_random_tree(rng, depth - 1))
    if r < 0.70:
        op = rng.choice(["+", "-", "*"])
        return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if r < 0.90:
        fn = rng.choice(["sin", "cos"])
        return Call(fn, (_random_tree(rng, depth - 1),))
    return Call(rng.choice(["min", "max"]),
                (_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)))


def test_thousand_random_trees_roundtrip_and_reference():
    import random

    from pdesup.expressions import Expression

    rng = random.Random(1234)
    for _ in range(1000):
        tree = _random_tree(rng, 4)
        expr = Expression(tree, ("x", "t"), "<generated>")
        text = expr.to_string()
        reparsed = parse_expression(text, ("x", "t"))
        # structural equality after print->parse
        assert reparsed.root == tree, text
        env = {"x": rng.uniform(-2, 2), "t": rng.uniform(-2, 2)}
        mine = float(expr(**env))
        ref = _ref_eval(tree, env)
        assert mine == pytest.approx(ref, rel=1e-14, abs=1e-14)


@settings(max_examples=200)
@given(st.floats(-3, 3), st.floats(0, 10))
def test_roundtrip_evaluates_identically(xv, tv):
    e = parse_expression("1+x/2*sin(t)-x^2/(1+abs(x))")
    r = parse_expression(e.to_string())
    assert float(e(x=xv, t=tv)) == pytest.approx(float(r(x=xv, t=tv)), rel=1e-15, abs=1e-15)


# --- numpy tree-walk reference: the evaluator the compiled closures replace ---

_NP_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt,
             "abs": np.abs, "min": np.minimum, "max": np.maximum}


def _np_tree_walk(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_np_tree_walk(node.arg, env)
    if isinstance(node, Bin):
        a, b = _np_tree_walk(node.lhs, env), _np_tree_walk(node.rhs, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return np.power(a, b)
    return _NP_FUNCS[node.func](*(_np_tree_walk(a, env) for a in node.args))


def _full_random_tree(rng, depth):
    # every operator and function of the grammar, domain errors included
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.45:
            return Num(round(rng.uniform(0, 3), 3))
        return Var(rng.choice(["x", "y", "t"]))
    r = rng.random()
    if r < 0.15:
        return Neg(_full_random_tree(rng, depth - 1))
    if r < 0.65:
        return Bin(rng.choice("+-*/^"), _full_random_tree(rng, depth - 1),
                   _full_random_tree(rng, depth - 1))
    if r < 0.85:
        return Call(rng.choice(["sin", "cos", "exp", "ln", "sqrt", "abs"]),
                    (_full_random_tree(rng, depth - 1),))
    return Call(rng.choice(["min", "max"]),
                (_full_random_tree(rng, depth - 1), _full_random_tree(rng, depth - 1)))


def test_compiled_and_bound_evaluation_match_tree_walk_bitwise():
    import random

    rng = random.Random(2024)
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(-0.5, 2.0, 7))
    times = np.linspace(0.0, 2.0, 5)
    checked = 0
    with np.errstate(all="ignore"):
        for _ in range(1500):
            tree = _full_random_tree(rng, 5)
            try:
                expr = Expression(tree, ("x", "y", "t"), "<generated>")
            except ParseError:
                # a constant subtree divides by zero: the tree walk raises too
                with pytest.raises(ZeroDivisionError):
                    _np_tree_walk(tree, {"x": X, "y": Y, "t": times[0]})
                continue
            bound = expr.bind(x=X, y=Y)
            for t in times:
                env = {"x": X, "y": Y, "t": t}
                ref = np.asarray(_np_tree_walk(tree, env))
                assert np.array_equal(np.asarray(expr(**env)), ref, equal_nan=True), tree
                assert np.array_equal(np.asarray(bound(t=t)), ref, equal_nan=True), tree
            checked += 1
    assert checked > 1000


def test_missing_variables_still_raise():
    e = parse_expression("sin(pi*x)*exp(-t)")
    with pytest.raises(ValueError, match=r"needs variables \['t'\]"):
        e(x=np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match=r"needs variables \['t'\]"):
        e.bind(x=np.linspace(0, 1, 5))()
    # variables the expression does not use may be left out
    assert parse_expression("2*t")(t=1.5) == 3.0
    assert parse_expression("x+1").bind(x=2.0)() == 3.0


def test_constant_division_by_zero_is_a_parse_error():
    with pytest.raises(ParseError, match="1.0/0.0"):
        parse_expression("x + 1/0")
    with pytest.raises(ParseError, match=r"3.0\*2.0/\(2.0-2.0\)"):
        parse_expression("t + 3*2/(2-2)")
    # non-constant division by zero is left to numpy at evaluation time
    with np.errstate(divide="ignore"):
        assert parse_expression("1/x")(x=np.array([0.0]))[0] == math.inf


def test_constant_cubes_and_fourth_powers_are_products():
    # pow is slow, and slower for negative bases: x^3 and x^4 with a
    # constant exponent are products, compiled, bound and folded alike
    x = np.linspace(-2.5, 1.5, 41)
    t = np.linspace(-1.0, 3.0, 41)
    cube, fourth = (x * x) * x, (x * x) * (x * x)
    for text, expect in (("x^3", cube), ("x^(1+2)", cube), ("x^4", fourth), ("x^(2*2)", fourth),
                         ("(x-t)^3", ((x - t) * (x - t)) * (x - t))):
        e = parse_expression(text)
        assert np.array_equal(e(x=x, t=t), expect), text
        assert np.array_equal(e.bind(x=x)(t=t), expect), text
        if "t" not in text:
            assert np.array_equal(e.bind(x=x, t=0.0)(), expect), text  # folded
    assert np.array_equal(parse_expression("x^2")(x=x), np.power(x, 2.0))
    assert np.array_equal(parse_expression("x^2")(x=x), x * x)
    # any other exponent, or one that reads a variable, stays np.power
    with np.errstate(invalid="ignore"):  # a negative base to the power 3.5 is NaN
        for text, expect in (("x^5", np.power(x, 5.0)), ("x^3.5", np.power(x, 3.5)),
                             ("x^(t*0+3)", np.power(x, t * 0 + 3))):
            assert np.array_equal(parse_expression(text)(x=x, t=t), expect, equal_nan=True), text
    # a folded constant keeps numpy's scalar type, so 1/0 stays an inf
    with np.errstate(divide="ignore"):
        assert parse_expression("x + 1/(2^3-8)")(x=0.0) == math.inf
