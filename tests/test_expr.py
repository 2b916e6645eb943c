from fractions import Fraction

import pytest

from weilad.errors import ParseError, UnknownFunction, UnknownVariable
from weilad.expr import (
    MAX_DEPTH,
    Bin,
    Call,
    Const,
    Pow,
    Var,
    parse_expr,
    parse_function_file,
    parse_smooth_map,
    tuple_map,
)
from weilad.functor import eval_map, jet


def test_basic_shape():
    node = parse_expr("x^2 + 1", ["x"])
    assert isinstance(node, Bin) and node.op == "+"
    assert isinstance(node.left, Pow) and node.left.exponent == 2
    assert isinstance(node.left.base, Var) and node.left.base.index == 0
    assert isinstance(node.right, Const) and node.right.value == 1


def test_identical_subtrees_share_a_node():
    node = parse_expr("sin(x)*sin(x)", ["x"])
    assert isinstance(node, Bin) and node.op == "*"
    assert node.left is node.right
    assert isinstance(node.left, Call)


def test_unclosed_call_position():
    with pytest.raises(ParseError) as err:
        parse_expr("log(x", ["x"])
    assert err.value.position == 6


def test_unknown_names_carry_positions():
    with pytest.raises(UnknownFunction) as err:
        parse_expr("arg(x)", ["x"])
    assert err.value.position == 1
    with pytest.raises(UnknownVariable) as err2:
        parse_expr("x + qq", ["x"])
    assert err2.value.position == 5


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expr("x + 1 )", ["x"])
    with pytest.raises(ParseError):
        parse_expr("x @ 1", ["x"])


def test_fraction_literals_are_exact():
    f = parse_smooth_map("3/4 + x*0", ["x"])
    assert eval_map(f, [Fraction(1)])[0] == Fraction(3, 4)
    g = parse_smooth_map("0.25 + x*0", ["x"])
    assert eval_map(g, [Fraction(1)])[0] == Fraction(1, 4)


def test_unary_minus_binds_looser_than_power():
    f = parse_smooth_map("-x^2", ["x"])
    assert eval_map(f, [Fraction(3)])[0] == Fraction(-9)


def test_negative_exponent():
    f = parse_smooth_map("x^-2", ["x"])
    assert eval_map(f, [Fraction(2)])[0] == Fraction(1, 4)
    with pytest.raises(ParseError):
        parse_expr("x^y", ["x", "y"])


def test_precedence():
    f = parse_smooth_map("1 + 2*3^2", ["x"])
    assert eval_map(f, [Fraction(0)])[0] == 19


def test_function_file():
    f = parse_function_file("""
vars x y
x + y
x*y
""")
    assert f.arity == 2 and f.n_outputs == 2
    assert eval_map(f, [Fraction(2), Fraction(5)]) == [Fraction(7), Fraction(10)]
    with pytest.raises(ParseError):
        parse_function_file("x + y\n")


def test_tuple_map_concatenates_outputs():
    f = parse_smooth_map("x + y", ["x", "y"])
    g = parse_smooth_map("x*y", ["x", "y"])
    t = tuple_map(f, g)
    assert eval_map(t, [Fraction(2), Fraction(3)]) == [Fraction(5), Fraction(6)]


def test_shared_nodes_evaluate_once(monkeypatch):
    from weilad import primitives

    calls = []
    original = primitives.SIN.scalar_value

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(primitives.SIN, "scalar_value", counting)
    f = parse_smooth_map("sin(x)*sin(x) + sin(x)", ["x"])
    eval_map(f, [0.5])
    assert len(calls) == 1


def nested(depth):
    """Expressions whose parser nesting or tree height is ``depth``."""
    return {
        "parentheses": "(" * depth + "x" + ")" * depth,
        "calls": "sin(" * (depth - 1) + "x" + ")" * (depth - 1),
        "negations": "-" * (depth - 1) + "x",
        "sum": "+".join(["x"] * depth),
        "powers": "x" + "^1" * (depth - 1),
    }


@pytest.mark.parametrize("shape", sorted(nested(1)))
def test_depth_bound_admits_the_bound_and_rejects_one_more(shape):
    f = parse_smooth_map(nested(MAX_DEPTH)[shape], ["x"])
    assert len(jet(f, 0.5, 2).series()) == 3
    with pytest.raises(ParseError, match="nested %d deep, more than the bound of %d"
                       % (MAX_DEPTH + 1, MAX_DEPTH)):
        parse_smooth_map(nested(MAX_DEPTH + 1)[shape], ["x"])


def test_depth_bound_holds_across_a_function_file():
    deep = "+".join(["x"] * MAX_DEPTH)
    with pytest.raises(ParseError, match="bound of %d" % MAX_DEPTH):
        parse_function_file("vars x\n%s\n%s + x\n" % (deep, deep))
