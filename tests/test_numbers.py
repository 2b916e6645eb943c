import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from weilad.algebra import dual_algebra, jet_algebra, tensor
from weilad.errors import (
    AlgebraMismatch,
    DomainError,
    NotAUnit,
    ScalarModeMismatch,
    UnsupportedInRationalMode,
)
from weilad.expr import parse_smooth_map
from weilad.functor import RAW, flatten_nested, jet, nested_inputs
from weilad.numbers import WeilNumber, constant, invert, number, power, push_along, variable, zero_like
from weilad.primitives import (
    ATAN,
    COS,
    EXP,
    LOG,
    POW_INT,
    RECIP,
    SIN,
    SQRT,
    TAN,
    TANH,
    apply_primitive,
)

from test_algebra import TABLE_ALGEBRAS

D = dual_algebra(1)
D2 = dual_algebra(2)
J2 = jet_algebra(2)
J3 = jet_algebra(3)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def vec(w, rng):
    return number(w, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(w.dim)])


@given(fractions, fractions, fractions, fractions)
def test_dual_product_formula(a, b, c, d):
    left = number(D, [a, b]) * number(D, [c, d])
    assert left.coeffs == (a * c, a * d + b * c)


def test_multiplying_by_one_is_identity():
    rng = random.Random(7)
    for w in (D, D2, J3):
        one = constant(w, 1)
        for _ in range(20):
            x = vec(w, rng)
            assert x * one == x and one * x == x


def test_truncated_geometric_inverse():
    prod = number(J2, [1, 1, 0]) * number(J2, [1, -1, 1])
    assert prod == constant(J2, 1)


@settings(max_examples=60)
@given(st.data())
def test_ring_laws_exact(data):
    w = data.draw(st.sampled_from([D2, J3]))
    draw = lambda: number(w, [data.draw(fractions) for _ in range(w.dim)])
    x, y, z = draw(), draw(), draw()
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)


def test_invert_examples():
    assert invert(number(J2, [1, 1, 0])) == number(J2, [1, -1, 1])
    assert invert(constant(J2, Fraction(5))) == constant(J2, Fraction(1, 5))
    with pytest.raises(NotAUnit):
        invert(number(D, [0, 3]))


@settings(max_examples=40)
@given(st.data())
def test_invert_multiplies_back_to_one(data):
    w = data.draw(st.sampled_from([D, J3, tensor(D, D).algebra]))
    aug = data.draw(fractions.filter(bool))
    x = number(w, [aug] + [data.draw(fractions) for _ in range(w.dim - 1)])
    assert invert(x) * x == constant(w, 1)


def test_mode_and_algebra_mismatches():
    with pytest.raises(ScalarModeMismatch):
        number(D, [1, 2]) + number(D, [1.0, 2.0])
    with pytest.raises(AlgebraMismatch):
        number(D, [1, 2]) + number(J2, [1, 2, 3])
    with pytest.raises(ScalarModeMismatch):
        number(D, [1, 2]).scale(0.5)


# -- primitives ------------------------------------------------------------

ALL_PRIMS = {
    "exp": (EXP, sympy.exp, 0.4),
    "log": (LOG, sympy.log, 1.3),
    "sin": (SIN, sympy.sin, 0.7),
    "cos": (COS, sympy.cos, 0.7),
    "sqrt": (SQRT, sympy.sqrt, 1.6),
    "tan": (TAN, sympy.tan, 0.5),
    "tanh": (TANH, sympy.tanh, 0.6),
    "atan": (ATAN, sympy.atan, 0.8),
    "recip": (RECIP, lambda t: 1 / t, 0.9),
}


@pytest.mark.parametrize("name", sorted(ALL_PRIMS), ids=str)
def test_taylor_coefficients_match_symbolic_derivatives(name):
    prim, sym_fn, at = ALL_PRIMS[name]
    order = 6
    from weilad.algebra import present_algebra
    from weilad.monomial import Monomial

    w = present_algebra(("x",), [Monomial.of([(0, order + 1)])])
    got = apply_primitive(prim, variable(w, 0, float(at)))
    t = sympy.Symbol("t")
    expr = sym_fn(t)
    for i in range(order + 1):
        want = float(sympy.diff(expr, t, i).subs(t, sympy.Rational(at)).evalf(30))
        want /= math.factorial(i)
        assert math.isclose(got.coeffs[i], want, rel_tol=1e-12, abs_tol=1e-13), (name, i)


def test_exp_jet_coefficients():
    got = apply_primitive(EXP, variable(J3, 0, 0.0))
    for value, want in zip(got.coeffs, [1.0, 1.0, 0.5, 1 / 6]):
        assert math.isclose(value, want, rel_tol=1e-15)


def test_primitive_at_constant_is_plain_value():
    x = constant(J3, 0.3)
    got = apply_primitive(SIN, x)
    assert got.coeffs[0] == math.sin(0.3) and not any(got.coeffs[1:])


def test_sin_on_dual_is_cosine_slope():
    got = apply_primitive(SIN, variable(D, 0, 0.0))
    assert got.coeffs == (0.0, 1.0)


def test_rational_mode_restrictions():
    with pytest.raises(UnsupportedInRationalMode):
        apply_primitive(SIN, variable(D, 0, Fraction(0)))
    exact = apply_primitive(RECIP, number(J2, [2, 1, 0]))
    assert exact * number(J2, [2, 1, 0]) == constant(J2, 1)
    powed = apply_primitive(POW_INT, number(J2, [1, 1, 0]), 3)
    assert powed == number(J2, [1, 1, 0]) ** 3


def test_domain_errors():
    with pytest.raises(DomainError):
        apply_primitive(LOG, variable(D, 0, 0.0))
    with pytest.raises(DomainError):
        apply_primitive(SQRT, variable(D, 0, -1.0))
    with pytest.raises(DomainError):
        apply_primitive(RECIP, number(D, [0, 1]))


def test_scalar_overflow_is_a_domain_error_naming_the_primitive():
    with pytest.raises(DomainError, match="exp .*800"):
        apply_primitive(EXP, variable(D, 0, 800.0))
    with pytest.raises(DomainError, match="exp .*800"):
        apply_primitive(EXP, 800.0)
    with pytest.raises(DomainError, match="sin .*inf"):
        apply_primitive(SIN, variable(D, 0, math.inf))
    with pytest.raises(DomainError, match="exp .*800"):
        jet(parse_smooth_map("exp(x)", ["x"]), 800.0, 2)


def test_negative_power_is_inverse_power():
    x = number(J2, [Fraction(2), Fraction(1), Fraction(0)])
    assert x ** -2 == invert(x) ** 2
    assert apply_primitive(POW_INT, x, -2) == x ** -2


def test_square_and_multiply_equals_the_repeated_product():
    x = number(J2, [Fraction(3, 2), Fraction(-1), Fraction(2, 7)])
    a = Fraction(-5, 3)
    product, scalar = constant(J2, 1), Fraction(1)
    for n in range(21):
        assert x ** n == product and power(a, n) == scalar
        assert apply_primitive(POW_INT, x, n) == product
        product, scalar = product * x, scalar * a
    inverse, product = invert(x), constant(J2, 1)
    for n in range(1, 8):
        product = product * inverse
        assert x ** -n == product and power(a, -n) == Fraction(1) / a ** n
        assert apply_primitive(POW_INT, x, -n) == product


def test_huge_integer_power_is_fast():
    f = parse_smooth_map("x^3000000", ["x"])
    start = time.perf_counter()
    table = jet(f, Fraction(1), 2)
    assert time.perf_counter() - start < 1.0
    assert [table.derivative((k,))[0] for k in range(3)] == [1, 3000000, 3000000 * 2999999]


MPMATH_POINTS = [
    ("tanh", 2.0), ("tanh", 3.0), ("tan", 0.7), ("tan", -0.7), ("tan", 1.5),
    ("atan", 0.8), ("atan", 3.0), ("sqrt", 1.6), ("log", 0.4), ("exp", 0.9),
    ("sin", 0.7), ("cos", 1.3), ("recip", 0.9),
]


@pytest.mark.parametrize("name, at", MPMATH_POINTS, ids=str)
def test_order_32_jet_matches_mpmath_taylor(name, at):
    fn = (lambda t: 1 / t) if name == "recip" else getattr(mpmath, name)
    with mpmath.workdps(60):
        want = mpmath.taylor(fn, mpmath.mpf(at), 32)
    got = jet(parse_smooth_map("%s(x)" % name, ["x"]), at, 32, RAW)
    for k, w in enumerate(want):
        assert abs(got.raw_coefficient(k)[0] - w) <= 1e-12 * abs(w), (name, at, k)


NESTED_FLOAT = [(ALL_PRIMS[name][0], (), ALL_PRIMS[name][2]) for name in sorted(ALL_PRIMS)]
NESTED_FLOAT += [(POW_INT, (4,), 0.7), (POW_INT, (-3,), 0.7)]
NESTED_EXACT = [(RECIP, (), 0.9), (POW_INT, (4,), 0.7), (POW_INT, (-3,), 0.7)]


@pytest.mark.parametrize("prim, params, at, exact",
                         [c + (False,) for c in NESTED_FLOAT] + [c + (True,) for c in NESTED_EXACT],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_nested_augmentation_matches_tensor_product(prim, params, at, exact):
    """Value over jet(5) with jet(3) coefficients equals the value over jet(3) (x) jet(5)."""
    J5 = jet_algebra(5)
    t = tensor(J3, J5).algebra
    rng = random.Random(11)
    coeffs = [Fraction(str(at))] + [Fraction(rng.randint(-4, 4), 8) for _ in range(t.dim - 1)]
    x = number(t, coeffs if exact else [float(c) for c in coeffs])
    direct = apply_primitive(prim, x, *params)
    nested = flatten_nested(J3, J5, apply_primitive(prim, nested_inputs(J3, J5, [x])[0], *params))
    if exact:
        assert nested == direct
    else:
        scale = max(abs(c) for c in direct.coeffs)
        for a, b in zip(nested.coeffs, direct.coeffs):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-13 * scale), prim.name


# -- composition -----------------------------------------------------------


def horner_primitive(prim, x, *params):
    """The reference for apply_primitive: its Taylor sum by Horner's rule, acc * n + c."""
    coeffs = prim.taylor(x.augmentation, x.algebra.nilpotency_index, *params)
    n = x.nilpotent_part()
    acc = zero_like(x).plus_scalar(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * n
        acc = acc.plus_scalar(c)
    return acc


def geometric_inverse(x):
    """The reference for invert: (1/a) * sum_{i < r} (-n/a)^i."""
    a = x.augmentation
    inv_a = geometric_inverse(a) if isinstance(a, WeilNumber) else 1 / a
    t = (-x.nilpotent_part()).scale(inv_a)
    acc = term = x.ring_one()
    for _ in range(x.algebra.nilpotency_index - 1):
        term = term * t
        acc = acc + term
    return acc.scale(inv_a)


def hand_built_table():
    """jet(3) with an ungraded, non-commutative table: x*x = 2x^2, x*x^2 = x/3 - x^2, x^2*x = 1."""
    table = dict(J3.struct)
    table[(1, 1)] = ((2, Fraction(2)),)
    table[(1, 2)] = ((1, Fraction(1, 3)), (2, Fraction(-1)))
    table[(2, 1)] = ((0, Fraction(1)),)
    return replace(J3, name="hand-built", struct=table)


def assert_close(got, want, label):
    scale = max(abs(c) for c in want.coeffs)
    for a, b in zip(got.coeffs, want.coeffs):
        assert abs(a - b) <= 1e-12 * scale, label


COMPOSE_ALGEBRAS = TABLE_ALGEBRAS + [tensor(J3, jet_algebra(5)).algebra, hand_built_table()]


@pytest.mark.parametrize("w", COMPOSE_ALGEBRAS, ids=lambda w: w.name)
def test_compose_matches_horner_and_the_geometric_series(w):
    rng = random.Random(w.dim)
    nil = [Fraction(rng.randint(-4, 4), 8) for _ in range(w.dim - 1)]
    for prim, params, at in NESTED_EXACT:
        x = number(w, [Fraction(str(at))] + nil)
        assert apply_primitive(prim, x, *params) == horner_primitive(prim, x, *params), prim.name
    for prim, params, at in NESTED_FLOAT:
        x = number(w, [at] + [float(c) for c in nil])
        assert_close(apply_primitive(prim, x, *params), horner_primitive(prim, x, *params),
                     prim.name)
    x = number(w, [Fraction(-3, 2)] + nil)
    assert invert(x) == geometric_inverse(x)


def test_compose_matches_horner_on_nested_coefficients():
    """jet(5) elements whose coefficients are jet(3) elements."""
    J5 = jet_algebra(5)
    rng = random.Random(5)
    coeffs = [Fraction(9, 10)] + [Fraction(rng.randint(-4, 4), 8) for _ in range(J3.dim * J5.dim - 1)]
    x = nested_inputs(J3, J5, [number(tensor(J3, J5).algebra, coeffs)])[0]
    for prim, params, _ in NESTED_EXACT:
        assert apply_primitive(prim, x, *params) == horner_primitive(prim, x, *params), prim.name
    assert invert(x) == geometric_inverse(x)
    xf = nested_inputs(J3, J5, [number(tensor(J3, J5).algebra, [float(c) for c in coeffs])])[0]
    for prim, params, _ in NESTED_FLOAT:
        got = flatten_nested(J3, J5, apply_primitive(prim, xf, *params))
        want = flatten_nested(J3, J5, horner_primitive(prim, xf, *params))
        assert_close(got, want, prim.name)


# -- pushforward -----------------------------------------------------------


def test_push_examples():
    from weilad.algebra import canonical_morphisms, morphism_from_generator_images

    aug, _ = canonical_morphisms(D)
    assert push_along(aug, number(D, [3, 5])).coeffs == (Fraction(3),)

    dd = tensor(D, D).algebra
    phi = morphism_from_generator_images(J2, dd, [number(dd, [0, 1, 1, 0])])
    pushed = push_along(phi, number(J2, [1, 1, 1]))
    # (x_1 + x_2)^2 = 2 x_1 x_2, so 1 + x + x^2 |-> 1 + x_1 + x_2 + 2 x_1 x_2
    assert pushed == number(dd, [1, 1, 1, 2])


def test_push_identity_fixes_everything():
    from weilad.algebra import identity_morphism

    rng = random.Random(3)
    ident = identity_morphism(J3)
    for _ in range(20):
        x = vec(J3, rng)
        assert push_along(ident, x) == x


def test_push_commutes_with_primitives():
    from weilad.algebra import morphism_from_generator_images

    phi = morphism_from_generator_images(J2, J2, [number(J2, [0, 2, 0])])
    x = number(J2, [0.5, 1.0, 0.25])
    lhs = push_along(phi, apply_primitive(EXP, x))
    rhs = apply_primitive(EXP, push_along(phi, x))
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        assert math.isclose(a, b, rel_tol=1e-12)
    x_exact = number(J2, [Fraction(1, 2), Fraction(1), Fraction(1, 4)])
    assert push_along(phi, apply_primitive(RECIP, x_exact)) == apply_primitive(
        RECIP, push_along(phi, x_exact)
    )


def test_formatting():
    assert number(J2, [1, 0, Fraction(-1, 2)]).format() == "1 + -1/2*x^2"
    assert constant(D, 0).format() == "0"


def test_ring_laws_hold_on_every_family_algebra():
    from weilad.corpus import algebra_family

    rng = random.Random(2024)
    for w in algebra_family():
        for _ in range(6):
            x, y, z = vec(w, rng), vec(w, rng), vec(w, rng)
            assert (x * y) * z == x * (y * z), w.name
            assert x * y == y * x, w.name
            assert x * (y + z) == x * y + x * z, w.name
            assert (x - y) + y == x, w.name


def test_inversion_exact_on_every_family_algebra():
    from weilad.corpus import algebra_family

    rng = random.Random(99)
    for w in algebra_family():
        for _ in range(6):
            x = vec(w, rng)
            if not x.augmentation:
                x = x.plus_scalar(Fraction(1))
            assert invert(x) * x == constant(w, 1), w.name
