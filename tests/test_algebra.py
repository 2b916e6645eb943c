import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy

from weilad import algebra
from weilad.algebra import (
    algebra_from_spec,
    base_algebra,
    dual_algebra,
    jet_algebra,
    mixed_algebra,
    parse_algebra_text,
    present_algebra,
    tensor,
    validate_algebra,
    validate_morphism,
)
from weilad.corpus import algebra_family, tensor_pairs
from weilad.errors import BadParameter, DuplicateGenerator, InfiniteDimension, SizeLimit
from weilad.expr import parse_smooth_map
from weilad.functor import jet, partials
from weilad.monomial import Monomial
from weilad.numbers import WeilNumber


def enumeration_oracle(caps, vanishing):
    """Independent basis count: walk the exponent box, keep non-multiples."""
    kept = []
    for point in itertools.product(*(range(c) for c in caps)):
        dead = False
        for v in vanishing:
            if all(point[i] >= e for i, e in v.exps):
                dead = True
                break
        if not dead:
            kept.append(point)
    return kept


def test_base_is_one_dimensional():
    k = base_algebra()
    assert k.dim == 1 and k.nilpotency_index == 1
    assert k.basis_labels() == ("1",)


def test_dual_numbers():
    w = present_algebra(("x",), [Monomial.of([(0, 2)])])
    assert w.basis_labels() == ("1", "x")
    assert w.dim == 2 and w.nilpotency_index == 2


def test_two_first_order_generators():
    rels = [Monomial.of([(0, 2)]), Monomial.of([(0, 1), (1, 1)]), Monomial.of([(1, 2)])]
    w = present_algebra(("x", "y"), rels)
    assert w.basis_labels() == ("1", "x", "y")
    assert w.dim == len(enumeration_oracle((2, 2), rels)) == 3


def test_third_order_jet():
    w = present_algebra(("x",), [Monomial.of([(0, 4)])])
    assert w.basis_labels() == ("1", "x", "x^2", "x^3")
    assert w.dim == 4 and w.nilpotency_index == 4


def test_mixed_relation_basis_against_oracle():
    rels = [
        Monomial.of([(0, 3)]),
        Monomial.of([(1, 2)]),
        Monomial.of([(0, 2), (1, 1)]),
    ]
    w = present_algebra(("x", "y"), rels)
    assert w.dim == len(enumeration_oracle((3, 2), rels)) == 5


def test_infinite_dimension_rejected():
    with pytest.raises(InfiniteDimension):
        present_algebra(("x", "y"), [Monomial.of([(0, 2)])])


def table_size(w):
    return sum(map(len, w.struct.rows)) // 3


@pytest.mark.parametrize("build, size", [
    (lambda: jet_algebra(200000), 200001 * 200002 // 2),
    (lambda: mixed_algebra(*[9] * 7), 55 ** 7),
    (lambda: tensor(jet_algebra(44), jet_algebra(44)), (45 * 46 // 2) ** 2),
], ids=["jet", "mixed", "tensor"])
def test_oversized_table_rejected_before_it_is_built(build, size):
    with pytest.raises(SizeLimit, match="would hold %d products, more than the bound of %d"
                       % (size, algebra.MAX_TABLE_SIZE)):
        build()


def test_table_bound_counts_products_of_independent_truncations(monkeypatch):
    """prod c_i (c_i + 1)/2 is the exact table size of mixed algebras; the bound is inclusive."""
    assert table_size(mixed_algebra(3, 2)) == 10 * 6
    rels = [Monomial.of([(0, 4)]), Monomial.of([(1, 3)])]
    monkeypatch.setattr(algebra, "MAX_TABLE_SIZE", 60)
    assert table_size(present_algebra(("x", "y"), rels, name="at the bound")) == 60
    monkeypatch.setattr(algebra, "MAX_TABLE_SIZE", 59)
    with pytest.raises(SizeLimit, match="60 products, more than the bound of 59"):
        present_algebra(("x", "y"), rels, name="past the bound")


def test_table_bound_admits_the_triple_jet8_tensor():
    j = jet_algebra(8)
    assert table_size(tensor(tensor(j, j).algebra, j).algebra) == 45 ** 3 < algebra.MAX_TABLE_SIZE


def test_duplicate_generator_rejected():
    with pytest.raises(DuplicateGenerator):
        present_algebra(("x", "x"), [Monomial.of([(0, 2)]), Monomial.of([(1, 2)])])


def test_standard_constructors():
    assert dual_algebra(2).basis_labels() == ("1", "x", "y")
    assert jet_algebra(2).dim == 3
    assert mixed_algebra(1, 1).basis_labels() == ("1", "x1", "x2", "x1*x2")
    with pytest.raises(BadParameter):
        dual_algebra(0)
    with pytest.raises(BadParameter):
        jet_algebra(0)


@pytest.mark.parametrize("w", algebra_family(), ids=lambda w: w.name)
def test_family_validates_exhaustively(w):
    report = validate_algebra(w)
    assert report.passed, [c.name for c in report.failures()]


def test_corrupted_table_is_caught_with_witness():
    w = jet_algebra(3)
    struct = dict(w.struct)
    # redirect x*x to x^3
    struct[(1, 1)] = ((3, Fraction(1)),)
    struct[(1, 2)] = ((2, Fraction(1)),)
    bad = replace(w, struct=struct)
    report = validate_algebra(bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any(c.witness for c in failing)


def test_tensor_dimensions_and_nilpotency():
    family = algebra_family()
    for w1, w2 in itertools.product(family[:6], repeat=2):
        t = tensor(w1, w2).algebra
        assert t.dim == w1.dim * w2.dim
        assert t.nilpotency_index == w1.nilpotency_index + w2.nilpotency_index - 1


def test_tensor_of_duals():
    t = tensor(dual_algebra(1), dual_algebra(1)).algebra
    assert t.dim == 4 and t.nilpotency_index == 3
    assert set(t.basis_labels()) == {"1", "x_1", "x_2", "x_1*x_2"}
    assert validate_algebra(t).passed


def test_tensor_with_base_is_isomorphic():
    w = jet_algebra(2)
    t = tensor(w, base_algebra())
    # dropping the unit pair component: pair (i, 0) <-> i is a basis bijection
    assert t.algebra.dim == w.dim
    ident = [[Fraction(int(i == j)) for j in range(w.dim)] for i in range(w.dim)]
    from weilad.algebra import WeilMorphism

    drop = WeilMorphism(t.algebra, w, tuple(tuple(r) for r in ident))
    rep = validate_morphism(drop)
    assert rep.passed, [c.name for c in rep.failures()]


def test_tensor_inclusions_are_valid_morphisms():
    t = tensor(jet_algebra(2), dual_algebra(1))
    assert t.algebra.dim == 6
    assert validate_morphism(t.incl1).passed
    assert validate_morphism(t.incl2).passed


def test_text_format_round_trip():
    text = """
# comment
algebra demo
gens x y
rel x^2*y
rel x^3
rel y^2
"""
    w = parse_algebra_text(text)
    assert w.name == "demo"
    assert w.dim == 5
    with pytest.raises(BadParameter):
        parse_algebra_text("gens x\nrel x^2")


def test_builtin_specs():
    assert algebra_from_spec("base").dim == 1
    assert algebra_from_spec("dual:2").dim == 3
    assert algebra_from_spec("jet:3").dim == 4
    assert algebra_from_spec("mixed:1,2").dim == 6
    with pytest.raises(BadParameter):
        algebra_from_spec("nonsense:1")


def test_spec_file_input(tmp_path):
    path = tmp_path / "demo.alg"
    path.write_text("algebra filedemo\ngens t\nrel t^3\n")
    w = algebra_from_spec(str(path))
    assert w.dim == 3 and w.generator_names == ("t",)


# -- the sparse product table ------------------------------------------------


def first_principles_product(w, a, b):
    """Product of coefficient vectors from Monomial products and basis lookup."""
    out = [Fraction(0)] * w.dim
    for (m, x), (n, y) in itertools.product(zip(w.basis, a), zip(w.basis, b)):
        k = w.basis_index(m * n)
        if k is not None:
            out[k] += x * y
    return tuple(out)


def dense_table(w):
    """The dense (i, j) -> terms table, built pair by pair from Monomial products."""
    table = {}
    for (i, m), (j, n) in itertools.product(enumerate(w.basis), repeat=2):
        prod = m * n
        dead = any(v.divides(prod) for v in w.vanishing)
        table[(i, j)] = () if dead else ((w.basis_index(prod), Fraction(1)),)
    return table


def dense_loop_product(table, a, b):
    """The multiply loop over a dense (i, j) -> terms table."""
    out = [a[0] * 0] * len(a)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            for k, c in table[(i, j)]:
                term = ai * bj
                if c != 1:
                    term = c * term
                out[k] = out[k] + term
    return tuple(out)


def random_vector(rng, dim):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.7
                 else Fraction(0) for _ in range(dim))


TABLE_ALGEBRAS = (
    list(algebra_family())
    + [tensor(w1, w2).algebra for w1, w2 in tensor_pairs()]
    + [mixed_algebra(*orders) for orders in [(3, 3), (2, 2, 2), (3, 2, 1, 1), (4, 4, 3)]]
)


@pytest.mark.parametrize("w", TABLE_ALGEBRAS, ids=lambda w: w.name)
def test_mul_coeffs_matches_first_principles_products(w):
    rng = random.Random(w.dim)
    for _ in range(4):
        a, b = random_vector(rng, w.dim), random_vector(rng, w.dim)
        assert w.mul_coeffs(a, b) == first_principles_product(w, a, b)


@pytest.mark.parametrize("w", TABLE_ALGEBRAS, ids=lambda w: w.name)
def test_struct_view_is_the_dense_table(w):
    want = dense_table(w)
    assert dict(w.struct) == want
    assert list(w.struct) == list(want)
    assert len(w.struct) == w.dim * w.dim


def test_hand_built_table_multiplies_like_the_dense_loop():
    w = jet_algebra(2)
    table = dict(w.struct)
    table[(1, 1)] = ((2, Fraction(2)),)
    table[(1, 2)] = ((1, Fraction(1, 3)), (2, Fraction(-1)))
    table[(2, 1)] = ((0, Fraction(1)),)
    bad = replace(w, struct=table)
    assert dict(bad.struct) == table
    assert bad.struct[(1, 2)] == ((1, Fraction(1, 3)), (2, Fraction(-1)))
    rng = random.Random(7)
    # the Fraction coefficients put the table on the rational path, over denominator 3
    assert bad.struct.exact_rows()[1] == 3
    for _ in range(10):
        a, b = random_vector(rng, 3), random_vector(rng, 3)
        got = bad.mul_coeffs(a, b)
        assert got == dense_loop_product(table, a, b)
        assert all(type(x) is Fraction for x in got)
        fa, fb = tuple(map(float, a)), tuple(map(float, b))
        assert bad.mul_coeffs(fa, fb) == dense_loop_product(table, fa, fb)
    # the cached original keeps its own table
    assert w.mul_coeffs((0, 1, 0), (0, 1, 0)) == (0, 0, 1)


# -- the integer path for exact rationals -------------------------------------


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151)


def random_presentation(rng):
    """Generators with random caps, plus up to two random mixed relations."""
    n = rng.randint(1, 3)
    caps = [rng.randint(1, 4) for _ in range(n)]
    rels = [Monomial.of([(i, c)]) for i, c in enumerate(caps)]
    for _ in range(rng.randint(0, 2)):
        gens = rng.sample(range(n), rng.randint(1, n))
        rels.append(Monomial.of([(i, rng.randint(1, caps[i])) for i in sorted(gens)]))
    return present_algebra(("x", "y", "z")[:n], rels)


def exact_vectors(rng, dim):
    """Fraction vectors: huge, pairwise coprime denominators, sparse, all zero."""
    big = 10 ** 20
    yield tuple(Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(dim))
    yield tuple(Fraction(rng.randint(-9, 9), PRIMES[i % len(PRIMES)]) for i in range(dim))
    yield tuple(Fraction(rng.randint(1, big), big - 1) if rng.random() < 0.3 else Fraction(0)
                for _ in range(dim))
    yield tuple(Fraction(0) for _ in range(dim))
    yield random_vector(rng, dim)


def other_vectors(rng, dim):
    """Vectors that keep the generic loop: int/Fraction mixes, ints, floats, nested."""
    d = dual_algebra(1)
    mixed = tuple(rng.randint(-5, 5) if i % 2 else Fraction(rng.randint(-5, 5), 3)
                  for i in range(dim))
    yield mixed
    yield tuple(reversed(mixed))
    yield tuple(rng.randint(-5, 5) for _ in range(dim))
    floats = tuple(rng.uniform(-2, 2) for _ in range(dim))
    yield floats
    yield (Fraction(1, 3),) + floats[1:]
    yield tuple(WeilNumber(d, random_vector(rng, 2)) for _ in range(dim))


def assert_like_the_dense_loop(w, a, b):
    got = w.mul_coeffs(a, b)
    want = dense_loop_product(dict(w.struct), a, b)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    return got


def assert_kernel_like_the_dense_loop(w, rng):
    vectors = list(exact_vectors(rng, w.dim))
    for a, b in itertools.product(vectors, repeat=2):
        got = assert_like_the_dense_loop(w, a, b)
        assert all(type(x) is Fraction for x in got)
    for a in other_vectors(rng, w.dim):
        assert_like_the_dense_loop(w, a, a)
        assert_like_the_dense_loop(w, a, tuple(reversed(a)))
    assert_like_the_dense_loop(w, vectors[0], tuple(map(int, vectors[0])))


@pytest.mark.parametrize("w", TABLE_ALGEBRAS, ids=lambda w: w.name)
def test_rational_path_matches_the_dense_loop(w):
    # a monomial table is exact as it stands: no second copy of its rows
    assert w.struct.exact_rows() == (w.struct.rows, 1)
    assert w.struct.exact_rows()[0] is w.struct.rows
    assert_kernel_like_the_dense_loop(w, random.Random(w.dim))


def test_rational_path_on_random_presentations():
    rng = random.Random(5)
    for _ in range(60):
        assert_kernel_like_the_dense_loop(random_presentation(rng), rng)


def test_inexact_table_keeps_the_generic_loop():
    w = jet_algebra(2)
    table = dict(w.struct)
    table[(1, 1)] = ((2, 2.0),)
    bad = replace(w, struct=table)
    assert bad.struct.exact_rows() is None
    a = (Fraction(1, 2), Fraction(1, 3), Fraction(0))
    got = assert_like_the_dense_loop(bad, a, a)
    assert type(got[2]) is float


def test_rational_jet_matches_sympy_series_at_order_32():
    text, at, order = "recip(1+x^2)*(x-1)/(2+x)^2 + x^3", Fraction(3, 4), 32
    table = jet(parse_smooth_map(text, ["x"]), at, order)
    x, t = sympy.symbols("x t")
    expr = 1 / (1 + x ** 2) * (x - 1) / (2 + x) ** 2 + x ** 3
    series = sympy.series(expr.subs(x, sympy.Rational(3, 4) + t), t, 0, order + 1).removeO()
    want = sympy.Poly(series, t)
    for k in range(order + 1):
        got = table.raw_coefficient(k)[0]
        assert type(got) is Fraction
        assert got == Fraction(str(want.coeff_monomial(t ** k))), k


def test_struct_is_read_only():
    w = jet_algebra(2)
    with pytest.raises(TypeError):
        w.struct[(1, 1)] = ()
    with pytest.raises(KeyError):
        w.struct[(0, 3)]
    assert (2, 2) in w.struct and (3, 0) not in w.struct


def test_equality_ignores_the_table():
    w = jet_algebra(3)
    table = dict(w.struct)
    table[(1, 1)] = ()
    corrupt = replace(w, struct=table)
    assert corrupt is not w and corrupt == w and w == w


def test_repeated_presentations_are_one_object():
    assert jet_algebra(5) is jet_algebra(5)
    assert mixed_algebra(2, 1, 3) is mixed_algebra(2, 1, 3)
    assert dual_algebra(2) is dual_algebra(2)
    assert base_algebra() is base_algebra()
    f = parse_smooth_map("x*y", ["x", "y"])
    assert partials(f, (1, 2), (2, 3)).algebra is partials(f, (3, 1), (2, 3)).algebra


def test_presentation_cache_is_bounded():
    relation = [Monomial.of([(0, 2)])]
    first = present_algebra(("x",), relation, name="probe0")
    assert present_algebra(("x",), relation, name="probe0") is first
    size = algebra._PRESENTATION_CACHE_SIZE
    for n in range(1, size + 1):
        present_algebra(("x",), relation, name="probe%d" % n)
    assert algebra._build_algebra.cache_info().currsize <= size
    assert present_algebra(("x",), relation, name="probe0") is not first


def test_repeated_tensor_factors_give_one_product():
    a, b = jet_algebra(2), dual_algebra(1)
    assert tensor(a, b) is tensor(a, b)
    assert tensor(b, a) is not tensor(a, b)


def test_tensor_of_a_corrupted_copy_gets_its_own_table():
    w, d = jet_algebra(3), dual_algebra(1)
    table = dict(w.struct)
    table[(1, 1)] = ()
    corrupt = replace(w, struct=table)
    assert corrupt == w
    good, bad = tensor(w, d).algebra, tensor(corrupt, d).algebra
    assert dict(good.struct) == dict(algebra._build_tensor(w, d).algebra.struct)
    assert dict(bad.struct) == dict(algebra._build_tensor(corrupt, d).algebra.struct)
    assert dict(bad.struct) != dict(good.struct)
    assert not validate_algebra(bad).passed and validate_algebra(good).passed


def test_tensor_cache_is_bounded():
    j, d = jet_algebra(2), dual_algebra(1)
    first = tensor(j, d)
    size = algebra._TENSOR_CACHE_SIZE
    for n in range(1, size + 1):
        tensor(present_algebra(("x",), [Monomial.of([(0, 2)])], name="t%d" % n), d)
    assert len(algebra._tensor_cache) <= size
    assert tensor(j, d) is not first
