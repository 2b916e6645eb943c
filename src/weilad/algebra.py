"""Finite-dimensional quotient algebras k[x1..xn]/(monomial ideal) and their morphisms.

Every algebra here is presented by monomial relations that bound each
generator, so the quotient has a finite monomial basis, every non-unit basis
element is nilpotent, and multiplication reduces to a structure-constant
table.  Scalars are exact rationals unless a caller explicitly works with
floats; the table itself is always exact.

Morphisms are stored as full matrices on the monomial bases.  Construction
from generator images checks well-definedness (all relations must map to
zero) and the augmentation condition (generator images have no constant
term); after that, composition and application are plain linear algebra.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AlgebraMismatch,
    AugmentationViolation,
    BadParameter,
    DuplicateGenerator,
    InfiniteDimension,
    NotWellDefined,
    SizeLimit,
    SourceTargetMismatch,
)
from .monomial import Monomial
from .report import Report

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

ONE = Fraction(1)
ZERO = Fraction(0)


class ProductTable(Mapping):
    """The multiplication table of an algebra, stored once as sparse rows.

    Row ``i`` lists, for every term ``c * basis[k]`` of ``basis[i] *
    basis[j]``, the triple ``(j, k, c)``: ordered by ``j`` and, for one
    ``j``, in term order; a product that vanishes has no entry.  Each row is
    kept as one flat tuple ``(j0, k0, c0, j1, k1, c1, ...)``, so a cached
    table holds one object per row, not one per product.  A coefficient
    equal to 1 is always the shared ``ONE``, so the multiply kernel can skip
    scaling by an identity test.  As a mapping the table is the read-only
    dense view ``(i, j) -> ((k, c), ...)``, with ``()`` for a vanishing
    product.
    """

    __slots__ = ("rows", "_exact")

    def __init__(self, rows):
        """``rows[i]`` is the sequence of ``(j, k, c)`` triples of row ``i``."""
        self.rows = tuple(tuple(x for triple in row for x in triple) for row in rows)
        self._exact = False

    def exact_rows(self):
        """The rows over integers and their common denominator, or ``None``.

        Returns ``(rows, d)``: ``rows`` is laid out like :attr:`rows`, with
        each coefficient ``c`` replaced by the integer ``c * d`` (by ``ONE``
        where that is 1, so the kernel's identity test still skips it).  A
        table whose coefficients are all ``ONE`` gives back its own rows.
        ``None`` when some coefficient is not an ``int`` or ``Fraction``.
        Computed on first use and kept.
        """
        if self._exact is False:
            coeffs = [c for row in self.rows for c in row[2::3]]
            if all(c is ONE for c in coeffs):
                self._exact = (self.rows, 1)
            elif all(type(c) in (int, Fraction) for c in coeffs):
                d = math.lcm(*(Fraction(c).denominator for c in coeffs))
                self._exact = (tuple(
                    tuple(x if at % 3 < 2 else _unit(int(x * d)) for at, x in enumerate(row))
                    for row in self.rows), d)
            else:
                self._exact = None
        return self._exact

    def __getitem__(self, key):
        n = len(self.rows)
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(x, int) and 0 <= x < n for x in key)):
            raise KeyError(key)
        i, j = key
        row = self.rows[i]
        at = 3 * bisect.bisect_left(range(0, len(row), 3), j, key=row.__getitem__)
        terms = []
        while at < len(row) and row[at] == j:
            terms.append(row[at + 1:at + 3])
            at += 3
        return tuple(terms)

    def __iter__(self):
        return itertools.product(range(len(self.rows)), repeat=2)

    def __len__(self):
        return len(self.rows) ** 2


def _unit(c):
    return ONE if c == 1 else c


def _over_lcm(v):
    """Integer numerators of an all-``Fraction`` vector over the lcm of its denominators."""
    dens = [x.denominator for x in v]
    d = math.lcm(*dens)
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // q) for x, q in zip(v, dens)], d


def _convolve(rows, a, b, zero) -> list:
    """The sparse row walk of :meth:`WeilAlgebra.mul_coeffs` over table ``rows``."""
    out = [zero] * len(rows)
    for ai, row in zip(a, rows):
        if not ai:
            continue
        triples = iter(row)
        for j, k, c in zip(triples, triples, triples):
            bj = b[j]
            if not bj:
                continue
            term = ai * bj
            if c is not ONE:
                term = c * term
            out[k] = out[k] + term
    return out


def _triples(row) -> list:
    """The ``(j, k, c)`` triples of one flat table row."""
    triples = iter(row)
    return list(zip(triples, triples, triples))


@dataclass(frozen=True, eq=False, repr=False)
class WeilAlgebra:
    """A quotient k[g1..gn]/(monomial ideal) with finite monomial basis.

    ``basis[0]`` is the unit monomial.  ``struct[(i, j)]`` lists the
    ``(k, coefficient)`` terms of ``basis[i] * basis[j]``; for monomial
    quotients there is at most one term and its coefficient is 1, but the
    table deliberately supports general linear combinations.  ``struct`` is
    a read-only :class:`ProductTable`; any other mapping passed in (for
    instance through ``dataclasses.replace``) is converted to one.
    """

    name: str
    generator_names: tuple
    vanishing: tuple
    basis: tuple
    dim: int
    struct: ProductTable
    nilpotency_index: int
    _index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.struct, ProductTable):
            dense, n = self.struct, self.dim
            rows = [[(j, k, _unit(c)) for j in range(n) for k, c in dense[(i, j)]]
                    for i in range(n)]
            object.__setattr__(self, "struct", ProductTable(rows))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WeilAlgebra):
            return NotImplemented
        return (
            self.generator_names == other.generator_names
            and set(self.vanishing) == set(other.vanishing)
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.generator_names, self.basis))

    def __repr__(self):
        return "WeilAlgebra(%s, dim=%d)" % (self.name, self.dim)

    # -- basis bookkeeping ------------------------------------------------

    def basis_index(self, monomial: Monomial):
        return self._index.get(monomial)

    def basis_labels(self):
        return tuple(m.label(self.generator_names) for m in self.basis)

    def generator_coeffs(self, gen_index: int) -> tuple:
        """Coefficient vector of the generator, zero if the relations kill it."""
        if not 0 <= gen_index < len(self.generator_names):
            raise BadParameter("no generator with index %d" % gen_index)
        idx = self.basis_index(Monomial.of([(gen_index, 1)]))
        return tuple(ONE if i == idx else Fraction(0) for i in range(self.dim))

    # -- arithmetic on raw coefficient vectors -----------------------------

    def mul_coeffs(self, a, b):
        """Structure-constant convolution of two coefficient vectors.

        Coefficients may be any scalars supporting ring arithmetic, including
        coefficient vectors of another algebra (nested evaluation).  When both
        vectors are all ``Fraction`` and the table is exact, the walk runs on
        integer numerators over one common denominator and each output entry
        is reduced once; the values are the same as term-by-term ``Fraction``
        arithmetic.
        """
        if type(a[0]) is Fraction is type(b[0]):
            exact = self.struct.exact_rows()
            if exact is not None and {*map(type, a), *map(type, b)} == {Fraction}:
                rows, dc = exact
                na, da = _over_lcm(a)
                nb, db = _over_lcm(b)
                d = da * db * dc
                return tuple(Fraction(s, d) if s else ZERO for s in _convolve(rows, na, nb, 0))
        return tuple(_convolve(self.struct.rows, a, b, a[0] * 0))

    def is_zero_coeffs(self, a) -> bool:
        return not any(a)


@dataclass(frozen=True, eq=False, repr=False)
class WeilMorphism:
    """A unital algebra map stored as a dim(target) x dim(source) matrix.

    Column ``s`` is the image of source basis element ``s``.
    """

    source: WeilAlgebra
    target: WeilAlgebra
    matrix: tuple

    def apply(self, coeffs):
        if len(coeffs) != self.source.dim:
            raise AlgebraMismatch("coefficient vector does not fit the source algebra")
        zero = coeffs[0] * 0
        out = []
        for row in self.matrix:
            acc = zero
            for m, x in zip(row, coeffs):
                if m and x:
                    acc = acc + m * x
            out.append(acc)
        return tuple(out)

    def column(self, s: int) -> tuple:
        return tuple(row[s] for row in self.matrix)

    def __eq__(self, other):
        if not isinstance(other, WeilMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return "WeilMorphism(%s -> %s)" % (self.source.name, self.target.name)


@dataclass(frozen=True)
class TensorProduct:
    algebra: WeilAlgebra
    incl1: WeilMorphism
    incl2: WeilMorphism


# ---------------------------------------------------------------------------
# construction


# How many recent presentations present_algebra keeps.  The law suite uses
# six; a stream that mixes a few recurring presentations with new ones keeps
# the recurring ones while fewer than this many others come between two uses.
# The table of the dimension-256 mixed(3,3,3,3) holds 10 000 products.
_PRESENTATION_CACHE_SIZE = 16

# The most products an algebra's table may hold.  jet(8)(x)jet(8)(x)jet(8)
# has 45^3 = 91 125; a table of 10^6 takes about 1.5 s and 110 MB to build (one
# core of a Xeon VM).
MAX_TABLE_SIZE = 10 ** 6


def _check_table_size(size: int, name: str) -> None:
    if size > MAX_TABLE_SIZE:
        raise SizeLimit("the product table of %s would hold %d products, more than the bound of %d"
                        % (name, size, MAX_TABLE_SIZE))


def present_algebra(generator_names, vanishing_monomials, name=None) -> WeilAlgebra:
    """Build k[generators]/(vanishing monomials).

    The basis is every monomial not divisible by a vanishing monomial,
    ordered by total degree then lexicographically (earlier generators
    first).  Raises InfiniteDimension unless some pure power of each
    generator vanishes, and SizeLimit when the pure-power caps c_i bound the
    product table by prod c_i (c_i + 1)/2 > :data:`MAX_TABLE_SIZE` entries.
    Algebras are immutable, so a recently built presentation (same
    generators, relations and name) comes back as the same object.
    """
    gens = tuple(generator_names)
    seen = set()
    for g in gens:
        if not _NAME_RE.match(g):
            raise BadParameter("generator name %r must be an identifier" % g)
        if g in seen:
            raise DuplicateGenerator("generator %r listed twice" % g)
        seen.add(g)

    vanishing = tuple(sorted(set(vanishing_monomials), key=lambda m: m.sort_key(len(gens))))
    for v in vanishing:
        if v.is_unit():
            raise BadParameter("the unit monomial cannot vanish")
        for i, _ in v.exps:
            if not 0 <= i < len(gens):
                raise BadParameter("relation mentions unknown generator index %d" % i)

    if name is None:
        name = "k[%s]" % ",".join(gens) if gens else "base"
    return _build_algebra(gens, vanishing, name)


@functools.lru_cache(maxsize=_PRESENTATION_CACHE_SIZE)
def _build_algebra(gens, vanishing, name) -> WeilAlgebra:
    """The algebra of a checked presentation, its table built from exponents.

    Basis monomials are exponent vectors below the pure-power caps, numbered
    in mixed radix (the last generator fastest), so a divisor's number
    subtracts from a multiple's.  The basis is closed under divisors, and
    basis[i] * basis[j] survives exactly when it is a basis monomial; so the
    surviving products are the pairs (divisor, cofactor) of each basis
    monomial, and only those are enumerated.
    """
    n = len(gens)
    caps = []
    for i in range(n):
        powers = [e for v in vanishing for j, e in [v.pure_power() or (None, 0)] if j == i]
        if not powers:
            raise InfiniteDimension(
                "no pure power of generator %r vanishes; quotient is infinite-dimensional" % gens[i]
            )
        caps.append(min(powers))
    _check_table_size(math.prod(c * (c + 1) // 2 for c in caps), name)

    dense_vanishing = [tuple(v.exponent(i) for i in range(n)) for v in vanishing]
    codes = {}
    for code, exps in enumerate(itertools.product(*(range(c) for c in caps))):
        if not any(all(e >= f for e, f in zip(exps, v)) for v in dense_vanishing):
            codes[exps] = code
    ordered = sorted(codes, key=lambda exps: (sum(exps), tuple(-e for e in exps)))
    assert ordered and not any(ordered[0])
    index_of_code = {codes[exps]: i for i, exps in enumerate(ordered)}

    strides = [math.prod(caps[i + 1:]) for i in range(n)]
    rows = [[] for _ in ordered]
    for k, exps in enumerate(ordered):
        code = codes[exps]
        steps = (range(0, (e + 1) * s, s) for e, s in zip(exps, strides))
        for parts in itertools.product(*steps):
            divisor = sum(parts)
            rows[index_of_code[divisor]].append((index_of_code[code - divisor], k, ONE))

    basis = tuple(Monomial(tuple((i, e) for i, e in enumerate(exps) if e)) for exps in ordered)
    return WeilAlgebra(
        name=name,
        generator_names=gens,
        vanishing=vanishing,
        basis=basis,
        dim=len(basis),
        struct=ProductTable(sorted(row) for row in rows),
        nilpotency_index=max(sum(exps) for exps in ordered) + 1,
        _index={m: i for i, m in enumerate(basis)},
    )


def base_algebra() -> WeilAlgebra:
    """The one-dimensional algebra: the base field itself."""
    return present_algebra((), (), name="base")


def dual_algebra(n: int = 1) -> WeilAlgebra:
    """n first-order infinitesimals: all products of two generators vanish."""
    if n < 1:
        raise BadParameter("dual algebra needs n >= 1")
    gens = _generator_names(n)
    rels = [
        Monomial.of([(i, 1), (j, 1)]) if i != j else Monomial.of([(i, 2)])
        for i in range(n)
        for j in range(i, n)
    ]
    return present_algebra(gens, rels, name="dual(%d)" % n)


def jet_algebra(r: int) -> WeilAlgebra:
    """Truncated univariate polynomials: x^(r+1) = 0."""
    if r < 1:
        raise BadParameter("jet algebra needs r >= 1")
    return present_algebra(("x",), [Monomial.of([(0, r + 1)])], name="jet(%d)" % r)


def mixed_algebra(*orders) -> WeilAlgebra:
    """Independent truncation order per generator: x_i^(r_i+1) = 0."""
    if not orders or any(r < 1 for r in orders):
        raise BadParameter("mixed algebra needs orders >= 1")
    gens = tuple("x%d" % (i + 1) for i in range(len(orders)))
    rels = [Monomial.of([(i, r + 1)]) for i, r in enumerate(orders)]
    return present_algebra(gens, rels, name="mixed(%s)" % ",".join(map(str, orders)))


def _generator_names(n: int) -> tuple:
    if n == 1:
        return ("x",)
    if n <= 3:
        return tuple("xyz"[:n])
    return tuple("x%d" % (i + 1) for i in range(n))


# ---------------------------------------------------------------------------
# tensor product


def pair_index(i: int, j: int, dim2: int) -> int:
    """Basis index of (b1_i, b2_j) in a tensor product algebra."""
    return i * dim2 + j


# How many recent factor pairs tensor keeps.  The cache is keyed by the
# identity of the factors, never by their value: a copy with a corrupted
# table compares equal to the original and must get its own product.  Each
# entry holds its factors, so their ids are not reused while it is cached.
_TENSOR_CACHE_SIZE = 16
_tensor_cache: dict = {}


def tensor(w1: WeilAlgebra, w2: WeilAlgebra) -> TensorProduct:
    """Tensor product with basis the ordered pairs of bases.

    Pair (i, j) sits at index ``i * dim2 + j``, so index 0 is the unit.
    Generators are renamed with _1/_2 suffixes to keep them distinct.  The
    two inclusions w -> w (x) 1 and w -> 1 (x) w come back as morphisms.
    The same two factor objects give the same product object while the pair
    is among the most recently used.  Raises SizeLimit when the product of
    the factors' table sizes exceeds :data:`MAX_TABLE_SIZE`.
    """
    key = (id(w1), id(w2))
    entry = _tensor_cache.pop(key, None)
    if entry is None:
        entry = (w1, w2, _build_tensor(w1, w2))
        if len(_tensor_cache) >= _TENSOR_CACHE_SIZE:
            del _tensor_cache[next(iter(_tensor_cache))]
    _tensor_cache[key] = entry
    return entry[2]


def _build_tensor(w1: WeilAlgebra, w2: WeilAlgebra) -> TensorProduct:
    _check_table_size(math.prod(sum(map(len, w.struct.rows)) // 3 for w in (w1, w2)),
                      "%s(x)%s" % (w1.name, w2.name))
    offset = len(w1.generator_names)
    gens = tuple(g + "_1" for g in w1.generator_names) + tuple(
        g + "_2" for g in w2.generator_names
    )
    vanishing = tuple(w1.vanishing) + tuple(v.shift(offset) for v in w2.vanishing)
    basis = tuple(
        m1 * m2.shift(offset) for m1 in w1.basis for m2 in w2.basis
    )
    index = {m: i for i, m in enumerate(basis)}
    d2 = w2.dim

    triples1 = [_triples(row) for row in w1.struct.rows]
    triples2 = [_triples(row) for row in w2.struct.rows]
    rows = []
    for row1 in triples1:
        for row2 in triples2:
            terms = [
                (pair_index(j1, j2, d2), pair_index(k1, k2, d2),
                 ONE if c1 is ONE and c2 is ONE else _unit(c1 * c2))
                for j1, k1, c1 in row1 for j2, k2, c2 in row2
            ]
            # Stable: the terms of one product keep the factors' term order.
            terms.sort(key=operator.itemgetter(0))
            rows.append(terms)

    algebra = WeilAlgebra(
        name="%s(x)%s" % (w1.name, w2.name),
        generator_names=gens,
        vanishing=vanishing,
        basis=basis,
        dim=w1.dim * w2.dim,
        struct=ProductTable(rows),
        nilpotency_index=w1.nilpotency_index + w2.nilpotency_index - 1,
        _index=index,
    )

    zero = Fraction(0)
    m1 = [[zero] * w1.dim for _ in range(algebra.dim)]
    for i in range(w1.dim):
        m1[pair_index(i, 0, d2)][i] = ONE
    m2 = [[zero] * w2.dim for _ in range(algebra.dim)]
    for j in range(w2.dim):
        m2[pair_index(0, j, d2)][j] = ONE
    incl1 = WeilMorphism(w1, algebra, tuple(tuple(r) for r in m1))
    incl2 = WeilMorphism(w2, algebra, tuple(tuple(r) for r in m2))
    return TensorProduct(algebra, incl1, incl2)


# ---------------------------------------------------------------------------
# morphisms


def identity_morphism(w: WeilAlgebra) -> WeilMorphism:
    rows = tuple(
        tuple(ONE if i == j else Fraction(0) for j in range(w.dim)) for i in range(w.dim)
    )
    return WeilMorphism(w, w, rows)


def compose_morphisms(phi: WeilMorphism, psi: WeilMorphism) -> WeilMorphism:
    """psi after phi; phi's target must be psi's source."""
    if phi.target != psi.source:
        raise SourceTargetMismatch(
            "cannot compose %s -> %s with %s -> %s"
            % (phi.source.name, phi.target.name, psi.source.name, psi.target.name)
        )
    rows = []
    for t in range(psi.target.dim):
        row = []
        for s in range(phi.source.dim):
            acc = Fraction(0)
            for m in range(psi.source.dim):
                a, b = psi.matrix[t][m], phi.matrix[m][s]
                if a and b:
                    acc = acc + a * b
            row.append(acc)
        rows.append(tuple(row))
    return WeilMorphism(phi.source, psi.target, tuple(rows))


def canonical_morphisms(w: WeilAlgebra):
    """The constant-term projection w -> k and the unit embedding k -> w."""
    k = base_algebra()
    aug = WeilMorphism(w, k, (tuple(ONE if s == 0 else Fraction(0) for s in range(w.dim)),))
    unit = WeilMorphism(k, w, tuple((ONE,) if t == 0 else (Fraction(0),) for t in range(w.dim)))
    return aug, unit


def morphism_from_generator_images(w1: WeilAlgebra, w2: WeilAlgebra, images) -> WeilMorphism:
    """Extend generator images multiplicatively to an algebra morphism w1 -> w2.

    Each image must lie in the maximal ideal of w2 (zero constant term);
    every vanishing monomial of w1 must map to zero, otherwise the map is
    not well defined and the offending relation is reported.
    """
    vecs = [_coeff_vector(w2, img) for img in images]
    if len(vecs) != len(w1.generator_names):
        raise BadParameter(
            "expected %d generator images, got %d" % (len(w1.generator_names), len(vecs))
        )
    for g, v in zip(w1.generator_names, vecs):
        if v[0]:
            raise AugmentationViolation(
                "image of generator %r has nonzero constant term %s" % (g, v[0])
            )

    one = tuple(ONE if i == 0 else Fraction(0) for i in range(w2.dim))
    cache = {Monomial.of([]): one}

    def image_of(m: Monomial):
        if m in cache:
            return cache[m]
        i, e = m.exps[0]
        rest = Monomial.of(m.exps[1:]) if e == 1 else Monomial.of(((i, e - 1),) + m.exps[1:])
        out = w2.mul_coeffs(vecs[i], image_of(rest))
        cache[m] = out
        return out

    for v in w1.vanishing:
        img = image_of(v)
        if not w2.is_zero_coeffs(img):
            raise NotWellDefined(
                "relation %s has nonzero image in %s"
                % (v.label(w1.generator_names), w2.name),
                witness={"relation": v.label(w1.generator_names), "image": img},
            )

    cols = [image_of(m) for m in w1.basis]
    rows = tuple(tuple(cols[s][t] for s in range(w1.dim)) for t in range(w2.dim))
    phi = WeilMorphism(w1, w2, rows)
    rep = validate_morphism(phi)
    if not rep.passed:
        raise NotWellDefined("generator images do not extend multiplicatively",
                             witness=[c.name for c in rep.failures()])
    return phi


def tensor_of_morphisms(phi: WeilMorphism, psi: WeilMorphism) -> WeilMorphism:
    """Kronecker product on the pair bases: (phi (x) psi)(a (x) b) = phi(a) (x) psi(b)."""
    src = tensor(phi.source, psi.source).algebra
    tgt = tensor(phi.target, psi.target).algebra
    d2s, d2t = psi.source.dim, psi.target.dim
    rows = []
    for t in range(tgt.dim):
        t1, t2 = divmod(t, d2t)
        row = []
        for s in range(src.dim):
            s1, s2 = divmod(s, d2s)
            row.append(phi.matrix[t1][s1] * psi.matrix[t2][s2])
        rows.append(tuple(row))
    return WeilMorphism(src, tgt, tuple(rows))


def _coeff_vector(w: WeilAlgebra, image) -> tuple:
    coeffs = getattr(image, "coeffs", None)
    if coeffs is None:
        coeffs = tuple(image)
    else:
        if getattr(image, "algebra", None) != w:
            raise AlgebraMismatch("generator image is not an element of %s" % w.name)
    if len(coeffs) != w.dim:
        raise AlgebraMismatch("image vector has length %d, need %d" % (len(coeffs), w.dim))
    return tuple(Fraction(c) if isinstance(c, int) else c for c in coeffs)


# ---------------------------------------------------------------------------
# validation


def validate_algebra(w: WeilAlgebra) -> Report:
    """Exhaustive commutativity / associativity / unit / nilpotency checks.

    Failures are reported with a witness tuple of basis labels, never thrown:
    this is the detector for corrupted multiplication tables.
    """
    rep = Report("algebra %s" % w.name)
    labels = w.basis_labels()
    rep.add("basis starts with the unit monomial", w.basis[0].is_unit())
    rep.add("dimension matches basis length", w.dim == len(w.basis))

    rep.add_first("monomial table has at most one unit-coefficient term", (
        {"entry": key, "terms": terms}
        for key, terms in w.struct.items() if len(terms) > 1 or any(c != 1 for _, c in terms)
    ))
    rep.add_first("unit element is neutral", (
        {"pair": (labels[0], labels[i])}
        for i in range(w.dim) if w.struct[(0, i)] != ((i, ONE),) or w.struct[(i, 0)] != ((i, ONE),)
    ))
    rep.add_first("multiplication is commutative", (
        {"pair": (labels[i], labels[j])}
        for i in range(w.dim) for j in range(i + 1, w.dim)
        if sorted(w.struct[(i, j)]) != sorted(w.struct[(j, i)])
    ))
    rep.add_first("multiplication is associative", (
        {"triple": (labels[i], labels[j], labels[k])}
        for i in range(w.dim) for j in range(w.dim) for k in range(w.dim)
        if _combine(w, w.struct[(i, j)], k, right=True)
        != _combine(w, w.struct[(j, k)], i, right=False)
    ))

    r = w.nilpotency_index

    def non_nilpotent():
        for i in range(1, w.dim):
            power = {i: ONE}
            for _ in range(r - 1):
                power = _sparse_mul(w, power, {i: ONE})
            if _sparse_mul(w, power, {i: ONE}):
                yield {"element": labels[i], "power": r}

    rep.add_first("non-unit basis elements are nilpotent at the stated index", non_nilpotent())

    def surviving_products(length):
        if w.dim > 1:
            for combo in itertools.combinations_with_replacement(range(1, w.dim), length):
                acc = {combo[0]: ONE}
                for idx in combo[1:]:
                    acc = _sparse_mul(w, acc, {idx: ONE})
                    if not acc:
                        break
                if acc:
                    yield combo

    rep.add_first("every product of nilpotency-index many non-unit elements vanishes", (
        {"product": tuple(labels[c] for c in combo)} for combo in surviving_products(r)
    ))
    minimal = r == 1 or next(surviving_products(r - 1), None) is not None
    rep.add("the nilpotency index is minimal", minimal, {"index": r})
    return rep


def validate_morphism(phi: WeilMorphism) -> Report:
    """Unit, multiplicativity and constant-term checks for a basis matrix."""
    rep = Report("morphism %s -> %s" % (phi.source.name, phi.target.name))
    src, tgt = phi.source, phi.target
    shape_ok = len(phi.matrix) == tgt.dim and all(len(r) == src.dim for r in phi.matrix)
    rep.add("matrix shape", shape_ok)
    if not shape_ok:
        return rep

    unit_col = phi.column(0)
    rep.add(
        "unit maps to unit",
        unit_col[0] == 1 and not any(unit_col[1:]),
        {"column": unit_col},
    )

    aug_row = phi.matrix[0]
    rep.add(
        "constant term of an image is the constant term of the argument",
        aug_row[0] == 1 and not any(aug_row[1:]),
        {"row": aug_row},
    )

    labels = src.basis_labels()
    cols = [phi.column(s) for s in range(src.dim)]

    def unmultiplicative():
        for i in range(src.dim):
            for j in range(i, src.dim):
                direct = tgt.mul_coeffs(cols[i], cols[j])
                via_table = [Fraction(0)] * tgt.dim
                for k, c in src.struct[(i, j)]:
                    for t in range(tgt.dim):
                        if cols[k][t]:
                            via_table[t] += c * cols[k][t]
                if tuple(via_table) != tuple(direct):
                    yield {"pair": (labels[i], labels[j])}

    rep.add_first("images multiply like their arguments", unmultiplicative())
    return rep


def _combine(w, terms, other, right: bool):
    out = {}
    for k, c in terms:
        key = (k, other) if right else (other, k)
        for k2, c2 in w.struct[key]:
            out[k2] = out.get(k2, Fraction(0)) + c * c2
    return {k: v for k, v in out.items() if v}


def _sparse_mul(w, a: dict, b: dict) -> dict:
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            for k, c in w.struct[(i, j)]:
                out[k] = out.get(k, Fraction(0)) + ai * bj * c
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# text format


def parse_monomial_text(text: str, gen_index: dict) -> Monomial:
    """Parse ``x^2*y`` against a generator-name table."""
    pairs = []
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise BadParameter("empty factor in monomial %r" % text)
        if "^" in factor:
            name, _, exp = factor.partition("^")
            try:
                e = int(exp)
            except ValueError:
                raise BadParameter("bad exponent in %r" % factor) from None
        else:
            name, e = factor, 1
        name = name.strip()
        if name not in gen_index:
            raise BadParameter("unknown generator %r in monomial %r" % (name, text))
        if e < 1:
            raise BadParameter("exponent must be >= 1 in %r" % factor)
        pairs.append((gen_index[name], e))
    return Monomial.of(pairs)


def parse_algebra_text(text: str) -> WeilAlgebra:
    """Parse the one-algebra-per-file text format.

    Line 1: ``algebra <name>``; line 2: ``gens <g1> <g2> ...`` (possibly
    empty); then ``rel <monomial>`` lines with ``*``-separated powers such as
    ``rel x^2*y``.  Blank lines and ``#`` comments are ignored.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not lines[0].startswith("algebra"):
        raise BadParameter("algebra file must start with 'algebra <name>'")
    name = lines[0][len("algebra"):].strip()
    if not name:
        raise BadParameter("missing algebra name")
    if len(lines) < 2 or not lines[1].startswith("gens"):
        raise BadParameter("second line must be 'gens <g1> <g2> ...'")
    gens = tuple(lines[1][len("gens"):].split())
    gen_index = {g: i for i, g in enumerate(gens)}
    rels = []
    for ln in lines[2:]:
        if not ln.startswith("rel"):
            raise BadParameter("unexpected line %r in algebra file" % ln)
        rels.append(parse_monomial_text(ln[len("rel"):].strip(), gen_index))
    return present_algebra(gens, rels, name=name)


_BUILTIN_RE = re.compile(r"^(base|dual:\d+|jet:\d+|mixed:\d+(,\d+)*)$")


def algebra_from_spec(spec: str) -> WeilAlgebra:
    """Resolve a builtin name (``base``, ``dual:2``, ``jet:3``, ``mixed:1,2``) or a file path."""
    spec = spec.strip()
    if _BUILTIN_RE.match(spec):
        if spec == "base":
            return base_algebra()
        kind, _, args = spec.partition(":")
        if kind == "dual":
            return dual_algebra(int(args))
        if kind == "jet":
            return jet_algebra(int(args))
        if kind == "mixed":
            return mixed_algebra(*(int(a) for a in args.split(",")))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_algebra_text(fh.read())
    except OSError as exc:
        raise BadParameter("not a builtin algebra and not a readable file: %r (%s)" % (spec, exc)) from None


def algebra_info(w: WeilAlgebra) -> dict:
    """Machine-readable summary used by the command-line front end."""
    table = {}
    labels = w.basis_labels()
    for (i, j), terms in sorted(w.struct.items()):
        if i > j:
            continue
        table["%s * %s" % (labels[i], labels[j])] = (
            " + ".join(labels[k] for k, _ in terms) if terms else "0"
        )
    return {
        "name": w.name,
        "generators": list(w.generator_names),
        "relations": [v.label(w.generator_names) for v in w.vanishing],
        "dim": w.dim,
        "basis": list(labels),
        "nilpotency_index": w.nilpotency_index,
        "multiplication": table,
    }
