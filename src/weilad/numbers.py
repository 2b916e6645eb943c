"""Elements of R (x) W: coefficient vectors over a finite monomial basis.

A :class:`WeilNumber` generalizes a dual number.  Its constant term is the
"real part" (the augmentation); everything else is nilpotent, which is what
makes truncated Taylor evaluation exact rather than approximate.

Coefficients are usually Fractions or floats, but they may themselves be
WeilNumbers over another algebra: that instantiation gives nested evaluation
(numbers whose coefficients are numbers), the independent second route for
the tensor-composition law.  Because the same algebra can appear at both
levels, multiplying by a coefficient-level scalar is done with the explicit
:meth:`WeilNumber.scale`, never with ``*``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .algebra import WeilAlgebra, WeilMorphism
from .errors import AlgebraMismatch, NotAUnit, ScalarModeMismatch


@dataclass(frozen=True, eq=False, repr=False)
class WeilNumber:
    algebra: WeilAlgebra
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise AlgebraMismatch(
                "coefficient vector of length %d does not fit %s (dim %d)"
                % (len(self.coeffs), self.algebra.name, self.algebra.dim)
            )

    # -- structure ---------------------------------------------------------

    @property
    def scalar_mode(self) -> str:
        return scalars.mode_of(self.coeffs[0])

    @property
    def augmentation(self):
        return self.coeffs[0]

    def nilpotent_part(self) -> "WeilNumber":
        return WeilNumber(self.algebra, (self.coeffs[0] * 0,) + self.coeffs[1:])

    def ring_one(self) -> "WeilNumber":
        z = zero_like(self.coeffs[0])
        return WeilNumber(self.algebra, (one_like(self.coeffs[0]),) + (z,) * (self.algebra.dim - 1))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, WeilNumber):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "WeilNumber"):
        if self.algebra != other.algebra:
            raise AlgebraMismatch(
                "cannot combine elements of %s and %s" % (self.algebra.name, other.algebra.name)
            )
        if self.scalar_mode != other.scalar_mode:
            raise ScalarModeMismatch(
                "cannot combine %s and %s coefficients" % (self.scalar_mode, other.scalar_mode)
            )

    def __add__(self, other):
        if not isinstance(other, WeilNumber):
            return NotImplemented
        self._check(other)
        return WeilNumber(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, WeilNumber):
            return NotImplemented
        self._check(other)
        return WeilNumber(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return WeilNumber(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, WeilNumber):
            self._check(other)
            return WeilNumber(self.algebra, self.algebra.mul_coeffs(self.coeffs, other.coeffs))
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, WeilNumber):
            return self * invert(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(other))
        if isinstance(other, float):
            return self.scale(1.0 / other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n)

    def scale(self, s) -> "WeilNumber":
        """Multiply every coefficient by a coefficient-level scalar.

        ``s`` may be an int, Fraction, float, or a WeilNumber over the
        coefficient algebra (nested case).  Floats are rejected on rational
        vectors; exact scalars are always allowed.
        """
        if isinstance(s, float) and self.scalar_mode == scalars.RATIONAL:
            raise ScalarModeMismatch("refusing to scale a rational vector by a float")
        if isinstance(s, WeilNumber):
            return WeilNumber(self.algebra, tuple(c * s for c in self.coeffs))
        return WeilNumber(self.algebra, tuple(s * c for c in self.coeffs))

    def plus_scalar(self, s) -> "WeilNumber":
        """Add a coefficient-level scalar to the constant term."""
        return WeilNumber(self.algebra, (self.coeffs[0] + s,) + self.coeffs[1:])

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return "WeilNumber(%s, %s)" % (self.algebra.name, self.format())

    def format(self) -> str:
        labels = self.algebra.basis_labels()
        parts = []
        for c, label in zip(self.coeffs, labels):
            if isinstance(c, WeilNumber):
                text = "(%s)" % c.format()
            else:
                if not c:
                    continue
                text = scalars.format_scalar(c)
            parts.append(text if label == "1" else "%s*%s" % (text, label))
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# constructors


def number(algebra: WeilAlgebra, coeffs, mode: str | None = None) -> WeilNumber:
    """Wrap a coefficient sequence, normalizing ints and optionally converting mode."""
    vals = list(coeffs)
    if mode is not None:
        vals = [scalars.convert(v, mode) if not isinstance(v, WeilNumber) else v for v in vals]
    else:
        vals = [Fraction(v) if isinstance(v, int) else v for v in vals]
    return WeilNumber(algebra, tuple(vals))


def constant(algebra: WeilAlgebra, value) -> WeilNumber:
    if isinstance(value, int):
        value = Fraction(value)
    zero = zero_like(value)
    return WeilNumber(algebra, (value,) + (zero,) * (algebra.dim - 1))


def generator(algebra: WeilAlgebra, index: int, mode: str = scalars.RATIONAL) -> WeilNumber:
    """The generator as an element; zero when the relations kill it."""
    coeffs = algebra.generator_coeffs(index)
    if mode == scalars.FLOAT:
        coeffs = tuple(float(c) for c in coeffs)
    return WeilNumber(algebra, coeffs)


def variable(algebra: WeilAlgebra, index: int, at) -> WeilNumber:
    """The seed ``at + generator``: the input that makes evaluation carry derivatives."""
    if isinstance(at, int):
        at = Fraction(at)
    g = generator(algebra, index, scalars.mode_of(at))
    return g.plus_scalar(at)


def zero_like(s):
    if isinstance(s, WeilNumber):
        return WeilNumber(s.algebra, (zero_like(s.coeffs[0]),) * s.algebra.dim)
    return s * 0


def one_like(s):
    if isinstance(s, WeilNumber):
        return s.ring_one()
    if isinstance(s, float):
        return 1.0
    return Fraction(1)


def scalar_like(value: Fraction, template):
    """Inject an exact constant into the scalar type of ``template``."""
    if isinstance(template, WeilNumber):
        return template.ring_one().scale(scalar_like(value, template.coeffs[0]))
    if isinstance(template, float):
        return float(value)
    return Fraction(value)


# ---------------------------------------------------------------------------
# inversion and pushforward


def geometric(start, ratio, count: int) -> list:
    """[start, start*ratio, ..., start*ratio^(count-1)]."""
    out = []
    for _ in range(count):
        out.append(out[-1] * ratio if out else start)
    return out


def compose(x: WeilNumber, coeffs) -> WeilNumber:
    """sum_k coeffs[k] * n^k over the nilpotent part n of ``x``; coeffs[k] may be elements (nested).

    n^k = n^(k-1) * n keeps the earlier power as the kernel's row operand, so its zero rows
    below degree k are skipped: about r^3/6 products on jet(r), against r^3/2 for Horner.
    """
    n = x.nilpotent_part().coeffs
    out = [coeffs[0]] + [n[0]] * (len(n) - 1)
    powers = itertools.accumulate(
        itertools.repeat(n, len(coeffs) - 2), x.algebra.mul_coeffs, initial=n)
    for c, term in zip(coeffs[1:], powers):
        for i, t in enumerate(term):
            if t:
                out[i] = out[i] + c * t
    return WeilNumber(x.algebra, tuple(out))


def invert(x: WeilNumber) -> WeilNumber:
    """Exact inverse of a unit: sum_{k < r} (-1)^k n^k / a^(k+1) for the constant term a and
    the nilpotent part n, truncated losslessly at the nilpotency index r."""
    a = x.augmentation
    if not a:
        raise NotAUnit("constant term is zero; element has no inverse")
    u = reciprocal(a)
    return compose(x, geometric(u, -u, x.algebra.nilpotency_index))


def power(a, n: int):
    """a**n for a unit element or a scalar, by square-and-multiply.

    Takes O(log |n|) multiplications; a negative ``n`` inverts ``a`` first.
    """
    if n < 0:
        return power(reciprocal(a), -n)
    out = one_like(a)
    while n:
        if n & 1:
            out = out * a
        n >>= 1
        if n:
            a = a * a
    return out


def reciprocal(a):
    """1/a for a unit element or a scalar; integers give exact Fractions."""
    if isinstance(a, WeilNumber):
        return invert(a)
    if isinstance(a, Fraction):
        return Fraction(1, 1) / a
    if isinstance(a, int):
        return Fraction(1, a)
    return 1.0 / a


def push_along(phi: WeilMorphism, x: WeilNumber) -> WeilNumber:
    """Apply an algebra morphism to a coefficient vector (a ring homomorphism)."""
    if x.algebra != phi.source:
        raise AlgebraMismatch(
            "element lives over %s, morphism starts at %s" % (x.algebra.name, phi.source.name)
        )
    return WeilNumber(phi.target, phi.apply(x.coeffs))
