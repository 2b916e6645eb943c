"""Lifting smooth maps to algebra elements, and reading derivatives back out.

Evaluating a map on seeds ``a_i + x_i`` over a truncation algebra carries
every mixed partial up to the truncation orders in one pass; :func:`jet` and
:func:`partials` package the extraction.  :func:`nest_iso` is the explicit
reindexing between an element of a tensor product and a number-over-numbers
nested form; :func:`fd_oracle` is the independent finite-difference check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .algebra import (
    WeilAlgebra,
    base_algebra,
    jet_algebra,
    pair_index,
    present_algebra,
    tensor,
)
from .errors import AlgebraMismatch, BadParameter, WeilError
from .expr import SmoothMap, evaluate
from .monomial import Monomial
from .numbers import WeilNumber, constant, invert, scalar_like, variable
from .primitives import apply_primitive


class _Semantics:
    """Expression operations shared by both evaluation routes; division is per route."""

    def binary(self, op, a, b):
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return self.divide(a, b)

    def call(self, prim, a):
        return apply_primitive(prim, a)


class _LiftedSemantics(_Semantics):
    """Expression operations on elements of a fixed algebra (possibly nested)."""

    def __init__(self, template: WeilNumber):
        self.template = template

    def const(self, value: Fraction):
        return scalar_like(value, self.template)

    def divide(self, a, b):
        return a * invert(b)

    def power(self, a, n: int):
        return a ** n


class _ScalarSemantics(_Semantics):
    """Plain evaluation on raw scalars; the independent route the lift must match."""

    def __init__(self, mode: str):
        self.mode = mode

    def const(self, value: Fraction):
        return float(value) if self.mode == scalars.FLOAT else Fraction(value)

    def divide(self, a, b):
        if not b:
            raise BadParameter("division by zero")
        return a / b

    def power(self, a, n: int):
        if n < 0 and not a:
            raise BadParameter("negative power of zero")
        return a ** n


def lift_eval(f: SmoothMap, w: WeilAlgebra, inputs, mode: str | None = None) -> list:
    """Evaluate ``f`` on elements of ``w``; over the base algebra this is plain evaluation.

    All inputs must live over ``w`` in one scalar mode.  Domain and unit
    errors from primitives propagate with the offending subexpression named.
    """
    vals = list(inputs)
    if len(vals) != f.arity:
        raise WeilError("map of arity %d got %d inputs" % (f.arity, len(vals)))
    for v in vals:
        if not isinstance(v, WeilNumber) or v.algebra != w:
            raise AlgebraMismatch("inputs must be elements of %s" % w.name)
    if vals:
        m = vals[0].scalar_mode
        if any(v.scalar_mode != m for v in vals):
            raise AlgebraMismatch("inputs mix scalar modes")
        template = vals[0]
    else:
        template = constant(w, scalars.convert(Fraction(0), mode or scalars.RATIONAL))
    return evaluate(f, vals, _LiftedSemantics(template))


def eval_map(f: SmoothMap, point, mode: str | None = None) -> list:
    """Evaluate on raw scalars (Fractions or floats)."""
    pt = [Fraction(p) if isinstance(p, int) else p for p in point]
    if mode is None:
        mode = scalars.mode_of(pt[0]) if pt else scalars.RATIONAL
    return evaluate(f, pt, _ScalarSemantics(mode))


# ---------------------------------------------------------------------------
# derivative extraction

RAW = "raw-coefficient"
DERIVATIVE = "derivative"


@dataclass(frozen=True)
class JetTable:
    """Taylor data of a map at a point.

    ``raw`` maps each basis monomial to the vector of output coefficients.
    The raw coefficient at x1^e1*...*xn^en is the mixed partial divided by
    e1!*...*en!; the ``derivative`` normalization multiplies the factorials
    back in.  The flag records which convention :meth:`value` uses.
    """

    algebra: WeilAlgebra
    base_point: tuple
    raw: dict
    normalization: str = DERIVATIVE
    n_outputs: int = 1

    def _monomial(self, exponents) -> Monomial:
        if isinstance(exponents, int):
            exponents = (exponents,)
        return Monomial.of(list(enumerate(exponents)))

    def raw_coefficient(self, exponents) -> tuple:
        m = self._monomial(exponents)
        zero = self.base_point[0] * 0 if self.base_point else Fraction(0)
        return self.raw.get(m, (zero,) * self.n_outputs)

    def derivative(self, exponents) -> tuple:
        m = self._monomial(exponents)
        factor = 1
        for _, e in m.exps:
            factor *= math.factorial(e)
        return tuple(factor * c for c in self.raw_coefficient(exponents))

    def value(self, exponents) -> tuple:
        if self.normalization == RAW:
            return self.raw_coefficient(exponents)
        return self.derivative(exponents)

    def series(self):
        """All entries in basis order, under the table's normalization."""
        out = []
        for m in self.algebra.basis:
            exps = tuple(m.exponent(i) for i in range(len(self.algebra.generator_names)))
            out.append((m.label(self.algebra.generator_names), self.value(exps)))
        return out


def jet(f: SmoothMap, at, order: int, normalization: str = DERIVATIVE) -> JetTable:
    """Taylor coefficients of a one-variable map up to ``order``."""
    if f.arity != 1:
        raise BadParameter("jet needs a one-variable map; use partials instead")
    if order < 0:
        raise BadParameter("order must be >= 0")
    if isinstance(at, int):
        at = Fraction(at)
    if order == 0:
        w = base_algebra()
        seed = constant(w, at)
    else:
        w = jet_algebra(order)
        seed = variable(w, 0, at)
    return _table(f, w, [seed], (at,), normalization)


def partials(f: SmoothMap, at, orders, normalization: str = DERIVATIVE) -> JetTable:
    """Mixed partials up to ``orders[i]`` in the i-th variable, all at once."""
    at = tuple(Fraction(a) if isinstance(a, int) else a for a in at)
    orders = tuple(orders)
    if len(at) != f.arity or len(orders) != f.arity:
        raise BadParameter("need one base coordinate and one order per variable")
    if any(o < 0 for o in orders):
        raise BadParameter("orders must be >= 0")
    gens = tuple("x%d" % (i + 1) for i in range(f.arity))
    rels = [Monomial.of([(i, o + 1)]) for i, o in enumerate(orders)]
    w = present_algebra(gens, rels, name="partials(%s)" % ",".join(map(str, orders)))
    seeds = [variable(w, i, a) for i, a in enumerate(at)]
    return _table(f, w, seeds, at, normalization)


def _table(f: SmoothMap, w: WeilAlgebra, seeds, at: tuple, normalization: str) -> JetTable:
    """Lift ``f`` to the seeds and read each output's coefficients by basis monomial."""
    results = lift_eval(f, w, seeds)
    raw = {m: tuple(r.coeffs[i] for r in results) for i, m in enumerate(w.basis)}
    return JetTable(w, at, raw, normalization, f.n_outputs)


# ---------------------------------------------------------------------------
# nesting


def nest_iso(w1: WeilAlgebra, w2: WeilAlgebra, value: WeilNumber) -> tuple:
    """Split an element of w1 (x) w2 into a w2-indexed vector of w1 elements.

    ``nest_iso(w1, w2, v)[j].coeffs[i]`` is the coefficient of the pair
    basis element (i, j).  Inverse: :func:`nest_iso_inv`; the round trip is
    the identity reindexing.
    """
    t = tensor(w1, w2).algebra
    if value.algebra != t:
        raise AlgebraMismatch("value is not an element of %s" % t.name)
    return tuple(
        WeilNumber(w1, tuple(value.coeffs[pair_index(i, j, w2.dim)] for i in range(w1.dim)))
        for j in range(w2.dim)
    )


def nest_iso_inv(w1: WeilAlgebra, w2: WeilAlgebra, nested) -> WeilNumber:
    t = tensor(w1, w2).algebra
    nested = tuple(nested)
    if len(nested) != w2.dim or any(n.algebra != w1 for n in nested):
        raise AlgebraMismatch("expected %d elements of %s" % (w2.dim, w1.name))
    coeffs = [None] * t.dim
    for j, n in enumerate(nested):
        for i in range(w1.dim):
            coeffs[pair_index(i, j, w2.dim)] = n.coeffs[i]
    return WeilNumber(t, tuple(coeffs))


def nested_inputs(w1: WeilAlgebra, w2: WeilAlgebra, values) -> list:
    """Repackage elements of w1 (x) w2 as w2-elements with w1-element coefficients."""
    return [WeilNumber(w2, nest_iso(w1, w2, v)) for v in values]


def flatten_nested(w1: WeilAlgebra, w2: WeilAlgebra, value: WeilNumber) -> WeilNumber:
    """Inverse of :func:`nested_inputs` for a single value."""
    return nest_iso_inv(w1, w2, value.coeffs)


# ---------------------------------------------------------------------------
# finite differences


def fd_oracle(f: SmoothMap, at, multi_index, h: float = 1e-3) -> float:
    """Central-difference estimate of one mixed partial, with one Richardson step.

    Independent of the algebra machinery on purpose: it only ever calls
    plain float evaluation.  Orders above total degree 4 drown in rounding
    noise and are rejected.
    """
    multi_index = tuple(multi_index)
    if len(multi_index) != f.arity:
        raise BadParameter("need one order per variable")
    if sum(multi_index) > 4:
        raise BadParameter("finite differences are unreliable past total order 4")
    base = tuple(float(a) for a in at)

    def estimate(step: float) -> float:
        points = [(base, 1.0)]
        for i, k in enumerate(multi_index):
            for _ in range(k):
                nxt = []
                for pt, wgt in points:
                    up = pt[:i] + (pt[i] + step,) + pt[i + 1:]
                    dn = pt[:i] + (pt[i] - step,) + pt[i + 1:]
                    nxt.append((up, wgt / (2 * step)))
                    nxt.append((dn, -wgt / (2 * step)))
                points = nxt
        return math.fsum(wgt * eval_map(f, pt, scalars.FLOAT)[0] for pt, wgt in points)

    d1 = estimate(h)
    d2 = estimate(h / 2)
    return (4 * d2 - d1) / 3
