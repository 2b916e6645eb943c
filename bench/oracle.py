"""Independent oracles for the numeric workloads.

Rational results are recomputed exactly with ``sympy.polys.ring_series``:
the expression DAG is evaluated over ``QQ[t1..tn]`` at ``a_i + t_i``, each
product truncated per variable.  Float results are compared against
``mpmath.taylor`` (univariate) and ``mpmath.diff`` (mixed partials) at
extended precision; the univariate tolerance is scaled by a majorant of the
series terms, so expressions whose terms cancel are not held to more digits
than double precision carries.  Neither oracle calls into weilad.
"""

from __future__ import annotations

import math
from fractions import Fraction

from exprgen import ScalarOps, evaluate

# Float results must agree with the high-precision oracle to FLOAT_RTOL of
# the magnitude they were summed from (see float_close), on derivatives up
# to these orders.  Over 1000 generated jet-taylor expressions the worst
# error relative to the majorant was 5e-12 at order 8, growing to 7e-10 at
# order 12; over 7596 partials-grid entries of total order <= 4 the worst
# error relative to max(|value|, e1!...en!) was 1.3e-14.  Higher orders are
# covered by the exact rational comparison and checked for finiteness.
FLOAT_RTOL = 1e-9
FLOAT_CHECK_ORDER = 8
FLOAT_CHECK_TOTAL_ORDER = 4
MP_DPS = 30


def _to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


class _SeriesOps:
    """Truncated power-series arithmetic over QQ[t1..tn]."""

    def __init__(self, orders):
        from sympy.polys.domains import QQ
        from sympy.polys.rings import ring

        names = ",".join("t%d" % i for i in range(len(orders)))
        self.ring, *self.gens = ring(names, QQ)
        self.orders = tuple(orders)
        self.total = sum(orders)
        self.QQ = QQ

    def const(self, c):
        return self.ring(self.QQ(c.numerator, c.denominator))

    def trunc(self, p):
        from sympy.polys.ring_series import rs_trunc

        for t, r in zip(self.gens, self.orders):
            p = rs_trunc(p, t, r + 1)
        return p

    def mul(self, a, b):
        if len(self.gens) == 1:
            from sympy.polys.ring_series import rs_mul

            return rs_mul(a, b, self.gens[0], self.orders[0] + 1)
        return self.trunc(a * b)

    def inv(self, a):
        if len(self.gens) == 1:
            from sympy.polys.ring_series import rs_series_inversion

            return rs_series_inversion(a, self.gens[0], self.orders[0] + 1)
        # Geometric series in the nilpotent part: lossless at total order.
        c0 = a.get(self.ring.zero_monom, self.QQ(0))
        step = self.const(Fraction(0)) - (a - c0) * self.QQ(1) / c0
        acc = self.ring.one
        term = self.ring.one
        for _ in range(self.total):
            term = self.mul(term, step)
            if not term:
                break
            acc = acc + term
        return acc * (self.QQ(1) / c0)

    def power(self, a, k):
        if k < 0:
            return self.power(self.inv(a), -k)
        out = self.ring.one
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def call(self, name, a):
        if name != "recip":
            raise ValueError("no exact series for %s" % name)
        return self.inv(a)


def exact_raw(nodes, point, orders) -> dict:
    """Raw Taylor coefficients {exponent tuple: Fraction} of an exact expression."""
    ops = _SeriesOps(orders)
    seeds = [ops.const(a) + t for a, t in zip(point, ops.gens)]
    series = evaluate(nodes, seeds, ops)[-1]
    return {tuple(m): _to_fraction(c) for m, c in series.items()}


def derivative_factor(exps) -> int:
    out = 1
    for e in exps:
        out *= math.factorial(e)
    return out


def exact_mismatch(nodes, point, orders, got: dict):
    """None if every derivative in ``got`` equals the oracle's, else a description.

    ``got`` maps exponent tuples to derivative-normalized values; monomials
    absent from the oracle are zero.
    """
    raw = exact_raw(nodes, point, orders)
    for exps, value in got.items():
        want = raw.get(exps, Fraction(0)) * derivative_factor(exps)
        if not isinstance(value, Fraction) or value != want:
            return "derivative %s: got %r, want %s" % (exps, value, want)
    extra = [e for e in raw if e not in got]
    if extra:
        return "oracle has monomials the result lacks: %s" % extra[:3]
    return None


def _mp_function(nodes):
    import mpmath

    ops = ScalarOps(lambda c: mpmath.mpf(c.numerator) / c.denominator, mpmath)
    return lambda *xs: evaluate(nodes, xs, ops)[-1]


class _Majorant:
    """The value at the point and a majorant of a truncated series.

    ``m[k]`` bounds the sum of the magnitudes of all terms that any
    evaluation by truncated series arithmetic adds up into the coefficient of
    order k, so rounding can move that coefficient by about ``eps * m[k]``
    even where the terms cancel.  Plain floats: only magnitudes matter.
    """

    __slots__ = ("v", "m")

    def __init__(self, v, m):
        self.v = v
        self.m = m

    def __add__(self, other):
        return _Majorant(self.v + other.v, [a + b for a, b in zip(self.m, other.m)])

    def __sub__(self, other):
        return _Majorant(self.v - other.v, [a + b for a, b in zip(self.m, other.m)])


def _convolve(a, b):
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def _compose(coeffs, x: _Majorant):
    """Majorant of sum_i coeffs[i] * (x - x.v)^i."""
    n = [0.0] + x.m[1:]
    out = [0.0] * len(x.m)
    power = [1.0] + [0.0] * (len(x.m) - 1)
    for c in coeffs:
        out = [o + abs(c) * p for o, p in zip(out, power)]
        power = _convolve(power, n)
    return out


class _MajorantOps:
    def __init__(self, order):
        import mpmath

        self.mp = mpmath
        self.order = order

    def const(self, c):
        return _Majorant(float(c), [abs(float(c))] + [0.0] * self.order)

    def mul(self, a, b):
        return _Majorant(a.v * b.v, _convolve(a.m, b.m))

    def inv(self, a):
        return _Majorant(1.0 / a.v, _compose([a.v ** -(i + 1) for i in range(self.order + 1)], a))

    def power(self, a, k):
        base = self.inv(a) if k < 0 else a
        out = self.const(Fraction(1))
        for _ in range(abs(k)):
            out = self.mul(out, base)
        return out

    def call(self, name, a):
        f = (lambda t: 1 / t) if name == "recip" else getattr(self.mp, name)
        coeffs = [float(c) for c in self.mp.taylor(f, self.mp.mpf(a.v), self.order)]
        return _Majorant(coeffs[0], _compose(coeffs, a))


def majorant(nodes, x0: float, order: int) -> list:
    """Derivative-normalized majorant of a univariate float expression."""
    ops = _MajorantOps(order)
    seed = _Majorant(x0, [abs(x0), 1.0] + [0.0] * (order - 1))
    m = evaluate(nodes, [seed], ops)[-1].m
    return [c * math.factorial(k) for k, c in enumerate(m)]


def float_close(got, want, scale) -> bool:
    """Agreement within FLOAT_RTOL of ``scale``, the magnitude the result was
    summed from, so cancellation does not demand more digits than a double
    carries."""
    return abs(got - want) <= FLOAT_RTOL * max(abs(want), scale)


def float_jet_mismatch(nodes, x0: float, got: list):
    """Compare derivative-normalized univariate values with mpmath.taylor.

    Every value must be finite; those up to FLOAT_CHECK_ORDER must agree
    relative to the expression's majorant, with k! as the floor for order k
    (where the majorant vanishes, rounding still leaves tiny nonzero values).
    """
    import mpmath

    bad = [k for k, g in enumerate(got) if not math.isfinite(g)]
    if bad:
        return "derivative %d is %r" % (bad[0], got[bad[0]])
    order = min(len(got) - 1, FLOAT_CHECK_ORDER)
    with mpmath.workdps(MP_DPS):
        want = mpmath.taylor(_mp_function(nodes), mpmath.mpf(x0), order)
    scale = majorant(nodes, x0, order)
    for k, (g, w) in enumerate(zip(got, want)):
        w = float(w * mpmath.factorial(k))
        if not float_close(g, w, max(scale[k], math.factorial(k))):
            return "derivative %d: got %r, want %r" % (k, g, w)
    return None


def float_partial_mismatch(nodes, point, exps, got: float):
    """Compare one derivative-normalized mixed partial with mpmath.diff.

    The magnitude floor is e1!*...*en!, so raw coefficients below one are
    compared absolutely.
    """
    import mpmath

    with mpmath.workdps(MP_DPS):
        want = float(mpmath.diff(_mp_function(nodes), [mpmath.mpf(a) for a in point], tuple(exps)))
    if not float_close(got, want, derivative_factor(exps)):
        return "partial %s: got %r, want %r" % (tuple(exps), got, want)
    return None
