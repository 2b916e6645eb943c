"""Smooth one-argument primitives and their Taylor-coefficient recurrences.

Each primitive produces the Taylor coefficients f(a), f'(a)/1!, ...,
f^(k)(a)/k! at a point ``a``.  The point may itself be an element of an
algebra (nested evaluation), so every rule uses only ring operations and
division by integers: closed forms for exp, sin, cos, log, sqrt, recip and
integer powers, and the series recurrences of Griewank & Walther
(*Evaluating Derivatives*, 2nd ed., ch. 13) for tan, tanh and atan.

Transcendental primitives exist only in float mode; ``recip`` and integer
powers work exactly on rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from .errors import DomainError, UnsupportedInRationalMode
from .numbers import WeilNumber, compose, geometric, power, reciprocal, scalar_like, zero_like


class Primitive:
    name = "?"
    rational_ok = False

    def scalar_value(self, a, *params):
        raise NotImplementedError

    def check_domain(self, a, *params):
        pass

    def taylor(self, a, count, *params):
        """Return [f(a), f'(a)/1!, ..., f^(count-1)(a)/(count-1)!]."""
        raise NotImplementedError

    def __repr__(self):
        return "Primitive(%s)" % self.name


def apply_primitive(p: Primitive, x, *params):
    """Evaluate a primitive on an algebra element by exact truncated Taylor expansion.

    f(a + n) = sum_{i < r} f^(i)(a)/i! * n^i with r the nilpotency index, summed
    by :func:`~weilad.numbers.compose`; the truncation loses nothing because
    n^r = 0.  Plain scalars evaluate directly.
    """
    if not isinstance(x, WeilNumber):
        _check_scalar(p, x, *params)
        return _scalar_value(p, x, *params)

    a = x.augmentation
    if not isinstance(a, WeilNumber):
        _check_scalar(p, a, *params)

    return compose(x, p.taylor(a, x.algebra.nilpotency_index, *params))


def _check_scalar(p: Primitive, a, *params):
    if scalars.mode_of(a) == scalars.RATIONAL and not p.rational_ok:
        raise UnsupportedInRationalMode(
            "%s has no exact rational values; use float mode" % p.name
        )
    p.check_domain(a, *params)


def _scalar_value(p: Primitive, a, *params):
    """``p`` at a scalar; a math range or domain error becomes a DomainError."""
    try:
        return p.scalar_value(a, *params)
    except (OverflowError, ValueError) as exc:
        raise DomainError("%s has no finite value at %s (%s)" % (p.name, a, exc)) from None


def _scale(value, frac: Fraction):
    if isinstance(value, WeilNumber):
        return value.scale(frac)
    return frac * value


def _value(p: Primitive, a, *params):
    if isinstance(a, WeilNumber):
        return apply_primitive(p, a, *params)
    return _scalar_value(p, a, *params)


def _add_const(v, c: int):
    if isinstance(v, WeilNumber):
        return v.plus_scalar(scalar_like(Fraction(c), v.coeffs[0]))
    return v + c


def _over_factorials(derivs):
    """Divide the k-th entry by k!: closed-form derivatives to Taylor coefficients."""
    out, fact = [], 1
    for k, d in enumerate(derivs):
        fact *= max(k, 1)
        out.append(_scale(d, Fraction(1, fact)))
    return out


def _antiderivative(value, coeffs) -> list:
    """Taylor coefficients of F from F(a) = ``value`` and those of F': F_k = coeffs[k-1]/k."""
    return [value] + [_scale(c, Fraction(1, k)) for k, c in enumerate(coeffs, 1)]


def _one_plus_square(y0, count: int, sign: int) -> list:
    """Taylor coefficients of y with y' = 1 + sign*y^2 and y(a) = y0 (tan: +1, tanh: -1).

    (k+1) y_{k+1} = [k = 0] + sign * sum_{i+j=k} y_i y_j, written as
    sign * ([k = 0] sign + sum) because sign^2 = 1; the sum pairs y_i y_j
    with y_j y_i, so step k costs about k/2 products.
    """
    y = [y0]
    for k in range(count - 1):
        acc = zero_like(y0)
        for i in range((k + 1) // 2):
            acc = acc + y[i] * y[k - i]
        acc = acc + acc
        if k % 2 == 0:
            acc = acc + y[k // 2] * y[k // 2]
        if k == 0:
            acc = _add_const(acc, sign)
        y.append(_scale(acc, Fraction(sign, k + 1)))
    return y


class _Exp(Primitive):
    name = "exp"

    def scalar_value(self, a):
        return math.exp(a)

    def taylor(self, a, count):
        return _over_factorials([_value(self, a)] * count)


class _Log(Primitive):
    """log' = recip, so the k-th coefficient is (-1)^(k+1) / (k a^k)."""

    name = "log"

    def scalar_value(self, a):
        return math.log(a)

    def check_domain(self, a):
        if a <= 0:
            raise DomainError("log needs a positive constant term, got %s" % (a,))

    def taylor(self, a, count):
        return _antiderivative(_value(self, a), RECIP.taylor(a, count - 1))


class _Sin(Primitive):
    name = "sin"

    def scalar_value(self, a):
        return math.sin(a)

    def taylor(self, a, count):
        s, c = _value(self, a), _value(COS, a)
        return _over_factorials([s, c, -s, -c][k % 4] for k in range(count))


class _Cos(Primitive):
    name = "cos"

    def scalar_value(self, a):
        return math.cos(a)

    def taylor(self, a, count):
        s, c = _value(SIN, a), _value(self, a)
        return _over_factorials([c, -s, -c, s][k % 4] for k in range(count))


class _Sqrt(Primitive):
    """sqrt(a + h) = sqrt(a) * sum_k binom(1/2, k) (h/a)^k."""

    name = "sqrt"

    def scalar_value(self, a):
        return math.sqrt(a)

    def check_domain(self, a):
        if a <= 0:
            raise DomainError("sqrt needs a positive constant term, got %s" % (a,))

    def taylor(self, a, count):
        out, binom = [], Fraction(1)
        for k, p in enumerate(geometric(_value(self, a), reciprocal(a), count)):
            out.append(_scale(p, binom))
            binom *= (Fraction(1, 2) - k) / (k + 1)
        return out


class _Tan(Primitive):
    name = "tan"

    def scalar_value(self, a):
        return math.tan(a)

    def taylor(self, a, count):
        return _one_plus_square(_value(self, a), count, 1)


class _Tanh(Primitive):
    name = "tanh"

    def scalar_value(self, a):
        return math.tanh(a)

    def taylor(self, a, count):
        return _one_plus_square(_value(self, a), count, -1)


class _Atan(Primitive):
    """atan' = 1/(1 + (a+h)^2) = sum_k u_k h^k with d u_k = -(2a u_{k-1} + u_{k-2}), d = 1 + a^2."""

    name = "atan"

    def scalar_value(self, a):
        return math.atan(a)

    def taylor(self, a, count):
        inv_d = reciprocal(_add_const(a * a, 1))
        u = [zero_like(a), inv_d]
        while len(u) < count:
            u.append(-((a + a) * u[-1] + u[-2]) * inv_d)
        return _antiderivative(_value(self, a), u[1:count])


class _Recip(Primitive):
    """1/(a + h) = sum_k (-1)^k h^k / a^(k+1)."""

    name = "recip"
    rational_ok = True

    def scalar_value(self, a):
        return reciprocal(a)

    def check_domain(self, a):
        if not a:
            raise DomainError("recip needs a nonzero constant term")

    def taylor(self, a, count):
        u = reciprocal(a)
        return geometric(u, -u, count)


class _PowInt(Primitive):
    """Integer power with the exponent as a constant parameter: coefficients binom(n, k) a^(n-k)."""

    name = "pow_int"
    rational_ok = True

    def scalar_value(self, a, n):
        if n < 0 and not a:
            raise DomainError("negative power of zero")
        if isinstance(a, Fraction):
            return a ** n
        return float(a) ** n

    def check_domain(self, a, n):
        if n < 0 and not a:
            raise DomainError("negative power needs a nonzero constant term")

    def taylor(self, a, count, n):
        out, binom = [], 1
        for k in range(count):
            out.append(_scale(power(a, n - k), Fraction(binom)) if binom else zero_like(a))
            binom = binom * (n - k) // (k + 1)
        return out


EXP = _Exp()
LOG = _Log()
SIN = _Sin()
COS = _Cos()
SQRT = _Sqrt()
TAN = _Tan()
TANH = _Tanh()
ATAN = _Atan()
RECIP = _Recip()
POW_INT = _PowInt()

PRIMITIVES = {
    p.name: p for p in (EXP, LOG, SIN, COS, SQRT, TAN, TANH, ATAN, RECIP)
}
