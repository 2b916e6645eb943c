"""Smooth one-argument primitives and their derivative rules.

Each primitive can produce the list f(a), f'(a), ..., f^(k)(a) at a point
``a``.  The point may itself be an element of an algebra (nested evaluation),
so the rules are written against generic ring arithmetic: closed forms where
they exist (exp, sin, cos, log, sqrt, recip, integer powers) and derivative
polynomials for tan, tanh and atan.

Transcendental primitives exist only in float mode; ``recip`` and integer
powers work exactly on rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from .errors import DomainError, UnsupportedInRationalMode
from .numbers import WeilNumber, power, reciprocal, scalar_like, zero_like


class Primitive:
    name = "?"
    rational_ok = False

    def scalar_value(self, a, *params):
        raise NotImplementedError

    def check_domain(self, a, *params):
        pass

    def derivatives(self, a, count, *params):
        """Return [f(a), f'(a), ..., f^(count-1)(a)]."""
        raise NotImplementedError

    def __repr__(self):
        return "Primitive(%s)" % self.name


def apply_primitive(p: Primitive, x, *params):
    """Evaluate a primitive on an algebra element by exact truncated Taylor expansion.

    f(a + n) = sum_{i < r} f^(i)(a)/i! * n^i with r the nilpotency index;
    the truncation loses nothing because n^r = 0.  Plain scalars evaluate
    directly.
    """
    if not isinstance(x, WeilNumber):
        _check_scalar(p, x, *params)
        return _scalar_value(p, x, *params)

    a = x.augmentation
    if not isinstance(a, WeilNumber):
        _check_scalar(p, a, *params)

    r = x.algebra.nilpotency_index
    derivs = p.derivatives(a, r, *params)
    coeffs = []
    fact = 1
    for i, d in enumerate(derivs):
        if i:
            fact *= i
        coeffs.append(_scale(d, Fraction(1, fact)))

    n = x.nilpotent_part()
    acc = x.ring_zero().plus_scalar(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * n
        acc = acc.plus_scalar(c)
    return acc


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


def _poly_eval(coeffs, a):
    """Horner evaluation of an integer-coefficient polynomial at a generic point."""
    acc = zero_like(a)
    for c in reversed(coeffs):
        acc = acc * a
        acc = _add_const(acc, c)
    return acc


def _poly_derive(p):
    return [i * c for i, c in enumerate(p)][1:] or [0]

def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out

def _poly_add(p, q):
    n = max(len(p), len(q))
    p = p + [0] * (n - len(p))
    q = q + [0] * (n - len(q))
    return [a + b for a, b in zip(p, q)]

def _poly_scale(p, s):
    return [s * c for c in p]


class _Exp(Primitive):
    name = "exp"

    def scalar_value(self, a):
        return math.exp(a)

    def derivatives(self, a, count):
        v = _value(self, a)
        return [v] * count


class _Log(Primitive):
    name = "log"

    def scalar_value(self, a):
        return math.log(a)

    def check_domain(self, a):
        if a <= 0:
            raise DomainError("log needs a positive constant term, got %s" % (a,))

    def derivatives(self, a, count):
        out = [_value(self, a)]
        if count > 1:
            u = reciprocal(a)
            upow = u
            sign, fact = 1, 1
            for i in range(1, count):
                if i > 1:
                    sign = -sign
                    fact *= i - 1
                    upow = upow * u
                out.append(_scale(upow, Fraction(sign * fact)))
        return out


class _Sin(Primitive):
    name = "sin"

    def scalar_value(self, a):
        return math.sin(a)

    def derivatives(self, a, count):
        s = _value(self, a)
        c = _value(COS, a)
        cycle = [s, c, -s, -c]
        return [cycle[i % 4] for i in range(count)]


class _Cos(Primitive):
    name = "cos"

    def scalar_value(self, a):
        return math.cos(a)

    def derivatives(self, a, count):
        s = _value(SIN, a)
        c = _value(self, a)
        cycle = [c, -s, -c, s]
        return [cycle[i % 4] for i in range(count)]


class _Sqrt(Primitive):
    name = "sqrt"

    def scalar_value(self, a):
        return math.sqrt(a)

    def check_domain(self, a):
        if a <= 0:
            raise DomainError("sqrt needs a positive constant term, got %s" % (a,))

    def derivatives(self, a, count):
        v = _value(self, a)
        out = [v]
        if count > 1:
            u = reciprocal(a)
            cur = v
            coeff = Fraction(1)
            for i in range(1, count):
                coeff *= Fraction(1, 2) - (i - 1)
                cur = cur * u
                out.append(_scale(cur, coeff))
        return out


class _Tan(Primitive):
    """Derivatives of tan are integer polynomials in t = tan(a): P' * (1 + t^2)."""

    name = "tan"

    def scalar_value(self, a):
        return math.tan(a)

    def derivatives(self, a, count):
        t = _value(self, a)
        out = [t]
        poly = [0, 1]
        for _ in range(1, count):
            poly = _poly_mul(_poly_derive(poly), [1, 0, 1])
            out.append(_poly_eval(poly, t))
        return out


class _Tanh(Primitive):
    """Same recurrence as tan with the chain factor 1 - t^2."""

    name = "tanh"

    def scalar_value(self, a):
        return math.tanh(a)

    def derivatives(self, a, count):
        t = _value(self, a)
        out = [t]
        poly = [0, 1]
        for _ in range(1, count):
            poly = _poly_mul(_poly_derive(poly), [1, 0, -1])
            out.append(_poly_eval(poly, t))
        return out


class _Atan(Primitive):
    """f^(n) = Q_n(a) / (1+a^2)^n with Q_{n+1} = (1+a^2) Q_n' - 2 n a Q_n."""

    name = "atan"

    def scalar_value(self, a):
        return math.atan(a)

    def derivatives(self, a, count):
        out = [_value(self, a)]
        if count > 1:
            u = reciprocal(_add_const(a * a, 1))
            upow = u
            q = [1]
            for n in range(1, count):
                if n > 1:
                    q = _poly_add(
                        _poly_mul(_poly_derive(q), [1, 0, 1]),
                        _poly_mul(_poly_scale(q, -2 * (n - 1)), [0, 1]),
                    )
                    upow = upow * u
                out.append(_poly_eval(q, a) * upow)
        return out


class _Recip(Primitive):
    name = "recip"
    rational_ok = True

    def scalar_value(self, a):
        return reciprocal(a)

    def check_domain(self, a):
        if not a:
            raise DomainError("recip needs a nonzero constant term")

    def derivatives(self, a, count):
        u = reciprocal(a)
        out = [u]
        upow = u
        sign, fact = 1, 1
        for i in range(1, count):
            sign = -sign
            fact *= i
            upow = upow * u
            out.append(_scale(upow, Fraction(sign * fact)))
        return out


class _PowInt(Primitive):
    """Integer power with the exponent as a constant parameter."""

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

    def derivatives(self, a, count, n):
        out = []
        falling = 1
        for i in range(count):
            if i:
                falling *= n - (i - 1)
            if falling == 0:
                out.append(zero_like(a))
                continue
            out.append(_scale(power(a, n - i), Fraction(falling)))
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
