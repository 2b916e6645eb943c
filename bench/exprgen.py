"""Seeded random expression DAGs for the numeric workloads.

An expression is a list of nodes; each node refers to earlier nodes by
index, and the last node is the output.  Every new node takes the previous
node as one operand, so every node is reachable from the output, and takes
a random earlier node (or a constant) as the other, so subexpressions are
shared.  The same node list is rendered to weilad's expression syntax and
evaluated independently by the oracles, so the benchmark never needs the
program to describe its own inputs.

Node forms::

    ("var", i)            input variable i
    ("const", Fraction)   exact decimal literal
    (op, a, b)            op in "+ - * /"
    ("^", a, k)           integer power, k may be negative
    ("call", name, a)     one of the nine primitives
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

VAR_NAMES = ("x", "y", "z", "w")

PRIMITIVE_NAMES = ("exp", "log", "sin", "cos", "tan", "sqrt", "atan", "tanh", "recip")

# log and sqrt get the argument c + u*u, so their domain holds wherever u is defined.
_POSITIVE_ARG = ("log", "sqrt")

# Domain window, checked at the base point.  Every node value stays
# moderate, every denominator and tan's cosine stay away from zero, and tanh
# is not evaluated where it rounds to +-1.  Together these keep the radius of
# convergence of every intermediate series near or above one, so double
# precision carries the high-order coefficients.
MAX_ABS = 20
MIN_DENOM = Fraction(1, 2)
MIN_COS = 0.5
MAX_TANH_ARG = 4

_CONSTS = tuple(Fraction(k, 4) for k in range(1, 13))


def render(nodes) -> str:
    """weilad expression text; identical subtrees render identically, so the
    parser's hash-consing rebuilds the sharing."""
    return render_all(nodes)[-1]


def render_all(nodes) -> list:
    """The text of every node."""
    text = []
    for node in nodes:
        kind = node[0]
        if kind == "var":
            text.append(VAR_NAMES[node[1]])
        elif kind == "const":
            text.append(_decimal(node[1]))
        elif kind == "^":
            text.append("(%s)^%d" % (text[node[1]], node[2]))
        elif kind == "call":
            text.append("%s(%s)" % (node[1], text[node[2]]))
        else:
            text.append("(%s %s %s)" % (text[node[1]], kind, text[node[2]]))
    return text


def _decimal(c: Fraction) -> str:
    # Every constant is k/4, so two decimals are exact.
    s = "%.2f" % c
    assert Fraction(s) == c
    return s


def evaluate(nodes, point, ops):
    """Evaluate the DAG at ``point`` with the arithmetic of ``ops``.

    ``ops`` supplies ``const(c)``, ``mul``, ``inv``, ``power`` and
    ``call(name, v)``; ``+`` and ``-`` are the values' own operators.
    """
    vals = []
    for node in nodes:
        kind = node[0]
        if kind == "var":
            v = point[node[1]]
        elif kind == "const":
            v = ops.const(node[1])
        elif kind == "+":
            v = vals[node[1]] + vals[node[2]]
        elif kind == "-":
            v = vals[node[1]] - vals[node[2]]
        elif kind == "*":
            v = ops.mul(vals[node[1]], vals[node[2]])
        elif kind == "/":
            v = ops.mul(vals[node[1]], ops.inv(vals[node[2]]))
        elif kind == "^":
            v = ops.power(vals[node[1]], node[2])
        else:
            v = ops.call(node[1], vals[node[2]])
        vals.append(v)
    return vals


class ScalarOps:
    """Arithmetic on plain scalars at the base point.

    ``const`` turns a Fraction literal into the scalar type; ``functions``
    supplies the primitives by name (``math`` for floats, ``mpmath`` for the
    oracle).  Exact expressions call only ``recip``.
    """

    def __init__(self, const, functions=math):
        self.const = const
        self.functions = functions

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def power(a, k):
        return a ** k

    def call(self, name, a):
        if name == "recip":
            return 1 / a
        return getattr(self.functions, name)(a)


def _denominators(nodes, vals):
    """Values the program inverts: divisors, bases of negative powers, recip arguments."""
    for node in nodes:
        kind = node[0]
        if kind == "/":
            yield vals[node[2]]
        elif kind == "^" and node[2] < 0:
            yield vals[node[1]]
        elif kind == "call" and node[1] == "recip":
            yield vals[node[2]]


def is_safe(nodes, point, exact: bool) -> bool:
    """Every primitive is in its domain at the point and no value is extreme."""
    try:
        vals = evaluate(nodes, point, ScalarOps(Fraction if exact else float))
    except (ValueError, ZeroDivisionError, OverflowError):
        return False
    if any(abs(v) > MAX_ABS for v in vals):
        return False
    if any(abs(d) < MIN_DENOM for d in _denominators(nodes, vals)):
        return False
    for node in nodes:
        if node[0] != "call":
            continue
        arg = vals[node[2]]
        if node[1] == "tan" and abs(math.cos(arg)) < MIN_COS:
            return False
        if node[1] == "tanh" and abs(arg) > MAX_TANH_ARG:
            return False
    # Distinct nodes must be distinct subexpressions; otherwise f - f and f / f
    # cancel to exact constants that float arithmetic only approximates.
    texts = render_all(nodes)
    return len(set(texts)) == len(texts)


@dataclass(frozen=True)
class Shape:
    """What one expression is made of; only the arrangement is random.

    Fixing the counts fixes the cost: each primitive call, division and
    negative power costs one truncated series expansion.
    """

    calls: tuple   # primitive names, one call each
    ops: str       # binary operators, one node each
    powers: tuple  # integer exponents, one node each


def random_dag(rng, n_vars: int, shape: Shape):
    """One candidate DAG of the given shape; safety is checked by :func:`is_safe`."""
    nodes = [("var", i) for i in range(n_vars)]
    last = 0
    # Fold in every variable first, so the output depends on all of them.
    for i in range(1, n_vars):
        nodes.append((rng.choice("+-*"), last, i))
        last = len(nodes) - 1
    steps = ([("call", name) for name in shape.calls] + [("bin", op) for op in shape.ops]
             + [("pow", k) for k in shape.powers])
    rng.shuffle(steps)
    for kind, arg in steps:
        if kind == "bin":
            if len(nodes) == 1 or rng.random() < 0.3:
                nodes.append(("const", rng.choice(_CONSTS)))
                other = len(nodes) - 1
            else:
                other = rng.randrange(len(nodes) - 1)
            operands = (last, other) if arg == "/" or rng.random() < 0.5 else (other, last)
            nodes.append((arg,) + operands)
        elif kind == "pow":
            nodes.append(("^", last, arg))
        else:
            if arg in _POSITIVE_ARG:
                nodes.append(("*", last, last))
                nodes.append(("const", rng.choice(_CONSTS)))
                nodes.append(("+", len(nodes) - 1, len(nodes) - 2))
                last = len(nodes) - 1
            nodes.append(("call", arg, last))
        last = len(nodes) - 1
    return nodes


def safe_dag(rng, point_fn, n_vars, shape: Shape, exact: bool, tries=1000):
    """Draw (nodes, point) pairs until one is safe; deterministic for a given rng."""
    for _ in range(tries):
        point = point_fn(rng)
        nodes = random_dag(rng, n_vars, shape)
        if is_safe(nodes, point, exact):
            return nodes, point
    raise RuntimeError("no safe expression in %d tries" % tries)
